#include "runtime/scheduler.hpp"

#include <atomic>
#include <condition_variable>
#include <deque>
#include <exception>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/obs.hpp"
#include "support/error.hpp"
#include "support/timer.hpp"

namespace bstc {
namespace {

/// Shared state of one scheduler run.
struct RunState {
  explicit RunState(std::uint32_t queues)
      : ready(queues), executed_per_queue(queues, 0) {}

  std::mutex mutex;
  std::condition_variable cv;
  std::vector<std::deque<TaskId>> ready;
  std::vector<std::size_t> executed_per_queue;
  std::size_t remaining = 0;  ///< tasks not yet executed
  bool aborted = false;
  std::exception_ptr error;
};

}  // namespace

SchedulerStats run_graph(TaskGraph& graph, std::uint32_t num_queues) {
  BSTC_REQUIRE(num_queues > 0, "need at least one queue");
  BSTC_REQUIRE(graph.is_acyclic(), "task graph has a cycle");
  for (std::size_t t = 0; t < graph.size(); ++t) {
    BSTC_REQUIRE(graph.task(static_cast<TaskId>(t)).queue < num_queues,
                 "task bound to a non-existent queue");
  }

  Timer timer;
  obs::Registry& reg = obs::Registry::instance();
  const bool trace = reg.enabled();
  if (trace) {
    for (std::uint32_t q = 0; q < num_queues; ++q) {
      reg.name_lane(q, "queue " + std::to_string(q));
    }
  }
  RunState state(num_queues);
  std::vector<std::uint32_t> deps(graph.size());
  {
    std::lock_guard lock(state.mutex);
    state.remaining = graph.size();
    for (std::size_t t = 0; t < graph.size(); ++t) {
      const auto id = static_cast<TaskId>(t);
      deps[t] = graph.task(id).predecessors;
      if (deps[t] == 0) state.ready[graph.task(id).queue].push_back(id);
    }
  }

  auto worker = [&graph, &state, &deps, &reg, trace](std::uint32_t queue) {
    std::unique_lock lock(state.mutex);
    while (true) {
      state.cv.wait(lock, [&] {
        return state.aborted || state.remaining == 0 ||
               !state.ready[queue].empty();
      });
      if (state.aborted || state.remaining == 0) return;
      const TaskId id = state.ready[queue].front();
      state.ready[queue].pop_front();
      lock.unlock();

      try {
        const TaskNode& node = graph.task(id);
        const double start = trace ? reg.now() : 0.0;
        if (node.body) node.body();
        if (trace) {
          reg.record(obs::Category::kTask, node.name, queue, start, reg.now());
        }
      } catch (...) {
        lock.lock();
        if (!state.error) state.error = std::current_exception();
        state.aborted = true;
        state.cv.notify_all();
        return;
      }

      lock.lock();
      ++state.executed_per_queue[queue];
      --state.remaining;
      bool woke_other = false;
      for (const TaskId s : graph.task(id).successors) {
        if (--deps[s] == 0) {
          state.ready[graph.task(s).queue].push_back(s);
          if (graph.task(s).queue != queue) woke_other = true;
        }
      }
      if (state.remaining == 0 || woke_other) state.cv.notify_all();
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(num_queues);
  for (std::uint32_t qid = 0; qid < num_queues; ++qid) {
    threads.emplace_back(worker, qid);
  }
  for (std::thread& t : threads) t.join();

  if (state.error) std::rethrow_exception(state.error);
  BSTC_CHECK(state.remaining == 0);

  SchedulerStats stats;
  stats.wall_seconds = timer.elapsed_s();
  stats.per_queue = state.executed_per_queue;
  for (const std::size_t n : stats.per_queue) stats.tasks_executed += n;
  return stats;
}

}  // namespace bstc
