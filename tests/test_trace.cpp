/// Tests for task tracing: the scheduler records every task body as an
/// obs span on its queue lane, and the engine's traced run yields one
/// task span per executed task.
///
/// The registry is process-global, so every test that enables it cleans
/// up with clear() + set_enabled(false).

#include <gtest/gtest.h>

#include "bsm/block_sparse_matrix.hpp"
#include "core/engine.hpp"
#include "obs/obs.hpp"
#include "runtime/scheduler.hpp"
#include "shape/shape_algebra.hpp"

namespace bstc {
namespace {

struct TracingOn {
  TracingOn() {
    obs::Registry::instance().clear();
    obs::Registry::instance().set_enabled(true);
  }
  ~TracingOn() {
    obs::Registry::instance().clear();
    obs::Registry::instance().set_enabled(false);
  }
};

std::vector<obs::Span> task_spans() {
  std::vector<obs::Span> out;
  for (obs::Span& s : obs::Registry::instance().spans()) {
    if (s.category == obs::Category::kTask && s.lane < obs::kThreadLaneBase) {
      out.push_back(std::move(s));
    }
  }
  return out;
}

TEST(Trace, SchedulerRecordsEveryTask) {
  {
    TracingOn tracing;
    TaskGraph graph;
    const TaskId a = graph.add_task("first", 0, [] {});
    const TaskId b = graph.add_task("second", 1, [] {});
    graph.add_edge(a, b);
    run_graph(graph, 2);
    const std::vector<obs::Span> spans = task_spans();
    ASSERT_EQ(spans.size(), 2u);
    // Order of collection may vary; find by name.
    const obs::Span* first = nullptr;
    const obs::Span* second = nullptr;
    for (const obs::Span& s : spans) {
      if (s.name == "first") first = &s;
      if (s.name == "second") second = &s;
    }
    ASSERT_NE(first, nullptr);
    ASSERT_NE(second, nullptr);
    EXPECT_EQ(first->lane, 0u);
    EXPECT_EQ(second->lane, 1u);
    EXPECT_LE(first->start_s, first->end_s);
    EXPECT_LE(second->start_s, second->end_s);
    EXPECT_LE(first->end_s, second->start_s);
    const auto lanes = obs::Registry::instance().lane_names();
    EXPECT_EQ(lanes.at(0), "queue 0");
    EXPECT_EQ(lanes.at(1), "queue 1");
  }

  // With the registry disabled the scheduler records nothing.
  obs::Registry::instance().clear();
  TaskGraph graph;
  graph.add_task("untraced", 0, [] {});
  run_graph(graph, 1);
  EXPECT_TRUE(obs::Registry::instance().spans().empty());
  EXPECT_TRUE(obs::Registry::instance().lane_names().empty());
}

TEST(Trace, EngineRecordsOneTaskSpanPerExecutedTask) {
  Rng rng(3);
  const Tiling mt = Tiling::uniform(24, 8);
  const Tiling kt = Tiling::uniform(48, 8);
  const Tiling nt = Tiling::uniform(48, 8);
  const Shape a_shape = Shape::dense(mt, kt);
  const Shape b_shape = Shape::dense(kt, nt);
  const Shape c_shape = contract_shape(a_shape, b_shape);
  const BlockSparseMatrix a = BlockSparseMatrix::random(a_shape, rng);

  TracingOn tracing;
  MachineModel machine = MachineModel::summit_gpus(2);
  machine.node.gpu.memory_bytes = 1e5;
  const EngineResult result =
      contract(a, b_shape, random_tile_generator(b_shape, 9), c_shape,
               nullptr, machine, EngineConfig{});
  const std::vector<obs::Span> spans = task_spans();
  EXPECT_EQ(spans.size(), result.tasks_executed);
  const auto has_prefix = [&spans](const std::string& prefix) {
    for (const obs::Span& s : spans) {
      if (s.name.rfind(prefix, 0) == 0) return true;
    }
    return false;
  };
  EXPECT_TRUE(has_prefix("gemmbatch("));
  EXPECT_TRUE(has_prefix("chunkload("));
  EXPECT_TRUE(has_prefix("store("));

  // Every task name must carry balanced parentheses — malformed names
  // (a "chunkload(n0,b1,2" with no closing paren) corrupt downstream
  // trace tooling silently.
  for (const obs::Span& s : spans) {
    EXPECT_LE(s.start_s, s.end_s);
    int depth = 0;
    for (const char ch : s.name) {
      if (ch == '(') ++depth;
      if (ch == ')') --depth;
      ASSERT_GE(depth, 0) << "unbalanced parens in task name: " << s.name;
    }
    EXPECT_EQ(depth, 0) << "unbalanced parens in task name: " << s.name;
  }
}

}  // namespace
}  // namespace bstc
