#pragma once

/// \file metrics.hpp
/// Service-level counters and timing aggregates for ContractionService,
/// plus a TextTable rendering for the CLI / benches.

#include <cstddef>
#include <string>

#include "net/counters.hpp"
#include "service/plan_cache.hpp"
#include "support/table.hpp"

namespace bstc {

/// Snapshot of everything the service has done so far.
struct ServiceMetrics {
  // Admission.
  std::size_t submitted = 0;  ///< accepted into the queue
  std::size_t rejected = 0;   ///< bounced with kQueueFull
  std::size_t completed = 0;  ///< finished with kOk
  std::size_t failed = 0;     ///< finished with an error status

  // Plan cache (mirrors PlanCacheStats at snapshot time).
  PlanCacheStats plan_cache;

  // Sessions.
  std::size_t sessions_opened = 0;
  std::size_t sessions_closed = 0;
  std::size_t iterations = 0;  ///< session iterate() executions
  std::size_t explains = 0;    ///< plan-explain requests served

  // Wire-level traffic of this process (frames, bytes, connect retries,
  // reconnects) — the network layer's view, taken from the global
  // WireCounters at snapshot time. All zero when no net transport ran.
  net::WireCounterSnapshot wire;

  // Shared-memory data plane, taken from the obs registry at snapshot
  // time (process-wide, so the distributed-serve gather can prove
  // one-materialization-per-node across ranks). All zero when neither a
  // store nor a generator cache ran in this process.
  std::size_t b_tiles_generated = 0;  ///< local B materializations
  std::size_t shm_store_builds = 0;   ///< stores this process built
  std::size_t shm_attaches = 0;       ///< read-only segment attaches
  std::size_t shm_swaps = 0;          ///< generation hot-swaps taken
  std::size_t shm_resident_bytes = 0; ///< shm bytes currently mapped
  std::size_t shm_generation = 0;     ///< store generation being served

  // Contraction-program (expr) layer, mirrored from the obs registry at
  // snapshot time — what the distributed gather uses to witness one
  // intermediate build per iteration and the reuse edges actually taken.
  std::size_t expr_programs = 0;              ///< program iterations run
  std::size_t expr_nodes = 0;                 ///< DAG nodes executed
  std::size_t expr_intermediates_built = 0;   ///< shared intermediates built
  std::size_t expr_intermediate_reuse = 0;    ///< consumer hits beyond builds
  std::size_t expr_intermediates_released = 0;///< refcount releases

  // Timing aggregates over completed work (seconds).
  double total_queue_wait_s = 0.0;
  double max_queue_wait_s = 0.0;
  double total_inspect_s = 0.0;  ///< inspector time actually spent (misses)
  double total_execute_s = 0.0;

  double mean_queue_wait_s() const {
    const std::size_t n = completed + failed;
    return n == 0 ? 0.0 : total_queue_wait_s / static_cast<double>(n);
  }
  double mean_execute_s() const {
    return completed == 0 ? 0.0
                          : total_execute_s / static_cast<double>(completed);
  }
};

/// Two-column (metric, value) table of a snapshot.
TextTable metrics_table(const ServiceMetrics& m);

/// Prometheus-style text exposition of a snapshot (`name{labels} value`
/// lines), followed by the obs registry's counters, gauges and latency
/// histograms. Suitable for a file scrape or a /metrics endpoint.
///
/// When `rank >= 0` every bstc_* line gets a `{rank="N"}` label — the
/// per-rank sections of a distributed-serve metrics artifact — and the
/// process-local obs registry text is omitted (it has no rank labels and
/// would collide across sections).
std::string metrics_prometheus(const ServiceMetrics& m, int rank = -1);

}  // namespace bstc
