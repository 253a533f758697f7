#pragma once

/// \file metrics.hpp
/// Service-level counters and timing aggregates for ContractionService,
/// plus a TextTable rendering for the CLI / benches.

#include <cstddef>
#include <string>

#include "obs/obs.hpp"
#include "service/plan_cache.hpp"
#include "support/table.hpp"

namespace bstc {

/// Snapshot of what the service itself has done so far. Counts the
/// service does not own (wire traffic, B generation, the shm data plane,
/// contraction programs) live in its obs registry
/// (ContractionService::registry()).
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

/// Prometheus-style text exposition of one rank: the registry's counters,
/// gauges and latency histograms (obs::prometheus_text), followed by the
/// service's own lines (`name{labels} value`). Counts render exactly.
/// Suitable for a file scrape or a /metrics endpoint.
///
/// When `rank >= 0` every line gets a `rank="N"` label — one rank's
/// section of a distributed-serve metrics artifact.
std::string metrics_prometheus(const ServiceMetrics& m,
                               const obs::Registry& reg, int rank = -1);

}  // namespace bstc
