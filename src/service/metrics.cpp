#include "service/metrics.hpp"

#include <cstdio>

#include "support/format.hpp"

namespace bstc {

TextTable metrics_table(const ServiceMetrics& m) {
  TextTable table({"metric", "value"});
  const auto count = [&](const char* name, std::size_t v) {
    table.add_row({name, fmt_group(static_cast<std::int64_t>(v))});
  };
  const auto duration = [&](const char* name, double v) {
    table.add_row({name, fmt_duration(v)});
  };
  count("submitted", m.submitted);
  count("rejected", m.rejected);
  count("completed", m.completed);
  count("failed", m.failed);
  count("plan cache hits", m.plan_cache.hits);
  count("plan cache misses", m.plan_cache.misses);
  count("plan cache evictions", m.plan_cache.evictions);
  count("plan builds failed", m.plan_cache.failed_builds);
  count("plans cached", m.plan_cache.size);
  count("sessions opened", m.sessions_opened);
  count("sessions closed", m.sessions_closed);
  count("session iterations", m.iterations);
  count("plan explains", m.explains);
  duration("mean queue wait", m.mean_queue_wait_s());
  duration("max queue wait", m.max_queue_wait_s);
  duration("total inspect", m.total_inspect_s);
  duration("total execute", m.total_execute_s);
  duration("mean execute", m.mean_execute_s());
  return table;
}

std::string metrics_prometheus(const ServiceMetrics& m,
                               const obs::Registry& reg, int rank) {
  std::string out = obs::prometheus_text(reg, rank);
  const std::string labels =
      rank >= 0 ? "{rank=\"" + std::to_string(rank) + "\"}" : "";
  const auto count = [&](const char* name, std::size_t v) {
    out += name + labels + " " + std::to_string(v) + "\n";
  };
  const auto seconds = [&](const char* name, double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    out += name + labels + " " + buf + "\n";
  };
  count("bstc_service_submitted_total", m.submitted);
  count("bstc_service_rejected_total", m.rejected);
  count("bstc_service_completed_total", m.completed);
  count("bstc_service_failed_total", m.failed);
  count("bstc_plan_cache_hits_total", m.plan_cache.hits);
  count("bstc_plan_cache_misses_total", m.plan_cache.misses);
  count("bstc_plan_cache_evictions_total", m.plan_cache.evictions);
  count("bstc_plan_cache_failed_builds_total", m.plan_cache.failed_builds);
  count("bstc_plan_cache_size", m.plan_cache.size);
  count("bstc_sessions_opened_total", m.sessions_opened);
  count("bstc_sessions_closed_total", m.sessions_closed);
  count("bstc_session_iterations_total", m.iterations);
  count("bstc_plan_explains_total", m.explains);
  seconds("bstc_service_queue_wait_seconds_total", m.total_queue_wait_s);
  seconds("bstc_service_queue_wait_seconds_max", m.max_queue_wait_s);
  seconds("bstc_service_inspect_seconds_total", m.total_inspect_s);
  seconds("bstc_service_execute_seconds_total", m.total_execute_s);
  return out;
}

}  // namespace bstc
