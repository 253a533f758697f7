#include "service/metrics.hpp"

#include <cstdio>

#include "obs/obs.hpp"
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
  count("wire frames sent", static_cast<std::size_t>(m.wire.frames_sent));
  count("wire frames received",
        static_cast<std::size_t>(m.wire.frames_received));
  count("wire bytes sent", static_cast<std::size_t>(m.wire.bytes_sent));
  count("wire bytes received",
        static_cast<std::size_t>(m.wire.bytes_received));
  count("wire connect retries",
        static_cast<std::size_t>(m.wire.connect_retries));
  count("wire reconnects", static_cast<std::size_t>(m.wire.reconnects));
  count("B tiles generated", m.b_tiles_generated);
  count("shm store builds", m.shm_store_builds);
  count("shm attaches", m.shm_attaches);
  count("shm swaps", m.shm_swaps);
  count("shm resident bytes", m.shm_resident_bytes);
  count("shm generation", m.shm_generation);
  count("expr programs", m.expr_programs);
  count("expr nodes", m.expr_nodes);
  count("expr intermediates built", m.expr_intermediates_built);
  count("expr intermediate reuse", m.expr_intermediate_reuse);
  count("expr intermediates released", m.expr_intermediates_released);
  duration("mean queue wait", m.mean_queue_wait_s());
  duration("max queue wait", m.max_queue_wait_s);
  duration("total inspect", m.total_inspect_s);
  duration("total execute", m.total_execute_s);
  duration("mean execute", m.mean_execute_s());
  return table;
}

std::string metrics_prometheus(const ServiceMetrics& m, int rank) {
  std::string out;
  char labels[32] = "";
  if (rank >= 0) std::snprintf(labels, sizeof labels, "{rank=\"%d\"}", rank);
  const auto line = [&out, &labels](const char* name, double v) {
    char buf[128];
    std::snprintf(buf, sizeof buf, "%s%s %.9g\n", name, labels, v);
    out += buf;
  };
  line("bstc_service_submitted_total", static_cast<double>(m.submitted));
  line("bstc_service_rejected_total", static_cast<double>(m.rejected));
  line("bstc_service_completed_total", static_cast<double>(m.completed));
  line("bstc_service_failed_total", static_cast<double>(m.failed));
  line("bstc_plan_cache_hits_total", static_cast<double>(m.plan_cache.hits));
  line("bstc_plan_cache_misses_total",
       static_cast<double>(m.plan_cache.misses));
  line("bstc_plan_cache_evictions_total",
       static_cast<double>(m.plan_cache.evictions));
  line("bstc_plan_cache_failed_builds_total",
       static_cast<double>(m.plan_cache.failed_builds));
  line("bstc_plan_cache_size", static_cast<double>(m.plan_cache.size));
  line("bstc_sessions_opened_total", static_cast<double>(m.sessions_opened));
  line("bstc_sessions_closed_total", static_cast<double>(m.sessions_closed));
  line("bstc_session_iterations_total", static_cast<double>(m.iterations));
  line("bstc_plan_explains_total", static_cast<double>(m.explains));
  line("bstc_wire_frames_sent_total",
       static_cast<double>(m.wire.frames_sent));
  line("bstc_wire_frames_received_total",
       static_cast<double>(m.wire.frames_received));
  line("bstc_wire_bytes_sent_total", static_cast<double>(m.wire.bytes_sent));
  line("bstc_wire_bytes_received_total",
       static_cast<double>(m.wire.bytes_received));
  line("bstc_wire_connect_retries_total",
       static_cast<double>(m.wire.connect_retries));
  line("bstc_wire_reconnects_total", static_cast<double>(m.wire.reconnects));
  if (rank >= 0) {
    // Shared-memory data plane, per rank. Unlabeled output (rank < 0)
    // already carries these via the obs registry text below; emitting
    // both would duplicate the metric names.
    line("bstc_b_tiles_generated_total",
         static_cast<double>(m.b_tiles_generated));
    line("bstc_shm_store_builds_total",
         static_cast<double>(m.shm_store_builds));
    line("bstc_shm_attaches_total", static_cast<double>(m.shm_attaches));
    line("bstc_shm_swaps_total", static_cast<double>(m.shm_swaps));
    line("bstc_shm_resident_bytes",
         static_cast<double>(m.shm_resident_bytes));
    line("bstc_shm_generation", static_cast<double>(m.shm_generation));
    // Contraction-program layer, per rank (unlabeled output carries
    // these via the obs registry text below, like the shm block).
    line("bstc_expr_programs_total", static_cast<double>(m.expr_programs));
    line("bstc_expr_nodes_total", static_cast<double>(m.expr_nodes));
    line("bstc_expr_intermediates_built_total",
         static_cast<double>(m.expr_intermediates_built));
    line("bstc_expr_intermediate_reuse_total",
         static_cast<double>(m.expr_intermediate_reuse));
    line("bstc_expr_intermediates_released_total",
         static_cast<double>(m.expr_intermediates_released));
  }
  line("bstc_service_queue_wait_seconds_total", m.total_queue_wait_s);
  line("bstc_service_queue_wait_seconds_max", m.max_queue_wait_s);
  line("bstc_service_inspect_seconds_total", m.total_inspect_s);
  line("bstc_service_execute_seconds_total", m.total_execute_s);
  if (rank < 0) out += obs::prometheus_text(obs::Registry::instance());
  return out;
}

}  // namespace bstc
