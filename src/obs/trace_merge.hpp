#pragma once

/// \file trace_merge.hpp
/// Merge per-rank span traces into one Chrome/Perfetto JSON.
///
/// Each rank becomes a Chrome-tracing "process" (pid = rank) and each
/// lane one of its "threads". Span timestamps are shifted by the rank's
/// measured clock offset onto rank 0's timeline, then the whole trace is
/// normalized so the earliest event lands at ts = 0 (rank epochs are
/// process start times, so a raw shift could go negative).
///
/// Every rank also carries its wire totals (the registry's
/// `bstc_wire_*_total` counters), emitted as a `wire_counters` metadata
/// event; tools/trace_check cross-checks the summed comm-span bytes
/// against them — the exact-accounting discipline the launcher already
/// applies to A/C payloads, extended to every frame on the wire.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/obs.hpp"

namespace bstc::obs {

/// One rank's contribution to the merged trace.
struct RankTrace {
  std::uint32_t rank = 0;
  /// This rank's clock minus rank 0's clock (seconds): a span at local
  /// time t happened at t - clock_offset_s on rank 0's timeline.
  double clock_offset_s = 0.0;
  std::vector<Span> spans;
  std::map<std::uint32_t, std::string> lane_names;
  // Wire totals at snapshot time, for byte-sum cross-checking.
  std::uint64_t wire_frames_sent = 0;
  std::uint64_t wire_frames_received = 0;
  std::uint64_t wire_bytes_sent = 0;
  std::uint64_t wire_bytes_received = 0;
};

/// One rank's trace from its registry: spans, lane names and wire totals
/// read under one lock, so the span byte sums equal the totals exactly.
RankTrace rank_trace(const Registry& reg, std::uint32_t rank);

/// Serialize the merged trace ({"traceEvents": [...]}; one event per
/// line). Events are sorted by corrected timestamp.
std::string merge_traces_json(const std::vector<RankTrace>& ranks);

/// Write merge_traces_json() to a file. Throws bstc::Error on I/O
/// failure.
void write_merged_trace(const std::string& path,
                        const std::vector<RankTrace>& ranks);

}  // namespace bstc::obs
