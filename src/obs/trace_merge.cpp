#include "obs/trace_merge.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <limits>

#include "support/error.hpp"

namespace bstc::obs {
namespace {

/// Append `s` as the body of a JSON string. Span and lane names arrive
/// from peer ranks, so quotes, backslashes and every control byte are
/// escaped: the file stays valid JSON, one event per line, for any name.
void append_escaped(std::string& out, const std::string& s) {
  for (const char ch : s) {
    const auto byte = static_cast<unsigned char>(ch);
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (ch == '\n') {
      out += "\\n";
    } else if (ch == '\t') {
      out += "\\t";
    } else if (byte < 0x20) {
      char hex[8];
      std::snprintf(hex, sizeof hex, "\\u%04x", byte);
      out += hex;
    } else {
      out += ch;
    }
  }
}

}  // namespace

std::string merge_traces_json(const std::vector<RankTrace>& ranks) {
  // Corrected timestamps, then normalize so the earliest span is ts 0.
  struct Event {
    std::uint32_t pid = 0;
    const Span* span = nullptr;
    double ts_s = 0.0;
  };
  std::vector<Event> events;
  double min_ts = std::numeric_limits<double>::infinity();
  for (const RankTrace& rt : ranks) {
    for (const Span& s : rt.spans) {
      const double ts = s.start_s - rt.clock_offset_s;
      min_ts = std::min(min_ts, ts);
      events.push_back(Event{rt.rank, &s, ts});
    }
  }
  if (events.empty()) min_ts = 0.0;
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    return a.ts_s != b.ts_s ? a.ts_s < b.ts_s : a.pid < b.pid;
  });

  std::string out = "{\"traceEvents\":[\n";
  // Holds the fixed-width fields only; names are appended to `out`
  // directly, so no name length can truncate an event.
  char buf[512];
  bool first = true;
  const auto next_event = [&] {
    if (!first) out += ",\n";
    first = false;
  };
  const auto emit = [&](const char* line) {
    next_event();
    out += line;
  };
  for (const RankTrace& rt : ranks) {
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%u,"
                  "\"args\":{\"name\":\"rank %u\"}}",
                  rt.rank, rt.rank);
    emit(buf);
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"process_sort_index\",\"ph\":\"M\",\"pid\":%u,"
                  "\"args\":{\"sort_index\":%u}}",
                  rt.rank, rt.rank);
    emit(buf);
    std::snprintf(
        buf, sizeof buf,
        "{\"name\":\"wire_counters\",\"ph\":\"M\",\"pid\":%u,\"args\":{"
        "\"frames_sent\":%llu,\"frames_received\":%llu,"
        "\"bytes_sent\":%llu,\"bytes_received\":%llu}}",
        rt.rank, static_cast<unsigned long long>(rt.wire_frames_sent),
        static_cast<unsigned long long>(rt.wire_frames_received),
        static_cast<unsigned long long>(rt.wire_bytes_sent),
        static_cast<unsigned long long>(rt.wire_bytes_received));
    emit(buf);
    for (const auto& [lane, name] : rt.lane_names) {
      std::snprintf(buf, sizeof buf,
                    "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%u,"
                    "\"tid\":%u,\"args\":{\"name\":\"",
                    rt.rank, lane);
      emit(buf);
      append_escaped(out, name);
      out += "\"}}";
    }
  }
  for (const Event& e : events) {
    const Span& s = *e.span;
    next_event();
    out += "{\"name\":\"";
    append_escaped(out, s.name);
    std::snprintf(
        buf, sizeof buf,
        "\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":%u,"
        "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"bytes\":%llu}}",
        category_name(s.category), e.pid, s.lane, (e.ts_s - min_ts) * 1e6,
        (s.end_s - s.start_s) * 1e6, static_cast<unsigned long long>(s.bytes));
    out += buf;
  }
  out += "\n]}\n";
  return out;
}

void write_merged_trace(const std::string& path,
                        const std::vector<RankTrace>& ranks) {
  std::ofstream out(path);
  BSTC_REQUIRE(out.good(), "cannot open " + path + " for writing");
  out << merge_traces_json(ranks);
  BSTC_REQUIRE(out.good(), "failed writing " + path);
}

}  // namespace bstc::obs
