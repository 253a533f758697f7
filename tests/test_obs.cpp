/// Tests for the observability registry (src/obs): thread binding,
/// enable gating, scoped spans, counters/gauges/histograms with their
/// Prometheus text exposition, thread lanes, and the per-rank trace
/// merger's clock alignment and normalization.
///
/// Each test that records binds a fresh registry of its own
/// (ScopedRegistry), so nothing leaks between tests.

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "obs/obs.hpp"
#include "obs/trace_merge.hpp"

namespace bstc::obs {
namespace {

/// A fresh registry bound to the calling thread for one test.
struct FreshRegistry {
  Registry reg;
  ScopedRegistry bind{reg};
};

TEST(Obs, CurrentIsTheBoundRegistryOrTheProcessInstance) {
  EXPECT_EQ(&Registry::current(), &Registry::instance());
  Registry outer, inner;
  {
    ScopedRegistry bind_outer(outer);
    EXPECT_EQ(&Registry::current(), &outer);
    {
      ScopedRegistry bind_inner(inner);
      EXPECT_EQ(&Registry::current(), &inner);
    }
    EXPECT_EQ(&Registry::current(), &outer);
    // A binding is per thread: a new thread starts unbound.
    Registry* seen = nullptr;
    std::thread t([&] { seen = &Registry::current(); });
    t.join();
    EXPECT_EQ(seen, &Registry::instance());
  }
  EXPECT_EQ(&Registry::current(), &Registry::instance());
}

TEST(Obs, RecordIsANoOpWhileDisabled) {
  FreshRegistry fresh;
  Registry& reg = fresh.reg;
  ASSERT_FALSE(reg.enabled());
  reg.record(Category::kTask, "ignored", 0, 0.0, 1.0);
  { ScopedSpan span(Category::kTask, "also ignored"); }
  EXPECT_TRUE(reg.spans().empty());
}

TEST(Obs, ScopedSpanRecordsIntervalOnTheThreadLane) {
  FreshRegistry fresh;
  Registry& reg = fresh.reg;
  reg.set_enabled(true);
  {
    ScopedSpan span(Category::kCommTx, "tx(test)", 128);
  }
  const std::vector<Span> spans = reg.spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "tx(test)");
  EXPECT_EQ(spans[0].category, Category::kCommTx);
  EXPECT_EQ(spans[0].bytes, 128u);
  EXPECT_EQ(spans[0].lane, thread_lane());
  EXPECT_GE(spans[0].end_s, spans[0].start_s);
}

TEST(Obs, RecordCountedCountsEvenWhileDisabled) {
  Registry reg;
  ASSERT_FALSE(reg.enabled());
  // The counter side of a comm instrumentation point must never be
  // gated on tracing: counters are always on, spans are opt-in.
  reg.record_counted(Category::kCommTx, "tx", 0, 0.0, 1.0, 64,
                     {{"bstc_test_frames_total", 1},
                      {"bstc_test_bytes_total", 64}});
  EXPECT_EQ(reg.counter("bstc_test_frames_total"), 1u);
  EXPECT_EQ(reg.counter("bstc_test_bytes_total"), 64u);
  EXPECT_TRUE(reg.spans().empty());
  reg.set_enabled(true);
  reg.record_counted(Category::kCommTx, "tx", 0, 0.0, 1.0, 64,
                     {{"bstc_test_bytes_total", 64}});
  // Span and counts land in one snapshot together.
  const Registry::Snapshot snap = reg.snapshot();
  ASSERT_EQ(snap.spans.size(), 1u);
  EXPECT_EQ(snap.spans[0].bytes, 64u);
  EXPECT_EQ(snap.counters.at("bstc_test_bytes_total"), 128u);
}

TEST(Obs, ThreadLanesAreStableAndDistinct) {
  const std::uint32_t mine = thread_lane();
  EXPECT_GE(mine, kThreadLaneBase);
  EXPECT_EQ(thread_lane(), mine);  // stable within a thread
  std::uint32_t other = 0;
  std::thread t([&] { other = thread_lane(); });
  t.join();
  EXPECT_NE(other, mine);
}

TEST(Obs, PrometheusTextExposesCountersGaugesAndHistograms) {
  Registry reg;
  reg.counter_add("bstc_test_events_total", 3);
  reg.gauge_set("bstc_test_depth", 7);
  // 2 bins over [0, 1]: samples 0.1 (bin 0) and 0.9 (bin 1), and 2.5
  // above the range — in +Inf and _count only, in no finite bucket.
  reg.observe("bstc_test_latency_seconds", 0.1, 0.0, 1.0, 2);
  reg.observe("bstc_test_latency_seconds", 0.9, 0.0, 1.0, 2);
  reg.observe("bstc_test_latency_seconds", 2.5, 0.0, 1.0, 2);

  const std::string text = prometheus_text(reg);
  EXPECT_NE(text.find("bstc_test_events_total 3\n"), std::string::npos);
  EXPECT_NE(text.find("bstc_test_depth 7\n"), std::string::npos);
  EXPECT_NE(
      text.find("bstc_test_latency_seconds_bucket{le=\"0.5\"} 1\n"),
      std::string::npos);
  EXPECT_NE(text.find("bstc_test_latency_seconds_bucket{le=\"1\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("bstc_test_latency_seconds_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("bstc_test_latency_seconds_sum 3.5\n"),
            std::string::npos);
  EXPECT_NE(text.find("bstc_test_latency_seconds_count 3\n"),
            std::string::npos);
  // Span volume appears only when tracing is on.
  EXPECT_EQ(text.find("bstc_obs_spans_total"), std::string::npos);
  reg.set_enabled(true);
  reg.record(Category::kTask, "t", 0, 0.0, 1.0);
  const std::string traced = prometheus_text(reg);
  EXPECT_NE(traced.find("bstc_obs_spans_total{category=\"task\"} 1\n"),
            std::string::npos);
}

TEST(Obs, RankSectionLabelsEveryLine) {
  Registry reg;
  reg.counter_add("bstc_test_declared_total", 0);  // declared, exposed at 0
  reg.gauge_set("bstc_test_depth", 7);
  reg.observe("bstc_test_latency_seconds", 0.1, 0.0, 1.0, 2);
  reg.set_enabled(true);
  reg.record(Category::kTask, "t", 0, 0.0, 1.0);

  const std::string text = prometheus_text(reg, 2);
  for (const char* line :
       {"bstc_test_declared_total{rank=\"2\"} 0\n",
        "bstc_test_depth{rank=\"2\"} 7\n",
        "bstc_test_latency_seconds_bucket{rank=\"2\",le=\"0.5\"} 1\n",
        "bstc_test_latency_seconds_count{rank=\"2\"} 1\n",
        "bstc_obs_spans_total{rank=\"2\",category=\"task\"} 1\n"}) {
    EXPECT_NE(text.find(line), std::string::npos) << line << "\n" << text;
  }
}

TEST(Obs, MergeAlignsClocksSortsAndNormalizes) {
  // Rank 1's clock runs 10 s ahead of rank 0's: its span at local 10.5
  // happened at 0.5 on rank 0's timeline — *before* rank 0's span at
  // 1.0. After normalization the earliest event is at ts 0.
  RankTrace r0;
  r0.rank = 0;
  r0.spans.push_back(Span{"late", Category::kTask, 0, 1.0, 1.5, 0});
  r0.wire_bytes_sent = 111;
  RankTrace r1;
  r1.rank = 1;
  r1.clock_offset_s = 10.0;
  r1.spans.push_back(Span{"early", Category::kCommTx, 3, 10.5, 10.6, 42});
  r1.lane_names[3] = "net";

  const std::string json = merge_traces_json({r0, r1});
  // Sorted: the corrected-early event is emitted before the late one.
  const std::size_t early = json.find("\"name\":\"early\"");
  const std::size_t late = json.find("\"name\":\"late\"");
  ASSERT_NE(early, std::string::npos);
  ASSERT_NE(late, std::string::npos);
  EXPECT_LT(early, late);
  // Normalized: earliest event at ts 0; the late one 0.5 s = 5e5 us in.
  EXPECT_NE(json.find("\"ts\":0.000"), std::string::npos);
  EXPECT_NE(json.find("\"ts\":500000.000"), std::string::npos);
  // Per-rank process metadata, lanes and wire counters.
  EXPECT_NE(json.find("\"args\":{\"name\":\"rank 0\"}"), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"name\":\"rank 1\"}"), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"name\":\"net\"}"), std::string::npos);
  EXPECT_NE(json.find("\"bytes_sent\":111"), std::string::npos);
  // Span payloads ride along for the exact-accounting cross-check.
  EXPECT_NE(json.find("\"args\":{\"bytes\":42}"), std::string::npos);
  // The early span belongs to pid 1 on lane 3.
  EXPECT_NE(json.find("\"pid\":1,\"tid\":3"), std::string::npos);
}

TEST(Obs, MergeEscapesControlCharsAndKeepsLongNames) {
  // Names reach the merger from peer ranks: any byte may appear and any
  // length. Each must come out whole, escaped, on its own line.
  const std::string long_name(1000, 'x');
  RankTrace rt;
  rt.spans.push_back(Span{long_name, Category::kTask, 0, 0.0, 1.0, 0});
  rt.spans.push_back(
      Span{"ctl\n\t\x01\"\\", Category::kTask, 1, 0.5, 1.0, 0});
  rt.lane_names[1] = "lane\n\t\x01\"";

  const std::string json = merge_traces_json({rt});
  EXPECT_NE(json.find("{\"name\":\"" + long_name + "\",\"cat\":\"task\""),
            std::string::npos);
  EXPECT_NE(json.find("\"name\":\"ctl\\n\\t\\u0001\\\"\\\\\""),
            std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"name\":\"lane\\n\\t\\u0001\\\"\"}}"),
            std::string::npos);
  // No raw control byte except the line breaks between events.
  std::size_t lines = 0;
  for (const char ch : json) {
    if (ch == '\n') {
      ++lines;
      continue;
    }
    EXPECT_GE(static_cast<unsigned char>(ch), 0x20u);
  }
  // Header, 3 process metadata events, 1 lane name, 2 spans, footer.
  EXPECT_EQ(lines, 8u);
}

}  // namespace
}  // namespace bstc::obs
