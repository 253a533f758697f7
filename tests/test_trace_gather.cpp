/// Integration test of the distributed trace gather: four real worker
/// processes run the 2x2 grid with tracing on, rank 0 merges every
/// rank's spans into one Chrome/Perfetto JSON, and the parent asserts
/// the merged file's structure — one process lane per rank, monotone
/// normalized timestamps, and per-rank comm span bytes that equal the
/// embedded WireCounters totals exactly (the snapshot and the span log
/// commit under one registry lock, so the equality is exact even with
/// frames in flight at snapshot time).
///
/// Named NetIntegrationTrace so the ASan CI job picks it up alongside
/// NetIntegration; fork-based, so it must not run under TSan.

#include <gtest/gtest.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "net/launch.hpp"
#include "support/error.hpp"

namespace bstc::net {
namespace {

struct Child {
  pid_t pid = -1;
  bool reaped = false;
  int status = 0;
};

void spawn_worker(std::vector<Child>& children, const NetProblemSpec& spec,
                  const std::string& trace_out, const std::string& host,
                  std::uint16_t port) {
  const pid_t pid = fork();
  if (pid < 0) throw Error("fork failed");
  if (pid == 0) {
    int rc = 3;
    try {
      WorkerOptions w;
      w.host = host;
      w.port = port;
      w.spec = spec;
      w.trace_out = trace_out;
      rc = run_worker(w);
    } catch (...) {
      rc = 3;
    }
    _exit(rc);
  }
  children.push_back(Child{pid, false, 0});
}

int poll_dead(std::vector<Child>& children) {
  int dead = 0;
  for (Child& c : children) {
    if (!c.reaped && waitpid(c.pid, &c.status, WNOHANG) == c.pid) {
      c.reaped = true;
    }
    if (c.reaped) ++dead;
  }
  return dead;
}

void reap_all(std::vector<Child>& children) {
  for (Child& c : children) {
    if (!c.reaped) {
      waitpid(c.pid, &c.status, 0);
      c.reaped = true;
    }
  }
}

/// Value of `"key":` in a merged-trace line (quoted string or number).
std::string field(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return "";
  std::size_t start = at + needle.size();
  if (start < line.size() && line[start] == '"') {
    const std::size_t end = line.find('"', start + 1);
    return line.substr(start + 1, end - start - 1);
  }
  std::size_t end = start;
  while (end < line.size() && line[end] != ',' && line[end] != '}') ++end;
  return line.substr(start, end - start);
}

struct RankSummary {
  bool named = false;
  std::uint64_t expect_tx = 0, expect_rx = 0;
  std::uint64_t sum_tx = 0, sum_rx = 0;
  std::size_t task_spans = 0, comm_spans = 0, phase_spans = 0;
};

TEST(NetIntegrationTrace, FourRankGatherMergesOneConsistentTimeline) {
  const std::string trace_file = testing::TempDir() + "bstc_trace_gather_" +
                                 std::to_string(getpid()) + ".json";
  std::remove(trace_file.c_str());

  NetProblemSpec spec;  // defaults: 96 x 480 x 480, np = 4, p = 2
  std::vector<Child> children;
  LaunchOptions opts;
  opts.spec = spec;
  LaunchReport report;
  try {
    report = run_launcher(
        opts,
        [&](const std::string& host, std::uint16_t port, int) {
          spawn_worker(children, spec, trace_file, host, port);
        },
        [&] { return poll_dead(children); });
  } catch (...) {
    reap_all(children);
    throw;
  }
  reap_all(children);

  ASSERT_EQ(children.size(), 4u);
  for (const Child& c : children) {
    ASSERT_TRUE(WIFEXITED(c.status));
    ASSERT_EQ(WEXITSTATUS(c.status), 0);
  }
  // The run itself must still be correct with tracing on.
  EXPECT_TRUE(report.ok);

  std::ifstream in(trace_file);
  ASSERT_TRUE(in.good()) << "rank 0 did not write " << trace_file;

  std::map<long, RankSummary> ranks;
  std::string line;
  bool header = false, footer = false;
  double last_ts = -1.0;
  std::size_t events = 0;
  while (std::getline(in, line)) {
    if (line.rfind("{\"traceEvents\":[", 0) == 0) {
      header = true;
      continue;
    }
    if (line.rfind("]}", 0) == 0) {
      footer = true;
      continue;
    }
    const std::string ph = field(line, "ph");
    if (ph.empty()) continue;
    const long pid = std::strtol(field(line, "pid").c_str(), nullptr, 10);
    RankSummary& r = ranks[pid];
    if (ph == "M") {
      const std::string name = field(line, "name");
      if (name == "process_name") r.named = true;
      if (name == "wire_counters") {
        r.expect_tx = std::strtoull(field(line, "bytes_sent").c_str(),
                                    nullptr, 10);
        r.expect_rx = std::strtoull(field(line, "bytes_received").c_str(),
                                    nullptr, 10);
      }
      continue;
    }
    ASSERT_EQ(ph, "X") << line;
    ++events;
    const double ts = std::strtod(field(line, "ts").c_str(), nullptr);
    const double dur = std::strtod(field(line, "dur").c_str(), nullptr);
    // Normalized to rank 0's timeline and shifted so the earliest event
    // is at zero: after offset correction nothing may be negative and
    // the merge emits events in timestamp order.
    EXPECT_GE(ts, 0.0) << line;
    EXPECT_GE(dur, 0.0) << line;
    EXPECT_GE(ts, last_ts) << line;
    last_ts = ts;
    const std::string cat = field(line, "cat");
    const std::uint64_t bytes =
        std::strtoull(field(line, "bytes").c_str(), nullptr, 10);
    if (cat == "task") ++r.task_spans;
    if (cat == "phase") ++r.phase_spans;
    if (cat == "comm.tx") {
      ++r.comm_spans;
      r.sum_tx += bytes;
    }
    if (cat == "comm.rx") {
      ++r.comm_spans;
      r.sum_rx += bytes;
    }
  }
  EXPECT_TRUE(header);
  EXPECT_TRUE(footer);
  EXPECT_GT(events, 0u);

  // One process lane per rank, 0..3, each carrying real work.
  ASSERT_EQ(ranks.size(), 4u);
  for (long rank = 0; rank < 4; ++rank) {
    ASSERT_TRUE(ranks.contains(rank)) << "rank " << rank << " missing";
    const RankSummary& r = ranks[rank];
    EXPECT_TRUE(r.named) << "rank " << rank;
    EXPECT_GT(r.task_spans, 0u) << "rank " << rank;
    EXPECT_GT(r.comm_spans, 0u) << "rank " << rank;
    EXPECT_GT(r.phase_spans, 0u) << "rank " << rank;
    // The exact-accounting check: summed comm span bytes equal the wire
    // counter totals embedded at snapshot time — no tolerance.
    EXPECT_GT(r.expect_tx, 0u) << "rank " << rank;
    EXPECT_GT(r.expect_rx, 0u) << "rank " << rank;
    EXPECT_EQ(r.sum_tx, r.expect_tx) << "rank " << rank;
    EXPECT_EQ(r.sum_rx, r.expect_rx) << "rank " << rank;
  }

  std::remove(trace_file.c_str());
}

}  // namespace
}  // namespace bstc::net
