/// Tests for per-rank metrics: every rank entry point owns its obs
/// registry, and the front reads a rank's counters by name from that
/// rank's labelled exposition.
///
/// The serve workers here run on threads of this process (TSan-safe, no
/// fork), the case a process-wide registry with baselines cannot get
/// right: sibling ranks count concurrently into one process.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "net/serve.hpp"
#include "net/socket.hpp"
#include "obs/obs.hpp"
#include "service/local_service.hpp"
#include "service/metrics.hpp"
#include "service/serve_api.hpp"

namespace bstc::net {
namespace {

TEST(RankMetrics, LabelledExpositionRendersCountsExactly) {
  // A count above 2^30 must survive the text round trip digit for digit:
  // the front parses per-rank counters from this text.
  constexpr std::uint64_t kBig = 1234567891;
  obs::Registry reg;
  reg.counter_add("bstc_wire_bytes_sent_total", kBig);
  ServiceMetrics m;
  m.submitted = kBig;

  ServeRankMetrics rank;
  rank.rank = 3;
  rank.prometheus = metrics_prometheus(m, reg, 3);
  EXPECT_NE(rank.prometheus.find(
                "bstc_wire_bytes_sent_total{rank=\"3\"} 1234567891\n"),
            std::string::npos)
      << rank.prometheus;
  EXPECT_NE(rank.prometheus.find(
                "bstc_service_submitted_total{rank=\"3\"} 1234567891\n"),
            std::string::npos)
      << rank.prometheus;
  EXPECT_EQ(rank.metric("bstc_wire_bytes_sent_total"), kBig);
  EXPECT_EQ(rank.metric("bstc_service_submitted_total"), kBig);
  EXPECT_EQ(rank.metric("bstc_not_exposed_total"), 0u);
}

ServeRequest contract_request() {
  ServeRequest req;
  req.kind = ServeRequestKind::kContract;
  req.spec.m = 32;
  req.spec.k = 128;
  req.spec.n = 128;
  req.spec.density = 0.5;
  req.spec.tile_lo = 8;
  req.spec.tile_hi = 24;
  req.spec.seed = 11;
  req.spec.gpus = 1;
  req.want_c = false;
  return req;
}

ServeRequest program_request() {
  ServeRequest req = contract_request();
  req.kind = ServeRequestKind::kProgramRun;
  req.spec.seed = 12;
  req.program = "abcd";
  req.a_seed = 5;
  return req;
}

TEST(RankMetrics, ThreadedServeWorkersReportOnlyTheirOwnWork) {
  // What each request costs, served alone by one in-process service with
  // a registry of its own.
  std::uint64_t contract_tiles = 0, program_tiles = 0;
  {
    obs::Registry ref;
    obs::ScopedRegistry bind(ref);
    LocalService local;
    ServeOutcome out;
    ASSERT_EQ(serve_dispatch(local, contract_request(), out),
              ServiceStatus::kOk)
        << out.error;
    contract_tiles = ref.counter("bstc_b_tiles_generated_total");
    ASSERT_EQ(serve_dispatch(local, program_request(), out),
              ServiceStatus::kOk)
        << out.error;
    program_tiles = ref.counter("bstc_b_tiles_generated_total") -
                    contract_tiles;
    ASSERT_EQ(ref.counter("bstc_expr_programs_total"), 1u);
  }
  ASSERT_GT(contract_tiles, 0u);
  ASSERT_GT(program_tiles, 0u);

  Listener listener("127.0.0.1", 0);
  const std::uint16_t port = listener.local_port();
  std::vector<std::thread> workers;
  for (int i = 0; i < 2; ++i) {
    workers.emplace_back([port] {
      ServeWorkerOptions opts;
      opts.port = port;
      run_serve_worker(opts);
    });
  }
  {
    ServeRouter router(accept_serve_workers(listener, 2));
    // Both begun before either finishes: the least-loaded pick sends the
    // contract to rank 1 and the program to rank 2.
    const ServeRouter::Ticket contract =
        router.begin(to_request_msg(contract_request(), 0));
    const ServeRouter::Ticket program =
        router.begin(to_request_msg(program_request(), 0));
    ASSERT_EQ(contract.rank, 1);
    ASSERT_EQ(program.rank, 2);
    ResponseMsg resp;
    ASSERT_EQ(router.finish(contract, resp), ServiceStatus::kOk) << resp.error;
    ASSERT_EQ(router.finish(program, resp), ServiceStatus::kOk) << resp.error;

    const std::vector<ServeRankMetrics> ranks = router.gather_metrics();
    ASSERT_EQ(ranks.size(), 2u);
    std::uint64_t tiles = 0, programs = 0;
    for (const ServeRankMetrics& r : ranks) {
      tiles += r.metric("bstc_b_tiles_generated_total");
      programs += r.metric("bstc_expr_programs_total");
      const bool ran_contract = r.rank == contract.rank;
      EXPECT_EQ(r.metric("bstc_b_tiles_generated_total"),
                ran_contract ? contract_tiles : program_tiles)
          << "rank " << r.rank;
      EXPECT_EQ(r.metric("bstc_expr_programs_total"), ran_contract ? 0u : 1u)
          << "rank " << r.rank;
      EXPECT_EQ(r.metric("bstc_service_completed_total"), 1u)
          << "rank " << r.rank;
    }
    EXPECT_EQ(tiles, contract_tiles + program_tiles);
    EXPECT_EQ(programs, 1u);
    router.shutdown();
  }
  for (std::thread& t : workers) t.join();
}

}  // namespace
}  // namespace bstc::net
