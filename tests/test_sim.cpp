/// Tests for the performance simulator: analytic lower bounds, overlap
/// behaviour, scaling trends and consistency with plan statistics.

#include <gtest/gtest.h>

#include "obs/obs.hpp"
#include "plan/builder.hpp"
#include "shape/shape_algebra.hpp"
#include "sim/simulator.hpp"
#include "support/error.hpp"

namespace bstc {
namespace {

struct SimProblem {
  SimProblem(Index m, Index k, Index n, double da, double db,
             std::uint64_t seed, Index lo = 512, Index hi = 2048)
      : rng(seed),
        mt(Tiling::random_uniform(m, lo, hi, rng)),
        kt(Tiling::random_uniform(k, lo, hi, rng)),
        nt(Tiling::random_uniform(n, lo, hi, rng)),
        a(Shape::random(mt, kt, da, rng)),
        b(Shape::random(kt, nt, db, rng)),
        c(contract_shape(a, b)) {}

  Rng rng;
  Tiling mt, kt, nt;
  Shape a, b, c;
};

TEST(Simulator, MakespanRespectsComputeLowerBound) {
  SimProblem p(12000, 48000, 48000, 1.0, 1.0, 3);
  const MachineModel machine = MachineModel::summit(2);
  PlanConfig cfg;
  const SimResult r = simulate_contraction(p.a, p.b, p.c, machine, cfg);
  const ContractionStats st = contraction_stats(p.a, p.b, p.c);
  EXPECT_NEAR(r.total_flops, st.flops, 1e-6 * st.flops);
  // Makespan can never beat flops over aggregate peak.
  EXPECT_GE(r.makespan_s, st.flops / machine.aggregate_gpu_peak());
  EXPECT_GT(r.performance, 0.0);
  EXPECT_LE(r.performance, machine.aggregate_gpu_peak());
}

TEST(Simulator, MakespanRespectsTransferLowerBound) {
  SimProblem p(8000, 32000, 32000, 0.5, 0.5, 5);
  const MachineModel machine = MachineModel::summit(1);
  PlanConfig cfg;
  const ExecutionPlan plan = build_plan(p.a, p.b, p.c, machine, cfg);
  const SimResult r = simulate(plan, p.a, p.b, p.c, machine);
  const PlanStats st = compute_stats(plan, p.a, p.b, p.c);
  // Per GPU, transfers are serialized on the transfer engine.
  double max_gpu_h2d = 0.0;
  for (const GpuTimeline& tl : r.gpus) {
    max_gpu_h2d = std::max(max_gpu_h2d, tl.h2d_busy_s);
  }
  EXPECT_GE(r.makespan_s, max_gpu_h2d);
  EXPECT_GT(st.b_h2d_bytes, 0.0);
}

TEST(Simulator, DenserProblemsRunAtHigherRate) {
  // Paper Fig. 2: performance increases with density.
  const MachineModel machine = MachineModel::summit(4);
  PlanConfig cfg;
  double prev_perf = 0.0;
  for (const double density : {0.1, 0.5, 1.0}) {
    SimProblem p(12000, 60000, 60000, density, density,
                 static_cast<std::uint64_t>(density * 100));
    const SimResult r = simulate_contraction(p.a, p.b, p.c, machine, cfg);
    EXPECT_GT(r.performance, prev_perf)
        << "density " << density << " should outperform lower density";
    prev_perf = r.performance;
  }
}

TEST(Simulator, SparserProblemsFinishFaster) {
  // Paper Fig. 4: although the rate drops, time-to-solution decreases
  // with density because the flop count decreases faster.
  const MachineModel machine = MachineModel::summit(4);
  PlanConfig cfg;
  double prev_time = 1e30;
  for (const double density : {1.0, 0.5, 0.1}) {
    SimProblem p(12000, 60000, 60000, density, density,
                 static_cast<std::uint64_t>(density * 7));
    const SimResult r = simulate_contraction(p.a, p.b, p.c, machine, cfg);
    EXPECT_LT(r.makespan_s, prev_time);
    prev_time = r.makespan_s;
  }
}

TEST(Simulator, MoreGpusReduceTimeAtImperfectEfficiency) {
  // Paper Fig. 7: time decreases with GPU count but parallel efficiency
  // falls below 1.
  SimProblem p(10000, 80000, 80000, 0.25, 0.25, 11);
  PlanConfig cfg;
  double t_prev = 1e30;
  double t3 = 0.0;
  int g3 = 0;
  for (const int gpus : {3, 6, 12, 24}) {
    const MachineModel machine = MachineModel::summit_gpus(gpus);
    const SimResult r = simulate_contraction(p.a, p.b, p.c, machine, cfg);
    EXPECT_LT(r.makespan_s, t_prev) << gpus << " GPUs";
    if (g3 == 0) {
      t3 = r.makespan_s;
      g3 = gpus;
    }
    // Parallel efficiency vs the first point is at most ~1.
    const double eff = (t3 * g3) / (r.makespan_s * gpus);
    EXPECT_LE(eff, 1.2);
    t_prev = r.makespan_s;
  }
}

TEST(Simulator, InspectionTimeIncludedAndSmall) {
  SimProblem p(6000, 24000, 24000, 0.5, 0.5, 13);
  const MachineModel machine = MachineModel::summit(1);
  PlanConfig cfg;
  const SimResult r = simulate_contraction(p.a, p.b, p.c, machine, cfg);
  EXPECT_GT(r.inspect_s, 0.0);
  EXPECT_LT(r.inspect_s, 0.05 * r.makespan_s);  // negligible per §3.2.4
}

TEST(Simulator, PerGpuStatsConsistent) {
  SimProblem p(8000, 40000, 40000, 0.75, 0.75, 17);
  const MachineModel machine = MachineModel::summit(2);
  PlanConfig cfg;
  cfg.p = 2;
  const SimResult r = simulate_contraction(p.a, p.b, p.c, machine, cfg);
  ASSERT_EQ(r.gpus.size(), 12u);
  double flops = 0.0;
  for (const GpuTimeline& tl : r.gpus) {
    flops += tl.flops;
    EXPECT_LE(tl.compute_busy_s, tl.end_time_s);
    EXPECT_GE(tl.stall_network_s, 0.0);
  }
  EXPECT_NEAR(flops, r.total_flops, 1e-6 * flops);
  EXPECT_NEAR(r.per_gpu_performance * 12.0, r.performance, 1.0);
}

TEST(Simulator, TraceRecordsPipelineSpans) {
  SimProblem p(6000, 24000, 24000, 0.5, 0.5, 23);
  const MachineModel machine = MachineModel::summit(1);
  std::vector<obs::Span> trace;
  SimConfig scfg;
  scfg.trace = &trace;
  const SimResult r =
      simulate_contraction(p.a, p.b, p.c, machine, PlanConfig{}, scfg);
  EXPECT_GT(trace.size(), 0u);
  bool saw_stage = false, saw_compute = false, saw_load = false;
  for (const obs::Span& e : trace) {
    EXPECT_EQ(e.category, obs::Category::kTask);
    EXPECT_LT(e.lane, r.gpus.size());
    EXPECT_LE(e.start_s, e.end_s);
    EXPECT_LE(e.end_s, r.makespan_s + 1e-9);
    saw_stage |= e.name.rfind("stage", 0) == 0;
    saw_compute |= e.name.rfind("compute", 0) == 0;
    saw_load |= e.name.rfind("chunkload", 0) == 0;
  }
  EXPECT_TRUE(saw_stage);
  EXPECT_TRUE(saw_compute);
  EXPECT_TRUE(saw_load);
}

TEST(Simulator, FasterHardwareNeverHurts) {
  SimProblem p(10000, 40000, 40000, 0.5, 0.5, 29);
  PlanConfig cfg;
  MachineModel base = MachineModel::summit(2);
  const double t0 = simulate_contraction(p.a, p.b, p.c, base, cfg).makespan_s;

  MachineModel fast_gpu = base;
  fast_gpu.node.gpu.peak_gemm_flops *= 2.0;
  EXPECT_LE(simulate_contraction(p.a, p.b, p.c, fast_gpu, cfg).makespan_s,
            t0 * 1.001);

  MachineModel fast_link = base;
  fast_link.node.gpu.h2d_bandwidth *= 2.0;
  fast_link.node.gpu.d2h_bandwidth *= 2.0;
  EXPECT_LE(simulate_contraction(p.a, p.b, p.c, fast_link, cfg).makespan_s,
            t0 * 1.001);

  MachineModel fast_net = base;
  fast_net.internode_bandwidth *= 4.0;
  EXPECT_LE(simulate_contraction(p.a, p.b, p.c, fast_net, cfg).makespan_s,
            t0 * 1.001);
}

TEST(Simulator, OversizedBlocksDegradeButComplete) {
  // Device memory below the largest single column: the plan segments and
  // flags; the simulator must still produce a finite, bounded makespan.
  SimProblem p(4000, 16000, 16000, 1.0, 1.0, 31);
  MachineModel machine = MachineModel::summit(1);
  machine.node.gpu.memory_bytes = 64.0e6;  // tiny vs ~hundreds-MB columns
  PlanConfig cfg;
  const SimResult r = simulate_contraction(p.a, p.b, p.c, machine, cfg);
  EXPECT_GT(r.makespan_s, 0.0);
  EXPECT_LT(r.makespan_s, 1e6);
  EXPECT_GT(r.plan_stats.segmented_columns + r.plan_stats.oversized_blocks,
            0u);
}

TEST(Simulator, ReplicationReducesNetworkStall) {
  // p=2 replicates B but halves the A broadcast: on a wide problem the
  // network traffic must drop.
  SimProblem p(12000, 60000, 60000, 0.5, 0.5, 19);
  const MachineModel machine = MachineModel::summit(4);
  PlanConfig cfg1;
  cfg1.p = 1;
  PlanConfig cfg2;
  cfg2.p = 2;
  const ExecutionPlan plan1 = build_plan(p.a, p.b, p.c, machine, cfg1);
  const ExecutionPlan plan2 = build_plan(p.a, p.b, p.c, machine, cfg2);
  const PlanStats st1 = compute_stats(plan1, p.a, p.b, p.c);
  const PlanStats st2 = compute_stats(plan2, p.a, p.b, p.c);
  EXPECT_LT(st2.a_network_bytes, st1.a_network_bytes);
  EXPECT_GT(st2.b_generated_bytes, st1.b_generated_bytes);  // replication
}

}  // namespace
}  // namespace bstc
