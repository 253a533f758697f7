/// Integration tests: the distributed executor must produce the exact
/// product, respect device-memory budgets, generate B at most once per
/// node, and match the analytic communication/plan statistics.

#include <gtest/gtest.h>

#include <tuple>

#include "bsm/block_sparse_matrix.hpp"
#include "comm/comm.hpp"
#include "core/engine.hpp"
#include "plan/builder.hpp"
#include "plan/serialize.hpp"
#include "shape/shape_algebra.hpp"
#include "support/error.hpp"

namespace bstc {
namespace {

TEST(Comm, RecorderAccumulates) {
  CommRecorder comm(3);
  comm.record(0, 1, 100.0);
  comm.record(1, 2, 50.0);
  comm.record(2, 2, 999.0);  // local: ignored
  EXPECT_DOUBLE_EQ(comm.total_bytes(), 150.0);
  EXPECT_EQ(comm.total_messages(), 2u);
  EXPECT_DOUBLE_EQ(comm.sent_by(0), 100.0);
  EXPECT_DOUBLE_EQ(comm.received_by(2), 50.0);
  EXPECT_THROW(comm.record(0, 7, 1.0), Error);
}

TEST(Comm, CyclicDistribution) {
  const CyclicDist2D dist{2, 3};
  EXPECT_EQ(dist.node_of(0, 0), 0);
  EXPECT_EQ(dist.node_of(0, 1), 1);
  EXPECT_EQ(dist.node_of(1, 0), 3);
  EXPECT_EQ(dist.node_of(3, 4), 4);  // row 1, col 1
  EXPECT_EQ(dist.row_of(5), 1);
  EXPECT_EQ(dist.col_of(5), 2);
}

/// Builds a random contraction problem and runs the engine against the
/// reference product.
struct EngineHarness {
  EngineHarness(Index m, Index k, Index n, double da, double db,
                std::uint64_t seed, Index tile_lo = 8, Index tile_hi = 24)
      : rng(seed),
        mt(Tiling::random_uniform(m, tile_lo, tile_hi, rng)),
        kt(Tiling::random_uniform(k, tile_lo, tile_hi, rng)),
        nt(Tiling::random_uniform(n, tile_lo, tile_hi, rng)),
        a(BlockSparseMatrix::random(Shape::random(mt, kt, da, rng), rng)),
        b_shape(Shape::random(kt, nt, db, rng)),
        b_gen(random_tile_generator(b_shape, seed * 31 + 7)),
        c_shape(contract_shape(a.shape(), b_shape)) {}

  BlockSparseMatrix reference() const {
    BlockSparseMatrix b(b_shape);
    for (std::size_t r = 0; r < b_shape.tile_rows(); ++r) {
      for (std::size_t c = 0; c < b_shape.tile_cols(); ++c) {
        if (b_shape.nonzero(r, c)) b.tile(r, c) = b_gen(r, c);
      }
    }
    BlockSparseMatrix c(c_shape);
    multiply_reference(a, b, c);
    return c;
  }

  Rng rng;
  Tiling mt, kt, nt;
  BlockSparseMatrix a;
  Shape b_shape;
  TileGenerator b_gen;
  Shape c_shape;
};

TEST(Engine, SingleNodeExactProduct) {
  EngineHarness h(60, 200, 200, 0.6, 0.5, 11);
  MachineModel machine = MachineModel::summit_gpus(2);
  machine.node.gpu.memory_bytes = 1.0e6;
  EngineConfig cfg;
  const EngineResult result = contract(h.a, h.b_shape, h.b_gen, h.c_shape,
                                       nullptr, machine, cfg);
  const BlockSparseMatrix expected = h.reference();
  EXPECT_LT(result.c.max_abs_diff(expected), 1e-10);
  EXPECT_EQ(result.b_max_generations, 1u);
  EXPECT_DOUBLE_EQ(result.a_network_bytes, 0.0);  // single node
}

TEST(Engine, MultiNodeGridsProduceExactProduct) {
  EngineHarness h(80, 240, 240, 0.5, 0.4, 13);
  const BlockSparseMatrix expected = h.reference();
  for (const auto& [nodes, p] :
       std::vector<std::pair<int, int>>{{2, 1}, {2, 2}, {4, 2}, {6, 3}}) {
    MachineModel machine = MachineModel::summit(nodes);
    machine.gpu_total = nodes * 2;
    machine.node.gpus = 2;
    machine.node.gpu.memory_bytes = 1.0e6;
    EngineConfig cfg;
    cfg.plan.p = p;
    const EngineResult result = contract(h.a, h.b_shape, h.b_gen, h.c_shape,
                                         nullptr, machine, cfg);
    EXPECT_LT(result.c.max_abs_diff(expected), 1e-10)
        << nodes << " nodes, p=" << p;
    EXPECT_EQ(result.b_max_generations, 1u);
  }
}

TEST(Engine, DeviceBudgetsNeverExceeded) {
  EngineHarness h(60, 300, 300, 0.7, 0.6, 17);
  MachineModel machine = MachineModel::summit_gpus(3);
  machine.node.gpu.memory_bytes = 4.0e5;  // tight: many blocks and chunks
  EngineConfig cfg;
  const EngineResult result = contract(h.a, h.b_shape, h.b_gen, h.c_shape,
                                       nullptr, machine, cfg);
  // DeviceMemory would have thrown on overflow; additionally the peak must
  // respect the capacity.
  for (const std::size_t peak : result.device_peak_bytes) {
    EXPECT_LE(peak, static_cast<std::size_t>(machine.node.gpu.memory_bytes));
  }
  EXPECT_LT(result.c.max_abs_diff(h.reference()), 1e-10);
  EXPECT_GT(result.plan_stats.chunks, result.plan_stats.blocks);
}

TEST(Engine, AccumulatesIntoInitialC) {
  EngineHarness h(40, 120, 120, 0.8, 0.8, 19);
  // c_init random on the closure shape.
  Rng rng(23);
  const BlockSparseMatrix c_init = BlockSparseMatrix::random(h.c_shape, rng);
  MachineModel machine = MachineModel::summit_gpus(1);
  machine.node.gpu.memory_bytes = 1.0e6;
  EngineConfig cfg;
  const EngineResult result = contract(h.a, h.b_shape, h.b_gen, h.c_shape,
                                       &c_init, machine, cfg);
  BlockSparseMatrix expected = h.reference();
  for (std::size_t i = 0; i < h.c_shape.tile_rows(); ++i) {
    for (std::size_t j = 0; j < h.c_shape.tile_cols(); ++j) {
      if (h.c_shape.nonzero(i, j)) {
        expected.tile(i, j).axpy(1.0, c_init.tile(i, j));
      }
    }
  }
  EXPECT_LT(result.c.max_abs_diff(expected), 1e-10);
}

TEST(Engine, CommunicationMatchesPlanStats) {
  EngineHarness h(80, 200, 200, 0.5, 0.5, 29);
  MachineModel machine = MachineModel::summit(4);
  machine.node.gpus = 2;
  machine.gpu_total = 8;
  machine.node.gpu.memory_bytes = 1.0e6;
  EngineConfig cfg;
  cfg.plan.p = 2;
  const EngineResult result = contract(h.a, h.b_shape, h.b_gen, h.c_shape,
                                       nullptr, machine, cfg);
  EXPECT_NEAR(result.a_network_bytes, result.plan_stats.a_network_bytes,
              1e-6);
  EXPECT_NEAR(result.c_network_bytes, result.plan_stats.c_network_bytes,
              1e-6);
  EXPECT_LT(result.c.max_abs_diff(h.reference()), 1e-10);
}

TEST(Engine, StationaryBNeverCrossesNodes) {
  // B generation happens per node: total generated bytes across nodes can
  // exceed nnz(B) (replication across grid rows) but no B bytes are ever
  // recorded as network traffic — the recorded traffic equals A + C.
  EngineHarness h(60, 160, 160, 0.6, 0.6, 31);
  MachineModel machine = MachineModel::summit(2);
  machine.node.gpus = 1;
  machine.gpu_total = 2;
  machine.node.gpu.memory_bytes = 1.0e6;
  EngineConfig cfg;
  const EngineResult result = contract(h.a, h.b_shape, h.b_gen, h.c_shape,
                                       nullptr, machine, cfg);
  EXPECT_LT(result.c.max_abs_diff(h.reference()), 1e-10);
  // With one grid row (p=1) every node generates only its own columns:
  // the union is at most nnz(B) bytes.
  EXPECT_LE(result.plan_stats.b_generated_bytes, h.b_shape.nnz_bytes() + 1.0);
}

TEST(Engine, ScreenedCSkipsWork) {
  const auto check = [](const EngineHarness& h, const MachineModel& machine,
                        const EngineConfig& cfg) {
    // Screen: keep only even (i+j) C tiles.
    Shape screened(h.c_shape.row_tiling(), h.c_shape.col_tiling());
    for (std::size_t i = 0; i < h.c_shape.tile_rows(); ++i) {
      for (std::size_t j = 0; j < h.c_shape.tile_cols(); ++j) {
        if (h.c_shape.nonzero(i, j) && (i + j) % 2 == 0) screened.set(i, j);
      }
    }
    const EngineResult result = contract(h.a, h.b_shape, h.b_gen, screened,
                                         nullptr, machine, cfg);
    const ContractionStats full = contraction_stats(h.a.shape(), h.b_shape);
    EXPECT_LT(result.plan_stats.gemm_tasks, full.gemm_tasks);
    // Screened tiles match the reference restricted to the screen.
    const BlockSparseMatrix expected = h.reference();
    for (std::size_t i = 0; i < screened.tile_rows(); ++i) {
      for (std::size_t j = 0; j < screened.tile_cols(); ++j) {
        if (screened.nonzero(i, j)) {
          EXPECT_LT(result.c.tile(i, j).max_abs_diff(expected.tile(i, j)),
                    1e-10);
        }
      }
    }
  };
  {
    SCOPED_TRACE("1 device, default policies");
    EngineHarness h(40, 120, 120, 1.0, 1.0, 37);
    MachineModel machine = MachineModel::summit_gpus(1);
    machine.node.gpu.memory_bytes = 1.0e6;
    check(h, machine, EngineConfig{});
  }
  {
    SCOPED_TRACE("2 devices, first-fit packing, prefetch depth 1");
    EngineHarness h(48, 160, 160, 1.0, 1.0, 53);
    MachineModel machine = MachineModel::summit_gpus(2);
    machine.node.gpu.memory_bytes = 5.0e5;
    EngineConfig cfg;
    cfg.plan.packing = PackingPolicy::kFirstFit;
    cfg.plan.prefetch_depth = 1;
    check(h, machine, cfg);
  }
}

TEST(Engine, InspectOnceExecuteMany) {
  // The paper's production loop: the inspector runs once (its plan can
  // even round-trip through serialization) and the executor replays it
  // every CCSD iteration.
  EngineHarness h(48, 150, 150, 0.6, 0.5, 59);
  MachineModel machine = MachineModel::summit_gpus(2);
  machine.node.gpu.memory_bytes = 1.0e6;
  EngineConfig cfg;
  const ExecutionPlan plan =
      build_plan(h.a.shape(), h.b_shape, h.c_shape, machine, cfg.plan);
  const ExecutionPlan replayed = deserialize_plan(serialize_plan(plan));

  const BlockSparseMatrix expected = h.reference();
  for (int iteration = 0; iteration < 3; ++iteration) {
    const EngineResult result =
        contract_with_plan(replayed, h.a, h.b_shape, h.b_gen, h.c_shape,
                           nullptr, machine, cfg);
    EXPECT_LT(result.c.max_abs_diff(expected), 1e-10)
        << "iteration " << iteration;
  }
}

/// Parameterized sweep over problem densities and grid shapes.
class EngineSweep
    : public ::testing::TestWithParam<std::tuple<double, double, int, int>> {};

TEST_P(EngineSweep, ExactForAllConfigurations) {
  const auto [da, db, nodes, p] = GetParam();
  EngineHarness h(48, 150, 150, da, db,
                  static_cast<std::uint64_t>(da * 100 + db * 10 + nodes + p));
  MachineModel machine = MachineModel::summit(nodes);
  machine.node.gpus = 2;
  machine.gpu_total = 2 * nodes;
  machine.node.gpu.memory_bytes = 5.0e5;
  EngineConfig cfg;
  cfg.plan.p = p;
  const EngineResult result = contract(h.a, h.b_shape, h.b_gen, h.c_shape,
                                       nullptr, machine, cfg);
  EXPECT_LT(result.c.max_abs_diff(h.reference()), 1e-10);
  EXPECT_EQ(result.b_max_generations, 1u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EngineSweep,
    ::testing::Values(std::make_tuple(1.0, 1.0, 1, 1),
                      std::make_tuple(0.75, 0.5, 2, 1),
                      std::make_tuple(0.5, 0.25, 2, 2),
                      std::make_tuple(0.25, 0.1, 4, 2),
                      std::make_tuple(0.1, 0.1, 4, 4),
                      std::make_tuple(0.5, 0.5, 3, 3)));

}  // namespace
}  // namespace bstc
