/// Tests for the ablation inspector policies: alternative column
/// assignments, packing heuristics and prefetch depths — every variant
/// must still produce a valid plan and an exact product.

#include <gtest/gtest.h>

#include "bsm/block_sparse_matrix.hpp"
#include "core/engine.hpp"
#include "plan/builder.hpp"
#include "plan/column_assignment.hpp"
#include "plan/stats.hpp"
#include "shape/shape_algebra.hpp"
#include "support/error.hpp"

namespace bstc {
namespace {

TEST(AssignmentPolicies, CyclicDealsInSortedOrder) {
  const std::vector<double> flops{5, 1, 3, 2};
  const ColumnAssignment a = assign_columns_cyclic(flops, 2);
  // Sorted: 1(c1),2(c3),3(c2),5(c0); cyclic: p0<-c1,c2  p1<-c3,c0.
  EXPECT_EQ(a.columns_of[0], (std::vector<std::uint32_t>{1, 2}));
  EXPECT_EQ(a.columns_of[1], (std::vector<std::uint32_t>{3, 0}));
  EXPECT_DOUBLE_EQ(a.flops_of[0], 4.0);
  EXPECT_DOUBLE_EQ(a.flops_of[1], 7.0);
}

TEST(AssignmentPolicies, LptBalancesAdversarialWeights) {
  // Weights where plain cyclic is bad: {8, 7, 6, 1, 1, 1} over 3 procs.
  const std::vector<double> flops{8, 7, 6, 1, 1, 1};
  const ColumnAssignment lpt = assign_columns_lpt(flops, 3);
  EXPECT_LE(load_imbalance(lpt), 1.2);
  // Every column assigned exactly once.
  std::vector<int> seen(flops.size(), 0);
  for (const auto& cols : lpt.columns_of) {
    for (const std::uint32_t c : cols) ++seen[c];
  }
  for (const int s : seen) EXPECT_EQ(s, 1);
}

TEST(AssignmentPolicies, LptNeverWorseThanCyclicOnBalance) {
  Rng rng(77);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<double> flops(50 + trial * 13);
    for (double& f : flops) f = rng.uniform(0.0, 100.0);
    const double lpt = load_imbalance(assign_columns_lpt(flops, 7));
    const double cyc = load_imbalance(assign_columns_cyclic(flops, 7));
    EXPECT_LE(lpt, cyc + 1e-9);
  }
}

TEST(PackingPolicies, FirstFitPacksTightly) {
  auto piece = [](std::uint32_t col, double bytes) {
    ColumnPiece p;
    p.col = col;
    p.ks = {0};
    p.b_bytes = bytes;
    return p;
  };
  // One device, capacity 10, pieces 7, 4, 4, 2, 1: 7 fills the open
  // block (rem 3); each 4 fits only a second block (8, rem 2). The 2 and
  // the 1 then tell the three policies apart.
  const std::vector<ColumnPiece> pieces{piece(0, 7), piece(1, 4), piece(2, 4),
                                        piece(3, 2), piece(4, 1)};
  // first-fit: 2 -> blk0 (9), 1 -> blk0 (10).
  const auto first = partition_blocks(pieces, 10.0, PackingPolicy::kFirstFit);
  ASSERT_EQ(first.size(), 2u);
  EXPECT_DOUBLE_EQ(first[0].bytes, 10.0);
  EXPECT_DOUBLE_EQ(first[1].bytes, 8.0);
  // worst-fit: 2 -> blk0 (rem 3 > 2), 1 -> blk1 (rem 2 > 1).
  const auto worst = partition_blocks(pieces, 10.0, PackingPolicy::kWorstFit);
  ASSERT_EQ(worst.size(), 2u);
  EXPECT_DOUBLE_EQ(worst[0].bytes, 9.0);
  EXPECT_DOUBLE_EQ(worst[1].bytes, 9.0);
  // best-fit: 2 -> blk1 (rem 2 < 3), 1 -> blk0 (the only room left).
  const auto best = partition_blocks(pieces, 10.0, PackingPolicy::kBestFit);
  ASSERT_EQ(best.size(), 2u);
  EXPECT_DOUBLE_EQ(best[0].bytes, 8.0);
  EXPECT_DOUBLE_EQ(best[1].bytes, 10.0);
}

TEST(PackingPolicies, BestFitFillsTightestBlock) {
  auto piece = [](std::uint32_t col, double bytes) {
    ColumnPiece p;
    p.col = col;
    p.ks = {0};
    p.b_bytes = bytes;
    return p;
  };
  // capacity 10 on one device: 7 fills the open block (rem 3), 5 opens a
  // second (rem 5); best-fit puts 3 with the 7 (rem 3 < rem 5), where
  // worst fit would put it with the 5.
  const auto blocks = partition_blocks({piece(0, 7), piece(1, 5), piece(2, 3)},
                                       10.0, PackingPolicy::kBestFit);
  ASSERT_EQ(blocks.size(), 2u);
  EXPECT_DOUBLE_EQ(blocks[0].bytes, 10.0);
  EXPECT_DOUBLE_EQ(blocks[1].bytes, 5.0);
}

class PolicyMatrix
    : public ::testing::TestWithParam<
          std::tuple<AssignmentPolicy, PackingPolicy, int>> {};

TEST_P(PolicyMatrix, PlansValidateAndEngineStaysExact) {
  const auto [assignment, packing, depth] = GetParam();
  Rng rng(123);
  const Tiling mt = Tiling::random_uniform(60, 8, 24, rng);
  const Tiling kt = Tiling::random_uniform(200, 8, 24, rng);
  const Tiling nt = Tiling::random_uniform(200, 8, 24, rng);
  const Shape sa = Shape::random(mt, kt, 0.5, rng);
  const Shape sb = Shape::random(kt, nt, 0.4, rng);
  const Shape sc = contract_shape(sa, sb);

  MachineModel machine = MachineModel::summit(2);
  machine.node.gpus = 2;
  machine.gpu_total = 4;
  machine.node.gpu.memory_bytes = 5.0e5;

  PlanConfig cfg;
  cfg.p = 2;
  cfg.assignment = assignment;
  cfg.packing = packing;
  cfg.prefetch_depth = depth;
  const ExecutionPlan plan = build_plan(sa, sb, sc, machine, cfg);
  const auto violations = validate_plan(plan, sa, sb, sc);
  for (const auto& v : violations) ADD_FAILURE() << v;

  // The real executor stays exact under every policy combination.
  const BlockSparseMatrix a = BlockSparseMatrix::random(sa, rng);
  const TileGenerator b_gen = random_tile_generator(sb, 55);
  EngineConfig ecfg;
  ecfg.plan = cfg;
  const EngineResult result =
      contract(a, sb, b_gen, sc, nullptr, machine, ecfg);
  BlockSparseMatrix b_full(sb);
  for (std::size_t r = 0; r < sb.tile_rows(); ++r) {
    for (std::size_t c = 0; c < sb.tile_cols(); ++c) {
      if (sb.nonzero(r, c)) b_full.tile(r, c) = b_gen(r, c);
    }
  }
  BlockSparseMatrix expected(sc);
  multiply_reference(a, b_full, expected);
  EXPECT_LT(result.c.max_abs_diff(expected), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, PolicyMatrix,
    ::testing::Combine(::testing::Values(AssignmentPolicy::kMirroredCyclic,
                                         AssignmentPolicy::kCyclic,
                                         AssignmentPolicy::kLpt),
                       ::testing::Values(PackingPolicy::kWorstFit,
                                         PackingPolicy::kFirstFit,
                                         PackingPolicy::kBestFit),
                       ::testing::Values(1, 2)));

TEST(PlanConfigValidation, BadPrefetchDepthThrows) {
  Rng rng(1);
  const Tiling t = Tiling::uniform(100, 10);
  const Shape s = Shape::dense(t, t);
  const MachineModel machine = MachineModel::summit(1);
  PlanConfig cfg;
  cfg.prefetch_depth = 0;
  EXPECT_THROW(build_plan(s, s, contract_shape(s, s), machine, cfg), Error);
  PlanConfig cfg2;
  cfg2.prefetch_depth = 3;  // 0.5 + 3*0.25 > 1
  EXPECT_THROW(build_plan(s, s, contract_shape(s, s), machine, cfg2), Error);
}

}  // namespace
}  // namespace bstc
