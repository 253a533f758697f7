/// Executor staging and reduction-order tests: segmented-column C
/// partials must reduce in ascending block order however the devices
/// race, the computed C tiles must become the result unchanged, unexecutable
/// plans must be refused before any work, problems too large for host
/// memory must be refused before any allocation, and the staging counters
/// must describe what the packed stage arenas moved.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <exception>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bsm/block_sparse_matrix.hpp"
#include "comm/transport.hpp"
#include "core/engine.hpp"
#include "obs/obs.hpp"
#include "plan/builder.hpp"
#include "shape/shape_algebra.hpp"
#include "support/error.hpp"
#include "support/host_memory.hpp"
#include "tile/microkernel.hpp"

namespace bstc {
namespace {

/// 64 x 960 x 96 with uniform 32-wide tiles, fully dense: one B column is
/// 30 tiles deep, so a 200 kB device (100 kB block budget) splits every
/// column into three k-segments, each its own block.
struct SegmentedProblem {
  SegmentedProblem()
      : mt(Tiling::uniform(64, 32)),
        kt(Tiling::uniform(960, 32)),
        nt(Tiling::uniform(96, 32)),
        a(BlockSparseMatrix::random(Shape::dense(mt, kt), rng)),
        b_shape(Shape::dense(kt, nt)),
        b_gen(random_tile_generator(b_shape, 4242)),
        c_shape(contract_shape(a.shape(), b_shape)) {}

  static MachineModel machine(int gpus) {
    MachineModel m = MachineModel::summit_gpus(gpus);
    m.node.gpu.memory_bytes = 2.0e5;
    return m;
  }

  Rng rng{99};
  Tiling mt, kt, nt;
  BlockSparseMatrix a;
  Shape b_shape;
  TileGenerator b_gen;
  Shape c_shape;
};

bool bitwise_equal(const Tile& x, const Tile& y) {
  if (x.rows() != y.rows() || x.cols() != y.cols()) return false;
  for (Index c = 0; c < x.cols(); ++c) {
    for (Index r = 0; r < x.rows(); ++r) {
      if (x.at(r, c) != y.at(r, c)) return false;
    }
  }
  return true;
}

bool bitwise_equal(const BlockSparseMatrix& x, const BlockSparseMatrix& y) {
  const Shape& s = x.shape();
  for (std::size_t i = 0; i < s.tile_rows(); ++i) {
    for (std::size_t j = 0; j < s.tile_cols(); ++j) {
      if (!s.nonzero(i, j)) continue;
      if (!bitwise_equal(x.tile(i, j), y.tile(i, j))) return false;
    }
  }
  return true;
}

/// True when some B column's pieces sit on three distinct devices of
/// node 0, so three of its C partials race to reduce.
bool spreads_a_column_over_three_devices(const ExecutionPlan& plan) {
  std::map<std::uint32_t, std::set<std::uint32_t>> gpus_of_col;
  for (const BlockPlan& block : plan.nodes[0].blocks) {
    for (const ColumnPiece& piece : block.pieces) {
      gpus_of_col[piece.col].insert(block.gpu);
    }
  }
  for (const auto& [col, gpus] : gpus_of_col) {
    if (gpus.size() >= 3) return true;
  }
  return false;
}

TEST(EngineStaging, SegmentedColumnReducesInBlockOrderOnThreeDevices) {
  // Three devices race to flush their partials of one segmented column;
  // the result must equal the single-device run of the same blocks,
  // whose stores are sequential and therefore in ascending block order.
  const SegmentedProblem p;
  const ExecutionPlan plan3 = build_plan(p.a.shape(), p.b_shape, p.c_shape,
                                         SegmentedProblem::machine(3), {});
  // Precondition: some column has partials from >= 3 blocks on >= 3
  // distinct devices (two partials commute exactly; three do not).
  std::map<std::uint32_t, std::set<std::size_t>> blocks_of_col;
  std::map<std::uint32_t, std::set<std::uint32_t>> gpus_of_col;
  const NodePlan& node = plan3.nodes[0];
  for (std::size_t bi = 0; bi < node.blocks.size(); ++bi) {
    for (const ColumnPiece& piece : node.blocks[bi].pieces) {
      blocks_of_col[piece.col].insert(bi);
      gpus_of_col[piece.col].insert(node.blocks[bi].gpu);
    }
  }
  bool raced = false;
  for (const auto& [col, gpus] : gpus_of_col) {
    raced = raced || (gpus.size() >= 3 && blocks_of_col[col].size() >= 3);
  }
  ASSERT_TRUE(raced) << "the problem no longer spreads one column's "
                        "segments over three devices";

  ExecutionPlan plan1 = plan3;
  plan1.gpus_of_node = {1};
  for (BlockPlan& block : plan1.nodes[0].blocks) block.gpu = 0;
  const EngineResult reference =
      contract_with_plan(plan1, p.a, p.b_shape, p.b_gen, p.c_shape, nullptr,
                         SegmentedProblem::machine(1), {});

  for (int replay = 0; replay < 8; ++replay) {
    const EngineResult r =
        contract_with_plan(plan3, p.a, p.b_shape, p.b_gen, p.c_shape,
                           nullptr, SegmentedProblem::machine(3), {});
    EXPECT_TRUE(bitwise_equal(r.c, reference.c))
        << "replay " << replay << " reduced the partials out of order";
  }
}

TEST(EngineStaging, AssembledCIsBitwiseUnchanged) {
  // The computed C tiles become the result by move and C_init is added in
  // place: a run with C_init must equal the run without it plus
  // Tile::axpy(C_init), bit for bit. B gets a fourth, empty column whose
  // C tile (1, 3) is nonzero in C's shape but reached by no GEMM.
  const SegmentedProblem p;
  const Tiling nt = Tiling::uniform(128, 32);
  Shape b_shape(p.kt, nt);
  for (std::size_t k = 0; k < b_shape.tile_rows(); ++k) {
    for (std::size_t j = 0; j < 3; ++j) b_shape.set(k, j);
  }
  const TileGenerator b_gen = random_tile_generator(b_shape, 4242);
  Shape c_shape = contract_shape(p.a.shape(), b_shape);
  ASSERT_FALSE(c_shape.nonzero(1, 3));
  c_shape.set(1, 3);
  Rng rng(7);
  const BlockSparseMatrix c_init = BlockSparseMatrix::random(c_shape, rng);

  const MachineModel machine = SegmentedProblem::machine(3);
  const ExecutionPlan plan =
      build_plan(p.a.shape(), b_shape, c_shape, machine, {});
  ASSERT_TRUE(spreads_a_column_over_three_devices(plan));
  const EngineResult bare = contract_with_plan(
      plan, p.a, b_shape, b_gen, c_shape, nullptr, machine, {});
  const EngineResult with_init = contract_with_plan(
      plan, p.a, b_shape, b_gen, c_shape, &c_init, machine, {});
  BlockSparseMatrix expected = bare.c;
  for (std::size_t i = 0; i < c_shape.tile_rows(); ++i) {
    for (std::size_t j = 0; j < c_shape.tile_cols(); ++j) {
      if (c_shape.nonzero(i, j)) {
        expected.tile(i, j).axpy(1.0, c_init.tile(i, j));
      }
    }
  }
  EXPECT_TRUE(bitwise_equal(with_init.c, expected));
  EXPECT_EQ(bare.c.tile(1, 3).norm(), 0.0);
  EXPECT_TRUE(bitwise_equal(with_init.c.tile(1, 3), c_init.tile(1, 3)));

  // Two ranks: no C tile is computed by both. Each running only its own
  // share against one shared in-process transport returns exactly its own
  // computed tiles, bitwise equal to the all-ranks run, and zeros
  // everywhere else.
  MachineModel two = MachineModel::summit(2);
  two.node.gpus = 3;
  two.gpu_total = 6;
  two.node.gpu.memory_bytes = 2.0e5;
  const ExecutionPlan plan2 =
      build_plan(p.a.shape(), b_shape, c_shape, two, {});
  const EngineResult all = contract_with_plan(plan2, p.a, b_shape, b_gen,
                                              c_shape, nullptr, two, {});
  const std::set<std::pair<std::uint32_t, std::uint32_t>> once(
      all.computed_c_tiles.begin(), all.computed_c_tiles.end());
  EXPECT_EQ(once.size(), all.computed_c_tiles.size())
      << "a C tile was computed by two nodes";
  Transport transport(2);
  std::vector<EngineResult> ranks(2);
  std::vector<std::exception_ptr> errors(2);
  std::vector<std::thread> threads;
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&, r] {
      EngineConfig cfg;
      cfg.transport = &transport;
      cfg.local_rank = r;
      try {
        ranks[static_cast<std::size_t>(r)] = contract_with_plan(
            plan2, p.a, b_shape, b_gen, c_shape, nullptr, two, cfg);
      } catch (...) {
        errors[static_cast<std::size_t>(r)] = std::current_exception();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  std::multiset<std::pair<std::uint32_t, std::uint32_t>> union_of_ranks;
  for (const EngineResult& rank : ranks) {
    const std::set<std::pair<std::uint32_t, std::uint32_t>> own(
        rank.computed_c_tiles.begin(), rank.computed_c_tiles.end());
    EXPECT_FALSE(own.empty());
    EXPECT_LT(own.size(), all.computed_c_tiles.size());
    for (std::size_t i = 0; i < c_shape.tile_rows(); ++i) {
      for (std::size_t j = 0; j < c_shape.tile_cols(); ++j) {
        if (!c_shape.nonzero(i, j)) continue;
        const Tile& t = rank.c.tile(i, j);
        if (own.count({static_cast<std::uint32_t>(i),
                       static_cast<std::uint32_t>(j)}) != 0) {
          EXPECT_TRUE(bitwise_equal(t, all.c.tile(i, j)));
        } else {
          EXPECT_EQ(t.norm(), 0.0);
        }
      }
    }
    union_of_ranks.insert(own.begin(), own.end());
  }
  const std::vector<std::pair<std::uint32_t, std::uint32_t>> partition(
      union_of_ranks.begin(), union_of_ranks.end());
  EXPECT_EQ(partition, all.computed_c_tiles)
      << "the ranks' computed tiles must partition the all-ranks set";
}

TEST(EngineStaging, PlanWithoutRoomForAChunkFailsBeforeAnyWork) {
  // Shrink the device after planning: every block still fits the plan's
  // budget, but no A chunk fits what it leaves. The executor must refuse
  // up front, naming the node and block, without generating a tile.
  const SegmentedProblem p;
  const ExecutionPlan plan = build_plan(p.a.shape(), p.b_shape, p.c_shape,
                                        SegmentedProblem::machine(3), {});
  MachineModel small = SegmentedProblem::machine(3);
  small.node.gpu.memory_bytes = 1.0e5;
  try {
    require_executable(plan, small.node.gpu.memory_bytes);
    FAIL() << "an unexecutable plan was accepted";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("grid node 0 block 0"), std::string::npos) << what;
    EXPECT_NE(what.find("no room for any A chunk"), std::string::npos)
        << what;
  }
  std::atomic<int> generated{0};
  const TileGenerator counting = [&](std::size_t r, std::size_t c) {
    ++generated;
    return p.b_gen(r, c);
  };
  EXPECT_THROW(contract_with_plan(plan, p.a, p.b_shape, counting, p.c_shape,
                                  nullptr, small, {}),
               Error);
  EXPECT_EQ(generated.load(), 0);
}

TEST(EngineStaging, CountersReportPackedBytesPadAndFlops) {
  // Staging counters are deterministic functions of the plan: every B
  // tile packed once per piece and every A tile once per chunk, padded to
  // the active kernel's register tile; flops are the plan's GEMM flops.
  const SegmentedProblem p;
  const MachineModel machine = SegmentedProblem::machine(3);
  const ExecutionPlan plan =
      build_plan(p.a.shape(), p.b_shape, p.c_shape, machine, {});
  obs::Registry& reg = obs::Registry::instance();
  const auto counter = [&reg](const char* name) {
    const auto all = reg.counters();
    const auto it = all.find(name);
    return it == all.end() ? std::uint64_t{0} : it->second;
  };
  const std::uint64_t packed0 = counter("bstc_stage_packed_bytes_total");
  const std::uint64_t pad0 = counter("bstc_stage_pad_bytes_total");
  const std::uint64_t flops0 = counter("bstc_gemm_flops_total");
  const EngineResult r = contract_with_plan(
      plan, p.a, p.b_shape, p.b_gen, p.c_shape, nullptr, machine, {});

  const KernelGeometry& g = active_microkernel().geom;
  // 32-wide tiles: each panel set pads 32 up to the next multiple of the
  // register tile.
  const auto padded = [](Index x, Index t) { return (x + t - 1) / t * t; };
  const double b_pad = static_cast<double>(padded(32, g.nr)) / 32.0;
  const double a_pad = static_cast<double>(padded(32, g.mr)) / 32.0;
  const PlanStats& st = r.plan_stats;
  const double expect_packed =
      st.b_h2d_bytes * b_pad + st.a_h2d_bytes * a_pad;
  const double expect_pad =
      st.b_h2d_bytes * (b_pad - 1.0) + st.a_h2d_bytes * (a_pad - 1.0);
  EXPECT_DOUBLE_EQ(
      static_cast<double>(counter("bstc_stage_packed_bytes_total") - packed0),
      expect_packed);
  EXPECT_DOUBLE_EQ(
      static_cast<double>(counter("bstc_stage_pad_bytes_total") - pad0),
      expect_pad);
  EXPECT_DOUBLE_EQ(
      static_cast<double>(counter("bstc_gemm_flops_total") - flops0),
      st.total_flops);
}

TEST(EngineStaging, SummitScaleProblemIsRefusedBeforeAllocation) {
  // The simulator's Summit-scale synthetic product (A alone ~37 GB) must
  // be refused from its plan in well under a second, not page-fault its
  // way into an OOM kill.
  const auto t0 = std::chrono::steady_clock::now();
  Rng rng(42);
  const Tiling mt = Tiling::random_uniform(48000, 512, 2048, rng);
  const Tiling kt = Tiling::random_uniform(192000, 512, 2048, rng);
  const Tiling nt = Tiling::random_uniform(192000, 512, 2048, rng);
  const Shape a = Shape::random(mt, kt, 0.5, rng);
  const Shape b = Shape::random(kt, nt, 0.5, rng);
  const Shape c = contract_shape(a, b);
  const MachineModel machine = MachineModel::summit(16);
  const ExecutionPlan plan = build_plan(a, b, c, machine, {});
  const HostFootprint f =
      predict_host_footprint(plan, compute_stats(plan, a, b, c), a, b, c,
                             machine.node.gpu.memory_bytes);
  EXPECT_DOUBLE_EQ(f.a_bytes, a.nnz_bytes());
  EXPECT_GT(f.a_bytes, 3.0e10);
  EXPECT_GT(f.stage_bytes, 0.0);
  EXPECT_THROW(admit_host_footprint(f, 64.0e9), Error);
  const double s = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
  EXPECT_LT(s, 1.0);
}

TEST(EngineStaging, FootprintPredictionBoundsASmallRun) {
  // A host-sized run is admitted, and its prediction covers the arenas
  // the executor actually maps: every staged panel fits in them.
  const SegmentedProblem p;
  const MachineModel machine = SegmentedProblem::machine(3);
  const ExecutionPlan plan =
      build_plan(p.a.shape(), p.b_shape, p.c_shape, machine, {});
  const PlanStats st = compute_stats(plan, p.a.shape(), p.b_shape, p.c_shape);
  const HostFootprint f =
      predict_host_footprint(plan, st, p.a.shape(), p.b_shape, p.c_shape,
                             machine.node.gpu.memory_bytes);
  EXPECT_DOUBLE_EQ(f.a_bytes, p.a.shape().nnz_bytes());
  EXPECT_DOUBLE_EQ(f.b_cache_bytes, st.b_generated_bytes);
  // C once, plus one block's C per device: three devices, each block
  // holding one 64 x 32 column of C.
  EXPECT_DOUBLE_EQ(f.c_bytes, p.c_shape.nnz_bytes() + 3 * 64.0 * 32 * 8);
  // Per device: one block's B plus two chunk slots, never more than the
  // device itself holds beyond register-tile padding.
  EXPECT_GT(f.stage_bytes, 0.0);
  EXPECT_LT(f.stage_bytes, 3 * 2.0 * machine.node.gpu.memory_bytes);
  EXPECT_NO_THROW(admit_host_footprint(f, 1.0e9));
  EXPECT_GT(available_host_memory_bytes(), 0.0);
}

}  // namespace
}  // namespace bstc
