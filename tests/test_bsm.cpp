/// Tests for BlockSparseMatrix, the reference multiply and on-demand
/// (generator-backed) matrices.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "bsm/block_sparse_matrix.hpp"
#include "bsm/on_demand_matrix.hpp"
#include "shape/shape_algebra.hpp"
#include "support/error.hpp"

namespace bstc {
namespace {

Tiling tiles(std::initializer_list<Index> extents) {
  return Tiling::from_extents(std::vector<Index>(extents));
}

TEST(BlockSparseMatrix, AllocatesExactlyNonzeroTiles) {
  Shape s(tiles({2, 3}), tiles({4, 5}));
  s.set(0, 1);
  s.set(1, 0);
  const BlockSparseMatrix m(s);
  EXPECT_TRUE(m.has_tile(0, 1));
  EXPECT_FALSE(m.has_tile(0, 0));
  EXPECT_EQ(m.bytes(), (2u * 5 + 3u * 4) * 8);
  EXPECT_THROW(m.tile(0, 0), Error);
  EXPECT_EQ(m.tile(0, 1).rows(), 2);
  EXPECT_EQ(m.tile(0, 1).cols(), 5);
}

TEST(BlockSparseMatrix, AdoptTakesTilesWithoutCopy) {
  Shape s(tiles({2, 3}), tiles({4, 5}));
  s.set(0, 1);
  s.set(1, 0);
  s.set(1, 1);
  Tile computed(2, 5);
  computed.fill(7.0);
  const double* data = computed.data();
  std::vector<PlacedTile> placed;
  placed.push_back({0, 1, std::move(computed)});
  const BlockSparseMatrix m = BlockSparseMatrix::adopt(s, std::move(placed));
  // The computed tile is the matrix's tile: same storage, not a copy.
  EXPECT_EQ(m.tile(0, 1).data(), data);
  EXPECT_DOUBLE_EQ(m.tile(0, 1).at(1, 4), 7.0);
  // Nonzero tiles nothing computed are allocated zero; zero blocks stay
  // implicit.
  EXPECT_EQ(m.bytes(), (2u * 5 + 3u * 4 + 3u * 5) * 8);
  EXPECT_DOUBLE_EQ(m.tile(1, 0).norm(), 0.0);
  EXPECT_DOUBLE_EQ(m.tile(1, 1).norm(), 0.0);
  EXPECT_EQ(m.tile(1, 1).rows(), 3);
  EXPECT_FALSE(m.has_tile(0, 0));

  const auto adopt_one = [&s](std::size_t r, std::size_t c, Tile t) {
    std::vector<PlacedTile> v;
    v.push_back({r, c, std::move(t)});
    return BlockSparseMatrix::adopt(s, std::move(v));
  };
  EXPECT_THROW(adopt_one(0, 0, Tile(2, 4)), Error);  // zero block
  EXPECT_THROW(adopt_one(2, 0, Tile(2, 4)), Error);  // past the tiling
  EXPECT_THROW(adopt_one(0, 1, Tile(5, 2)), Error);  // wrong extents
  const std::vector<double> external(10, 1.0);
  EXPECT_THROW(adopt_one(0, 1, Tile::view(external.data(), 2, 5)), Error);
  std::vector<PlacedTile> twice;
  twice.push_back({1, 0, Tile(3, 4)});
  twice.push_back({1, 0, Tile(3, 4)});
  EXPECT_THROW(BlockSparseMatrix::adopt(s, std::move(twice)), Error);

  // Whatever order the tiles arrive in, the matrix reduces over them in
  // one order: norm() is bitwise that of the same values filled in place.
  Rng rng(5);
  const BlockSparseMatrix ref =
      BlockSparseMatrix::random(Shape::dense(Tiling::uniform(24, 2),
                                             Tiling::uniform(24, 3)),
                                rng);
  const auto placed_in = [&ref](bool reversed) {
    std::vector<PlacedTile> v;
    for (std::size_t r = 0; r < ref.shape().tile_rows(); ++r) {
      for (std::size_t c = 0; c < ref.shape().tile_cols(); ++c) {
        Tile t = ref.tile(r, c);
        t.at(0, 0) *= static_cast<double>(1 + r * 37 + c * 11);
        v.push_back({r, c, std::move(t)});
      }
    }
    if (reversed) std::reverse(v.begin(), v.end());
    return v;
  };
  BlockSparseMatrix in_place(ref.shape());
  for (PlacedTile& t : placed_in(false)) in_place.tile(t.row, t.col) = t.tile;
  const double forward =
      BlockSparseMatrix::adopt(ref.shape(), placed_in(false)).norm();
  const double backward =
      BlockSparseMatrix::adopt(ref.shape(), placed_in(true)).norm();
  EXPECT_EQ(forward, in_place.norm());
  EXPECT_EQ(backward, in_place.norm());
}

TEST(BlockSparseMatrix, ElementAccessTreatsZeroBlocksAsZero) {
  Shape s(tiles({2, 2}), tiles({2, 2}));
  s.set(1, 1);
  BlockSparseMatrix m(s);
  m.tile(1, 1).at(0, 1) = 9.0;
  EXPECT_DOUBLE_EQ(m.at(0, 0), 0.0);   // zero block
  EXPECT_DOUBLE_EQ(m.at(2, 3), 9.0);   // tile (1,1) local (0,1)
}

TEST(BlockSparseMatrix, MaxAbsDiffAcrossDifferentPatterns) {
  Shape s1(tiles({2}), tiles({2}));
  s1.set(0, 0);
  Shape s2(tiles({2}), tiles({2}));
  BlockSparseMatrix m1(s1);
  const BlockSparseMatrix m2(s2);  // empty
  m1.tile(0, 0).at(1, 1) = -4.0;
  EXPECT_DOUBLE_EQ(m1.max_abs_diff(m2), 4.0);
  EXPECT_DOUBLE_EQ(m2.max_abs_diff(m1), 4.0);
}

TEST(BlockSparseMatrix, ReferenceMultiplyMatchesElementwiseDense) {
  Rng rng(31);
  const Tiling mt = tiles({3, 2});
  const Tiling kt = tiles({2, 4});
  const Tiling nt = tiles({3, 3});
  const BlockSparseMatrix a =
      BlockSparseMatrix::random(Shape::dense(mt, kt), rng);
  const BlockSparseMatrix b =
      BlockSparseMatrix::random(Shape::dense(kt, nt), rng);
  BlockSparseMatrix c(Shape::dense(mt, nt));
  multiply_reference(a, b, c);
  for (Index i = 0; i < 5; ++i) {
    for (Index j = 0; j < 6; ++j) {
      double expect = 0.0;
      for (Index k = 0; k < 6; ++k) expect += a.at(i, k) * b.at(k, j);
      EXPECT_NEAR(c.at(i, j), expect, 1e-12);
    }
  }
}

TEST(BlockSparseMatrix, ReferenceMultiplySparsePatterns) {
  Rng rng(37);
  const Tiling mt = Tiling::uniform(40, 10);
  const Tiling kt = Tiling::uniform(60, 15);
  const Tiling nt = Tiling::uniform(50, 10);
  const Shape sa = Shape::random(mt, kt, 0.5, rng);
  const Shape sb = Shape::random(kt, nt, 0.5, rng);
  const BlockSparseMatrix a = BlockSparseMatrix::random(sa, rng);
  const BlockSparseMatrix b = BlockSparseMatrix::random(sb, rng);
  BlockSparseMatrix c(contract_shape(sa, sb));
  multiply_reference(a, b, c);
  // Spot-check against element-wise accumulation.
  for (Index i = 0; i < 40; i += 7) {
    for (Index j = 0; j < 50; j += 11) {
      double expect = 0.0;
      for (Index k = 0; k < 60; ++k) expect += a.at(i, k) * b.at(k, j);
      EXPECT_NEAR(c.at(i, j), expect, 1e-11);
    }
  }
}

TEST(OnDemandMatrix, GeneratesOnFirstAcquire) {
  const Shape s = Shape::dense(tiles({2, 3}), tiles({4}));
  OnDemandMatrix m(s, random_tile_generator(s, 99));
  EXPECT_EQ(m.generation_count(0, 0), 0u);
  const Tile& t = m.acquire(0, 0);
  EXPECT_EQ(t.rows(), 2);
  EXPECT_EQ(t.cols(), 4);
  EXPECT_EQ(m.generation_count(0, 0), 1u);
  // Second acquire while pinned does not regenerate.
  m.acquire(0, 0);
  EXPECT_EQ(m.generation_count(0, 0), 1u);
  m.release(0, 0);
  m.release(0, 0);
}

TEST(OnDemandMatrix, DiscardedAfterLastReleaseAndRegenerated) {
  const Shape s = Shape::dense(tiles({2}), tiles({2}));
  OnDemandMatrix m(s, random_tile_generator(s, 1));
  const Tile& t1 = m.acquire(0, 0);
  const double v = t1.at(0, 0);
  m.release(0, 0);
  EXPECT_EQ(m.cached_bytes(), 0u);
  const Tile& t2 = m.acquire(0, 0);
  EXPECT_EQ(m.generation_count(0, 0), 2u);
  // Deterministic generator: regenerated content is identical.
  EXPECT_DOUBLE_EQ(t2.at(0, 0), v);
  m.release(0, 0);
}

TEST(OnDemandMatrix, PersistentTilesSurviveRelease) {
  const Shape s = Shape::dense(tiles({2}), tiles({2}));
  OnDemandMatrix m(s, random_tile_generator(s, 2));
  m.acquire_persistent(0, 0);
  EXPECT_GT(m.cached_bytes(), 0u);
  const Tile& again = m.acquire(0, 0);
  m.release(0, 0);
  EXPECT_GT(m.cached_bytes(), 0u);  // persistent: still cached
  (void)again;
  EXPECT_EQ(m.generation_count(0, 0), 1u);
}

TEST(OnDemandMatrix, ZeroBlockAcquireThrows) {
  Shape s(tiles({2}), tiles({2, 2}));
  s.set(0, 0);
  OnDemandMatrix m(s, random_tile_generator(s, 3));
  EXPECT_THROW(m.acquire(0, 1), Error);
}

TEST(OnDemandMatrix, ReleaseWithoutAcquireThrows) {
  const Shape s = Shape::dense(tiles({2}), tiles({2}));
  OnDemandMatrix m(s, random_tile_generator(s, 4));
  EXPECT_THROW(m.release(0, 0), Error);
}

TEST(OnDemandMatrix, GeneratorContentIsPositionDependent) {
  const Shape s = Shape::dense(tiles({2, 2}), tiles({2, 2}));
  OnDemandMatrix m(s, random_tile_generator(s, 5));
  const Tile& a = m.acquire_persistent(0, 0);
  const Tile& b = m.acquire_persistent(1, 1);
  EXPECT_NE(a.at(0, 0), b.at(0, 0));  // overwhelmingly likely
}

TEST(OnDemandMatrix, EvictUnpinnedDropsOnlyUnpinnedTiles) {
  const Shape s = Shape::dense(tiles({2, 2}), tiles({2, 2}));
  OnDemandMatrix m(s, random_tile_generator(s, 6));
  m.acquire(0, 0);                 // pinned
  m.acquire_persistent(0, 1);      // persistent, unpinned
  m.acquire(1, 0);                 // pinned then released -> gone already
  m.release(1, 0);
  const std::size_t pinned_bytes = m.acquire(0, 0).bytes();
  m.release(0, 0);                 // still pinned once

  const std::size_t before = m.cached_bytes();
  const std::size_t freed = m.evict_unpinned();
  // The persistent-but-unpinned tile goes; the pinned tile stays.
  EXPECT_EQ(m.cached_bytes(), pinned_bytes);
  EXPECT_EQ(freed, before - pinned_bytes);
  EXPECT_GT(freed, 0u);

  // Evicted persistent tiles regenerate on the next acquire.
  m.acquire_persistent(0, 1);
  EXPECT_EQ(m.generation_count(0, 1), 2u);
  m.release(0, 0);  // last pin: the non-persistent tile is freed here
  const std::size_t remaining = m.cached_bytes();
  EXPECT_EQ(m.evict_unpinned(), remaining);
  EXPECT_EQ(m.cached_bytes(), 0u);
}

TEST(OnDemandMatrix, ByteAccountingIsExactAcrossEvictRegenerateCycles) {
  // Regression: cached_bytes()/peak_cached_bytes() must stay *exact* —
  // not merely monotone or approximate — across repeated full-evict /
  // re-generate cycles. The serving layer evicts between CCSD iterations
  // and sums these numbers into host-memory pressure metrics; drift here
  // compounds once per iteration.
  const Shape s = Shape::dense(tiles({3, 5, 2}), tiles({4, 2, 5}));
  OnDemandMatrix m(s, random_tile_generator(s, 17));

  // The exact footprint of the full tile set, from the shape itself.
  std::size_t full_bytes = 0;
  for (std::size_t r = 0; r < s.tile_rows(); ++r) {
    for (std::size_t c = 0; c < s.tile_cols(); ++c) {
      full_bytes += static_cast<std::size_t>(s.row_tiling().tile_extent(r)) *
                    static_cast<std::size_t>(s.col_tiling().tile_extent(c)) *
                    sizeof(double);
    }
  }

  EXPECT_EQ(m.cached_bytes(), 0u);
  EXPECT_EQ(m.peak_cached_bytes(), 0u);

  for (int cycle = 1; cycle <= 4; ++cycle) {
    for (std::size_t r = 0; r < s.tile_rows(); ++r) {
      for (std::size_t c = 0; c < s.tile_cols(); ++c) {
        m.acquire_persistent(r, c);
      }
    }
    EXPECT_EQ(m.cached_bytes(), full_bytes) << "cycle " << cycle;
    // Peak is the high-water mark: reached in cycle 1, never exceeded by
    // identical refills, never decreased by the evictions between them.
    EXPECT_EQ(m.peak_cached_bytes(), full_bytes) << "cycle " << cycle;

    EXPECT_EQ(m.evict_unpinned(), full_bytes) << "cycle " << cycle;
    EXPECT_EQ(m.cached_bytes(), 0u) << "cycle " << cycle;
    EXPECT_EQ(m.peak_cached_bytes(), full_bytes) << "cycle " << cycle;
  }

  // Every tile was generated exactly once per cycle, so the totals are
  // exact multiples — no hidden regeneration inflated the accounting.
  EXPECT_EQ(m.total_generations(), 4u * s.nnz_tiles());
  EXPECT_EQ(m.max_generation_count(), 4u);

  // A partial refill after the cycles still accounts exactly.
  const std::size_t one_tile = m.acquire(0, 0).bytes();
  EXPECT_EQ(m.cached_bytes(), one_tile);
  EXPECT_EQ(m.peak_cached_bytes(), full_bytes);
  m.release(0, 0);
  EXPECT_EQ(m.cached_bytes(), 0u);
}

TEST(OnDemandMatrix, ReleaseNeverFreesPersistentUnderReferences) {
  // A tile acquired via the reference (persistent) path and also pinned by
  // a streaming consumer must survive the streaming release.
  const Shape s = Shape::dense(tiles({4}), tiles({4}));
  OnDemandMatrix m(s, random_tile_generator(s, 7));
  const Tile& persistent_ref = m.acquire_persistent(0, 0);
  m.acquire(0, 0);  // streaming pin on the same tile
  m.release(0, 0);  // last pin released: persistent mark keeps it cached
  EXPECT_GT(m.cached_bytes(), 0u);
  EXPECT_DOUBLE_EQ(persistent_ref.at(0, 0), m.acquire(0, 0).at(0, 0));
  m.release(0, 0);
  EXPECT_EQ(m.generation_count(0, 0), 1u);
}

TEST(OnDemandMatrix, ConcurrentAcquireReleaseKeepsInvariants) {
  // Many threads hammer overlapping tiles; the generation invariant (at
  // most once while continuously pinned) and exact byte accounting must
  // hold throughout, and the content must stay position-deterministic.
  const Shape s = Shape::dense(tiles({3, 5, 2, 4}), tiles({4, 2, 5, 3}));
  OnDemandMatrix m(s, random_tile_generator(s, 8));

  // One long-lived pin per tile so nothing is discarded mid-test: with the
  // base pins held, each tile must be generated exactly once no matter how
  // many threads race on it.
  std::size_t expected_bytes = 0;
  for (std::size_t r = 0; r < s.tile_rows(); ++r) {
    for (std::size_t c = 0; c < s.tile_cols(); ++c) {
      expected_bytes += m.acquire(r, c).bytes();
    }
  }

  constexpr int kThreads = 8;
  constexpr int kRounds = 200;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&m, &s, &mismatches, t] {
      // Deterministic per-thread expected values via a private generator.
      const TileGenerator check = random_tile_generator(s, 8);
      for (int round = 0; round < kRounds; ++round) {
        const auto r = static_cast<std::size_t>((t + round) %
                                                static_cast<int>(4));
        const auto c = static_cast<std::size_t>((t * 3 + round) %
                                                static_cast<int>(4));
        const Tile& tile = m.acquire(r, c);
        if (tile.at(0, 0) != check(r, c).at(0, 0)) ++mismatches;
        m.release(r, c);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(mismatches.load(), 0);
  // Base pins were never dropped, so: at-most-once generation per tile...
  EXPECT_EQ(m.max_generation_count(), 1u);
  EXPECT_EQ(m.total_generations(), s.tile_rows() * s.tile_cols());
  // ...and the cache holds exactly the 16 base-pinned tiles, byte-exact.
  EXPECT_EQ(m.cached_bytes(), expected_bytes);
  EXPECT_EQ(m.peak_cached_bytes(), expected_bytes);

  for (std::size_t r = 0; r < s.tile_rows(); ++r) {
    for (std::size_t c = 0; c < s.tile_cols(); ++c) m.release(r, c);
  }
  EXPECT_EQ(m.cached_bytes(), 0u);
}

}  // namespace
}  // namespace bstc
