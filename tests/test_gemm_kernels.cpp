/// Randomized property tests for the packed GEMM backend: every kernel
/// tier against the naive reference over fringe shapes, submatrix views
/// with ld > rows, the full alpha/beta lattice, and shared-B batches
/// including aliased C tiles. Runs under the ASan/UBSan CI job, so the
/// pack arena and panel fringes are also exercised for memory safety.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "support/error.hpp"
#include "tile/cpu_features.hpp"
#include "tile/gemm.hpp"
#include "tile/microkernel.hpp"
#include "tile/pack.hpp"

namespace bstc {
namespace {

Tile random_tile(Index rows, Index cols, Rng& rng) {
  Tile t(rows, cols);
  t.fill_random(rng);
  return t;
}

/// Shapes around the register tile (MR=8, NR=4) and cache-block edges so
/// every fringe path of packing and the micro-kernel stores is hit.
std::vector<Index> fringe_extents() {
  return {1, 2, 3, 5, 7, 8, 9, 12, 17, 31, 33, 129, 130};
}

TEST(GemmKernels, PackedMatchesNaiveOnFringeShapesAndAlphaBeta) {
  const std::vector<double> coeffs = {0.0, 1.0, 0.5, -1.0};
  Rng rng(2024);
  int trial = 0;
  for (const Index m : fringe_extents()) {
    for (const Index n : {Index{1}, Index{3}, Index{4}, Index{9},
                          Index{33}}) {
      const Index k = fringe_extents()[static_cast<std::size_t>(trial) %
                                       fringe_extents().size()];
      const double alpha = coeffs[static_cast<std::size_t>(trial) % 4];
      const double beta = coeffs[static_cast<std::size_t>(trial / 4) % 4];
      ++trial;
      const Tile a = random_tile(m, k, rng);
      const Tile b = random_tile(k, n, rng);
      Tile c0 = random_tile(m, n, rng);
      Tile c1 = c0;
      gemm_naive(alpha, a, b, beta, c0);
      gemm(alpha, a, b, beta, c1);
      EXPECT_LT(c0.max_abs_diff(c1), 1e-12 * static_cast<double>(k + 1))
          << "m=" << m << " n=" << n << " k=" << k << " alpha=" << alpha
          << " beta=" << beta;
    }
  }
}

TEST(GemmKernels, ViewWithLeadingDimensionsBeyondExtents) {
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    const Index m = 1 + static_cast<Index>(rng.uniform(0.0, 40.0));
    const Index n = 1 + static_cast<Index>(rng.uniform(0.0, 40.0));
    const Index k = 1 + static_cast<Index>(rng.uniform(0.0, 40.0));
    const Index lda = m + static_cast<Index>(rng.uniform(0.0, 9.0));
    const Index ldb = k + static_cast<Index>(rng.uniform(0.0, 9.0));
    const Index ldc = m + static_cast<Index>(rng.uniform(0.0, 9.0));
    // Views carved out of larger parent buffers; the slack rows carry a
    // sentinel that must survive the call untouched.
    std::vector<double> a(static_cast<std::size_t>(lda * k));
    std::vector<double> b(static_cast<std::size_t>(ldb * n));
    std::vector<double> c(static_cast<std::size_t>(ldc * n), 77.5);
    for (double& v : a) v = rng.uniform(-1.0, 1.0);
    for (double& v : b) v = rng.uniform(-1.0, 1.0);
    std::vector<double> expected = c;
    // Naive reference over the views.
    for (Index j = 0; j < n; ++j) {
      for (Index i = 0; i < m; ++i) {
        double acc = 0.0;
        for (Index l = 0; l < k; ++l) {
          acc += a[static_cast<std::size_t>(i + l * lda)] *
                 b[static_cast<std::size_t>(l + j * ldb)];
        }
        double& e = expected[static_cast<std::size_t>(i + j * ldc)];
        e = 0.25 * e + 0.75 * acc;
      }
    }
    gemm_view(m, n, k, 0.75, a.data(), lda, b.data(), ldb, 0.25, c.data(),
              ldc);
    for (std::size_t idx = 0; idx < c.size(); ++idx) {
      const Index i = static_cast<Index>(idx) % ldc;
      if (i >= m) {
        // Slack rows between columns: must be untouched.
        EXPECT_DOUBLE_EQ(c[idx], 77.5) << "ld slack clobbered at " << idx;
      } else {
        EXPECT_NEAR(c[idx], expected[idx], 1e-12 * static_cast<double>(k + 1));
      }
    }
  }
}

TEST(GemmKernels, BatchMatchesPerTileNaive) {
  Rng rng(99);
  for (const double alpha : {1.0, 0.5, -1.0}) {
    for (const double beta : {0.0, 1.0, 0.5, -1.0}) {
      const Index k = 19, n = 13;
      const Tile b = random_tile(k, n, rng);
      std::vector<Tile> as, cs, expected;
      for (const Index m : {Index{1}, Index{7}, Index{8}, Index{9},
                            Index{30}}) {
        as.push_back(random_tile(m, k, rng));
        cs.push_back(random_tile(m, n, rng));
        expected.push_back(cs.back());
      }
      std::vector<GemmBatchItem> items;
      for (std::size_t t = 0; t < as.size(); ++t) {
        items.push_back({&as[t], &cs[t]});
        gemm_naive(alpha, as[t], b, beta, expected[t]);
      }
      gemm_batch(alpha, items, b, beta);
      for (std::size_t t = 0; t < cs.size(); ++t) {
        EXPECT_LT(cs[t].max_abs_diff(expected[t]),
                  1e-12 * static_cast<double>(k + 1))
            << "item " << t << " alpha=" << alpha << " beta=" << beta;
      }
    }
  }
}

TEST(GemmKernels, BatchAppliesBetaOncePerAliasedC) {
  Rng rng(123);
  const Index m = 11, k = 17, n = 9;
  const Tile b = random_tile(k, n, rng);
  const Tile a1 = random_tile(m, k, rng);
  const Tile a2 = random_tile(m, k, rng);
  for (const double beta : {0.0, 1.0, 0.5, -1.0}) {
    Tile c = random_tile(m, n, rng);
    Tile expected = c;
    // Aliased semantics: C <- beta*C + a1*B + a2*B, beta exactly once.
    gemm_naive(1.0, a1, b, beta, expected);
    gemm_naive(1.0, a2, b, 1.0, expected);
    const std::vector<GemmBatchItem> items = {{&a1, &c}, {&a2, &c}};
    gemm_batch(1.0, items, b, beta);
    EXPECT_LT(c.max_abs_diff(expected), 1e-12 * static_cast<double>(k + 1))
        << "beta=" << beta;
  }
}

TEST(GemmKernels, EmptyBatchAndConformance) {
  Rng rng(5);
  const Tile b = random_tile(4, 4, rng);
  gemm_batch(1.0, {}, b, 0.0);  // no items: nothing to do, must not throw
  Tile bad_a(3, 5);             // inner dimension mismatch
  Tile c(3, 4);
  const std::vector<GemmBatchItem> items = {{&bad_a, &c}};
  EXPECT_THROW(gemm_batch(1.0, items, b, 1.0), Error);
}

TEST(GemmKernels, PackZeroPadsPanels) {
  // 5 rows packed into one MR=8 panel: rows 5..7 must be zero.
  const Index mc = 5, kc = 3;
  Tile a(mc, kc);
  Rng rng(11);
  a.fill_random(rng);
  std::vector<double> panel(packed_a_doubles(mc, kc), -1.0);
  pack_a(mc, kc, a.data(), a.ld(), panel.data());
  for (Index col = 0; col < kc; ++col) {
    for (Index r = 0; r < kPackMR; ++r) {
      const double v = panel[static_cast<std::size_t>(col * kPackMR + r)];
      if (r < mc) {
        EXPECT_DOUBLE_EQ(v, a.at(r, col));
      } else {
        EXPECT_DOUBLE_EQ(v, 0.0);
      }
    }
  }
  // 2 columns packed into one NR=4 panel: columns 2..3 must be zero.
  const Index nc = 2;
  Tile b(kc, nc);
  b.fill_random(rng);
  std::vector<double> bpanel(packed_b_doubles(kc, nc), -1.0);
  pack_b(kc, nc, b.data(), b.ld(), bpanel.data());
  for (Index k = 0; k < kc; ++k) {
    for (Index col = 0; col < kPackNR; ++col) {
      const double v = bpanel[static_cast<std::size_t>(k * kPackNR + col)];
      if (col < nc) {
        EXPECT_DOUBLE_EQ(v, b.at(k, col));
      } else {
        EXPECT_DOUBLE_EQ(v, 0.0);
      }
    }
  }
}

TEST(GemmKernels, ArenaGrowsAndAligns) {
  PackArena arena;
  double* p = arena.acquire(16);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 64, 0u);
  const std::size_t cap = arena.capacity_bytes();
  EXPECT_GE(cap, 16 * sizeof(double));
  arena.acquire(8);  // smaller: capacity must not shrink
  EXPECT_EQ(arena.capacity_bytes(), cap);
  double* q = arena.acquire(1 << 16);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(q) % 64, 0u);
  EXPECT_GE(arena.capacity_bytes(), (std::size_t{1} << 16) * sizeof(double));
}

TEST(GemmKernels, DispatchReportsAKernel) {
  // Whatever the host, dispatch must resolve to a callable kernel whose
  // reported name is derived from the dispatched table entry itself —
  // the active ISA plus that ISA's one register geometry, never a
  // hand-written string.
  const MicroKernel& mk = active_microkernel();
  EXPECT_NE(mk.fn, nullptr);
  const KernelIsa isa = active_kernel_isa();
  EXPECT_EQ(mk.isa, isa);
  const char* geometry = isa == KernelIsa::kAvx512 ? "-16x12"
                         : isa == KernelIsa::kAvx2 ? "-8x6"
                                                   : "-8x4";
  const std::string expected = std::string(kernel_isa_name(isa)) + geometry;
  EXPECT_EQ(gemm_kernel_name(), expected);
  EXPECT_EQ(mk.name, expected);
  ASSERT_NE(microkernel_for(KernelIsa::kScalar), nullptr);
  if (isa >= KernelIsa::kAvx2) {
    EXPECT_NE(microkernel_for(KernelIsa::kAvx2), nullptr);
  }
}

TEST(GemmKernels, ResolveRejectsUnknownKernelValues) {
  // A typo in BSTC_KERNEL must never silently fall back to
  // autodetection — and neither may a full kernel name: the ISA alone
  // selects the kernel.
  for (const char* bad : {"avx", "AVX2", "sse2", "avx2-8x6", "avx2-8x4",
                          "avx512-16x12", "avx2-", "-8x4", "fastest"}) {
    EXPECT_THROW(resolve_kernel_choice(bad, KernelIsa::kAvx512), Error)
        << "accepted BSTC_KERNEL=" << bad;
  }
  // Unset and "auto" pick the host's best ISA without a downgrade flag.
  for (const char* ok : {static_cast<const char*>(nullptr), "auto", ""}) {
    const KernelChoice c = resolve_kernel_choice(ok, KernelIsa::kAvx2);
    EXPECT_EQ(c.isa, KernelIsa::kAvx2);
    EXPECT_FALSE(c.downgraded);
  }
}

TEST(GemmKernels, ResolveDowngradesExplicitRequestsAboveHost) {
  // avx512 on an avx2 host: run the best the host has, but say so.
  KernelChoice c = resolve_kernel_choice("avx512", KernelIsa::kAvx2);
  EXPECT_EQ(c.isa, KernelIsa::kAvx2);
  EXPECT_TRUE(c.downgraded);
  EXPECT_EQ(c.requested, "avx512");

  c = resolve_kernel_choice("avx2", KernelIsa::kScalar);
  EXPECT_EQ(c.isa, KernelIsa::kScalar);
  EXPECT_TRUE(c.downgraded);

  // At-or-below-host requests are honored exactly, no downgrade.
  c = resolve_kernel_choice("scalar", KernelIsa::kAvx512);
  EXPECT_EQ(c.isa, KernelIsa::kScalar);
  EXPECT_FALSE(c.downgraded);
  c = resolve_kernel_choice("avx2", KernelIsa::kAvx512);
  EXPECT_EQ(c.isa, KernelIsa::kAvx2);
  EXPECT_FALSE(c.downgraded);
}

TEST(GemmKernels, ZooEntriesAreConsistent) {
  // The kernel table: exactly one entry per compiled ISA, in ISA order.
  ASSERT_FALSE(microkernels().empty());
  EXPECT_EQ(microkernels().front().isa, KernelIsa::kScalar);
  for (std::size_t i = 0; i < microkernels().size(); ++i) {
    const MicroKernel& mk = microkernels()[i];
    EXPECT_NE(mk.fn, nullptr);
    if (i > 0) {
      EXPECT_LT(microkernels()[i - 1].isa, mk.isa) << mk.name;
    }
    // Names are derived from the entry's own fields.
    const std::string expected = std::string(kernel_isa_name(mk.isa)) + "-" +
                                 std::to_string(mk.geom.mr) + "x" +
                                 std::to_string(mk.geom.nr);
    EXPECT_EQ(mk.name, expected);
    // Cache blocks tile evenly by the register tile, and every geometry
    // fits the panel sizing bound.
    EXPECT_EQ(mk.geom.mc % mk.geom.mr, 0) << mk.name;
    EXPECT_EQ(mk.geom.nc % mk.geom.nr, 0) << mk.name;
    EXPECT_LE(mk.geom.mr, kMaxPackMR) << mk.name;
    EXPECT_LE(mk.geom.nr, kMaxPackNR) << mk.name;
    EXPECT_EQ(microkernel_for(mk.isa), &mk);
  }
  EXPECT_EQ(&active_microkernel(), microkernel_for(active_kernel_isa()));
}

TEST(GemmKernels, EveryZooKernelMatchesNaiveOnFringeLattice) {
  // Every kernel this host can run against the naive reference over
  // shapes straddling each geometry's register tile (8x4, 8x6, 16x12)
  // and the cache-block edges.
  Rng rng(404);
  const std::vector<Index> extents = {1, 3, 5, 8, 11, 13, 16, 17, 24, 129};
  for (const MicroKernel& mk : microkernels()) {
    if (mk.isa > host_best_isa()) continue;  // not executable here
    int trial = 0;
    for (const Index m : extents) {
      for (const Index n : extents) {
        const Index k = extents[static_cast<std::size_t>(trial++) %
                                extents.size()];
        const Tile a = random_tile(m, k, rng);
        const Tile b = random_tile(k, n, rng);
        Tile c0 = random_tile(m, n, rng);
        Tile c1 = c0;
        gemm_naive(0.75, a, b, 0.5, c0);
        gemm_view_with(mk, m, n, k, 0.75, a.data(), a.ld(), b.data(),
                       b.ld(), 0.5, c1.data(), c1.ld());
        EXPECT_LT(c0.max_abs_diff(c1), 1e-12 * static_cast<double>(k + 1))
            << mk.name << " m=" << m << " n=" << n << " k=" << k;
      }
    }
  }
}

TEST(GemmKernels, SameIsaGeometriesAreBitwiseIdentical) {
  // Kernels of one rounding family produce identical bits whatever their
  // register geometry: each C element is the same k-ascending FMA chain
  // with one alpha-FMA commit per kPackKC slab. With one kernel per ISA
  // this is the AVX2 8x6 kernel against the AVX-512 16x12 kernel — the
  // license for the executor to pick either ISA without moving a bit.
  const MicroKernel* avx2 = microkernel_for(KernelIsa::kAvx2);
  const MicroKernel* avx512 = microkernel_for(KernelIsa::kAvx512);
  if (avx2 == nullptr || avx512 == nullptr ||
      host_best_isa() < KernelIsa::kAvx512) {
    GTEST_SKIP() << "host cannot run both vector kernels";
  }
  EXPECT_EQ(avx2->geom.mr, 8);
  EXPECT_EQ(avx2->geom.nr, 6);
  EXPECT_EQ(avx512->geom.mr, 16);
  EXPECT_EQ(avx512->geom.nr, 12);
  Rng rng(808);
  const Index shapes[][3] = {{37, 300, 25}, {8, 8, 8},   {130, 29, 61},
                             {5, 513, 12},  {16, 256, 12}, {17, 257, 13},
                             {96, 600, 50}};
  for (const auto& s : shapes) {
    const Index m = s[0], k = s[1], n = s[2];
    const Tile a = random_tile(m, k, rng);
    const Tile b = random_tile(k, n, rng);
    const Tile c_init = random_tile(m, n, rng);
    Tile c2 = c_init, c5 = c_init;
    gemm_view_with(*avx2, m, n, k, 1.0, a.data(), a.ld(), b.data(), b.ld(),
                   0.5, c2.data(), c2.ld());
    gemm_view_with(*avx512, m, n, k, 1.0, a.data(), a.ld(), b.data(),
                   b.ld(), 0.5, c5.data(), c5.ld());
    for (Index j = 0; j < n; ++j) {
      for (Index i = 0; i < m; ++i) {
        EXPECT_EQ(c2.at(i, j), c5.at(i, j))
            << "avx2-8x6 and avx512-16x12 differ bitwise at (" << i << ","
            << j << ") for m=" << m << " k=" << k << " n=" << n;
      }
    }
  }
}

TEST(GemmKernels, BatchSkipsRedundantAPacksBitwiseEqual) {
  // Consecutive items referencing the same A tile (the aliased-C
  // accumulation pattern) must not re-pack A — and the skip must be
  // invisible in the results.
  Rng rng(31);
  const Index m = 61, k = 300, n = 45;  // two kc slabs
  const Tile a = random_tile(m, k, rng);
  const Tile a2 = random_tile(m, k, rng);
  const Tile b = random_tile(k, n, rng);
  const Tile c_init = random_tile(m, n, rng);

  // Reference: the same batch computed one item at a time through the
  // per-call path, which packs A for every call unconditionally.
  Tile e1 = c_init, e2 = c_init, e3 = c_init;
  gemm_view(m, n, k, 1.0, a.data(), a.ld(), b.data(), b.ld(), 0.5, e1.data(),
            e1.ld());
  gemm_view(m, n, k, 1.0, a.data(), a.ld(), b.data(), b.ld(), 0.5, e2.data(),
            e2.ld());
  gemm_view(m, n, k, 1.0, a2.data(), a2.ld(), b.data(), b.ld(), 0.5,
            e3.data(), e3.ld());

  Tile c1 = c_init, c2 = c_init, c3 = c_init;
  const std::vector<GemmBatchItem> items = {{&a, &c1}, {&a, &c2}, {&a2, &c3}};
  const std::uint64_t packs_before = gemm_batch_a_pack_count();
  gemm_batch(1.0, items, b, 0.5);
  const std::uint64_t packs = gemm_batch_a_pack_count() - packs_before;

  // Each A tile is packed whole (every kc slab at once): two distinct
  // consecutive A tiles -> 2 packs, not one per item.
  EXPECT_EQ(packs, 2u);

  // And the skip is bitwise-invisible: batch output == per-call output.
  for (Index j = 0; j < n; ++j) {
    for (Index i = 0; i < m; ++i) {
      EXPECT_EQ(c1.at(i, j), e1.at(i, j)) << "(" << i << "," << j << ")";
      EXPECT_EQ(c2.at(i, j), e2.at(i, j)) << "(" << i << "," << j << ")";
      EXPECT_EQ(c3.at(i, j), e3.at(i, j)) << "(" << i << "," << j << ")";
    }
  }
}

TEST(GemmKernels, ScalarAndActiveKernelsAgree) {
  // The scalar kernel is the portable reference for the vector one: run
  // the same product through both (each with its own panel geometry) and
  // compare at the C level.
  Rng rng(55);
  const Index m = 37, k = 23, n = 29;
  const Tile a = random_tile(m, k, rng);
  const Tile b = random_tile(k, n, rng);
  Tile c_scalar(m, n), c_active(m, n);
  const MicroKernel* scalar = microkernel_for(KernelIsa::kScalar);
  ASSERT_NE(scalar, nullptr);
  gemm_view_with(*scalar, m, n, k, 1.0, a.data(), a.ld(), b.data(), b.ld(),
                 0.0, c_scalar.data(), c_scalar.ld());
  gemm_view(m, n, k, 1.0, a.data(), a.ld(), b.data(), b.ld(), 0.0,
            c_active.data(), c_active.ld());
  // FMA contraction can differ from separate mul+add at the last ulp.
  EXPECT_LT(c_scalar.max_abs_diff(c_active), 1e-13 * static_cast<double>(k));
}

TEST(GemmKernels, PrePackedBatchIsBitwiseEqualToGemmBatch) {
  // The executor's path: operands packed once as whole-tile panels (the
  // staging step), then gemm_batch_packed with no packing. It must
  // reproduce gemm_batch bit for bit over a fringe lattice (m, n off the
  // 16/12 and 8/6 register tiles), depths past one kPackKC slab, and
  // operands that are views over external storage (the zero-copy shm
  // path) rather than owned tiles.
  const KernelGeometry& g = active_microkernel().geom;
  Rng rng(1212);
  for (const Index k : {Index{1}, Index{7}, kPackKC, kPackKC + 1,
                        2 * kPackKC + 37}) {
    for (const Index n : {Index{1}, Index{5}, Index{13}, Index{25},
                          Index{36}}) {
      const std::vector<Index> ms = {1, 15, 17, 33, 100};
      // External storage for every operand; tiles below are views.
      std::vector<double> bstore(static_cast<std::size_t>(k * n));
      for (double& v : bstore) v = rng.uniform(-1.0, 1.0);
      const Tile b = Tile::view(bstore.data(), k, n);
      std::vector<std::vector<double>> astore;
      std::vector<Tile> as, c_batch, c_packed;
      for (const Index m : ms) {
        astore.emplace_back(static_cast<std::size_t>(m * k));
        for (double& v : astore.back()) v = rng.uniform(-1.0, 1.0);
        as.push_back(Tile::view(astore.back().data(), m, k));
        c_batch.push_back(random_tile(m, n, rng));
        c_packed.push_back(c_batch.back());
      }

      std::vector<GemmBatchItem> items;
      for (std::size_t t = 0; t < ms.size(); ++t) {
        items.push_back({&as[t], &c_batch[t]});
      }
      gemm_batch(0.75, items, b, 1.0);

      std::vector<double> bpanels(packed_b_doubles(k, n, g.nr));
      pack_b_panels(k, n, b.data(), b.ld(), bpanels.data(), g.nr);
      std::vector<std::vector<double>> apanels;
      std::vector<PackedGemmItem> packed;
      for (std::size_t t = 0; t < ms.size(); ++t) {
        const Tile& view = as[t];
        apanels.emplace_back(packed_a_doubles(ms[t], k, g.mr));
        pack_a_panels(ms[t], k, view.data(), view.ld(), apanels.back().data(),
                      g.mr);
        packed.push_back({apanels.back().data(), ms[t], c_packed[t].data(),
                          c_packed[t].ld()});
      }
      gemm_batch_packed(0.75, packed, bpanels.data(), k, n);

      for (std::size_t t = 0; t < ms.size(); ++t) {
        for (Index j = 0; j < n; ++j) {
          for (Index i = 0; i < ms[t]; ++i) {
            ASSERT_EQ(c_packed[t].at(i, j), c_batch[t].at(i, j))
                << "m=" << ms[t] << " k=" << k << " n=" << n << " at (" << i
                << "," << j << ")";
          }
        }
      }
    }
  }
}

TEST(GemmKernels, WholeOperandPanelsAreSlabMajor) {
  // pack_a_panels / pack_b_panels lay a whole operand out as consecutive
  // kPackKC slabs, each slab pc starting at pc * round_up(extent, tile):
  // the offsets the executor fixes when it builds the task graph.
  Rng rng(77);
  const Index m = 19, n = 7, k = kPackKC + 9, mr = 16, nr = 12;
  const Tile a = random_tile(m, k, rng);
  const Tile b = random_tile(k, n, rng);
  std::vector<double> ap(packed_a_doubles(m, k, mr), -1.0);
  std::vector<double> bp(packed_b_doubles(k, n, nr), -1.0);
  pack_a_panels(m, k, a.data(), a.ld(), ap.data(), mr);
  pack_b_panels(k, n, b.data(), b.ld(), bp.data(), nr);
  const Index mpad = 32, npad = 12;
  for (Index l = 0; l < k; ++l) {
    const Index pc = l / kPackKC * kPackKC, kc = std::min(kPackKC, k - pc);
    for (Index i = 0; i < mpad; ++i) {
      const double v = ap[static_cast<std::size_t>(
          pc * mpad + (i / mr) * kc * mr + (l - pc) * mr + i % mr)];
      EXPECT_EQ(v, i < m ? a.at(i, l) : 0.0) << "A(" << i << "," << l << ")";
    }
    for (Index j = 0; j < npad; ++j) {
      const double v = bp[static_cast<std::size_t>(pc * npad + (l - pc) * nr +
                                                   j)];
      EXPECT_EQ(v, j < n ? b.at(l, j) : 0.0) << "B(" << l << "," << j << ")";
    }
  }
}

}  // namespace
}  // namespace bstc
