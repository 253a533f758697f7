#include "tile/gemm.hpp"

#include <algorithm>
#include <vector>

#include "support/error.hpp"
#include "tile/cpu_features.hpp"
#include "tile/microkernel.hpp"
#include "tile/pack.hpp"

namespace bstc {
namespace {

void check_conformance(const Tile& a, const Tile& b, const Tile& c) {
  BSTC_REQUIRE(a.cols() == b.rows(), "GEMM inner dimensions must agree");
  BSTC_REQUIRE(c.rows() == a.rows() && c.cols() == b.cols(),
               "GEMM output dimensions must agree");
}

// ---- Pre-packing blocked kernel (benchmark baseline) ---------------------

// Cache-blocking parameters: KC*MR and KC*NR panels stay in L1, the
// MC x KC block of A in L2.
constexpr Index kMR = 4;
constexpr Index kNR = 4;
constexpr Index kMC = 128;
constexpr Index kKC = 256;
constexpr Index kNC = 512;

/// 4x4 register micro-kernel over a KC-long rank-1 update chain.
/// A panel: column-major (lda), B panel: column-major (ldb).
void micro_kernel(Index kc, double alpha, const double* a, Index lda,
                  const double* b, Index ldb, double* c, Index ldc) {
  double acc[kMR][kNR] = {};
  for (Index k = 0; k < kc; ++k) {
    const double a0 = a[0 + k * lda];
    const double a1 = a[1 + k * lda];
    const double a2 = a[2 + k * lda];
    const double a3 = a[3 + k * lda];
    for (Index j = 0; j < kNR; ++j) {
      const double bj = b[k + j * ldb];
      acc[0][j] += a0 * bj;
      acc[1][j] += a1 * bj;
      acc[2][j] += a2 * bj;
      acc[3][j] += a3 * bj;
    }
  }
  for (Index j = 0; j < kNR; ++j) {
    for (Index i = 0; i < kMR; ++i) {
      c[i + j * ldc] += alpha * acc[i][j];
    }
  }
}

/// Generic edge kernel for fringe blocks smaller than MR x NR.
void edge_kernel(Index mr, Index nr, Index kc, double alpha, const double* a,
                 Index lda, const double* b, Index ldb, double* c, Index ldc) {
  for (Index j = 0; j < nr; ++j) {
    for (Index i = 0; i < mr; ++i) {
      double acc = 0.0;
      for (Index k = 0; k < kc; ++k) {
        acc += a[i + k * lda] * b[k + j * ldb];
      }
      c[i + j * ldc] += alpha * acc;
    }
  }
}

void scale(double beta, Tile& c) {
  if (beta == 1.0) return;
  if (beta == 0.0) {
    c.fill(0.0);
    return;
  }
  double* p = c.data();
  const auto n = static_cast<std::size_t>(c.size());
  for (std::size_t i = 0; i < n; ++i) p[i] *= beta;
}

void scale_view(Index m, Index n, double beta, double* c, Index ldc) {
  if (beta == 1.0) return;
  for (Index j = 0; j < n; ++j) {
    double* cj = c + j * ldc;
    if (beta == 0.0) {
      std::fill(cj, cj + m, 0.0);
    } else {
      for (Index i = 0; i < m; ++i) cj[i] *= beta;
    }
  }
}

// ---- Packed kernel core --------------------------------------------------

/// Run the micro-kernel over one packed mc x kc A block and the packed
/// kc x nc B block (both packed with the kernel's geometry), updating the
/// C view at (0, 0). Each B panel stays in L1 across the A panels.
void macro_kernel(const MicroKernel& mk, Index mc, Index nc, Index kc,
                  double alpha, const double* ap, const double* bp, double* c,
                  Index ldc) {
  const Index MR = mk.geom.mr, NR = mk.geom.nr;
  for (Index jr = 0; jr < nc; jr += NR) {
    const Index nr = std::min(NR, nc - jr);
    const double* bpanel = bp + (jr / NR) * kc * NR;
    double* cj = c + jr * ldc;
    for (Index ir = 0; ir < mc; ir += MR) {
      const Index mr = std::min(MR, mc - ir);
      mk.fn(kc, alpha, ap + (ir / MR) * kc * MR, bpanel, cj + ir, ldc, mr,
            nr);
    }
  }
}

thread_local std::uint64_t t_batch_a_packs = 0;

}  // namespace

void gemm_naive(double alpha, const Tile& a, const Tile& b, double beta,
                Tile& c) {
  check_conformance(a, b, c);
  scale(beta, c);
  const Index m = a.rows(), n = b.cols(), k = a.cols();
  for (Index j = 0; j < n; ++j) {
    for (Index l = 0; l < k; ++l) {
      const double blj = alpha * b.at(l, j);
      for (Index i = 0; i < m; ++i) {
        c.at(i, j) += a.at(i, l) * blj;
      }
    }
  }
}

void gemm_blocked(double alpha, const Tile& a, const Tile& b, double beta,
                  Tile& c) {
  check_conformance(a, b, c);
  scale(beta, c);
  if (alpha == 0.0 || a.size() == 0 || b.size() == 0) return;

  const Index m = a.rows(), n = b.cols(), k = a.cols();
  const double* ap = a.data();
  const double* bp = b.data();
  double* cp = c.data();
  const Index lda = a.ld(), ldb = b.ld(), ldc = c.ld();

  for (Index jc = 0; jc < n; jc += kNC) {
    const Index nc = std::min(kNC, n - jc);
    for (Index pc = 0; pc < k; pc += kKC) {
      const Index kc = std::min(kKC, k - pc);
      for (Index ic = 0; ic < m; ic += kMC) {
        const Index mc = std::min(kMC, m - ic);
        // Macro block: C[ic:, jc:] += A[ic:, pc:] * B[pc:, jc:]
        for (Index jr = 0; jr < nc; jr += kNR) {
          const Index nr = std::min(kNR, nc - jr);
          for (Index ir = 0; ir < mc; ir += kMR) {
            const Index mr = std::min(kMR, mc - ir);
            const double* ablk = ap + (ic + ir) + pc * lda;
            const double* bblk = bp + pc + (jc + jr) * ldb;
            double* cblk = cp + (ic + ir) + (jc + jr) * ldc;
            if (mr == kMR && nr == kNR) {
              micro_kernel(kc, alpha, ablk, lda, bblk, ldb, cblk, ldc);
            } else {
              edge_kernel(mr, nr, kc, alpha, ablk, lda, bblk, ldb, cblk, ldc);
            }
          }
        }
      }
    }
  }
}

void gemm_view_with(const MicroKernel& mk, Index m, Index n, Index k,
                    double alpha, const double* a, Index lda, const double* b,
                    Index ldb, double beta, double* c, Index ldc) {
  BSTC_REQUIRE(lda >= m && ldb >= k && ldc >= m,
               "GEMM leading dimensions must cover the views");
  scale_view(m, n, beta, c, ldc);
  if (alpha == 0.0 || m <= 0 || n <= 0 || k <= 0) return;

  const KernelGeometry& g = mk.geom;
  // One arena acquire sized for the largest (B panel, A block) pair this
  // call will pack; the pointers stay stable across the blocking loops.
  const std::size_t b_doubles =
      packed_b_doubles(std::min(k, kPackKC), std::min(n, g.nc), g.nr);
  const std::size_t a_doubles =
      packed_a_doubles(std::min(m, g.mc), std::min(k, kPackKC), g.mr);
  double* bp = pack_arena().acquire(b_doubles + a_doubles);
  double* ap = bp + b_doubles;

  for (Index jc = 0; jc < n; jc += g.nc) {
    const Index nc = std::min(g.nc, n - jc);
    for (Index pc = 0; pc < k; pc += kPackKC) {
      const Index kc = std::min(kPackKC, k - pc);
      pack_b(kc, nc, b + pc + jc * ldb, ldb, bp, g.nr);
      for (Index ic = 0; ic < m; ic += g.mc) {
        const Index mc = std::min(g.mc, m - ic);
        pack_a(mc, kc, a + ic + pc * lda, lda, ap, g.mr);
        macro_kernel(mk, mc, nc, kc, alpha, ap, bp, c + ic + jc * ldc, ldc);
      }
    }
  }
}

void gemm_view(Index m, Index n, Index k, double alpha, const double* a,
               Index lda, const double* b, Index ldb, double beta, double* c,
               Index ldc) {
  gemm_view_with(active_microkernel(), m, n, k, alpha, a, lda, b, ldb, beta,
                 c, ldc);
}

void gemm(double alpha, const Tile& a, const Tile& b, double beta, Tile& c) {
  check_conformance(a, b, c);
  gemm_view(a.rows(), b.cols(), a.cols(), alpha, a.data(), a.ld(), b.data(),
            b.ld(), beta, c.data(), c.ld());
}

void gemm_batch_packed(double alpha, std::span<const PackedGemmItem> items,
                       const double* b, Index k, Index n) {
  const MicroKernel& mk = active_microkernel();
  const Index MR = mk.geom.mr, NR = mk.geom.nr;
  const Index npad = (n + NR - 1) / NR * NR;
  // Slab-major so the shared B slab stays cache-resident across every
  // item. Every C element still sees its slabs in ascending order, one
  // commit per slab — the chain gemm_view runs, hence bitwise-equal
  // results.
  for (Index pc = 0; pc < k; pc += kPackKC) {
    const Index kc = std::min(kPackKC, k - pc);
    const double* bslab = b + pc * npad;
    for (const PackedGemmItem& item : items) {
      macro_kernel(mk, item.m, n, kc, alpha,
                   item.a + pc * ((item.m + MR - 1) / MR * MR), bslab, item.c,
                   item.ldc);
    }
  }
}

void gemm_batch(double alpha, std::span<const GemmBatchItem> items,
                const Tile& b, double beta) {
  const Index k = b.rows(), n = b.cols();
  const KernelGeometry& g = active_microkernel().geom;
  // One arena acquire for B plus every A tile that needs packing (an item
  // reading the same A as its predecessor reuses that pack).
  std::size_t total = packed_b_doubles(k, n, g.nr);
  for (std::size_t t = 0; t < items.size(); ++t) {
    const GemmBatchItem& item = items[t];
    BSTC_REQUIRE(item.a != nullptr && item.c != nullptr,
                 "GEMM batch items must be complete");
    check_conformance(*item.a, b, *item.c);
    if (t == 0 || items[t - 1].a != item.a) {
      total += packed_a_doubles(item.a->rows(), k, g.mr);
    }
  }

  // beta exactly once per distinct C tile: items may alias outputs.
  std::vector<double*> scaled;
  scaled.reserve(items.size());
  for (const GemmBatchItem& item : items) {
    double* p = item.c->data();
    if (std::find(scaled.begin(), scaled.end(), p) == scaled.end()) {
      scaled.push_back(p);
      scale(beta, *item.c);
    }
  }
  if (alpha == 0.0 || items.empty() || n <= 0 || k <= 0) return;

  double* bp = pack_arena().acquire(total);
  pack_b_panels(k, n, b.data(), b.ld(), bp, g.nr);
  double* next = bp + packed_b_doubles(k, n, g.nr);
  std::vector<PackedGemmItem> packed;
  packed.reserve(items.size());
  for (std::size_t t = 0; t < items.size(); ++t) {
    const Tile& a = *items[t].a;
    if (t == 0 || items[t - 1].a != items[t].a) {
      pack_a_panels(a.rows(), k, a.data(), a.ld(), next, g.mr);
      packed.push_back({next, a.rows(), items[t].c->data(), items[t].c->ld()});
      next += packed_a_doubles(a.rows(), k, g.mr);
      ++t_batch_a_packs;
    } else {
      packed.push_back({packed.back().a, a.rows(), items[t].c->data(),
                        items[t].c->ld()});
    }
  }
  gemm_batch_packed(alpha, packed, bp, k, n);
}

std::uint64_t gemm_batch_a_pack_count() { return t_batch_a_packs; }

const char* gemm_kernel_name() { return active_microkernel().name.c_str(); }

}  // namespace bstc
