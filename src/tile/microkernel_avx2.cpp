#include "tile/microkernel.hpp"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

namespace bstc {
namespace {

/// AVX2/FMA kernel over MRV ymm row-vectors (MR = 4*MRV rows) and NR
/// columns: one B broadcast and MRV FMAs per column per k step. The
/// shipped instantiation is 8x6 (MRV=2): 12 accumulators + 2 A vectors +
/// 1 broadcast out of 16 ymm registers. The fixed-trip loops over the
/// register arrays fully unroll at -O3, so it is a flat register kernel.
/// Built with a function-level target attribute so the translation unit
/// still compiles for the baseline architecture; only dispatch may call
/// it.
///
/// Stores: the full-tile path commits with one vector FMA per element
/// (c = fma(alpha, acc, c)); the fringe path spills the register tile and
/// commits with a scalar __builtin_fma — the same single rounding — so an
/// element's result never depends on whether its geometry put it in a
/// full or a fringe tile. That, plus the shared KC blocking, is what
/// makes the AVX2 and AVX-512 kernels bitwise-identical.
template <int MRV, int NR>
__attribute__((target("avx2,fma"))) void avx2_kernel(
    Index kc, double alpha, const double* apanel, const double* bpanel,
    double* c, Index ldc, Index mr, Index nr) {
  constexpr Index MR = 4 * MRV;
  __m256d acc[NR][MRV];
  for (int j = 0; j < NR; ++j) {
    for (int v = 0; v < MRV; ++v) acc[j][v] = _mm256_setzero_pd();
  }
  for (Index k = 0; k < kc; ++k) {
    __m256d a[MRV];
    for (int v = 0; v < MRV; ++v) {
      a[v] = _mm256_loadu_pd(apanel + 4 * v);
    }
    apanel += MR;
    for (int j = 0; j < NR; ++j) {
      const __m256d bj = _mm256_broadcast_sd(bpanel + j);
      for (int v = 0; v < MRV; ++v) {
        acc[j][v] = _mm256_fmadd_pd(a[v], bj, acc[j][v]);
      }
    }
    bpanel += NR;
  }

  const __m256d va = _mm256_set1_pd(alpha);
  if (mr == MR && nr == NR) {
    for (int j = 0; j < NR; ++j) {
      double* cj = c + j * ldc;
      for (int v = 0; v < MRV; ++v) {
        _mm256_storeu_pd(
            cj + 4 * v,
            _mm256_fmadd_pd(va, acc[j][v], _mm256_loadu_pd(cj + 4 * v)));
      }
    }
    return;
  }

  // Fringe store: spill the register tile and FMA-commit the live part.
  alignas(32) double tmp[NR * MR];
  for (int j = 0; j < NR; ++j) {
    for (int v = 0; v < MRV; ++v) {
      _mm256_store_pd(tmp + j * MR + 4 * v, acc[j][v]);
    }
  }
  for (Index j = 0; j < nr; ++j) {
    double* cj = c + j * ldc;
    const double* tj = tmp + j * MR;
    for (Index i = 0; i < mr; ++i) {
      cj[i] = __builtin_fma(alpha, tj[i], cj[i]);
    }
  }
}

}  // namespace

namespace detail {
KernelVariant avx2_kernel_variant() {
  return {{8, 6, 128, 510}, &avx2_kernel<2, 6>};
}
}  // namespace detail

}  // namespace bstc

#else  // non-x86 build: no AVX2 kernels; dispatch never selects them.

namespace bstc {
namespace detail {
KernelVariant avx2_kernel_variant() { return {}; }
}  // namespace detail
}  // namespace bstc

#endif
