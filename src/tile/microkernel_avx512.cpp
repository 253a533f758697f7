#include "tile/microkernel.hpp"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

namespace bstc {
namespace {

/// AVX-512 kernel over NZ zmm row-vectors per column (MR = 8*NZ rows) and
/// NR columns. The shipped instantiation is 16x12 (NZ=2): 24 zmm
/// accumulators + 2 A vectors + 1 broadcast out of 32 registers — 24
/// independent FMA chains, enough to keep both FMA ports busy through the
/// 4-cycle latency.
///
/// Bitwise discipline (see microkernel.hpp): per element, one FMA per k
/// step in k order plus one alpha-FMA commit — identical rounding to the
/// AVX2 kernel, so AVX2 and AVX-512 results match bitwise.
template <int NZ, int NR>
__attribute__((target("avx2,fma,avx512f,avx512vl"))) void avx512_kernel(
    Index kc, double alpha, const double* apanel, const double* bpanel,
    double* c, Index ldc, Index mr, Index nr) {
  constexpr Index MR = 8 * NZ;
  __m512d acc[NR][NZ];
  for (int j = 0; j < NR; ++j) {
    for (int v = 0; v < NZ; ++v) acc[j][v] = _mm512_setzero_pd();
  }
  for (Index k = 0; k < kc; ++k) {
    __m512d a[NZ];
    for (int v = 0; v < NZ; ++v) a[v] = _mm512_loadu_pd(apanel + 8 * v);
    apanel += MR;
    for (int j = 0; j < NR; ++j) {
      const __m512d bj = _mm512_set1_pd(bpanel[j]);
      for (int v = 0; v < NZ; ++v) {
        acc[j][v] = _mm512_fmadd_pd(a[v], bj, acc[j][v]);
      }
    }
    bpanel += NR;
  }

  if (mr == MR && nr == NR) {
    const __m512d va = _mm512_set1_pd(alpha);
    for (int j = 0; j < NR; ++j) {
      double* cj = c + j * ldc;
      for (int v = 0; v < NZ; ++v) {
        _mm512_storeu_pd(
            cj + 8 * v,
            _mm512_fmadd_pd(va, acc[j][v], _mm512_loadu_pd(cj + 8 * v)));
      }
    }
    return;
  }

  // Fringe store: spill the register tile and FMA-commit the live part
  // with the same single rounding as the full-tile path.
  alignas(64) double tmp[NR * MR];
  for (int j = 0; j < NR; ++j) {
    for (int v = 0; v < NZ; ++v) {
      _mm512_store_pd(tmp + j * MR + 8 * v, acc[j][v]);
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
KernelVariant avx512_kernel_variant() {
  return {{16, 12, 128, 504}, &avx512_kernel<2, 12>};
}
}  // namespace detail

}  // namespace bstc

#else  // non-x86 build: no AVX-512 kernel; dispatch never selects it.

namespace bstc {
namespace detail {
KernelVariant avx512_kernel_variant() { return {}; }
}  // namespace detail
}  // namespace bstc

#endif
