#include "tile/microkernel.hpp"

namespace bstc {
namespace {

/// Portable MR x NR kernel: the accumulator block is updated with MR
/// independent chains per column, which baseline autovectorization (SSE2)
/// can still pick up. Fringes are handled at store time only — the packed
/// panels are zero-padded, so the full-tile multiply is always valid.
template <Index MR, Index NR>
void scalar_kernel(Index kc, double alpha, const double* apanel,
                   const double* bpanel, double* c, Index ldc, Index mr,
                   Index nr) {
  double acc[NR][MR] = {};
  for (Index k = 0; k < kc; ++k) {
    const double* a = apanel + k * MR;
    const double* b = bpanel + k * NR;
    for (Index j = 0; j < NR; ++j) {
      const double bj = b[j];
      for (Index i = 0; i < MR; ++i) {
        acc[j][i] += a[i] * bj;
      }
    }
  }
  for (Index j = 0; j < nr; ++j) {
    double* cj = c + j * ldc;
    for (Index i = 0; i < mr; ++i) {
      cj[i] += alpha * acc[j][i];
    }
  }
}

}  // namespace

namespace detail {
KernelVariant scalar_kernel_variant() {
  return {{8, 4, 128, 512}, &scalar_kernel<8, 4>};
}
}  // namespace detail

}  // namespace bstc
