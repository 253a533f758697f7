#pragma once

/// \file gemm.hpp
/// Dense GEMM kernels for tile-level products.
///
/// The paper runs tile GEMMs through cuBLAS on V100s; here the kernel is
/// a packed, register-tiled CPU implementation (no BLAS is available in
/// this environment). Three tiers exist:
///
///  * gemm_naive   — triple loop, the correctness reference;
///  * gemm_blocked — cache-blocked with an in-place 4x4 micro-kernel (the
///                   pre-packing kernel, kept as a benchmark baseline);
///  * gemm         — BLIS-style packed kernel: operands are copied into
///                   aligned MR-row / NR-column panels (pack.hpp) and the
///                   active ISA's micro-kernel (microkernel.hpp) runs
///                   fringe-free over them.
///
/// gemm_batch() executes a group of tile GEMMs that all read the same B
/// tile — the executor's unit of work — packing B once for the whole
/// group and each distinct A tile once. gemm_batch_packed() is the same
/// computation over operands the caller already packed (the executor
/// packs while staging, so its GEMM tasks copy nothing); gemm_batch is
/// exactly "pack, then gemm_batch_packed", so the two are bitwise equal.

#include <span>

#include "tile/microkernel.hpp"
#include "tile/tile.hpp"

namespace bstc {

/// C <- alpha*A*B + beta*C, reference triple-loop implementation.
void gemm_naive(double alpha, const Tile& a, const Tile& b, double beta,
                Tile& c);

/// C <- alpha*A*B + beta*C, cache-blocked implementation with an in-place
/// (non-packing) 4x4 micro-kernel. Benchmark baseline for the packed path.
void gemm_blocked(double alpha, const Tile& a, const Tile& b, double beta,
                  Tile& c);

/// C <- alpha*A*B + beta*C over raw column-major views: A is m x k with
/// leading dimension lda >= m, B k x n with ldb >= k, C m x n with
/// ldc >= m — leading dimensions may exceed the view extents (submatrix
/// views). Packed path on the active micro-kernel.
void gemm_view(Index m, Index n, Index k, double alpha, const double* a,
               Index lda, const double* b, Index ldb, double beta, double* c,
               Index ldc);

/// gemm_view on an explicit kernel (tests and benches compare ISAs).
void gemm_view_with(const MicroKernel& mk, Index m, Index n, Index k,
                    double alpha, const double* a, Index lda, const double* b,
                    Index ldb, double beta, double* c, Index ldc);

/// C <- alpha*A*B + beta*C, packed kernel. Dimensions: A is MxK, B is KxN,
/// C is MxN.
void gemm(double alpha, const Tile& a, const Tile& b, double beta, Tile& c);

/// One member of a shared-B batch: C <- beta*C + alpha*A*B.
struct GemmBatchItem {
  const Tile* a = nullptr;
  Tile* c = nullptr;
};

/// Execute every item against the same B tile, packing B once for the
/// whole group and skipping the A pack when an item reads the same A tile
/// as the item before it. beta is applied exactly once per *distinct* C
/// tile, so items may alias their outputs (the aliased tile then receives
/// beta*C plus every aliased item's product).
void gemm_batch(double alpha, std::span<const GemmBatchItem> items,
                const Tile& b, double beta);

/// One member of a pre-packed batch: C(m x n, leading dimension ldc) +=
/// alpha * A * B, with A packed by pack_a_panels(m, k, ..., MR) for the
/// active kernel's MR.
struct PackedGemmItem {
  const double* a = nullptr;
  Index m = 0;
  double* c = nullptr;
  Index ldc = 0;
};

/// Execute every item against one B operand of k x n packed by
/// pack_b_panels(k, n, ..., NR) for the active kernel's NR — no packing,
/// no allocation. C accumulates (beta = 1); items may alias C.
void gemm_batch_packed(double alpha, std::span<const PackedGemmItem> items,
                       const double* b, Index k, Index n);

/// A-tile packs performed by gemm_batch on this thread so far — test
/// observability for the consecutive-same-A re-pack skip.
std::uint64_t gemm_batch_a_pack_count();

/// Name of the dispatched micro-kernel ("avx512-16x12", ...), derived
/// from the kernel table entry that actually runs — never hand-written.
const char* gemm_kernel_name();

/// Flops of one tile GEMM (2*m*n*k).
inline double gemm_flops(const Tile& a, const Tile& b) {
  return 2.0 * static_cast<double>(a.rows()) * static_cast<double>(b.cols()) *
         static_cast<double>(a.cols());
}

}  // namespace bstc
