#pragma once

/// \file pack.hpp
/// BLIS-style panel packing for the tile GEMM kernels.
///
/// The packed GEMM copies operand blocks into contiguous, aligned panels
/// before the micro-kernel touches them: A blocks become MR-row panels,
/// B blocks become NR-column panels, both zero-padded to the full register
/// tile so the micro-kernel never branches on fringes. Panels live in a
/// grow-only per-thread arena (pack_arena()), so steady-state packing does
/// no allocation — essential when the executor runs millions of tile GEMMs
/// through worker threads.
///
/// The panel layout is parameterized by the register-tile geometry
/// (MR, NR) of the consuming micro-kernel: each ISA's kernel (see
/// microkernel.hpp) packs with its own MR/NR.
///
/// The KC cache blocking is shared by every kernel on purpose: a C
/// element accumulates one fused multiply-add per k step within a KC
/// slab and one alpha-scaled commit per slab, so equal KC makes the AVX2
/// and AVX-512 kernels bitwise-identical despite their different
/// register tiles (asserted in test_gemm_kernels.cpp).
///
/// Whole-operand panels (pack_a_panels / pack_b_panels) are the staged
/// format of the executor: a full tile packed once, as consecutive KC
/// slabs, so the pre-packed GEMM entry (gemm.hpp) runs on it with no
/// further copies. Slab pc (a multiple of kPackKC, depth kc) of an m-row
/// A operand starts at offset pc * round_up(m, MR) and holds
/// ceil(m / MR) panels of kc * MR doubles; B likewise with NR columns.

#include <cstddef>
#include <memory>

#include "tiling/tiling.hpp"

namespace bstc {

/// Register tile of the portable scalar kernel (the KernelGeometry
/// default).
constexpr Index kPackMR = 8;
constexpr Index kPackNR = 4;

/// Cache blocking: a KC x NR B panel stays in L1 across the A panels, the
/// packed MC x KC A block in L2, the packed KC x NC B block in L3.
/// kPackKC is shared by every kernel (see above).
constexpr Index kPackMC = 128;
constexpr Index kPackKC = 256;
constexpr Index kPackNC = 512;

/// Largest register tile any kernel uses (panel sizing bound).
constexpr Index kMaxPackMR = 16;
constexpr Index kMaxPackNR = 12;

/// One micro-kernel geometry: the register tile (mr x nr) and the cache
/// blocking it implies (mc a multiple of mr, nc a multiple of nr; kc is
/// the shared kPackKC).
struct KernelGeometry {
  Index mr = kPackMR;
  Index nr = kPackNR;
  Index mc = kPackMC;
  Index nc = kPackNC;
};

/// Doubles needed for a packed mc x kc A block (rows rounded up to mr) —
/// also the size of a whole m x k operand packed by pack_a_panels.
constexpr std::size_t packed_a_doubles(Index mc, Index kc,
                                       Index mr = kPackMR) {
  return static_cast<std::size_t>((mc + mr - 1) / mr) *
         static_cast<std::size_t>(mr) * static_cast<std::size_t>(kc);
}

/// Doubles needed for a packed kc x nc B block (cols rounded up to nr) —
/// also the size of a whole k x n operand packed by pack_b_panels.
constexpr std::size_t packed_b_doubles(Index kc, Index nc,
                                       Index nr = kPackNR) {
  return static_cast<std::size_t>((nc + nr - 1) / nr) *
         static_cast<std::size_t>(nr) * static_cast<std::size_t>(kc);
}

/// Grow-only, 64-byte-aligned scratch buffer for packed panels. Acquire
/// returns uninitialised storage valid until the next acquire that grows
/// the arena; capacity never shrinks.
class PackArena {
 public:
  double* acquire(std::size_t doubles);
  std::size_t capacity_bytes() const { return capacity_bytes_; }

 private:
  struct FreeDeleter {
    void operator()(double* p) const;
  };
  std::unique_ptr<double, FreeDeleter> buffer_;
  std::size_t capacity_bytes_ = 0;
};

/// The calling thread's pack arena. Each worker thread owns one arena that
/// grows to the largest panel set it has ever packed and is reused for
/// every subsequent tile GEMM on that thread.
PackArena& pack_arena();

/// Pack an mc x kc block of column-major A (leading dimension lda) into
/// mr-row panels: dst[p*kc*mr + k*mr + r] = A(p*mr + r, k), rows past mc
/// zero-padded. dst must hold packed_a_doubles(mc, kc, mr).
void pack_a(Index mc, Index kc, const double* a, Index lda, double* dst,
            Index mr = kPackMR);

/// Pack a kc x nc block of column-major B (leading dimension ldb) into
/// nr-column panels: dst[p*kc*nr + k*nr + c] = B(k, p*nr + c), columns
/// past nc zero-padded. dst must hold packed_b_doubles(kc, nc, nr).
void pack_b(Index kc, Index nc, const double* b, Index ldb, double* dst,
            Index nr = kPackNR);

/// Pack a whole m x k column-major A operand as consecutive kPackKC slabs
/// of mr-row panels (layout in the file comment). dst must hold
/// packed_a_doubles(m, k, mr).
void pack_a_panels(Index m, Index k, const double* a, Index lda, double* dst,
                   Index mr);

/// Pack a whole k x n column-major B operand as consecutive kPackKC slabs
/// of nr-column panels. dst must hold packed_b_doubles(k, n, nr).
void pack_b_panels(Index k, Index n, const double* b, Index ldb, double* dst,
                   Index nr);

}  // namespace bstc
