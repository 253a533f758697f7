#pragma once

/// \file microkernel.hpp
/// Register micro-kernels over packed panels (see pack.hpp for the panel
/// format): exactly one kernel per ISA, each sized to saturate its
/// register file —
///
///   * avx512-16x12 — 2 zmm rows x 12 columns = 24 accumulators, enough
///     independent FMA chains to cover 2 FMA ports x 4-cycle latency;
///   * avx2-8x6     — 2 ymm rows x 6 columns = 12 of the 16 ymm registers;
///   * scalar-8x4   — portable C++, the baseline any host can run.
///
/// Contract: C(0:mr, 0:nr) += alpha * Apanel * Bpanel, where Apanel is one
/// packed MR-row panel (kc iterations of MR contiguous doubles, fringe
/// rows zero-padded) and Bpanel one packed NR-column panel — MR/NR being
/// the kernel's own geometry. mr <= MR and nr <= NR select how much of
/// the register tile is actually stored to C; the multiply itself always
/// runs the full MR x NR tile, which is safe because packed fringes are
/// zeros.
///
/// Bitwise discipline: every C element accumulates as the same
/// k-ascending chain — one fused multiply-add per k step for the vector
/// ISAs, one mul+add for scalar — committed with one alpha-scaled FMA
/// (vector) or mul+add (scalar) per kPackKC slab. The AVX2 and AVX-512
/// kernels therefore produce bitwise-identical C despite their different
/// register tiles, and so do the per-call, batched and pre-packed entries
/// in gemm.hpp.

#include <span>
#include <string>

#include "tile/cpu_features.hpp"
#include "tile/pack.hpp"

namespace bstc {

using MicroKernelFn = void (*)(Index kc, double alpha, const double* apanel,
                               const double* bpanel, double* c, Index ldc,
                               Index mr, Index nr);

/// One kernel: the function plus the geometry its panels must be packed
/// with and the ISA it requires.
struct MicroKernel {
  std::string name;  ///< "<isa>-<MR>x<NR>", derived from the fields below
  KernelIsa isa = KernelIsa::kScalar;
  KernelGeometry geom;
  MicroKernelFn fn = nullptr;
};

/// Every kernel compiled into this binary, one per ISA in KernelIsa order
/// (scalar, avx2, avx512). On non-x86 builds the vector entries are
/// absent.
std::span<const MicroKernel> microkernels();

/// The kernel for `isa`, or nullptr when it is not compiled in.
const MicroKernel* microkernel_for(KernelIsa isa);

/// The kernel of active_kernel_isa() (resolved once per process) — the
/// one every packed GEMM entry runs, and whose geometry the executor
/// packs its staged panels with.
const MicroKernel& active_microkernel();

namespace detail {
/// The (geometry, fn) pair each ISA's translation unit contributes;
/// fn is nullptr when the ISA is not compiled in.
struct KernelVariant {
  KernelGeometry geom;
  MicroKernelFn fn = nullptr;
};
KernelVariant scalar_kernel_variant();
KernelVariant avx2_kernel_variant();
KernelVariant avx512_kernel_variant();
}  // namespace detail

}  // namespace bstc
