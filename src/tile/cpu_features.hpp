#pragma once

/// \file cpu_features.hpp
/// Runtime CPU-capability detection for micro-kernel dispatch.
///
/// The kernel library is compiled for the baseline architecture (so one
/// binary runs everywhere); vectorized micro-kernels are built with
/// per-function target attributes and selected at runtime. The choice is
/// made once per process and can be forced with the BSTC_KERNEL
/// environment variable:
///
///   * "auto" (default)            — best ISA the host supports;
///   * "scalar" / "avx2" / "avx512" — cap the ISA (a request above the
///     host's capability is downgraded to the best supported ISA, with
///     one warning line on stderr). Each ISA has exactly one kernel, so
///     the ISA also fixes the kernel geometry.
///
/// Anything else is rejected with a clear bstc::Error — a typo in
/// BSTC_KERNEL must never silently fall back to autodetection.

#include <string>

namespace bstc {

/// Instruction sets the micro-kernel layer can target, in capability
/// order (comparisons below rely on the ordering).
enum class KernelIsa {
  kScalar,  ///< portable C++, any host
  kAvx2,    ///< AVX2 + FMA3 (x86-64)
  kAvx512,  ///< AVX-512F + AVX-512VL (x86-64)
};

/// Best ISA this host can execute (pure detection, no env override).
KernelIsa host_best_isa();

/// Outcome of parsing BSTC_KERNEL against a host capability.
struct KernelChoice {
  KernelIsa isa = KernelIsa::kScalar;
  bool downgraded = false;   ///< an explicit ISA request exceeded the host
  std::string requested;     ///< the ISA name that was requested (if any)
};

/// Parse a BSTC_KERNEL value (may be nullptr = unset) against
/// `host_best`. Pure function, exposed for tests: unknown ISA names
/// throw bstc::Error; explicit requests above the host capability
/// downgrade to `host_best` with `downgraded` set.
KernelChoice resolve_kernel_choice(const char* env, KernelIsa host_best);

/// The ISA selected for this process (detection + BSTC_KERNEL override,
/// resolved once; a downgrade is logged to stderr exactly once).
KernelIsa active_kernel_isa();

/// Human-readable ISA name ("scalar" / "avx2" / "avx512").
const char* kernel_isa_name(KernelIsa isa);

}  // namespace bstc
