#include "tile/cpu_features.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "support/error.hpp"

namespace bstc {
namespace {

bool host_supports_avx2_fma() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

bool host_supports_avx512() {
#if defined(__x86_64__) || defined(__i386__)
  // The 512-bit kernel is built for F + VL (zmm plus EVEX-encoded ymm).
  return __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512vl") && host_supports_avx2_fma();
#else
  return false;
#endif
}

}  // namespace

KernelIsa host_best_isa() {
  if (host_supports_avx512()) return KernelIsa::kAvx512;
  if (host_supports_avx2_fma()) return KernelIsa::kAvx2;
  return KernelIsa::kScalar;
}

KernelChoice resolve_kernel_choice(const char* env, KernelIsa host_best) {
  KernelChoice choice;
  choice.isa = host_best;
  if (env == nullptr || std::strcmp(env, "") == 0 ||
      std::strcmp(env, "auto") == 0) {
    return choice;
  }

  const std::string isa_name(env);
  KernelIsa requested;
  if (isa_name == "scalar") {
    requested = KernelIsa::kScalar;
  } else if (isa_name == "avx2") {
    requested = KernelIsa::kAvx2;
  } else if (isa_name == "avx512") {
    requested = KernelIsa::kAvx512;
  } else {
    BSTC_REQUIRE(false, "BSTC_KERNEL=" + isa_name +
                            ": unknown kernel ISA (accepted: auto, scalar, "
                            "avx2, avx512)");
    __builtin_unreachable();
  }
  choice.requested = isa_name;
  if (requested > host_best) {
    // An explicit request the host cannot run: degrade to the best
    // supported ISA, but never silently — the caller logs it once.
    choice.isa = host_best;
    choice.downgraded = true;
  } else {
    choice.isa = requested;
  }
  return choice;
}

namespace {

const KernelChoice& process_kernel_choice() {
  static const KernelChoice choice = [] {
    KernelChoice c =
        resolve_kernel_choice(std::getenv("BSTC_KERNEL"), host_best_isa());
    if (c.downgraded) {
      std::fprintf(stderr,
                   "bstc: BSTC_KERNEL requested \"%s\" but this host "
                   "supports at most \"%s\"; using %s kernels\n",
                   c.requested.c_str(), kernel_isa_name(c.isa),
                   kernel_isa_name(c.isa));
    }
    return c;
  }();
  return choice;
}

}  // namespace

KernelIsa active_kernel_isa() { return process_kernel_choice().isa; }

const char* kernel_isa_name(KernelIsa isa) {
  switch (isa) {
    case KernelIsa::kAvx512:
      return "avx512";
    case KernelIsa::kAvx2:
      return "avx2";
    case KernelIsa::kScalar:
      return "scalar";
  }
  return "unknown";
}

}  // namespace bstc
