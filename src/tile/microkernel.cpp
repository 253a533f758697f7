#include "tile/microkernel.hpp"

#include <cstdio>
#include <vector>

#include "support/error.hpp"

namespace bstc {
namespace {

/// The table is assembled once from the per-ISA variants, with names
/// derived from the (isa, geometry) fields — never hand-written — so a
/// kernel's reported identity cannot drift from what actually runs.
std::string kernel_name(KernelIsa isa, const KernelGeometry& g) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%s-%lldx%lld", kernel_isa_name(isa),
                static_cast<long long>(g.mr), static_cast<long long>(g.nr));
  return buf;
}

const std::vector<MicroKernel>& table() {
  static const std::vector<MicroKernel> kernels = [] {
    std::vector<MicroKernel> built;
    const auto add = [&built](KernelIsa isa, const detail::KernelVariant& v) {
      if (v.fn == nullptr) return;
      BSTC_REQUIRE(v.geom.mc % v.geom.mr == 0 && v.geom.nc % v.geom.nr == 0,
                   "kernel cache blocking must be a multiple of the "
                   "register tile");
      BSTC_REQUIRE(v.geom.mr <= kMaxPackMR && v.geom.nr <= kMaxPackNR,
                   "kernel geometry exceeds the panel sizing bound");
      built.push_back({kernel_name(isa, v.geom), isa, v.geom, v.fn});
    };
    add(KernelIsa::kScalar, detail::scalar_kernel_variant());
    add(KernelIsa::kAvx2, detail::avx2_kernel_variant());
    add(KernelIsa::kAvx512, detail::avx512_kernel_variant());
    return built;
  }();
  return kernels;
}

}  // namespace

std::span<const MicroKernel> microkernels() { return table(); }

const MicroKernel* microkernel_for(KernelIsa isa) {
  for (const MicroKernel& k : table()) {
    if (k.isa == isa) return &k;
  }
  return nullptr;
}

const MicroKernel& active_microkernel() {
  static const MicroKernel* const mk = [] {
    const MicroKernel* k = microkernel_for(active_kernel_isa());
    BSTC_REQUIRE(k != nullptr, "no micro-kernel available for this ISA");
    return k;
  }();
  return *mk;
}

}  // namespace bstc
