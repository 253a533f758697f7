/// Reproduces the paper's §5 GEMM-peak measurement protocol:
/// "we ran a single GEMM operation on large matrices that were
/// pre-initialized in the GPU memory, repeated the operation 10 times,
/// and took the fastest run" -> 7.2 Tflop/s per V100.
///
/// The protocol runs against the machine model's V100 roofline
/// (recovering the 7.2 Tflop/s practical peak the model was calibrated
/// to) and then for real on this host's CPU kernels — the tiers the real
/// executor dispatches between:
///
///  * naive    — triple loop (reference),
///  * blocked  — cache-blocked 4x4 micro-kernel, no packing (the seed
///               kernel, kept as baseline),
///  * packed   — BLIS-style packed panels + the active ISA's micro-kernel
///               (runtime dispatch; see gemm_kernel_name()).
///
/// The sweep covers the tile extents a physics tiling actually produces
/// (~32-512), then every ISA kernel this host can run at the same shapes
/// (one kernel per ISA), and a realistic mixed-extent group sharing one
/// B tile three ways: per-call, batched (packs inside the call) and
/// pre-packed (the executor's in-task path, operands staged as panels).
/// Results land in BENCH_gemm_peak.json so the bench trajectory records
/// every run.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "machine/machine.hpp"
#include "support/format.hpp"
#include "support/timer.hpp"
#include "tile/gemm.hpp"
#include "tile/microkernel.hpp"

using namespace bstc;

namespace {

/// Best-of-N flop rate of one kernel invocation (paper's §5 protocol).
template <typename Fn>
double best_flops(int reps, double flops, Fn&& fn) {
  double best = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    Timer timer;
    fn();
    best = std::max(best, flops / timer.elapsed_s());
  }
  return best;
}

struct SweepPoint {
  Index n = 0;
  double naive = 0.0;
  double blocked = 0.0;
  double packed = 0.0;
};

struct IsaPoint {
  std::string kernel;
  Index n = 0;
  double flops = 0.0;
};

}  // namespace

int main() {
  // --- Model: V100 practical peak per the paper's protocol. ---
  const GpuSpec gpu;
  double best_model = 0.0;
  for (int rep = 0; rep < 10; ++rep) {
    const Index n = 8192;
    const double t = gpu.gemm_time(n, n, n);
    best_model = std::max(best_model,
                          2.0 * static_cast<double>(n) * n * n / t);
  }
  std::printf("V100 model practical GEMM peak: %s (paper: 7.2 Tflop/s)\n",
              fmt_flops(best_model).c_str());
  std::printf("  efficiency at 728^3: %.1f%% (paper: ~peak at 728x728)\n",
              100.0 * gpu.gemm_efficiency(728, 728, 728));
  std::printf("  efficiency at  64^3: %.1f%%\n",
              100.0 * gpu.gemm_efficiency(64, 64, 64));

  // --- Real: kernel-tier sweep over physics-tiling extents, best of 10
  // on resident data. ---
  std::printf("\nhost kernel sweep (micro-kernel: %s, best of 10):\n",
              gemm_kernel_name());
  std::printf("  %5s  %12s  %12s  %12s  %8s\n", "n", "naive", "blocked",
              "packed", "speedup");
  Rng rng(1);
  std::vector<SweepPoint> sweep;
  for (const Index n : {Index{32}, Index{64}, Index{96}, Index{128},
                        Index{192}, Index{256}, Index{384}, Index{512}}) {
    Tile a(n, n), b(n, n), c(n, n);
    a.fill_random(rng);
    b.fill_random(rng);
    const double flops = gemm_flops(a, b);
    SweepPoint pt;
    pt.n = n;
    gemm_naive(1.0, a, b, 0.0, c);  // warm up
    // The naive tier is too slow to give large sizes 10 reps.
    pt.naive = best_flops(n <= 256 ? 10 : 3, flops,
                          [&] { gemm_naive(1.0, a, b, 0.0, c); });
    gemm_blocked(1.0, a, b, 0.0, c);
    pt.blocked =
        best_flops(10, flops, [&] { gemm_blocked(1.0, a, b, 0.0, c); });
    gemm(1.0, a, b, 0.0, c);
    pt.packed = best_flops(10, flops, [&] { gemm(1.0, a, b, 0.0, c); });
    sweep.push_back(pt);
    std::printf("  %5lld  %12s  %12s  %12s  %7.2fx\n",
                static_cast<long long>(n), fmt_flops(pt.naive).c_str(),
                fmt_flops(pt.blocked).c_str(), fmt_flops(pt.packed).c_str(),
                pt.packed / pt.blocked);
  }

  // The acceptance point: packed must clearly beat the blocked-scalar
  // kernel at the paper-protocol 256^3 measurement.
  const SweepPoint* p256 = nullptr;
  for (const SweepPoint& pt : sweep) {
    if (pt.n == 256) p256 = &pt;
  }
  std::printf("256^3 packed/blocked speedup: %.2fx\n",
              p256->packed / p256->blocked);

  // --- One kernel per ISA: every kernel this host can execute, at the
  // tile extents the executor stages. ---
  std::printf("\nper-ISA kernels (best of 10):\n");
  std::vector<IsaPoint> isa_points;
  for (const MicroKernel& mk : microkernels()) {
    if (mk.isa > host_best_isa()) continue;  // not executable here
    for (const Index n : {Index{64}, Index{128}, Index{256}}) {
      Tile a(n, n), b(n, n), c(n, n);
      a.fill_random(rng);
      b.fill_random(rng);
      const auto run = [&] {
        gemm_view_with(mk, n, n, n, 1.0, a.data(), a.ld(), b.data(), b.ld(),
                       0.0, c.data(), c.ld());
      };
      run();
      isa_points.push_back({mk.name, n, best_flops(10, gemm_flops(a, b), run)});
      std::printf("  %-14s %4lld^3  %12s\n", mk.name.c_str(),
                  static_cast<long long>(n),
                  fmt_flops(isa_points.back().flops).c_str());
    }
  }

  // --- Batched vs per-call on a realistic mixed-extent group: every item
  // shares one B tile, as the executor's (chunk, B tile) batches do. ---
  // Physics tilings put most A-row tiles at the small end of the extent
  // range, so the per-call path re-packs B once per small GEMM — exactly
  // the overhead the executor's (chunk, B tile) batching removes.
  const Index bk = 384, bn = 384;
  Tile bshared(bk, bn);
  bshared.fill_random(rng);
  const std::vector<Index> mix = {48, 33, 96, 64, 40, 127, 56, 80,
                                  72, 36, 112, 64, 48, 96, 256, 33};
  std::vector<Tile> as, cs;
  double batch_flops = 0.0;
  for (const Index m : mix) {
    as.emplace_back(m, bk);
    as.back().fill_random(rng);
    cs.emplace_back(m, bn);
    batch_flops += gemm_flops(as.back(), bshared);
  }
  std::vector<GemmBatchItem> items;
  for (std::size_t t = 0; t < mix.size(); ++t) {
    items.push_back({&as[t], &cs[t]});
  }
  gemm_batch(1.0, items, bshared, 0.0);  // warm up
  const double per_call = best_flops(10, batch_flops, [&] {
    for (std::size_t t = 0; t < items.size(); ++t) {
      gemm(1.0, *items[t].a, bshared, 0.0, *items[t].c);
    }
  });
  const double batched = best_flops(
      10, batch_flops, [&] { gemm_batch(1.0, items, bshared, 0.0); });
  // Pre-packed: the operands staged once as panels, as the executor's
  // load/chunkload tasks do; the timed call copies nothing.
  const KernelGeometry& g = active_microkernel().geom;
  std::vector<double> bpanels(packed_b_doubles(bk, bn, g.nr));
  pack_b_panels(bk, bn, bshared.data(), bshared.ld(), bpanels.data(), g.nr);
  std::vector<std::vector<double>> apanels;
  std::vector<PackedGemmItem> packed_items;
  for (std::size_t t = 0; t < mix.size(); ++t) {
    apanels.emplace_back(packed_a_doubles(mix[t], bk, g.mr));
    pack_a_panels(mix[t], bk, as[t].data(), as[t].ld(),
                  apanels.back().data(), g.mr);
    packed_items.push_back(
        {apanels.back().data(), mix[t], cs[t].data(), cs[t].ld()});
  }
  const double prepacked = best_flops(10, batch_flops, [&] {
    gemm_batch_packed(1.0, packed_items, bpanels.data(), bk, bn);
  });
  std::printf(
      "shared-B batch (%zu tiles, m in [%lld,%lld], k=%lld, n=%lld): "
      "per-call %s, batched %s (%.2fx), pre-packed %s (%.2fx)\n",
      items.size(),
      static_cast<long long>(*std::min_element(mix.begin(), mix.end())),
      static_cast<long long>(*std::max_element(mix.begin(), mix.end())),
      static_cast<long long>(bk), static_cast<long long>(bn),
      fmt_flops(per_call).c_str(), fmt_flops(batched).c_str(),
      batched / per_call, fmt_flops(prepacked).c_str(), prepacked / per_call);

  // --- Bench trajectory record. ---
  std::FILE* out = std::fopen("BENCH_gemm_peak.json", "w");
  if (out != nullptr) {
    std::fprintf(out, "{\n  \"bench\": \"gemm_peak\",\n");
    std::fprintf(out, "  \"microkernel\": \"%s\",\n", gemm_kernel_name());
    std::fprintf(out, "  \"model_peak_flops\": %.6e,\n", best_model);
    std::fprintf(out, "  \"sweep\": [\n");
    for (std::size_t s = 0; s < sweep.size(); ++s) {
      std::fprintf(out,
                   "    {\"n\": %lld, \"naive_flops\": %.6e, "
                   "\"blocked_flops\": %.6e, \"packed_flops\": %.6e}%s\n",
                   static_cast<long long>(sweep[s].n), sweep[s].naive,
                   sweep[s].blocked, sweep[s].packed,
                   s + 1 < sweep.size() ? "," : "");
    }
    std::fprintf(out, "  ],\n");
    std::fprintf(out, "  \"isa_kernels\": [\n");
    for (std::size_t s = 0; s < isa_points.size(); ++s) {
      std::fprintf(out, "    {\"kernel\": \"%s\", \"n\": %lld, "
                   "\"flops\": %.6e}%s\n",
                   isa_points[s].kernel.c_str(),
                   static_cast<long long>(isa_points[s].n),
                   isa_points[s].flops,
                   s + 1 < isa_points.size() ? "," : "");
    }
    std::fprintf(out, "  ],\n");
    std::fprintf(out, "  \"speedup_256_packed_vs_blocked\": %.4f,\n",
                 p256->packed / p256->blocked);
    std::fprintf(out,
                 "  \"batch\": {\"tiles\": %zu, \"per_call_flops\": %.6e, "
                 "\"batched_flops\": %.6e, \"prepacked_flops\": %.6e, "
                 "\"speedup\": %.4f}\n",
                 items.size(), per_call, batched, prepacked,
                 batched / per_call);
    std::fprintf(out, "}\n");
    std::fclose(out);
    std::printf("wrote BENCH_gemm_peak.json\n");
  }
  return 0;
}
