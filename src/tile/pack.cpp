#include "tile/pack.hpp"

#include <algorithm>
#include <cstdlib>

#include "support/error.hpp"

namespace bstc {

void PackArena::FreeDeleter::operator()(double* p) const { std::free(p); }

double* PackArena::acquire(std::size_t doubles) {
  std::size_t bytes = doubles * sizeof(double);
  if (bytes > capacity_bytes_) {
    // Grow geometrically and round to the 64-byte alignment quantum
    // (std::aligned_alloc requires size % alignment == 0).
    bytes = std::max(bytes, capacity_bytes_ * 2);
    bytes = (bytes + 63) & ~std::size_t{63};
    double* p = static_cast<double*>(std::aligned_alloc(64, bytes));
    BSTC_REQUIRE(p != nullptr, "pack arena allocation failed");
    buffer_.reset(p);
    capacity_bytes_ = bytes;
  }
  return buffer_.get();
}

PackArena& pack_arena() {
  thread_local PackArena arena;
  return arena;
}

void pack_a(Index mc, Index kc, const double* a, Index lda, double* dst,
            Index mr_tile) {
  for (Index ir = 0; ir < mc; ir += mr_tile) {
    const Index mr = std::min(mr_tile, mc - ir);
    const double* src = a + ir;
    if (mr == mr_tile) {
      for (Index k = 0; k < kc; ++k) {
        const double* col = src + k * lda;
        for (Index r = 0; r < mr_tile; ++r) dst[r] = col[r];
        dst += mr_tile;
      }
    } else {
      for (Index k = 0; k < kc; ++k) {
        const double* col = src + k * lda;
        for (Index r = 0; r < mr; ++r) dst[r] = col[r];
        for (Index r = mr; r < mr_tile; ++r) dst[r] = 0.0;
        dst += mr_tile;
      }
    }
  }
}

void pack_b(Index kc, Index nc, const double* b, Index ldb, double* dst,
            Index nr_tile) {
  for (Index jr = 0; jr < nc; jr += nr_tile) {
    const Index nr = std::min(nr_tile, nc - jr);
    const double* src = b + jr * ldb;
    if (nr == nr_tile) {
      for (Index k = 0; k < kc; ++k) {
        for (Index c = 0; c < nr_tile; ++c) dst[c] = src[k + c * ldb];
        dst += nr_tile;
      }
    } else {
      for (Index k = 0; k < kc; ++k) {
        for (Index c = 0; c < nr; ++c) dst[c] = src[k + c * ldb];
        for (Index c = nr; c < nr_tile; ++c) dst[c] = 0.0;
        dst += nr_tile;
      }
    }
  }
}

void pack_a_panels(Index m, Index k, const double* a, Index lda, double* dst,
                   Index mr) {
  const Index mpad = (m + mr - 1) / mr * mr;
  for (Index pc = 0; pc < k; pc += kPackKC) {
    pack_a(m, std::min(kPackKC, k - pc), a + pc * lda, lda, dst + pc * mpad,
           mr);
  }
}

void pack_b_panels(Index k, Index n, const double* b, Index ldb, double* dst,
                   Index nr) {
  const Index npad = (n + nr - 1) / nr * nr;
  for (Index pc = 0; pc < k; pc += kPackKC) {
    pack_b(std::min(kPackKC, k - pc), n, b + pc, ldb, dst + pc * npad, nr);
  }
}

}  // namespace bstc
