#include "bsm/block_sparse_matrix.hpp"

#include <algorithm>
#include <cmath>

#include "support/error.hpp"
#include "tile/gemm.hpp"

namespace bstc {

BlockSparseMatrix::BlockSparseMatrix(Shape shape) : shape_(std::move(shape)) {
  place_tiles({});
}

BlockSparseMatrix BlockSparseMatrix::adopt(Shape shape,
                                           std::vector<PlacedTile> tiles) {
  BlockSparseMatrix m;
  m.shape_ = std::move(shape);
  for (const PlacedTile& t : tiles) {
    BSTC_REQUIRE(t.row < m.shape_.tile_rows() &&
                     t.col < m.shape_.tile_cols() &&
                     m.shape_.nonzero(t.row, t.col),
                 "adopt: tile outside the shape's sparsity pattern");
    BSTC_REQUIRE(t.tile.rows() == m.row_tiling().tile_extent(t.row) &&
                     t.tile.cols() == m.col_tiling().tile_extent(t.col),
                 "adopt: tile extents disagree with the tilings");
    BSTC_REQUIRE(!t.tile.is_view(), "adopt: cannot take ownership of a view");
  }
  const auto block_of = [](const PlacedTile& t) {
    return std::pair(t.row, t.col);
  };
  std::sort(tiles.begin(), tiles.end(),
            [&](const PlacedTile& x, const PlacedTile& y) {
              return block_of(x) < block_of(y);
            });
  BSTC_REQUIRE(std::adjacent_find(tiles.begin(), tiles.end(),
                                  [&](const PlacedTile& x,
                                      const PlacedTile& y) {
                                    return block_of(x) == block_of(y);
                                  }) == tiles.end(),
               "adopt: two tiles for one block");
  m.place_tiles(std::move(tiles));
  return m;
}

void BlockSparseMatrix::place_tiles(std::vector<PlacedTile> sorted) {
  auto next = sorted.begin();
  for (std::size_t r = 0; r < shape_.tile_rows(); ++r) {
    for (std::size_t c = 0; c < shape_.tile_cols(); ++c) {
      if (!shape_.nonzero(r, c)) continue;
      if (next != sorted.end() && next->row == r && next->col == c) {
        tiles_.emplace(key(r, c), std::move(next->tile));
        ++next;
      } else {
        tiles_.emplace(key(r, c), Tile(row_tiling().tile_extent(r),
                                       col_tiling().tile_extent(c)));
      }
    }
  }
}

BlockSparseMatrix BlockSparseMatrix::random(Shape shape, Rng& rng) {
  BlockSparseMatrix m(std::move(shape));
  for (auto& [k, tile] : m.tiles_) {
    (void)k;
    tile.fill_random(rng);
  }
  return m;
}

Tile& BlockSparseMatrix::tile(std::size_t r, std::size_t c) {
  const auto it = tiles_.find(key(r, c));
  BSTC_REQUIRE(it != tiles_.end(), "accessing a zero block");
  return it->second;
}

const Tile& BlockSparseMatrix::tile(std::size_t r, std::size_t c) const {
  const auto it = tiles_.find(key(r, c));
  BSTC_REQUIRE(it != tiles_.end(), "accessing a zero block");
  return it->second;
}

std::size_t BlockSparseMatrix::bytes() const {
  std::size_t total = 0;
  for (const auto& [k, tile] : tiles_) {
    (void)k;
    total += tile.bytes();
  }
  return total;
}

double BlockSparseMatrix::at(Index r, Index c) const {
  const std::size_t tr = row_tiling().tile_of(r);
  const std::size_t tc = col_tiling().tile_of(c);
  if (!shape_.nonzero(tr, tc)) return 0.0;
  return tile(tr, tc).at(r - row_tiling().tile_offset(tr),
                         c - col_tiling().tile_offset(tc));
}

double BlockSparseMatrix::max_abs_diff(const BlockSparseMatrix& other) const {
  BSTC_REQUIRE(row_tiling() == other.row_tiling() &&
                   col_tiling() == other.col_tiling(),
               "tilings must agree to compare");
  double worst = 0.0;
  for (std::size_t r = 0; r < shape_.tile_rows(); ++r) {
    for (std::size_t c = 0; c < shape_.tile_cols(); ++c) {
      const bool here = shape_.nonzero(r, c);
      const bool there = other.shape_.nonzero(r, c);
      if (here && there) {
        worst = std::max(worst, tile(r, c).max_abs_diff(other.tile(r, c)));
      } else if (here || there) {
        const Tile& t = here ? tile(r, c) : other.tile(r, c);
        for (Index i = 0; i < t.rows(); ++i) {
          for (Index j = 0; j < t.cols(); ++j) {
            worst = std::max(worst, std::abs(t.at(i, j)));
          }
        }
      }
    }
  }
  return worst;
}

double BlockSparseMatrix::norm() const {
  double acc = 0.0;
  for (const auto& [k, tile] : tiles_) {
    (void)k;
    const double n = tile.norm();
    acc += n * n;
  }
  return std::sqrt(acc);
}

void axpy(double alpha, const BlockSparseMatrix& x, BlockSparseMatrix& y) {
  BSTC_REQUIRE(x.row_tiling() == y.row_tiling() &&
                   x.col_tiling() == y.col_tiling(),
               "axpy requires matching tilings");
  for (std::size_t r = 0; r < x.shape().tile_rows(); ++r) {
    for (std::size_t c = 0; c < x.shape().tile_cols(); ++c) {
      if (!x.has_tile(r, c)) continue;
      BSTC_REQUIRE(y.has_tile(r, c),
                   "axpy: x has a tile outside y's sparsity pattern");
      y.tile(r, c).axpy(alpha, x.tile(r, c));
    }
  }
}

void scale(double alpha, BlockSparseMatrix& m) {
  for (std::size_t r = 0; r < m.shape().tile_rows(); ++r) {
    for (std::size_t c = 0; c < m.shape().tile_cols(); ++c) {
      if (!m.has_tile(r, c)) continue;
      Tile& t = m.tile(r, c);
      double* p = t.data();
      for (Index i = 0; i < t.size(); ++i) p[i] *= alpha;
    }
  }
}

BlockSparseMatrix transpose(const BlockSparseMatrix& m) {
  Shape t_shape(m.col_tiling(), m.row_tiling());
  for (std::size_t r = 0; r < m.shape().tile_rows(); ++r) {
    for (std::size_t c = 0; c < m.shape().tile_cols(); ++c) {
      if (m.has_tile(r, c)) t_shape.set(c, r);
    }
  }
  BlockSparseMatrix out(std::move(t_shape));
  for (std::size_t r = 0; r < m.shape().tile_rows(); ++r) {
    for (std::size_t c = 0; c < m.shape().tile_cols(); ++c) {
      if (!m.has_tile(r, c)) continue;
      const Tile& src = m.tile(r, c);
      Tile& dst = out.tile(c, r);
      for (Index i = 0; i < src.rows(); ++i) {
        for (Index j = 0; j < src.cols(); ++j) {
          dst.at(j, i) = src.at(i, j);
        }
      }
    }
  }
  return out;
}

void multiply_reference(const BlockSparseMatrix& a, const BlockSparseMatrix& b,
                        BlockSparseMatrix& c) {
  BSTC_REQUIRE(a.col_tiling() == b.row_tiling(),
               "inner tilings of A and B must agree");
  BSTC_REQUIRE(c.row_tiling() == a.row_tiling() &&
                   c.col_tiling() == b.col_tiling(),
               "C tilings must match the product");
  for (std::size_t i = 0; i < a.shape().tile_rows(); ++i) {
    for (std::size_t k = 0; k < a.shape().tile_cols(); ++k) {
      if (!a.has_tile(i, k)) continue;
      for (std::size_t j = 0; j < b.shape().tile_cols(); ++j) {
        if (!b.has_tile(k, j)) continue;
        BSTC_REQUIRE(c.has_tile(i, j),
                     "product contributes to a zero block of C");
        gemm(1.0, a.tile(i, k), b.tile(k, j), 1.0, c.tile(i, j));
      }
    }
  }
}

}  // namespace bstc
