#pragma once

/// \file block_sparse_matrix.hpp
/// Block-sparse matrix: a Shape plus dense tiles for the nonzero blocks.

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "shape/shape.hpp"
#include "tile/tile.hpp"

namespace bstc {

/// A tile with its block coordinates, as handed to BlockSparseMatrix::adopt.
struct PlacedTile {
  std::size_t row = 0;
  std::size_t col = 0;
  Tile tile;
};

/// Owning block-sparse matrix. Tiles exist exactly for the nonzero blocks
/// of the shape; zero blocks are implicit.
class BlockSparseMatrix {
 public:
  /// Empty matrix over empty tilings (assign a real one before use).
  BlockSparseMatrix() = default;

  /// All nonzero tiles allocated and zero-initialised.
  explicit BlockSparseMatrix(Shape shape);

  /// Takes ownership of already computed tiles by move, without copying
  /// their data; nonzero blocks of `shape` missing from `tiles` are
  /// zero-allocated. Throws on a tile at a zero (or out-of-range) block,
  /// a tile whose extents disagree with the tilings, a view tile, or two
  /// tiles for one block.
  static BlockSparseMatrix adopt(Shape shape, std::vector<PlacedTile> tiles);

  /// All nonzero tiles filled with uniform random values in [-1,1).
  static BlockSparseMatrix random(Shape shape, Rng& rng);

  const Shape& shape() const { return shape_; }
  const Tiling& row_tiling() const { return shape_.row_tiling(); }
  const Tiling& col_tiling() const { return shape_.col_tiling(); }
  Index rows() const { return row_tiling().extent(); }
  Index cols() const { return col_tiling().extent(); }

  bool has_tile(std::size_t r, std::size_t c) const {
    return shape_.nonzero(r, c);
  }

  /// Access a nonzero tile; throws if (r,c) is a zero block.
  Tile& tile(std::size_t r, std::size_t c);
  const Tile& tile(std::size_t r, std::size_t c) const;

  /// Total bytes held in tiles.
  std::size_t bytes() const;

  /// Element access across the whole matrix (zero blocks read as 0).
  double at(Index r, Index c) const;

  /// max |this - other| over all elements; shapes' tilings must agree but
  /// sparsity patterns may differ (missing tiles compare as zero).
  double max_abs_diff(const BlockSparseMatrix& other) const;

  /// Frobenius norm over all tiles.
  double norm() const;

 private:
  std::uint64_t key(std::size_t r, std::size_t c) const {
    return static_cast<std::uint64_t>(r) * shape_.tile_cols() + c;
  }
  /// Inserts every nonzero block in row-major order: the next tile of
  /// `sorted` (validated, ascending (row, col)) when it is that block's,
  /// else a zero tile. One insertion order for every matrix keeps the map's
  /// iteration order, and with it the rounding of whole-matrix reductions
  /// such as norm(), independent of the order tiles were computed in.
  void place_tiles(std::vector<PlacedTile> sorted);

  Shape shape_;
  std::unordered_map<std::uint64_t, Tile> tiles_;
};

/// Reference (non-distributed, single-threaded) product C <- C + A*B used
/// to verify the distributed engine. C's shape must contain the
/// contraction shape of (A, B) restricted to C's pattern; contributions to
/// tiles absent from C are an error.
void multiply_reference(const BlockSparseMatrix& a, const BlockSparseMatrix& b,
                        BlockSparseMatrix& c);

/// y <- y + alpha * x over matching tilings. Every nonzero tile of x must
/// be nonzero in y (throws otherwise); y-only tiles are left unchanged.
void axpy(double alpha, const BlockSparseMatrix& x, BlockSparseMatrix& y);

/// m <- alpha * m.
void scale(double alpha, BlockSparseMatrix& m);

/// Transpose (tiles and elements).
BlockSparseMatrix transpose(const BlockSparseMatrix& m);

}  // namespace bstc
