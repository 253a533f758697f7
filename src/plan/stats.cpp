#include "plan/stats.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "shape/shape_algebra.hpp"
#include "support/error.hpp"

namespace bstc {

GemmEnumerator::GemmEnumerator(const BlockPlan& block) {
  // The k range extent is carried implicitly through the piece k lists;
  // size the lookup from the largest k present in the block.
  std::size_t k_tiles = 0;
  for (const ColumnPiece& piece : block.pieces) {
    for (const std::uint32_t k : piece.ks) {
      k_tiles = std::max<std::size_t>(k_tiles, k + 1);
    }
  }
  k_to_pieces_.resize(k_tiles);
  cols_.reserve(block.pieces.size());
  for (std::size_t pc = 0; pc < block.pieces.size(); ++pc) {
    cols_.push_back(block.pieces[pc].col);
    for (const std::uint32_t k : block.pieces[pc].ks) {
      k_to_pieces_[k].push_back(static_cast<std::uint32_t>(pc));
    }
  }
}

std::vector<GemmGroup> GemmEnumerator::gemm_groups(const Chunk& chunk,
                                                   const Shape& c) const {
  std::vector<GemmGroup> groups;
  std::unordered_map<std::uint64_t, std::size_t> group_of;  // (k, piece)
  for (const auto& [i, k] : chunk.a_tiles) {
    if (k >= k_to_pieces_.size()) continue;
    for (const std::uint32_t pc : k_to_pieces_[k]) {
      const std::uint32_t j = cols_[pc];
      if (!c.nonzero(i, j)) continue;
      const std::uint64_t key = (static_cast<std::uint64_t>(k) << 32) | pc;
      const auto [it, inserted] = group_of.emplace(key, groups.size());
      if (inserted) groups.push_back(GemmGroup{k, j, pc, {}});
      groups[it->second].is.push_back(i);
    }
  }
  return groups;
}

PlanStats compute_stats(const ExecutionPlan& plan, const Shape& a,
                        const Shape& b, const Shape& c) {
  return compute_stats(plan, a, b, c, BcastSelect::kUnicast, {});
}

PlanStats compute_stats(const ExecutionPlan& plan, const Shape& a,
                        const Shape& b, const Shape& c, BcastSelect select,
                        const std::vector<int>& node_of_rank) {
  PlanStats st;
  st.flops_per_gpu.resize(plan.nodes.size());
  const int p = plan.grid.p;
  const int q = plan.grid.q;

  // Unique A tiles needed per node (for broadcast volume) and the global
  // tile -> consumer-rank lists the broadcast accounting walks below
  // (ranks accumulate ascending — the nid loop is ascending).
  std::unordered_set<std::uint64_t> node_a_tiles;
  std::unordered_map<std::uint64_t, std::vector<int>> a_consumers;

  for (std::size_t nid = 0; nid < plan.nodes.size(); ++nid) {
    const NodePlan& node = plan.nodes[nid];
    st.flops_per_gpu[nid].assign(
        static_cast<std::size_t>(plan.gpus_of_node[nid]), 0.0);
    node_a_tiles.clear();

    std::unordered_set<std::uint32_t> segmented_cols;
    for (const BlockPlan& block : node.blocks) {
      ++st.blocks;
      if (block.oversized) ++st.oversized_blocks;
      for (const ColumnPiece& piece : block.pieces) {
        if (piece.segmented) segmented_cols.insert(piece.col);
        st.b_h2d_bytes += piece.b_bytes;
        st.b_generated_bytes += piece.b_bytes;
        st.c_h2d_bytes += piece.c_bytes;
        st.c_d2h_bytes += piece.c_bytes;
      }
      const GemmEnumerator enumerator(block);
      for (const Chunk& chunk : block.chunks) {
        ++st.chunks;
        st.a_h2d_bytes += chunk.a_bytes;
        for (const auto& [i, k] : chunk.a_tiles) {
          node_a_tiles.insert(static_cast<std::uint64_t>(i) * a.tile_cols() +
                              k);
        }
        enumerator.for_each(chunk, c, [&](const GemmTask& t) {
          const double flops =
              2.0 * static_cast<double>(a.row_tiling().tile_extent(t.i)) *
              static_cast<double>(b.col_tiling().tile_extent(t.j)) *
              static_cast<double>(a.col_tiling().tile_extent(t.k));
          st.total_flops += flops;
          ++st.gemm_tasks;
          st.flops_per_gpu[nid][block.gpu] += flops;
        });
      }
    }
    st.segmented_columns += segmented_cols.size();

    // A broadcast: a tile travels to this node unless it is home here
    // (2D-cyclic home under the grid layout: slot (i % p, k % q)).
    for (const std::uint64_t key : node_a_tiles) {
      const auto i = static_cast<std::uint32_t>(key / a.tile_cols());
      const auto k = static_cast<std::uint32_t>(key % a.tile_cols());
      if (plan.grid.home_of(i, k) != static_cast<int>(nid)) {
        a_consumers[key].push_back(static_cast<int>(nid));
      }
    }

    // C return: a computed C tile moves unless its 2D-cyclic home is the
    // node that computed it.
    for (const std::uint32_t j : node.columns) {
      if (static_cast<int>(j) % q == node.grid_col) continue;
      for (std::size_t i = static_cast<std::size_t>(node.grid_row);
           i < c.tile_rows(); i += static_cast<std::size_t>(p)) {
        if (c.nonzero(i, j)) {
          st.c_network_bytes +=
              8.0 * static_cast<double>(c.row_tiling().tile_extent(i)) *
              static_cast<double>(c.col_tiling().tile_extent(j));
        }
      }
    }
  }

  // A broadcast volume, hop for hop with the transport's fanout: each
  // tile's participant set is its home plus every consumer; the resolved
  // algorithm's hops are classified by node. Every consumer is reached
  // exactly once whatever the algorithm, so the total equals the unicast
  // accounting byte-for-byte; only the intra/inter split moves.
  for (const auto& [key, consumers] : a_consumers) {
    const auto i = static_cast<std::uint32_t>(key / a.tile_cols());
    const auto k = static_cast<std::uint32_t>(key % a.tile_cols());
    const double tile_bytes =
        8.0 * static_cast<double>(a.row_tiling().tile_extent(i)) *
        static_cast<double>(a.col_tiling().tile_extent(k));
    const int home = plan.grid.home_of(i, k);
    std::vector<int> parts = consumers;
    parts.push_back(home);
    std::sort(parts.begin(), parts.end());
    const BcastAlgorithm algo = resolve_bcast(
        select, parts.size(), static_cast<std::size_t>(tile_bytes));
    for (const BcastHop hop : bcast_hops(algo, parts, home, node_of_rank)) {
      if (bcast_node_of(node_of_rank, hop.from) ==
          bcast_node_of(node_of_rank, hop.to)) {
        st.a_intranode_bytes += tile_bytes;
      } else {
        st.a_internode_bytes += tile_bytes;
      }
      st.a_network_bytes += tile_bytes;
    }
  }

  // GPU balance.
  double max_f = 0.0, total_f = 0.0;
  std::size_t gpus = 0;
  for (const auto& per_node : st.flops_per_gpu) {
    for (const double f : per_node) {
      max_f = std::max(max_f, f);
      total_f += f;
      ++gpus;
    }
  }
  st.gpu_imbalance =
      (gpus == 0 || total_f == 0.0)
          ? 1.0
          : max_f / (total_f / static_cast<double>(gpus));
  return st;
}

std::vector<std::string> validate_plan(const ExecutionPlan& plan,
                                       const Shape& a, const Shape& b,
                                       const Shape& c) {
  std::vector<std::string> violations;
  auto violation = [&violations](std::string msg) {
    violations.push_back(std::move(msg));
  };

  const double block_capacity =
      plan.config.block_mem_fraction * plan.gpu_memory_bytes;
  const double chunk_capacity =
      plan.config.chunk_mem_fraction * plan.gpu_memory_bytes;

  // Per grid row: every column must be assigned to exactly one node.
  for (int r = 0; r < plan.grid.p; ++r) {
    std::vector<int> owners(b.tile_cols(), 0);
    for (int col = 0; col < plan.grid.q; ++col) {
      for (const std::uint32_t j : plan.node(r, col).columns) {
        ++owners[j];
      }
    }
    for (std::size_t j = 0; j < owners.size(); ++j) {
      if (owners[j] != 1) {
        violation("grid row " + std::to_string(r) + ": column " +
                  std::to_string(j) + " assigned " +
                  std::to_string(owners[j]) + " times");
      }
    }
  }

  std::size_t planned_tasks = 0;
  double planned_flops = 0.0;
  for (const NodePlan& node : plan.nodes) {
    for (std::size_t blk = 0; blk < node.blocks.size(); ++blk) {
      const BlockPlan& block = node.blocks[blk];
      const std::string where = "node(" + std::to_string(node.grid_row) +
                                "," + std::to_string(node.grid_col) +
                                ") block " + std::to_string(blk);
      if (block.pieces.empty()) {
        violation(where + ": empty block");
        continue;
      }
      double bytes = 0.0;
      for (const ColumnPiece& piece : block.pieces) {
        bytes += piece.bytes();
        if (piece.ks.empty()) violation(where + ": piece without B tiles");
        if (!std::is_sorted(piece.ks.begin(), piece.ks.end())) {
          violation(where + ": piece k list not sorted");
        }
      }
      if (!block.oversized && bytes > block_capacity * (1 + 1e-9)) {
        violation(where + ": footprint exceeds block budget");
      }
      if (block.oversized && block.pieces.size() != 1) {
        violation(where + ": oversized block with multiple pieces");
      }

      std::unordered_set<std::uint64_t> seen;
      const GemmEnumerator enumerator(block);
      for (const Chunk& chunk : block.chunks) {
        if (chunk.a_tiles.empty()) {
          violation(where + ": empty chunk");
          continue;
        }
        if (chunk.a_tiles.size() > 1 &&
            chunk.a_bytes > chunk_capacity * (1 + 1e-9)) {
          violation(where + ": chunk exceeds budget");
        }
        for (const auto& [i, k] : chunk.a_tiles) {
          if (!a.nonzero(i, k)) {
            violation(where + ": chunk lists a zero A tile");
          }
          const std::uint64_t key =
              static_cast<std::uint64_t>(i) * a.tile_cols() + k;
          if (!seen.insert(key).second) {
            violation(where + ": A tile loaded twice in one block");
          }
        }
        enumerator.for_each(chunk, c, [&](const GemmTask& t) {
          ++planned_tasks;
          planned_flops +=
              2.0 * static_cast<double>(a.row_tiling().tile_extent(t.i)) *
              static_cast<double>(b.col_tiling().tile_extent(t.j)) *
              static_cast<double>(a.col_tiling().tile_extent(t.k));
        });
      }
    }
  }

  const ContractionStats expected = contraction_stats(a, b, c);
  if (planned_tasks != expected.gemm_tasks) {
    violation("planned " + std::to_string(planned_tasks) +
              " GEMM tasks, product requires " +
              std::to_string(expected.gemm_tasks));
  }
  if (std::abs(planned_flops - expected.flops) >
      1e-6 * std::max(1.0, expected.flops)) {
    violation("planned flops diverge from the product's flops");
  }
  return violations;
}

namespace {

double largest_chunk_bytes(const BlockPlan& block) {
  double largest = 0.0;
  for (const Chunk& chunk : block.chunks) {
    largest = std::max(largest, chunk.a_bytes);
  }
  return largest;
}

}  // namespace

int block_prefetch_depth(const ExecutionPlan& plan, const BlockPlan& block,
                         double gpu_memory_bytes) {
  const double largest = largest_chunk_bytes(block);
  if (largest <= 0.0) return 1;
  const double spare = gpu_memory_bytes - block.bytes;
  return std::max(1, std::min(plan.config.prefetch_depth,
                              static_cast<int>(spare / largest)));
}

void require_executable(const ExecutionPlan& plan, double gpu_memory_bytes) {
  for (std::size_t n = 0; n < plan.nodes.size(); ++n) {
    const std::vector<BlockPlan>& blocks = plan.nodes[n].blocks;
    for (std::size_t bi = 0; bi < blocks.size(); ++bi) {
      const double largest = largest_chunk_bytes(blocks[bi]);
      const double spare = gpu_memory_bytes - blocks[bi].bytes;
      BSTC_REQUIRE(spare >= largest,
                   "grid node " + std::to_string(n) + " block " +
                       std::to_string(bi) + ": block footprint (" +
                       std::to_string(static_cast<long long>(
                           blocks[bi].bytes)) +
                       " B) leaves no room for any A chunk (largest " +
                       std::to_string(static_cast<long long>(largest)) +
                       " B) in " +
                       std::to_string(static_cast<long long>(
                           gpu_memory_bytes)) +
                       " B of device memory; the tiling is too coarse "
                       "for this GPU memory");
    }
  }
}

}  // namespace bstc
