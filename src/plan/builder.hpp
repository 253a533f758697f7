#pragma once

/// \file builder.hpp
/// The inspector: builds an ExecutionPlan from the shapes of A, B and C
/// and the machine model (paper §3.2). Cost is O(N_t log N_t + nnz(B))
/// per grid row (paper §3.2.4).
///
/// The individual phases (piece construction, flop deal of pieces to
/// devices, per-device worst-fit block partition, cyclic-greedy chunk
/// segmentation) are exposed for direct unit testing.

#include <span>

#include "machine/machine.hpp"
#include "plan/plan.hpp"

namespace bstc {

/// Build the full plan for C <- C + A*B on `machine` with grid rows
/// cfg.p (q = machine.nodes / cfg.p; all grid nodes must have a GPU).
/// `c` is the output shape (the contraction closure, possibly screened);
/// GEMMs contributing to blocks absent from `c` are skipped.
ExecutionPlan build_plan(const Shape& a, const Shape& b, const Shape& c,
                         const MachineModel& machine, const PlanConfig& cfg);

/// Phase 1 helper — turn the columns assigned to one node into pieces.
/// A column whose footprint (B tiles + local C tiles) exceeds `capacity`
/// is split into consecutive k-segments that each fit; this situation is
/// unspecified in the paper (its runs keep one column under 50% of GPU
/// memory) — see DESIGN.md.
std::vector<ColumnPiece> make_pieces(const Shape& b, const Shape& c,
                                     std::span<const std::uint32_t> slice,
                                     std::span<const std::uint32_t> cols,
                                     double capacity);

/// Phase 2a — deal a node's pieces to its `gpus` devices by GEMM flops:
/// greedy LPT, heaviest piece first onto the least-loaded device (ties to
/// the lower index). Returns, per device, the indices into `weights` it
/// received, ascending. The paper deals blocks round-robin by count
/// (§3.2.2), which leaves devices unequal in work when block flops
/// differ; this balances flops and leaves memory to phase 2b.
std::vector<std::vector<std::uint32_t>> deal_pieces(
    std::span<const double> weights, int gpus);

/// Phase 2b — worst-fit partition of one device's pieces into blocks of
/// at most `capacity` bytes (paper §3.2.2): pieces sorted by
/// non-increasing footprint; packing starts with one open block; a piece
/// goes to the candidate block with the most remaining space and opens a
/// new block when it fits nowhere. A piece larger than `capacity` gets a
/// dedicated block flagged `oversized`. `gpu` is left 0: build_plan
/// stamps it when it interleaves the devices' blocks into the node's
/// list (device 0's r-th block, device 1's r-th, ...).
std::vector<BlockPlan> partition_blocks(
    std::vector<ColumnPiece> pieces, double capacity,
    PackingPolicy policy = PackingPolicy::kWorstFit);

/// Phase 3 — segment the A tiles needed by `block` into chunks of at most
/// `chunk_capacity` bytes (paper §3.2.3): tiles are added one-per-tile-row
/// of the A slice in cyclic fashion until the budget is exhausted; the
/// other half of the remaining memory prefetches the next chunk. A tile is
/// needed iff it meets at least one piece of the block through a nonzero
/// B tile and a nonzero C tile.
std::vector<Chunk> segment_chunks(const Shape& a, const Shape& c,
                                  std::span<const std::uint32_t> slice,
                                  const BlockPlan& block,
                                  double chunk_capacity);

}  // namespace bstc
