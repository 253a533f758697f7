#include "core/engine.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <tuple>
#include <unordered_map>
#include <unordered_set>

#include "comm/transport.hpp"
#include "obs/obs.hpp"
#include "plan/builder.hpp"
#include "runtime/device.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/task_graph.hpp"
#include "support/error.hpp"
#include "support/timer.hpp"
#include "tile/gemm.hpp"

namespace bstc {
namespace {

std::uint64_t tile_key(std::uint32_t a, std::uint32_t b) {
  return (static_cast<std::uint64_t>(a) << 32) | b;
}

/// Doubles rounded up to a whole 64-byte line, so every region of an
/// arena starts cache-line aligned.
std::size_t line_doubles(std::size_t doubles) {
  return (doubles + 7) & ~std::size_t{7};
}

/// Returns a mapping made by StageArena::allocate to the OS.
struct Unmap {
  std::size_t bytes = 0;
  void operator()(double* p) const { ::munmap(p, bytes); }
};

/// One device's stage arena for one contract() call — the device memory
/// pool of the paper's §3.2.2–3.2.3. A B region holds the current block's
/// B tiles packed as NR panels and is reused block after block; `slots`
/// A regions each hold one chunk's A tiles packed as MR panels, chunk ci
/// of a block landing in slot ci % depth. Every size and offset is fixed
/// from the plan before the graph is built, and the memory is allocated
/// untouched, so pages fault in only where panels actually land — 2 MB
/// at a time where the host grants transparent huge pages.
struct StageArena {
  std::size_t b_doubles = 0;     ///< largest block's B panels
  std::size_t slot_doubles = 0;  ///< largest chunk's A panels
  std::size_t slots = 0;         ///< max over blocks of min(depth, chunks)

  std::unique_ptr<double, Unmap> mem;

  std::size_t bytes() const {
    return (b_doubles + slots * slot_doubles) * sizeof(double);
  }

  /// Maps the arena straight from the OS: page-aligned, untouched until a
  /// panel lands, and returned whole when the call ends, so a staging
  /// pool never lingers in (or fragments) the allocator's heap. The
  /// huge-page advice cuts the faults of packing into fresh pages 512x;
  /// it is advice only, so its failure is ignored and a host with THP off
  /// simply keeps 4 KB pages.
  void allocate() {
    if (bytes() == 0) return;
    void* p = ::mmap(nullptr, bytes(), PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    BSTC_REQUIRE(p != MAP_FAILED, "stage arena allocation failed");
    (void)::madvise(p, bytes(), MADV_HUGEPAGE);
    mem = std::unique_ptr<double, Unmap>(static_cast<double*>(p),
                                         Unmap{bytes()});
  }
  double* b_region() const { return mem.get(); }
  double* slot(std::size_t s) const {
    return mem.get() + b_doubles + s * slot_doubles;
  }
};

/// Panel layout of one block inside its device's arena, fixed when the
/// graph is built.
struct BlockLayout {
  int depth = 1;  ///< A chunks resident at once (block_prefetch_depth)
  std::unordered_map<std::uint64_t, std::size_t> b_offset;  ///< (k, j)
  /// Per chunk, the offset of each A tile (parallel to chunk.a_tiles)
  /// within the chunk's slot.
  std::vector<std::vector<std::size_t>> a_offset;
};

/// Device-resident C of one block: one slot per C tile the block's
/// pieces stage, created empty when the graph is built (so tasks hold
/// stable pointers) and allocated by the first load staging its column.
struct BlockResidence {
  std::vector<std::pair<std::uint64_t, Tile>> c;  ///< (key (i, j), tile)
};

/// Every device's arena size and every block's panel layout for `plan`
/// (blocks of `local_rank` only when it is >= 0). Panels use the active
/// kernel's register tile, so gemmbatch tasks run the pre-packed entry on
/// exactly what load/chunkload staged.
struct StageLayout {
  std::vector<StageArena> arenas;  ///< per device, flattened in queue order
  std::vector<std::vector<BlockLayout>> blocks;  ///< [node][block]
};

StageLayout layout_stage(const ExecutionPlan& plan, const Shape& a_shape,
                         const Shape& b_shape, double gpu_memory_bytes,
                         int local_rank) {
  const KernelGeometry& geom = active_microkernel().geom;
  const Tiling& a_rows = a_shape.row_tiling();
  const Tiling& a_cols = a_shape.col_tiling();
  const Tiling& b_cols = b_shape.col_tiling();
  StageLayout out;
  out.blocks.resize(plan.nodes.size());
  std::size_t first_device = 0;
  for (std::size_t n = 0; n < plan.nodes.size(); ++n) {
    const std::size_t gpus = static_cast<std::size_t>(plan.gpus_of_node[n]);
    out.arenas.resize(first_device + gpus);
    if (local_rank >= 0 && n != static_cast<std::size_t>(local_rank)) {
      first_device += gpus;
      continue;
    }
    const NodePlan& node_plan = plan.nodes[n];
    out.blocks[n].resize(node_plan.blocks.size());
    for (std::size_t bi = 0; bi < node_plan.blocks.size(); ++bi) {
      const BlockPlan& block = node_plan.blocks[bi];
      BlockLayout& layout = out.blocks[n][bi];
      StageArena& arena = out.arenas[first_device + block.gpu];
      layout.depth = block_prefetch_depth(plan, block, gpu_memory_bytes);
      std::size_t b_end = 0;
      for (const ColumnPiece& piece : block.pieces) {
        for (const std::uint32_t k : piece.ks) {
          layout.b_offset.emplace(tile_key(k, piece.col), b_end);
          b_end += line_doubles(packed_b_doubles(
              a_cols.tile_extent(k), b_cols.tile_extent(piece.col), geom.nr));
        }
      }
      arena.b_doubles = std::max(arena.b_doubles, b_end);
      layout.a_offset.resize(block.chunks.size());
      for (std::size_t ci = 0; ci < block.chunks.size(); ++ci) {
        std::size_t a_end = 0;
        for (const auto& [i, k] : block.chunks[ci].a_tiles) {
          layout.a_offset[ci].push_back(a_end);
          a_end += packed_a_doubles(a_rows.tile_extent(i),
                                    a_cols.tile_extent(k), geom.mr);
        }
        arena.slot_doubles =
            std::max(arena.slot_doubles, line_doubles(a_end));
      }
      arena.slots = std::max(
          arena.slots, std::min(static_cast<std::size_t>(layout.depth),
                                block.chunks.size()));
    }
    first_device += gpus;
  }
  return out;
}

/// Host-side state of one simulated rank.
struct NodeState {
  TileSource* b = nullptr;  ///< per-node B backend (paper §4)
  std::unordered_map<std::uint64_t, Tile> c_store;  ///< computed C tiles
  std::unordered_set<std::uint64_t> a_received;     ///< A tiles fetched
  std::mutex mutex;
};

}  // namespace

EngineResult contract(const BlockSparseMatrix& a, const Shape& b_shape,
                      const TileGenerator& b_generator, const Shape& c_shape,
                      const BlockSparseMatrix* c_init,
                      const MachineModel& machine, const EngineConfig& cfg) {
  const ExecutionPlan plan =
      build_plan(a.shape(), b_shape, c_shape, machine, cfg.plan);
  return contract_with_plan(plan, a, b_shape, b_generator, c_shape, c_init,
                            machine, cfg);
}

EngineResult contract_with_plan(const ExecutionPlan& plan,
                                const BlockSparseMatrix& a,
                                const Shape& b_shape,
                                const TileGenerator& b_generator,
                                const Shape& c_shape,
                                const BlockSparseMatrix* c_init,
                                const MachineModel& machine,
                                const EngineConfig& cfg) {
  BSTC_REQUIRE(a.shape().col_tiling() == b_shape.row_tiling(),
               "inner tilings of A and B must agree");
  if (c_init != nullptr) {
    BSTC_REQUIRE(c_init->row_tiling() == a.row_tiling() &&
                     c_init->col_tiling() == b_shape.col_tiling(),
                 "C init tilings must match the product");
  }

  // An unexecutable plan fails here, before any tile is generated.
  require_executable(plan, machine.node.gpu.memory_bytes);

  Timer timer;
  // The serial head (state, stage layout, graph) and tail (assembly) of
  // the call are phase spans on the caller's lane, beside the task spans.
  obs::Registry& reg = obs::Registry::current();
  const double build_start = reg.now();
  const int num_nodes = plan.grid.nodes();
  // Tile homes are 2D-cyclic over grid *slots*; the grid's layout maps
  // slots to ranks (identity unless a node-aware permutation was planned).

  // Queue layout: [0, num_nodes) are CPU queues (B generation), then one
  // queue per device.
  std::vector<std::uint32_t> device_queue_base(
      static_cast<std::size_t>(num_nodes));
  std::uint32_t next_queue = static_cast<std::uint32_t>(num_nodes);
  for (int n = 0; n < num_nodes; ++n) {
    device_queue_base[static_cast<std::size_t>(n)] = next_queue;
    next_queue += static_cast<std::uint32_t>(
        plan.gpus_of_node[static_cast<std::size_t>(n)]);
  }
  const std::uint32_t num_queues = next_queue;

  // Per-device memory trackers (flattened in queue order).
  std::vector<std::unique_ptr<DeviceMemory>> devices;
  for (int n = 0; n < num_nodes; ++n) {
    for (int g = 0; g < plan.gpus_of_node[static_cast<std::size_t>(n)]; ++g) {
      devices.push_back(std::make_unique<DeviceMemory>(
          "node" + std::to_string(n) + ".gpu" + std::to_string(g),
          static_cast<std::size_t>(machine.node.gpu.memory_bytes)));
    }
  }
  auto device_of = [&](int node, std::uint32_t gpu) -> DeviceMemory& {
    return *devices[device_queue_base[static_cast<std::size_t>(node)] -
                    static_cast<std::uint32_t>(num_nodes) + gpu];
  };
  auto device_queue = [&](int node, std::uint32_t gpu) {
    return device_queue_base[static_cast<std::size_t>(node)] + gpu;
  };

  // Node state (per-rank on-demand B, C accumulation store). In session
  // mode (cfg.b_cache) the caches are caller-owned and survive this call;
  // otherwise they are fresh and die with it.
  const bool persistent_b = cfg.b_cache != nullptr;
  std::vector<std::unique_ptr<TileSource>> owned_b;
  if (persistent_b && cfg.b_cache->empty()) {
    for (int n = 0; n < num_nodes; ++n) {
      cfg.b_cache->push_back(
          std::make_unique<OnDemandMatrix>(b_shape, b_generator));
    }
  }
  if (persistent_b) {
    BSTC_REQUIRE(cfg.b_cache->size() == static_cast<std::size_t>(num_nodes),
                 "b_cache was filled for a different grid");
  }
  std::vector<NodeState> node_states(static_cast<std::size_t>(num_nodes));
  for (int n = 0; n < num_nodes; ++n) {
    node_states[static_cast<std::size_t>(n)].b =
        persistent_b
            ? (*cfg.b_cache)[static_cast<std::size_t>(n)].get()
            : owned_b
                  .emplace_back(
                      std::make_unique<OnDemandMatrix>(b_shape, b_generator))
                  .get();
  }

  CommRecorder comm(num_nodes);

  // Distributed single-rank mode: build and run only local_rank's share
  // of the DAG against an external (network) transport.
  const bool distributed = cfg.local_rank >= 0;
  if (distributed) {
    BSTC_REQUIRE(cfg.local_rank < num_nodes,
                 "local_rank out of range for the plan's grid");
    BSTC_REQUIRE(cfg.transport != nullptr,
                 "distributed execution needs an external transport");
  }
  const bool messaged = cfg.explicit_messages || cfg.transport != nullptr;

  // Optional explicit message transport for remote A tiles: precompute,
  // per consumer node, the unique remote tiles it needs; their home
  // nodes get root send tasks. An external transport (distributed mode)
  // replaces the engine-private one; its recorder accumulates across
  // calls, so traffic is measured as a delta.
  std::unique_ptr<Transport> owned_transport;
  Transport* transport = cfg.transport;
  if (messaged && transport == nullptr) {
    owned_transport = std::make_unique<Transport>(num_nodes);
    transport = owned_transport.get();
  }
  if (transport != nullptr) {
    BSTC_REQUIRE(transport->nodes() == num_nodes,
                 "transport was built for a different grid");
  }
  const double transport_bytes_before =
      transport != nullptr ? transport->recorder().total_bytes() : 0.0;
  // Per A tile: its home rank and the ascending list of consumer ranks.
  // One *collective* send per tile (not one per consumer) so the
  // transport can serialize once and fan out tree/ring/shm; ordered map
  // for deterministic task creation.
  std::map<std::uint64_t, std::pair<int, std::vector<int>>> a_sends;
  if (messaged) {
    for (int n = 0; n < num_nodes; ++n) {
      std::unordered_set<std::uint64_t> needed;
      for (const BlockPlan& block :
           plan.nodes[static_cast<std::size_t>(n)].blocks) {
        for (const Chunk& chunk : block.chunks) {
          for (const auto& [i, k] : chunk.a_tiles) {
            if (!needed.insert(tile_key(i, k)).second) continue;
            const int home = plan.grid.home_of(i, k);
            if (home == n) continue;
            // Each rank runs only its *own* send tasks in distributed
            // mode (it holds only its home share of A authoritatively).
            if (distributed && home != cfg.local_rank) continue;
            auto& entry = a_sends[tile_key(i, k)];
            entry.first = home;
            entry.second.push_back(n);  // ascending: the n loop ascends
          }
        }
      }
    }
  }

  // --- Stage layout: every panel offset, fixed before any task exists. ---
  const KernelGeometry& geom = active_microkernel().geom;
  const Tiling& a_rows = a.shape().row_tiling();
  const Tiling& a_cols = a.shape().col_tiling();
  const Tiling& b_cols = b_shape.col_tiling();
  StageLayout stage = layout_stage(plan, a.shape(), b_shape,
                                   machine.node.gpu.memory_bytes,
                                   cfg.local_rank);
  for (StageArena& arena : stage.arenas) arena.allocate();
  auto arena_of = [&](int node, std::uint32_t gpu) -> const StageArena& {
    return stage.arenas[device_queue(node, gpu) -
                        static_cast<std::uint32_t>(num_nodes)];
  };

  // Residences, pre-sized so tasks can hold stable pointers.
  std::vector<std::vector<BlockResidence>> residences(
      static_cast<std::size_t>(num_nodes));
  for (int n = 0; n < num_nodes; ++n) {
    residences[static_cast<std::size_t>(n)] =
        std::vector<BlockResidence>(plan.nodes[static_cast<std::size_t>(n)]
                                        .blocks.size());
  }

  // What the staging and GEMM tasks will move and compute, tallied as the
  // graph is built and published to the registry after a successful run.
  double stage_packed_bytes = 0.0, stage_pad_bytes = 0.0, gemm_flops = 0.0;

  TaskGraph graph;

  // Root send tasks on the home ranks' CPU queues (the background
  // broadcast of A along grid rows, paper §3.2.4): one task per tile
  // broadcasting to its full consumer set.
  for (const auto& [key, home_consumers] : a_sends) {
    const auto si = static_cast<std::uint32_t>(key >> 32);
    const auto sk = static_cast<std::uint32_t>(key & 0xffffffffu);
    graph.add_task(
        "asend(" + std::to_string(si) + "," + std::to_string(sk) + "->x" +
            std::to_string(home_consumers.second.size()) + ")",
        static_cast<std::uint32_t>(home_consumers.first),
        [transport, &a, home = home_consumers.first,
         consumers = home_consumers.second, si = si, sk = sk] {
          transport->send_multi(home, consumers, tile_key(si, sk),
                                a.tile(si, sk));
        });
  }

  for (int n = 0; n < num_nodes; ++n) {
    // Distributed: only the local rank's blocks become tasks (queue ids
    // stay global so the plan's device numbering is unchanged).
    if (distributed && n != cfg.local_rank) continue;
    const NodePlan& node_plan = plan.nodes[static_cast<std::size_t>(n)];
    NodeState& ns = node_states[static_cast<std::size_t>(n)];
    const auto cpu_queue = static_cast<std::uint32_t>(n);

    // Per GPU: the previous block's store task (for sequential-block
    // control edges).
    std::unordered_map<std::uint32_t, TaskId> prev_store_of_gpu;
    std::vector<TaskId> store_of_block;
    // Per B column: the blocks holding a piece of it, ascending — the
    // blocks whose C partials of that column meet in c_store.
    std::map<std::uint32_t, std::vector<std::size_t>> blocks_of_column;
    // Per GPU: how many of its blocks precede the current one (the block's
    // round); and one pending generation task per piece.
    std::vector<std::size_t> block_rounds(
        static_cast<std::size_t>(plan.gpus_of_node[static_cast<std::size_t>(n)]),
        0);
    struct PendingGen {
      std::size_t round, piece;
      std::uint32_t gpu;
      std::size_t block;
      TaskId load;
    };
    std::vector<PendingGen> gens;

    for (std::size_t bi = 0; bi < node_plan.blocks.size(); ++bi) {
      const BlockPlan& block = node_plan.blocks[bi];
      const BlockLayout& layout =
          stage.blocks[static_cast<std::size_t>(n)][bi];
      BlockResidence& res = residences[static_cast<std::size_t>(n)][bi];
      DeviceMemory& dev = device_of(n, block.gpu);
      const StageArena& arena = arena_of(n, block.gpu);
      const std::uint32_t dq = device_queue(n, block.gpu);
      const int prefetch_depth = layout.depth;

      // C slots of every column the block stages: the slice rows' nonzero
      // tiles, one slot per tile even when pieces share a column.
      std::unordered_map<std::uint64_t, std::size_t> c_slot;
      std::vector<std::vector<std::size_t>> piece_c_slots(block.pieces.size());
      for (std::size_t pi = 0; pi < block.pieces.size(); ++pi) {
        const std::uint32_t col = block.pieces[pi].col;
        auto& bl = blocks_of_column[col];
        if (bl.empty() || bl.back() != bi) bl.push_back(bi);
        for (std::size_t i = static_cast<std::size_t>(node_plan.grid_row);
             i < c_shape.tile_rows();
             i += static_cast<std::size_t>(plan.grid.p)) {
          if (!c_shape.nonzero(i, col)) continue;
          const std::uint64_t key =
              tile_key(static_cast<std::uint32_t>(i), col);
          const auto [it, inserted] = c_slot.emplace(key, res.c.size());
          if (inserted) res.c.emplace_back(key, Tile());
          piece_c_slots[pi].push_back(it->second);
        }
      }

      // --- Piece tasks: stage on the device (generation is dealt below,
      // once every block's loads exist). ---
      const std::size_t round = block_rounds[block.gpu]++;
      std::vector<TaskId> piece_loads;
      for (std::size_t pi = 0; pi < block.pieces.size(); ++pi) {
        const ColumnPiece& piece = block.pieces[pi];
        // Staging targets: each B tile's panels in the arena's B region,
        // and the column's C slots.
        std::vector<double*> b_dst;
        for (const std::uint32_t k : piece.ks) {
          b_dst.push_back(arena.b_region() +
                          layout.b_offset.at(tile_key(k, piece.col)));
          const Index rows = a_cols.tile_extent(k);
          const Index cols = b_cols.tile_extent(piece.col);
          const double panel = static_cast<double>(
              packed_b_doubles(rows, cols, geom.nr) * sizeof(double));
          stage_packed_bytes += panel;
          stage_pad_bytes += panel - 8.0 * static_cast<double>(rows * cols);
        }
        std::vector<std::pair<std::uint64_t, Tile>*> c_tiles;
        for (const std::size_t slot : piece_c_slots[pi]) {
          c_tiles.push_back(&res.c[slot]);
        }
        const TaskId load = graph.add_task(
            "load(n" + std::to_string(n) + ",b" + std::to_string(bi) + ",p" +
                std::to_string(pi) + ")",
            dq,
            [&ns, &dev, &piece, &c_shape, &a_cols, &b_cols, nr = geom.nr,
             persistent_b,
             b_dst = std::move(b_dst), c_tiles = std::move(c_tiles)] {
              dev.allocate(static_cast<std::size_t>(piece.bytes()));
              for (std::size_t t = 0; t < piece.ks.size(); ++t) {
                const std::uint32_t k = piece.ks[t];
                const Tile& host = ns.b->acquire(k, piece.col);
                BSTC_REQUIRE(host.rows() == a_cols.tile_extent(k) &&
                                 host.cols() == b_cols.tile_extent(piece.col),
                             "B tile extents disagree with the B shape");
                // The h2d copy is the pack: B lands as NR panels.
                pack_b_panels(host.rows(), host.cols(), host.data(), host.ld(),
                              b_dst[t], nr);
                ns.b->release(k, piece.col);  // matching pin from acquire
                // Non-session mode: drop the gen task's pin too, so the
                // host copy is discarded as soon as it is staged. Session
                // mode took no gen pin (persistent acquisition).
                if (!persistent_b) ns.b->release(k, piece.col);
              }
              // Stage the column's C tiles zero-initialised (any initial C
              // is added at assembly); a slot another piece of the same
              // column already staged is left alone.
              for (auto* slot : c_tiles) {
                if (!slot->second.empty()) continue;
                const auto i = static_cast<std::size_t>(slot->first >> 32);
                slot->second =
                    Tile(c_shape.row_tiling().tile_extent(i),
                         c_shape.col_tiling().tile_extent(piece.col));
              }
            });
        gens.push_back({round, pi, block.gpu, bi, load});
        piece_loads.push_back(load);
      }

      // --- Chunk tasks: A loads, batched GEMMs, unloads. ---
      const GemmEnumerator enumerator(block);
      std::vector<TaskId> chunk_loads, chunk_unloads;
      std::vector<std::vector<TaskId>> chunk_gemms(block.chunks.size());
      for (std::size_t ci = 0; ci < block.chunks.size(); ++ci) {
        const Chunk& chunk = block.chunks[ci];
        double* const slot =
            arena.slot(ci % static_cast<std::size_t>(prefetch_depth));
        std::vector<double*> a_dst;
        std::unordered_map<std::uint64_t, const double*> a_panel;
        for (std::size_t t = 0; t < chunk.a_tiles.size(); ++t) {
          const auto [i, k] = chunk.a_tiles[t];
          a_dst.push_back(slot + layout.a_offset[ci][t]);
          a_panel.emplace(tile_key(i, k), a_dst.back());
          const Index rows = a_rows.tile_extent(i);
          const double panel = static_cast<double>(
              packed_a_doubles(rows, a_cols.tile_extent(k), geom.mr) *
              sizeof(double));
          stage_packed_bytes += panel;
          stage_pad_bytes +=
              panel - 8.0 * static_cast<double>(rows * a_cols.tile_extent(k));
        }
        const TaskId load = graph.add_task(
            "chunkload(n" + std::to_string(n) + ",b" + std::to_string(bi) +
                "," + std::to_string(ci) + ")",
            dq,
            [&ns, &dev, &chunk, &a, &plan, &comm, &a_rows, &a_cols, transport,
             n, mr = geom.mr, a_dst = std::move(a_dst)] {
              dev.allocate(static_cast<std::size_t>(chunk.a_bytes));
              for (std::size_t t = 0; t < chunk.a_tiles.size(); ++t) {
                const auto [i, k] = chunk.a_tiles[t];
                const int home = plan.grid.home_of(i, k);
                const bool remote = home != n;
                // Explicit transport: stall until the message arrived
                // (the send tasks are dependence-free roots, so progress
                // is guaranteed). Bytes are recorded by the transport.
                const Tile& host =
                    (transport && remote)
                        ? transport->mailbox(n).wait(tile_key(i, k))
                        : a.tile(i, k);
                if (!transport && remote) {
                  std::lock_guard node_lock(ns.mutex);
                  if (ns.a_received.insert(tile_key(i, k)).second) {
                    comm.record(home, n, static_cast<double>(host.bytes()));
                  }
                }
                BSTC_REQUIRE(host.rows() == a_rows.tile_extent(i) &&
                                 host.cols() == a_cols.tile_extent(k),
                             "A tile extents disagree with the A shape");
                // The h2d copy is the pack: A lands as MR panels.
                pack_a_panels(host.rows(), host.cols(), host.data(), host.ld(),
                              a_dst[t], mr);
              }
            });
        chunk_loads.push_back(load);

        // One task per (k, j) B tile the chunk touches: the staged B
        // panels are swept across every A-row tile of the group straight
        // from the arena, and scheduling overhead is paid per group, not
        // per GEMM.
        for (const GemmGroup& grp : enumerator.gemm_groups(chunk, c_shape)) {
          const Index k_ext = a_cols.tile_extent(grp.k);
          const Index n_ext = b_cols.tile_extent(grp.j);
          std::vector<PackedGemmItem> items;
          std::vector<Tile*> cs;
          for (const std::uint32_t i : grp.is) {
            const Index m_ext = a_rows.tile_extent(i);
            items.push_back(
                {a_panel.at(tile_key(i, grp.k)), m_ext, nullptr, 0});
            cs.push_back(&res.c[c_slot.at(tile_key(i, grp.j))].second);
            gemm_flops += 2.0 * static_cast<double>(m_ext) *
                          static_cast<double>(n_ext) *
                          static_cast<double>(k_ext);
          }
          const TaskId g = graph.add_task(
              "gemmbatch(" + std::to_string(grp.k) + "," +
                  std::to_string(grp.j) + ",x" +
                  std::to_string(grp.is.size()) + ")",
              dq,
              [bp = arena.b_region() +
                    layout.b_offset.at(tile_key(grp.k, grp.j)),
               k_ext, n_ext, items = std::move(items),
               cs = std::move(cs)]() mutable {
                // Single-threaded device queue: no two GEMM tasks of this
                // device run concurrently, so C accumulation is safe. The
                // C tiles exist once their piece is staged.
                for (std::size_t t = 0; t < items.size(); ++t) {
                  items[t].c = cs[t]->data();
                  items[t].ldc = cs[t]->ld();
                }
                gemm_batch_packed(1.0, items, bp, k_ext, n_ext);
              });
          chunk_gemms[ci].push_back(g);
          // Dataflow: the batch needs the piece owning its B tile staged.
          graph.add_edge(piece_loads[grp.piece], g, EdgeKind::kData);
        }

        const TaskId unload = graph.add_task(
            "chunkunload(n" + std::to_string(n) + ",b" + std::to_string(bi) +
                "," + std::to_string(ci) + ")",
            dq, [&dev, &chunk] {
              dev.release(static_cast<std::size_t>(chunk.a_bytes));
            });
        chunk_unloads.push_back(unload);

        // Dataflow: load -> gemms -> unload (or load -> unload directly
        // when the chunk drives no GEMM under the C screen).
        if (chunk_gemms[ci].empty()) {
          graph.add_edge(load, unload, EdgeKind::kData);
        }
        for (const TaskId g : chunk_gemms[ci]) {
          graph.add_edge(load, g, EdgeKind::kData);
          graph.add_edge(g, unload, EdgeKind::kData);
        }
        // Control: bounded prefetch — chunk ci may only start loading
        // after chunk ci - prefetch_depth has been evicted. That chunk
        // used the same arena slot, so this edge also makes reuse safe.
        if (ci >= static_cast<std::size_t>(prefetch_depth)) {
          graph.add_edge(
              chunk_unloads[ci - static_cast<std::size_t>(prefetch_depth)],
              load, EdgeKind::kControl);
        }
      }

      // --- Store task: flush C to the host store, free the block. ---
      const TaskId store = graph.add_task(
          "store(n" + std::to_string(n) + ",b" + std::to_string(bi) + ")",
          dq, [&ns, &res, &dev, &block] {
            {
              std::lock_guard node_lock(ns.mutex);
              for (auto& [key, tile] : res.c) {
                const auto it = ns.c_store.find(key);
                if (it == ns.c_store.end()) {
                  ns.c_store.emplace(key, std::move(tile));
                } else {
                  it->second.axpy(1.0, tile);  // segmented-column reduce
                }
              }
            }
            res.c.clear();
            dev.release(static_cast<std::size_t>(block.bytes));
          });
      store_of_block.push_back(store);
      for (const auto& gemms : chunk_gemms) {
        for (const TaskId g : gemms) graph.add_edge(g, store, EdgeKind::kData);
      }
      for (const TaskId u : chunk_unloads) {
        graph.add_edge(u, store, EdgeKind::kData);
      }
      for (const TaskId l : piece_loads) {
        graph.add_edge(l, store, EdgeKind::kData);
      }

      // Control: the next block of this GPU may only start loading after
      // this block is flushed (blocks are streamed one at a time, §3.2.2),
      // and its first chunks wait as well — they reuse its arena slots.
      const auto prev = prev_store_of_gpu.find(block.gpu);
      if (prev != prev_store_of_gpu.end()) {
        for (const TaskId l : piece_loads) {
          graph.add_edge(prev->second, l, EdgeKind::kControl);
        }
        for (std::size_t ci = 0;
             ci < std::min<std::size_t>(chunk_loads.size(),
                                        static_cast<std::size_t>(
                                            prefetch_depth));
             ++ci) {
          graph.add_edge(prev->second, chunk_loads[ci], EdgeKind::kControl);
        }
      }
      prev_store_of_gpu[block.gpu] = store;
    }

    // --- Generation tasks, on the node's CPU queue in the order the
    // devices consume pieces: round by round (a GPU's r-th block), piece
    // by piece, GPU by GPU. Ready tasks of one queue run in creation
    // order, so every GPU's first piece is generated within a few tile
    // times and all devices stage and multiply while the rest of B is
    // generated. Each C tile's k-accumulation order is fixed by the
    // device-side tasks, not by when generation finishes. ---
    std::sort(gens.begin(), gens.end(),
              [](const PendingGen& x, const PendingGen& y) {
                return std::tie(x.round, x.piece, x.gpu) <
                       std::tie(y.round, y.piece, y.gpu);
              });
    for (const PendingGen& pg : gens) {
      const ColumnPiece& piece = node_plan.blocks[pg.block].pieces[pg.piece];
      const TaskId gen = graph.add_task(
          "gen(n" + std::to_string(n) + ",b" + std::to_string(pg.block) +
              ",p" + std::to_string(pg.piece) + ")",
          cpu_queue, [&ns, &piece, persistent_b] {
            for (const std::uint32_t k : piece.ks) {
              if (persistent_b) {
                // Session mode: tile survives across iterations (no pin).
                ns.b->acquire_persistent(k, piece.col);
              } else {
                ns.b->acquire(k, piece.col);  // pin until staged
              }
            }
          });
      graph.add_edge(gen, pg.load, EdgeKind::kData);
    }

    // Control: a segmented column's C partials reduce into c_store in
    // ascending block order whatever order the devices finish in. Two
    // partials commute exactly, so the first two stores of a column run
    // freely; every later store waits for all earlier ones. All edges
    // point from a lower to a higher block, like the per-GPU chains, so
    // the graph stays acyclic, and no partial is ever held back in memory.
    std::set<std::pair<TaskId, TaskId>> order_edges;
    for (const auto& [col, bl] : blocks_of_column) {
      for (std::size_t t = 2; t < bl.size(); ++t) {
        order_edges.emplace(store_of_block[bl[t - 2]], store_of_block[bl[t]]);
        order_edges.emplace(store_of_block[bl[t - 1]], store_of_block[bl[t]]);
      }
    }
    for (const auto& [from, to] : order_edges) {
      graph.add_edge(from, to, EdgeKind::kControl);
    }
  }

  BSTC_CHECK(graph.is_acyclic());
  reg.record(obs::Category::kPhase, "engine.build_graph", obs::thread_lane(),
             build_start, reg.now());
  const SchedulerStats sched = run_graph(graph, num_queues);
  reg.counter_add("bstc_stage_packed_bytes_total",
                  static_cast<std::uint64_t>(stage_packed_bytes));
  reg.counter_add("bstc_stage_pad_bytes_total",
                  static_cast<std::uint64_t>(stage_pad_bytes));
  reg.counter_add("bstc_gemm_flops_total",
                  static_cast<std::uint64_t>(gemm_flops));
  // The result needs no staged panel: return the arenas before assembly.
  stage.arenas.clear();

  // --- Assemble the global C and count return traffic. ---
  // The C tiles `load` allocated and `store` moved into c_store become the
  // result's tiles by move; only nonzero tiles no GEMM reached are
  // allocated here, and C is never built a second time.
  const double assemble_start = reg.now();
  EngineResult result;
  std::vector<PlacedTile> computed;
  for (int n = 0; n < num_nodes; ++n) {
    if (distributed && n != cfg.local_rank) continue;
    NodeState& ns = node_states[static_cast<std::size_t>(n)];
    const NodePlan& node_plan = plan.nodes[static_cast<std::size_t>(n)];
    const int self = plan.grid.node_id(node_plan.grid_row, node_plan.grid_col);
    for (auto& [key, tile] : ns.c_store) {
      const auto i = static_cast<std::uint32_t>(key >> 32);
      const auto j = static_cast<std::uint32_t>(key & 0xffffffffu);
      result.computed_c_tiles.emplace_back(i, j);
      const int home = plan.grid.home_of(i, j);
      if (home != self) {
        comm.record(self, home, static_cast<double>(tile.bytes()));
        result.c_network_bytes += static_cast<double>(tile.bytes());
      }
      computed.push_back({i, j, std::move(tile)});
    }
    result.b_max_generations =
        std::max(result.b_max_generations, ns.b->max_generation_count());
    result.host_b_peak_bytes =
        std::max(result.host_b_peak_bytes, ns.b->peak_cached_bytes());
  }
  // c_store is hash-ordered; sort so the recorded set is deterministic.
  std::sort(result.computed_c_tiles.begin(), result.computed_c_tiles.end());
  // adopt refuses a C tile that two nodes computed.
  result.c = BlockSparseMatrix::adopt(c_shape, std::move(computed));
  if (c_init != nullptr) {
    for (std::size_t i = 0; i < c_shape.tile_rows(); ++i) {
      for (std::size_t j = 0; j < c_shape.tile_cols(); ++j) {
        if (c_shape.nonzero(i, j) && c_init->has_tile(i, j)) {
          result.c.tile(i, j).axpy(1.0, c_init->tile(i, j));
        }
      }
    }
  }

  result.a_network_bytes = comm.total_bytes() - result.c_network_bytes;
  if (transport) {
    // Delta, because an external transport's recorder outlives this call.
    result.a_network_bytes +=
        transport->recorder().total_bytes() - transport_bytes_before;
  }
  result.tasks_executed = sched.tasks_executed;
  result.plan_stats = compute_stats(plan, a.shape(), b_shape, c_shape,
                                    cfg.a_bcast, cfg.node_of_rank);
  for (const auto& dev : devices) {
    result.device_peak_bytes.push_back(dev->peak_used());
  }
  reg.record(obs::Category::kPhase, "engine.assemble", obs::thread_lane(),
             assemble_start, reg.now());
  result.wall_seconds = timer.elapsed_s();
  return result;
}

HostFootprint predict_host_footprint(const ExecutionPlan& plan,
                                     const PlanStats& stats,
                                     const Shape& a_shape,
                                     const Shape& b_shape,
                                     const Shape& c_shape,
                                     double gpu_memory_bytes) {
  HostFootprint f;
  f.a_bytes = a_shape.nnz_bytes();
  f.b_cache_bytes = stats.b_generated_bytes;
  // C once — its tiles move from the devices into the result — plus, per
  // device, its largest block's C: the tiles in flight on the device, and
  // a segmented column's later partial held beside the stored one until
  // it is reduced.
  f.c_bytes = c_shape.nnz_bytes();
  for (std::size_t n = 0; n < plan.nodes.size(); ++n) {
    std::vector<double> block_c_peak(
        static_cast<std::size_t>(plan.gpus_of_node[n]), 0.0);
    for (const BlockPlan& block : plan.nodes[n].blocks) {
      std::set<std::uint32_t> cols;
      double block_c = 0.0;
      for (const ColumnPiece& piece : block.pieces) {
        if (cols.insert(piece.col).second) block_c += piece.c_bytes;
      }
      block_c_peak[block.gpu] = std::max(block_c_peak[block.gpu], block_c);
    }
    for (const double bytes : block_c_peak) f.c_bytes += bytes;
  }
  const StageLayout stage =
      layout_stage(plan, a_shape, b_shape, gpu_memory_bytes, -1);
  for (const StageArena& arena : stage.arenas) {
    f.stage_bytes += static_cast<double>(arena.bytes());
  }
  return f;
}

void admit_host_footprint(const HostFootprint& footprint,
                          double limit_bytes) {
  const auto gb = [](double bytes) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.2f GB", bytes / 1e9);
    return std::string(buf);
  };
  BSTC_REQUIRE(footprint.total() <= limit_bytes,
               "predicted host footprint " + gb(footprint.total()) +
                   " (A " + gb(footprint.a_bytes) + " + B cache " +
                   gb(footprint.b_cache_bytes) + " + C " +
                   gb(footprint.c_bytes) + " + stage arenas " +
                   gb(footprint.stage_bytes) + ") exceeds the " +
                   gb(limit_bytes) + " of host memory available");
}

}  // namespace bstc
