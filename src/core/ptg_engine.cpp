#include "core/ptg_engine.hpp"

#include <algorithm>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "obs/obs.hpp"
#include "plan/builder.hpp"
#include "plan/stats.hpp"
#include "runtime/device.hpp"
#include "runtime/ptg.hpp"
#include "support/error.hpp"
#include "support/timer.hpp"
#include "tile/gemm.hpp"

namespace bstc {
namespace {

std::uint64_t tile_key(std::uint32_t a, std::uint32_t b) {
  return (static_cast<std::uint64_t>(a) << 32) | b;
}

/// Task-class ids.
enum : std::uint32_t {
  kGen = 0,
  kLoad = 1,
  kChunkLoad = 2,
  kGemm = 3,
  kUnload = 4,
  kStore = 5,
};

/// Per-block precomputed flow metadata (built once from the plan). GEMMs
/// are batched by shared B tile: one task instance per (chunk, group),
/// where a group is every GEMM of the chunk reading the same (k, j) B
/// tile (GemmEnumerator::gemm_groups) — the group list is the count
/// model's unit, so dependence counts are per batched task.
struct BlockInfo {
  std::vector<std::vector<GemmGroup>> groups;  ///< chunk -> batched tasks
  std::size_t total_gemm_tasks = 0;            ///< sum of group counts
  int depth = 1;             ///< resident chunks (prefetch)
  std::int64_t prev_block = -1;  ///< previous block of the same GPU
  std::int64_t next_block = -1;  ///< next block of the same GPU
};

/// Device-resident data of one block.
struct Residence {
  std::unordered_map<std::uint64_t, Tile> b;
  std::unordered_map<std::uint64_t, Tile> c;
  std::unordered_map<std::uint64_t, Tile> a;
};

struct NodeState {
  std::unique_ptr<OnDemandMatrix> b;
  std::unordered_map<std::uint64_t, Tile> c_store;
  std::mutex mutex;
};

}  // namespace

PtgEngineResult contract_ptg(const BlockSparseMatrix& a, const Shape& b_shape,
                             const TileGenerator& b_generator,
                             const Shape& c_shape, const MachineModel& machine,
                             const EngineConfig& cfg) {
  BSTC_REQUIRE(a.shape().col_tiling() == b_shape.row_tiling(),
               "inner tilings of A and B must agree");
  Timer timer;
  const ExecutionPlan plan =
      build_plan(a.shape(), b_shape, c_shape, machine, cfg.plan);
  const int num_nodes = plan.grid.nodes();

  // Queue layout: CPU queues [0, nodes), then one per device.
  std::vector<std::uint32_t> device_queue_base(
      static_cast<std::size_t>(num_nodes));
  std::uint32_t next_queue = static_cast<std::uint32_t>(num_nodes);
  for (int n = 0; n < num_nodes; ++n) {
    device_queue_base[static_cast<std::size_t>(n)] = next_queue;
    next_queue += static_cast<std::uint32_t>(
        plan.gpus_of_node[static_cast<std::size_t>(n)]);
  }

  std::vector<std::unique_ptr<DeviceMemory>> devices;
  for (int n = 0; n < num_nodes; ++n) {
    for (int g = 0; g < plan.gpus_of_node[static_cast<std::size_t>(n)]; ++g) {
      devices.push_back(std::make_unique<DeviceMemory>(
          "ptg.node" + std::to_string(n) + ".gpu" + std::to_string(g),
          static_cast<std::size_t>(machine.node.gpu.memory_bytes)));
    }
  }
  auto device_of = [&](int node, std::uint32_t gpu) -> DeviceMemory& {
    return *devices[device_queue_base[static_cast<std::size_t>(node)] -
                    static_cast<std::uint32_t>(num_nodes) + gpu];
  };

  std::vector<NodeState> node_states(static_cast<std::size_t>(num_nodes));
  for (auto& ns : node_states) {
    ns.b = std::make_unique<OnDemandMatrix>(b_shape, b_generator);
  }

  // --- Precompute per-block flow metadata -------------------------------
  std::vector<std::vector<BlockInfo>> infos(
      static_cast<std::size_t>(num_nodes));
  std::vector<std::vector<Residence>> residences(
      static_cast<std::size_t>(num_nodes));
  for (int n = 0; n < num_nodes; ++n) {
    const NodePlan& node = plan.nodes[static_cast<std::size_t>(n)];
    infos[static_cast<std::size_t>(n)].resize(node.blocks.size());
    residences[static_cast<std::size_t>(n)] =
        std::vector<Residence>(node.blocks.size());
    std::unordered_map<std::uint32_t, std::int64_t> last_of_gpu;
    for (std::size_t bi = 0; bi < node.blocks.size(); ++bi) {
      const BlockPlan& block = node.blocks[bi];
      BlockInfo& info = infos[static_cast<std::size_t>(n)][bi];

      const GemmEnumerator enumerator(block);
      info.groups.resize(block.chunks.size());
      for (std::size_t ci = 0; ci < block.chunks.size(); ++ci) {
        info.groups[ci] = enumerator.gemm_groups(block.chunks[ci], c_shape);
        info.total_gemm_tasks += info.groups[ci].size();
      }

      const double spare = machine.node.gpu.memory_bytes - block.bytes;
      double max_chunk = 0.0;
      for (const Chunk& chunk : block.chunks) {
        max_chunk = std::max(max_chunk, chunk.a_bytes);
      }
      BSTC_REQUIRE(spare >= max_chunk,
                   "block footprint leaves no room for any A chunk");
      info.depth = max_chunk > 0.0
                       ? std::max(1, std::min(cfg.plan.prefetch_depth,
                                              static_cast<int>(spare /
                                                               max_chunk)))
                       : 1;

      const auto it = last_of_gpu.find(block.gpu);
      if (it != last_of_gpu.end()) {
        info.prev_block = it->second;
        infos[static_cast<std::size_t>(n)][static_cast<std::size_t>(
                                               it->second)]
            .next_block = static_cast<std::int64_t>(bi);
      }
      last_of_gpu[block.gpu] = static_cast<std::int64_t>(bi);
    }
  }

  auto block_of = [&plan](std::int64_t n, std::int64_t bi) -> const BlockPlan& {
    return plan.nodes[static_cast<std::size_t>(n)]
        .blocks[static_cast<std::size_t>(bi)];
  };
  auto info_of = [&infos](std::int64_t n, std::int64_t bi) -> const BlockInfo& {
    return infos[static_cast<std::size_t>(n)][static_cast<std::size_t>(bi)];
  };
  auto res_of = [&residences](std::int64_t n, std::int64_t bi) -> Residence& {
    return residences[static_cast<std::size_t>(n)]
                     [static_cast<std::size_t>(bi)];
  };
  auto dq_of = [&](std::int64_t n, std::int64_t bi) {
    return device_queue_base[static_cast<std::size_t>(n)] +
           block_of(n, bi).gpu;
  };

  // --- Task classes -------------------------------------------------------
  PtgProgram program;
  program.classes.resize(6);

  program.classes[kGen] = TaskClass{
      "gen",
      [](const PtgParams& p) { return static_cast<std::uint32_t>(p[0]); },
      [&](const PtgParams& p) {
        NodeState& ns = node_states[static_cast<std::size_t>(p[0])];
        const ColumnPiece& piece =
            block_of(p[0], p[1]).pieces[static_cast<std::size_t>(p[2])];
        for (const std::uint32_t k : piece.ks) ns.b->acquire(k, piece.col);
      },
      [](const PtgParams&) { return 0u; },
      [](const PtgParams& p) {
        return std::vector<PtgTaskRef>{{kLoad, p}};
      }};

  program.classes[kLoad] = TaskClass{
      "load",
      [&](const PtgParams& p) { return dq_of(p[0], p[1]); },
      [&](const PtgParams& p) {
        NodeState& ns = node_states[static_cast<std::size_t>(p[0])];
        const BlockPlan& block = block_of(p[0], p[1]);
        const ColumnPiece& piece =
            block.pieces[static_cast<std::size_t>(p[2])];
        Residence& res = res_of(p[0], p[1]);
        device_of(static_cast<int>(p[0]), block.gpu)
            .allocate(static_cast<std::size_t>(piece.bytes()));
        for (const std::uint32_t k : piece.ks) {
          const Tile& host = ns.b->acquire(k, piece.col);
          res.b.emplace(tile_key(k, piece.col), host);
          ns.b->release(k, piece.col);
          ns.b->release(k, piece.col);
        }
        const int gp = plan.grid.p;
        const int row = plan.nodes[static_cast<std::size_t>(p[0])].grid_row;
        for (std::size_t i = static_cast<std::size_t>(row);
             i < c_shape.tile_rows(); i += static_cast<std::size_t>(gp)) {
          if (!c_shape.nonzero(i, piece.col)) continue;
          const std::uint64_t key =
              tile_key(static_cast<std::uint32_t>(i), piece.col);
          if (res.c.find(key) == res.c.end()) {
            res.c.emplace(key,
                          Tile(c_shape.row_tiling().tile_extent(i),
                               c_shape.col_tiling().tile_extent(piece.col)));
          }
        }
      },
      [&](const PtgParams& p) {
        // gen + (previous block's store, when it exists).
        return info_of(p[0], p[1]).prev_block >= 0 ? 2u : 1u;
      },
      [&](const PtgParams& p) {
        std::vector<PtgTaskRef> next;
        // Every batched GEMM whose B tile lives in this piece, per chunk.
        const BlockInfo& info = info_of(p[0], p[1]);
        for (std::size_t ci = 0; ci < info.groups.size(); ++ci) {
          for (std::size_t gi = 0; gi < info.groups[ci].size(); ++gi) {
            if (info.groups[ci][gi].piece == p[2]) {
              next.push_back({kGemm,
                              {p[0], p[1], static_cast<std::int64_t>(ci),
                               static_cast<std::int64_t>(gi)}});
            }
          }
        }
        next.push_back({kStore, {p[0], p[1]}});
        return next;
      }};

  program.classes[kChunkLoad] = TaskClass{
      "chunkload",
      [&](const PtgParams& p) { return dq_of(p[0], p[1]); },
      [&](const PtgParams& p) {
        const BlockPlan& block = block_of(p[0], p[1]);
        const Chunk& chunk = block.chunks[static_cast<std::size_t>(p[2])];
        Residence& res = res_of(p[0], p[1]);
        device_of(static_cast<int>(p[0]), block.gpu)
            .allocate(static_cast<std::size_t>(chunk.a_bytes));
        for (const auto& [i, k] : chunk.a_tiles) {
          res.a.emplace(tile_key(i, k), a.tile(i, k));
        }
      },
      [&](const PtgParams& p) {
        const BlockInfo& info = info_of(p[0], p[1]);
        if (p[2] >= info.depth) return 1u;             // unload(ci - depth)
        return info.prev_block >= 0 ? 1u : 0u;         // previous store
      },
      [&](const PtgParams& p) {
        std::vector<PtgTaskRef> next;
        const auto& groups =
            info_of(p[0], p[1]).groups[static_cast<std::size_t>(p[2])];
        for (std::size_t gi = 0; gi < groups.size(); ++gi) {
          next.push_back(
              {kGemm, {p[0], p[1], p[2], static_cast<std::int64_t>(gi)}});
        }
        if (groups.empty()) next.push_back({kUnload, {p[0], p[1], p[2]}});
        return next;
      }};

  program.classes[kGemm] = TaskClass{
      "gemmbatch",
      [&](const PtgParams& p) { return dq_of(p[0], p[1]); },
      [&](const PtgParams& p) {
        const GemmGroup& grp =
            info_of(p[0], p[1]).groups[static_cast<std::size_t>(p[2])]
                                      [static_cast<std::size_t>(p[3])];
        Residence& res = res_of(p[0], p[1]);
        const Tile& bt = res.b.at(tile_key(grp.k, grp.j));
        std::vector<GemmBatchItem> items;
        items.reserve(grp.is.size());
        for (const std::uint32_t i : grp.is) {
          items.push_back({&res.a.at(tile_key(i, grp.k)),
                           &res.c.at(tile_key(i, grp.j))});
        }
        gemm_batch(1.0, items, bt, 1.0);
      },
      [](const PtgParams&) { return 2u; },  // chunkload + piece load
      [](const PtgParams& p) {
        return std::vector<PtgTaskRef>{{kUnload, {p[0], p[1], p[2]}},
                                       {kStore, {p[0], p[1]}}};
      }};

  program.classes[kUnload] = TaskClass{
      "unload",
      [&](const PtgParams& p) { return dq_of(p[0], p[1]); },
      [&](const PtgParams& p) {
        const BlockPlan& block = block_of(p[0], p[1]);
        const Chunk& chunk = block.chunks[static_cast<std::size_t>(p[2])];
        Residence& res = res_of(p[0], p[1]);
        for (const auto& [i, k] : chunk.a_tiles) res.a.erase(tile_key(i, k));
        device_of(static_cast<int>(p[0]), block.gpu)
            .release(static_cast<std::size_t>(chunk.a_bytes));
      },
      [&](const PtgParams& p) {
        const std::size_t gemms =
            info_of(p[0], p[1]).groups[static_cast<std::size_t>(p[2])].size();
        return gemms == 0 ? 1u : static_cast<std::uint32_t>(gemms);
      },
      [&](const PtgParams& p) {
        std::vector<PtgTaskRef> next;
        const BlockInfo& info = info_of(p[0], p[1]);
        const auto later = p[2] + info.depth;
        if (later <
            static_cast<std::int64_t>(block_of(p[0], p[1]).chunks.size())) {
          next.push_back({kChunkLoad, {p[0], p[1], later}});
        }
        next.push_back({kStore, {p[0], p[1]}});
        return next;
      }};

  program.classes[kStore] = TaskClass{
      "store",
      [&](const PtgParams& p) { return dq_of(p[0], p[1]); },
      [&](const PtgParams& p) {
        const BlockPlan& block = block_of(p[0], p[1]);
        NodeState& ns = node_states[static_cast<std::size_t>(p[0])];
        Residence& res = res_of(p[0], p[1]);
        {
          std::lock_guard lock(ns.mutex);
          for (auto& [key, tile] : res.c) {
            const auto it = ns.c_store.find(key);
            if (it == ns.c_store.end()) {
              ns.c_store.emplace(key, std::move(tile));
            } else {
              it->second.axpy(1.0, tile);
            }
          }
        }
        res.c.clear();
        res.b.clear();
        device_of(static_cast<int>(p[0]), block.gpu)
            .release(static_cast<std::size_t>(block.bytes));
      },
      [&](const PtgParams& p) {
        const BlockPlan& block = block_of(p[0], p[1]);
        const BlockInfo& info = info_of(p[0], p[1]);
        return static_cast<std::uint32_t>(block.pieces.size() +
                                          block.chunks.size() +
                                          info.total_gemm_tasks);
      },
      [&](const PtgParams& p) {
        std::vector<PtgTaskRef> next;
        const BlockInfo& info = info_of(p[0], p[1]);
        if (info.next_block >= 0) {
          const BlockPlan& nb = block_of(p[0], info.next_block);
          const BlockInfo& ni = info_of(p[0], info.next_block);
          for (std::size_t pi = 0; pi < nb.pieces.size(); ++pi) {
            next.push_back({kLoad,
                            {p[0], info.next_block,
                             static_cast<std::int64_t>(pi)}});
          }
          const auto first_chunks = std::min<std::size_t>(
              nb.chunks.size(), static_cast<std::size_t>(ni.depth));
          for (std::size_t ci = 0; ci < first_chunks; ++ci) {
            next.push_back({kChunkLoad,
                            {p[0], info.next_block,
                             static_cast<std::int64_t>(ci)}});
          }
        }
        return next;
      }};

  // --- Roots: gens everywhere; first-block loads with zero declared deps.
  for (std::int64_t n = 0; n < num_nodes; ++n) {
    const NodePlan& node = plan.nodes[static_cast<std::size_t>(n)];
    for (std::int64_t bi = 0;
         bi < static_cast<std::int64_t>(node.blocks.size()); ++bi) {
      const BlockPlan& block = node.blocks[static_cast<std::size_t>(bi)];
      const BlockInfo& info = info_of(n, bi);
      for (std::int64_t pi = 0;
           pi < static_cast<std::int64_t>(block.pieces.size()); ++pi) {
        program.roots.push_back({kGen, {n, bi, pi}});
      }
      if (info.prev_block < 0) {
        const auto first_chunks = std::min<std::size_t>(
            block.chunks.size(), static_cast<std::size_t>(info.depth));
        for (std::size_t ci = 0; ci < first_chunks; ++ci) {
          program.roots.push_back(
              {kChunkLoad, {n, bi, static_cast<std::int64_t>(ci)}});
        }
      }
    }
  }

  TraceRecorder trace;
  obs::Registry& reg = obs::Registry::instance();
  const bool want_trace = !cfg.trace_path.empty() || reg.enabled();
  const double trace_base = reg.enabled() ? reg.now() : 0.0;
  const PtgStats stats =
      run_ptg(program, next_queue, want_trace ? &trace : nullptr);
  if (!cfg.trace_path.empty()) trace.write_chrome_json(cfg.trace_path);
  if (reg.enabled()) {
    for (const TraceEvent& e : trace.events()) {
      reg.record(obs::Category::kTask, e.name, e.queue,
                 trace_base + e.start_s, trace_base + e.end_s);
      reg.name_lane(e.queue, "queue " + std::to_string(e.queue));
    }
  }

  PtgEngineResult result;
  result.c = BlockSparseMatrix(c_shape);
  for (int n = 0; n < num_nodes; ++n) {
    NodeState& ns = node_states[static_cast<std::size_t>(n)];
    for (auto& [key, tile] : ns.c_store) {
      result.c
          .tile(static_cast<std::uint32_t>(key >> 32),
                static_cast<std::uint32_t>(key & 0xffffffffu))
          .axpy(1.0, tile);
    }
    result.b_max_generations =
        std::max(result.b_max_generations, ns.b->max_generation_count());
  }
  result.tasks_executed = stats.tasks_executed;
  result.peak_pending_instances = stats.peak_pending;
  for (const auto& dev : devices) {
    result.device_peak_bytes.push_back(dev->peak_used());
  }
  result.wall_seconds = timer.elapsed_s();
  return result;
}

}  // namespace bstc
