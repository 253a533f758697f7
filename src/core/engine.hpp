#pragma once

/// \file engine.hpp
/// ContractionEngine — the distributed block-sparse GEMM executor.
///
/// This is the real (numerically-exact) counterpart of the paper's PaRSEC
/// implementation (§4): the inspector's ExecutionPlan is lowered to a task
/// DAG — B-generation tasks on CPU queues, piece/chunk transfer tasks and
/// tile GEMMs on device queues, dataflow edges for real dependencies and
/// control edges reproducing the paper's memory-pressure constraints
/// (blocks sequential per GPU, one chunk of prefetch) — and executed by
/// the multi-queue scheduler with hard device-memory budgets.
///
/// Devices here are worker threads with enforced memory capacities rather
/// than CUDA devices; see DESIGN.md for the substitution argument. The
/// engine verifies, not assumes, the paper's claims: device budgets can
/// never be exceeded (DeviceMemory throws), B tiles are generated at most
/// once per node, and the result is exact.

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "bsm/block_sparse_matrix.hpp"
#include "bsm/on_demand_matrix.hpp"
#include "bsm/tile_source.hpp"
#include "comm/bcast.hpp"
#include "comm/comm.hpp"
#include "comm/transport.hpp"
#include "machine/machine.hpp"
#include "plan/plan.hpp"
#include "plan/stats.hpp"

namespace bstc {

/// Engine configuration.
struct EngineConfig {
  PlanConfig plan;  ///< inspector knobs (grid rows, memory fractions)
  /// When true, remote A tiles travel as explicit tile messages: the home
  /// rank runs send tasks into per-rank mailboxes and consumers block
  /// until arrival — reproducing the paper's background broadcast
  /// including its stall behaviour. When false (default) remote reads are
  /// direct with byte accounting only.
  bool explicit_messages = false;
  /// External message transport. When null and messages are explicit, the
  /// engine creates a private in-process Transport. Supplying one (e.g. a
  /// net::NetTransport spanning real rank processes) routes every tile
  /// message through it instead; its CommRecorder accumulates across
  /// calls and is owned by the caller.
  Transport* transport = nullptr;
  /// Distributed single-rank mode. When >= 0 the engine builds and runs
  /// only this rank's share of the task DAG: its A-broadcast send tasks
  /// (reading rank-local A tiles) and its own blocks; remote A tiles are
  /// awaited on `transport` (required, normally a NetTransport). The
  /// result then holds only this rank's C contributions plus this rank's
  /// traffic view (bytes *sent*); the caller exchanges C tiles and
  /// aggregates across ranks (see net/launch.hpp). -1 (default) executes
  /// every rank in-process as before.
  int local_rank = -1;
  /// A-broadcast algorithm for explicit-message runs, and the rank ->
  /// node map the analytic stats use to split A volume into intra- and
  /// inter-node hops. Must match the transport's configuration (a
  /// NetTransport's configure_bcast) so measured and predicted splits
  /// agree; the defaults reproduce the historical flat unicast numbers.
  BcastSelect a_bcast = BcastSelect::kUnicast;
  std::vector<int> node_of_rank;  ///< empty = every rank its own node
  /// When non-null, the per-node B sources live here and survive across
  /// calls — the serving layer's session path: B tiles are held
  /// persistently (TileSource::acquire_persistent) instead of being
  /// discarded after device staging, so later iterations of a CCSD-style
  /// loop skip regeneration entirely (b_max_generations stays <= 1 for
  /// the whole session). The slots may hold either backend of the
  /// TileSource seam: generator-backed OnDemandMatrix caches (the engine
  /// fills an empty vector with these on first use) or zero-copy
  /// shm::SharedStoreSource readers the caller pre-filled. The vector
  /// must then be passed unchanged (same plan/shapes) on every subsequent
  /// call; the owner may call evict_unpinned() on the entries between
  /// iterations to bound host memory. When null (default), each call uses
  /// fresh per-node generator caches and tiles are discarded as soon as
  /// they are staged.
  std::vector<std::unique_ptr<TileSource>>* b_cache = nullptr;
};

/// Everything a run produces.
struct EngineResult {
  BlockSparseMatrix c;          ///< the assembled product (C += A*B)
  double wall_seconds = 0.0;    ///< executor wall-clock (this machine)
  std::size_t tasks_executed = 0;
  PlanStats plan_stats;         ///< analytic statistics of the plan used
  double a_network_bytes = 0.0;  ///< measured A broadcast traffic
  double c_network_bytes = 0.0;  ///< measured C return traffic
  std::vector<std::size_t> device_peak_bytes;  ///< per device (flattened)
  std::size_t b_max_generations = 0;  ///< max per-node generation count of
                                      ///< any B tile (1 = at-most-once held)
  /// Largest per-node host footprint of the B cache (the §3.1 "pressure
  /// on CPU memory" of replicating B columns across grid rows).
  std::size_t host_b_peak_bytes = 0;
  /// The (i, j) coordinates of every C tile this run computed, in the
  /// deterministic assembly order. In distributed single-rank mode this
  /// is exactly the local rank's contribution set — the set the caller
  /// must return to tile homes over the network.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> computed_c_tiles;
};

/// Execute C_init + A*B on the simulated machine.
///
/// * `a`       — the input A matrix (globally visible; 2D-cyclic homes are
///               used for communication accounting).
/// * `b_shape` / `b_generator` — B is generated on demand, once per node
///               (paper §4); the generator must be a pure function of the
///               tile coordinates.
/// * `c_shape` — output shape (the contraction closure, possibly screened).
/// * `c_init`  — optional initial C (accumulated into); pass nullptr for 0.
EngineResult contract(const BlockSparseMatrix& a, const Shape& b_shape,
                      const TileGenerator& b_generator, const Shape& c_shape,
                      const BlockSparseMatrix* c_init,
                      const MachineModel& machine, const EngineConfig& cfg);

/// Execute against a pre-built (possibly deserialized) plan — the paper's
/// inspect-once / execute-many workflow: CCSD refines T over 10-20
/// iterations against a *fixed* V, so the inspector runs once and its plan
/// is replayed every iteration. The plan must have been built for these
/// shapes and this machine (validate_plan checks the former).
EngineResult contract_with_plan(const ExecutionPlan& plan,
                                const BlockSparseMatrix& a,
                                const Shape& b_shape,
                                const TileGenerator& b_generator,
                                const Shape& c_shape,
                                const BlockSparseMatrix* c_init,
                                const MachineModel& machine,
                                const EngineConfig& cfg);

/// Host memory one contract() call is predicted to hold at its peak,
/// from the plan alone — known before A is materialized or B generated.
struct HostFootprint {
  double a_bytes = 0.0;        ///< the A operand
  double b_cache_bytes = 0.0;  ///< B-cache high-water: every B tile the
                               ///< nodes generate, since generation may run
                               ///< ahead of staging
  double c_bytes = 0.0;        ///< C once (device C tiles move into the
                               ///< result) plus each device's largest
                               ///< block C in flight beside it
  double stage_bytes = 0.0;    ///< every device's stage arena (packed
                               ///< panels, register-tile padding included)

  double total() const {
    return a_bytes + b_cache_bytes + c_bytes + stage_bytes;
  }
};

/// Predict the host footprint of executing `plan` (with its `stats`) on
/// a machine of `gpu_memory_bytes` devices.
HostFootprint predict_host_footprint(const ExecutionPlan& plan,
                                     const PlanStats& stats,
                                     const Shape& a_shape,
                                     const Shape& b_shape,
                                     const Shape& c_shape,
                                     double gpu_memory_bytes);

/// Throws bstc::Error, itemizing the prediction, when `footprint`
/// exceeds `limit_bytes` — a run that would be killed for memory is
/// refused before it allocates anything.
void admit_host_footprint(const HostFootprint& footprint,
                          double limit_bytes);

}  // namespace bstc
