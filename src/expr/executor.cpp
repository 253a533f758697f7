#include "expr/executor.hpp"

#include <algorithm>
#include <condition_variable>
#include <thread>
#include <utility>

#include "obs/obs.hpp"
#include "plan/builder.hpp"
#include "plan/stats.hpp"
#include "service/fingerprint.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "support/timer.hpp"

namespace bstc::expr {

namespace {

Tile transpose_tile(const Tile& t) {
  Tile out(t.cols(), t.rows());
  for (Index r = 0; r < t.rows(); ++r) {
    for (Index c = 0; c < t.cols(); ++c) out.at(c, r) = t.at(r, c);
  }
  return out;
}

/// Pure generator for a kFixed tensor's values, optionally transposed.
/// Stable across iterations — the session B cache relies on this.
TileGenerator fixed_generator(const TensorDecl& decl, bool transposed) {
  TileGenerator base = random_tile_generator(decl.shape, decl.seed);
  if (!transposed) return base;
  return [base](std::size_t r, std::size_t c) {
    return transpose_tile(base(c, r));
  };
}

/// Generator serving tiles out of a materialized matrix (kept alive by
/// the shared_ptr), optionally transposed.
TileGenerator matrix_generator(std::shared_ptr<const BlockSparseMatrix> m,
                               bool transposed) {
  return [m = std::move(m), transposed](std::size_t r, std::size_t c) {
    if (!transposed) return m->tile(r, c);
    return transpose_tile(m->tile(c, r));
  };
}

}  // namespace

BlockSparseMatrix materialize(const Shape& shape, const TileGenerator& gen) {
  BlockSparseMatrix m(shape);
  for (std::size_t r = 0; r < shape.tile_rows(); ++r) {
    for (std::size_t c = 0; c < shape.tile_cols(); ++c) {
      if (shape.nonzero(r, c)) m.tile(r, c) = gen(r, c);
    }
  }
  return m;
}

ProgramInstance bind_program(LoweredProgram lowered,
                             const MachineModel& machine,
                             const EngineConfig& engine) {
  ProgramInstance inst;
  inst.lowered = std::move(lowered);
  inst.machine = machine;
  inst.engine = engine;
  const LoweredProgram& lp = inst.lowered;
  inst.node_fingerprints.resize(lp.nodes.size(), 0);
  for (const LoweredNode& node : lp.nodes) {
    inst.node_fingerprints[node.id] = fingerprint_problem(
        node.a_shape, node.b_shape, node.c_shape, machine, engine.plan);
    // Fail fast: a node whose plan can never execute is refused here, by
    // name, before any tensor is materialized or any other node runs.
    try {
      require_executable(build_plan(node.a_shape, node.b_shape, node.c_shape,
                                    machine, engine.plan),
                         machine.node.gpu.memory_bytes);
    } catch (const Error& e) {
      throw Error("program node " + node.label + ": " + e.what());
    }
  }
  // Compose in semantic order — the accumulation chain, then the
  // intermediates by canonical key — so the program fingerprint is
  // invariant under order_seed emission shuffles.
  std::uint64_t h = fnv1a64("bstc-expr-program-v1");
  h = fnv1a64_u64(lp.structure_fingerprint, h);
  h = fnv1a64(machine_identity(machine), h);
  h = fnv1a64(plan_config_identity(engine.plan), h);
  std::vector<const LoweredNode*> chain(
      static_cast<std::size_t>(lp.accumulations), nullptr);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> mids;
  for (const LoweredNode& node : lp.nodes) {
    if (node.accumulate_order >= 0) {
      chain[static_cast<std::size_t>(node.accumulate_order)] = &node;
    } else {
      mids.emplace_back(node.key,
                        inst.node_fingerprints[static_cast<std::size_t>(
                            node.id)]);
    }
  }
  for (const LoweredNode* node : chain) {
    BSTC_CHECK(node != nullptr);
    h = fnv1a64_u64(
        inst.node_fingerprints[static_cast<std::size_t>(node->id)], h);
  }
  std::sort(mids.begin(), mids.end());
  for (const auto& [key, fp] : mids) {
    h = fnv1a64_u64(key, h);
    h = fnv1a64_u64(fp, h);
  }
  inst.fingerprint = h;
  return inst;
}

/// Per-node execution bookkeeping for one iteration.
struct ProgramRunner::NodeState {
  std::shared_ptr<const BlockSparseMatrix> product;
  int pending_deps = 0;         ///< operand producers not yet finished
  int remaining_consumers = 0;  ///< kNode readers not yet done with product
  std::vector<int> dependents;  ///< node ids waiting on this product
};

ProgramRunner::ProgramRunner(ContractionService& service,
                             ProgramInstance instance, ExecOptions opts)
    : service_(service), instance_(std::move(instance)), opts_(opts) {
  sessions_.assign(instance_.lowered.nodes.size(), 0);
}

ProgramRunner::~ProgramRunner() {
  for (std::uint64_t session : sessions_) {
    if (session != 0) service_.close_session(session);
  }
}

ServiceStatus ProgramRunner::run(std::uint64_t a_seed, ProgramResult& result) {
  std::lock_guard<std::mutex> run_lock(run_mutex_);
  result = ProgramResult{};
  const LoweredProgram& lp = instance_.lowered;
  const std::size_t n = lp.nodes.size();
  result.nodes.resize(n);
  Timer wall;
  obs::Registry& reg = obs::Registry::instance();
  obs::ScopedSpan program_span(obs::Category::kExprTerm,
                               "program(" + lp.program.name + ")");

  // ---- single-threaded prelude -------------------------------------------
  // Rebuild the iterated tensors for this iteration, resolve every
  // tensor-backed operand (materializing kFixed A sides once per runner)
  // and open the persistent-B sessions on first use, so the concurrent
  // phase below touches no shared caches.
  std::unordered_map<std::string, std::shared_ptr<const BlockSparseMatrix>>
      iterated;
  for (const TensorDecl& decl : lp.program.tensors) {
    if (decl.kind != TensorKind::kIterated) continue;
    Rng rng(a_seed ^ decl.seed);
    iterated.emplace(decl.name,
                     std::make_shared<BlockSparseMatrix>(
                         BlockSparseMatrix::random(decl.shape, rng)));
  }
  auto resolve_tensor =
      [&](const std::string& name,
          bool transposed) -> std::shared_ptr<const BlockSparseMatrix> {
    const TensorDecl* decl = lp.program.find_tensor(name);
    BSTC_CHECK(decl != nullptr);
    const std::string key = transposed ? name + "'" : name;
    if (decl->kind == TensorKind::kFixed) {
      auto it = fixed_cache_.find(key);
      if (it != fixed_cache_.end()) return it->second;
      auto base_it = fixed_cache_.find(name);
      if (base_it == fixed_cache_.end()) {
        base_it =
            fixed_cache_
                .emplace(name, std::make_shared<BlockSparseMatrix>(materialize(
                                   decl->shape, random_tile_generator(
                                                    decl->shape, decl->seed))))
                .first;
      }
      if (!transposed) return base_it->second;
      return fixed_cache_
          .emplace(key, std::make_shared<BlockSparseMatrix>(
                            transpose(*base_it->second)))
          .first->second;
    }
    auto it = iterated.find(key);
    if (it != iterated.end()) return it->second;
    return iterated
        .emplace(key, std::make_shared<BlockSparseMatrix>(
                          transpose(*iterated.at(name))))
        .first->second;
  };

  std::vector<NodeState> states(n);
  std::vector<std::shared_ptr<const BlockSparseMatrix>> a_pre(n);
  std::vector<TileGenerator> b_pre(n);
  std::vector<int> ready;
  for (const LoweredNode& node : lp.nodes) {
    const std::size_t id = static_cast<std::size_t>(node.id);
    NodeState& st = states[id];
    st.remaining_consumers = node.consumers;
    for (const Operand* op : {&node.a, &node.b}) {
      if (op->kind == OperandKind::kNode) {
        ++st.pending_deps;
        states[static_cast<std::size_t>(op->node)].dependents.push_back(
            node.id);
      }
    }
    if (st.pending_deps == 0) ready.push_back(node.id);
    if (node.a.kind == OperandKind::kTensor) {
      a_pre[id] = resolve_tensor(node.a.tensor, node.a.transposed);
    }
    if (node.b.kind == OperandKind::kTensor) {
      const TensorDecl* decl = lp.program.find_tensor(node.b.tensor);
      BSTC_CHECK(decl != nullptr);
      if (decl->kind == TensorKind::kFixed) {
        b_pre[id] = fixed_generator(*decl, node.b.transposed);
        if (sessions_[id] == 0) {
          SessionConfig scfg;
          scfg.a_shape = node.a_shape;
          scfg.b_shape = node.b_shape;
          scfg.c_shape = node.c_shape;
          scfg.b_generator = b_pre[id];
          scfg.machine = instance_.machine;
          scfg.engine = instance_.engine;
          scfg.persistent_b = true;
          const ServiceStatus st_open =
              service_.open_session(scfg, sessions_[id]);
          if (st_open != ServiceStatus::kOk) {
            sessions_[id] = 0;
            result.error = node.label + ": open_session failed (" +
                           service_status_name(st_open) + ")";
            return st_open;
          }
        }
      } else {
        b_pre[id] = matrix_generator(
            resolve_tensor(node.b.tensor, false), node.b.transposed);
      }
    }
  }

  // ---- concurrent DAG execution ------------------------------------------
  std::mutex mu;
  std::condition_variable cv;
  std::size_t completed = 0;
  bool failed = false;
  ServiceStatus status = ServiceStatus::kOk;
  std::string error;
  Rng sched_rng(opts_.schedule_seed);
  std::size_t current_bytes = 0;
  std::size_t peak_bytes = 0;
  std::size_t released = 0;

  auto execute = [&](int id_int) {
    const std::size_t id = static_cast<std::size_t>(id_int);
    const LoweredNode& node = lp.nodes[id];
    NodeReport& rep = result.nodes[id];
    rep.label = node.label;
    rep.fingerprint = instance_.node_fingerprints[id];
    obs::ScopedSpan span(obs::Category::kExprTerm,
                         lp.program.name + "." + node.label);
    std::shared_ptr<const BlockSparseMatrix> a = a_pre[id];
    if (node.a.kind == OperandKind::kNode) {
      std::shared_ptr<const BlockSparseMatrix> src =
          states[static_cast<std::size_t>(node.a.node)].product;
      a = node.a.transposed
              ? std::make_shared<BlockSparseMatrix>(transpose(*src))
              : std::move(src);
    }
    ContractionResponse resp;
    ServiceStatus st;
    if (sessions_[id] != 0) {
      st = service_.iterate(sessions_[id], *a, nullptr, resp);
    } else {
      TileGenerator gen = b_pre[id];
      if (node.b.kind == OperandKind::kNode) {
        gen = matrix_generator(
            states[static_cast<std::size_t>(node.b.node)].product,
            node.b.transposed);
      }
      ContractionRequest req;
      req.a = a.get();
      req.b_shape = &node.b_shape;
      req.b_generator = std::move(gen);
      req.c_shape = &node.c_shape;
      req.machine = instance_.machine;
      req.engine = instance_.engine;
      st = service_.submit(req, resp);
    }
    rep.plan_cache_hit = resp.plan_cache_hit;
    rep.execute_s = resp.execute_s;
    rep.tasks_executed = resp.tasks_executed;
    rep.b_max_generations = resp.b_max_generations;
    return std::make_pair(st, std::move(resp));
  };

  auto worker = [&]() {
    for (;;) {
      int id = -1;
      {
        std::unique_lock<std::mutex> lk(mu);
        cv.wait(lk, [&] {
          return failed || completed == n || !ready.empty();
        });
        if (failed || ready.empty()) return;  // done (or aborting)
        std::size_t pick = 0;
        if (opts_.schedule_seed != 0 && ready.size() > 1) {
          pick = static_cast<std::size_t>(sched_rng.uniform_index(
              static_cast<std::uint64_t>(ready.size())));
        }
        id = ready[pick];
        ready.erase(ready.begin() +
                    static_cast<std::ptrdiff_t>(pick));
      }
      auto [st, resp] = execute(id);
      {
        std::lock_guard<std::mutex> lk(mu);
        const LoweredNode& node = lp.nodes[static_cast<std::size_t>(id)];
        if (st != ServiceStatus::kOk) {
          failed = true;
          status = st;
          if (error.empty()) {
            error = node.label + ": " +
                    (resp.error.empty() ? service_status_name(st)
                                        : resp.error.c_str());
          }
          cv.notify_all();
          return;
        }
        NodeState& self = states[static_cast<std::size_t>(id)];
        self.product =
            std::make_shared<BlockSparseMatrix>(std::move(resp.c));
        if (node.accumulate_order < 0) {
          current_bytes += self.product->bytes();
          peak_bytes = std::max(peak_bytes, current_bytes);
        }
        ++completed;
        for (const Operand* op : {&node.a, &node.b}) {
          if (op->kind != OperandKind::kNode) continue;
          NodeState& dep = states[static_cast<std::size_t>(op->node)];
          if (--dep.remaining_consumers == 0) {
            current_bytes -= dep.product->bytes();
            dep.product.reset();
            ++released;
          }
        }
        for (int d : self.dependents) {
          if (--states[static_cast<std::size_t>(d)].pending_deps == 0) {
            ready.push_back(d);
          }
        }
        cv.notify_all();
      }
    }
  };

  const int thread_count = std::max(
      1, std::min(opts_.threads, static_cast<int>(n)));
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(thread_count));
  for (int t = 0; t < thread_count; ++t) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();

  if (failed) {
    result.error = error;
    result.wall_seconds = wall.elapsed_s();
    return status;
  }
  BSTC_CHECK(completed == n);

  // ---- accumulation, strictly in term order ------------------------------
  // Products were computed standalone, so adding them into R by
  // accumulate_order makes the residual bitwise-independent of node
  // emission order and of the schedule above.
  BlockSparseMatrix r(lp.r_shape);
  std::vector<int> chain(static_cast<std::size_t>(lp.accumulations), -1);
  for (const LoweredNode& node : lp.nodes) {
    if (node.accumulate_order >= 0) {
      chain[static_cast<std::size_t>(node.accumulate_order)] = node.id;
    }
  }
  for (int id : chain) {
    const LoweredNode& node = lp.nodes[static_cast<std::size_t>(id)];
    const BlockSparseMatrix& p =
        *states[static_cast<std::size_t>(id)].product;
    if (node.c_transpose) {
      const BlockSparseMatrix pt = transpose(p);
      axpy(1.0, pt, r);
    } else {
      axpy(1.0, p, r);
    }
  }

  for (const NodeReport& rep : result.nodes) {
    result.tasks_executed += rep.tasks_executed;
    if (rep.plan_cache_hit) ++result.plan_cache_hits;
    result.b_max_generations =
        std::max(result.b_max_generations, rep.b_max_generations);
  }
  result.intermediates_built = static_cast<std::size_t>(lp.intermediates);
  result.intermediate_reuse = static_cast<std::size_t>(lp.reuse_edges);
  result.intermediates_released = released;
  result.peak_intermediate_bytes = peak_bytes;
  result.r = std::move(r);
  result.wall_seconds = wall.elapsed_s();

  reg.counter_add("bstc_expr_programs_total");
  reg.counter_add("bstc_expr_nodes_total", n);
  reg.counter_add("bstc_expr_intermediates_built_total",
                  static_cast<std::uint64_t>(lp.intermediates));
  reg.counter_add("bstc_expr_intermediate_reuse_total",
                  static_cast<std::uint64_t>(lp.reuse_edges));
  reg.counter_add("bstc_expr_intermediates_released_total", released);
  reg.observe("bstc_expr_program_seconds", result.wall_seconds, 0.0, 30.0,
              30);
  return ServiceStatus::kOk;
}

}  // namespace bstc::expr
