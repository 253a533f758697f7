/// \file ledger.cpp
/// Engine ledger: end-to-end Gflop/s, set-up time and memory of the real
/// executor on three contraction workloads, plus a traced per-layer
/// breakdown.
///
/// Every workload is a closed loop: one caller, one timed call per op,
/// the next op only after the previous one returned (the way a CCSD
/// iteration loop waits for each iteration). Layers are timed from
/// outside: the ledger times its own calls into build_plan, contract,
/// ContractionService::iterate, ProgramRunner::run and gemm_batch, wraps
/// the B generator it passes in, and reads getrusage, the result structs,
/// the obs counters and the task spans the engine already records. It
/// sets no BSTC_* variable, so the autotuner tunes cold in every process.
///
/// Usage:
///   bstc_ledger --workload abcd-fit|abcd-stream|ccsd-doubles --seed N
///               --seconds S --trace 0|1 [--shape-seed 42]
///               [--trace-out FILE] [--check 0|1]
///
/// --trace 0 prints the end-to-end metrics of this process and, for
/// pooling across processes, the raw op wall times ("op_walls_s") and
/// flops per op ("flops"); --trace 1 alternates traced and untraced ops
/// and prints the per-layer metrics. The last stdout line is one JSON
/// object with "correct", "attempted", "failed" and "metrics".
/// --check 0 skips the reference check of the last op.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bsm/block_sparse_matrix.hpp"
#include "bsm/on_demand_matrix.hpp"
#include "core/engine.hpp"
#include "expr/executor.hpp"
#include "expr/lower.hpp"
#include "expr/programs.hpp"
#include "obs/obs.hpp"
#include "obs/trace_merge.hpp"
#include "plan/builder.hpp"
#include "plan/stats.hpp"
#include "service/contraction_service.hpp"
#include "service/serve_api.hpp"
#include "shape/shape_algebra.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "tile/gemm.hpp"

namespace {

using namespace bstc;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// SplitMix64 finalizer: independent value streams from one run seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + stream + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// ---------------------------------------------------------------------------
// Options.

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::uint64_t shape_seed = 42;
  std::string trace_out;
  bool check = true;
};

Options parse_options(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    BSTC_REQUIRE(i + 1 < argc, "ledger: " + key + " needs a value");
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      o.workload = val;
    } else if (key == "--seed") {
      o.seed = std::stoull(val);
    } else if (key == "--seconds") {
      o.seconds = std::stod(val);
    } else if (key == "--trace") {
      o.trace = val == "1";
    } else if (key == "--shape-seed") {
      o.shape_seed = std::stoull(val);
    } else if (key == "--trace-out") {
      o.trace_out = val;
    } else if (key == "--check") {
      o.check = val != "0";
    } else {
      throw Error("ledger: unknown option " + key);
    }
  }
  BSTC_REQUIRE(o.seconds > 0.0, "ledger: --seconds must be > 0");
  return o;
}

// ---------------------------------------------------------------------------
// Process accounting (getrusage).

struct Usage {
  double cpu_s = 0.0;
  double sys_s = 0.0;
  double minor_faults = 0.0;
  double max_rss_mb = 0.0;
};

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  Usage u;
  u.sys_s = tv(ru.ru_stime);
  u.cpu_s = tv(ru.ru_utime) + u.sys_s;
  u.minor_faults = static_cast<double>(ru.ru_minflt);
  u.max_rss_mb = static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;  // KiB
  return u;
}

/// Share of all CPU time the hypervisor gave to other guests since the
/// previous call (/proc/stat "steal"): the host noise the timings carry.
class StealMeter {
 public:
  StealMeter() { read(steal_, total_); }

  double fraction() {
    double steal = 0.0, total = 0.0;
    read(steal, total);
    const double f = ratio(steal - steal_, total - total_);
    steal_ = steal;
    total_ = total;
    return f;
  }

 private:
  static void read(double& steal, double& total) {
    steal = total = 0.0;
    std::FILE* f = std::fopen("/proc/stat", "r");
    if (f == nullptr) return;
    unsigned long long v[8] = {};
    if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                    &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
      for (const unsigned long long x : v) total += static_cast<double>(x);
      steal = static_cast<double>(v[7]);
    }
    std::fclose(f);
  }

  double steal_ = 0.0, total_ = 0.0;
};

std::uint64_t counter(const char* name) {
  const auto counters = obs::Registry::instance().counters();
  const auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

// ---------------------------------------------------------------------------
// Metrics.

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Every per-layer metric with its unit. A layer a workload does not
/// reach reports 0 (see NOTES.md for which metric applies where).
const std::vector<std::pair<const char*, const char*>> kLayerMetrics = {
    {"plan.build_s", "s"},
    {"plan.blocks", "count"},
    {"plan.chunks", "count"},
    {"plan.a_staged_mb", "MB"},
    {"bsm.tiles_generated_per_op", "count"},
    {"bsm.gen_s_per_op", "s"},
    {"runtime.device_busy_frac", "frac"},
    {"runtime.stage_frac", "frac"},
    {"runtime.gen_task_s_per_op", "s"},
    {"runtime.tasks_per_op", "count"},
    {"tile.kernel_gflops", "Gflop/s"},
    {"tile.in_engine_gflops", "Gflop/s"},
    {"tile.ceiling_frac", "frac"},
    {"tile.tune_benchmarks", "count"},
    {"tile.tune_s", "s"},
    {"core.device_peak_mb", "MB"},
    {"core.host_b_peak_mb", "MB"},
    {"core.replay_bitwise", "bool"},
    {"service.inspect_s", "s"},
    {"service.queue_wait_s", "s"},
    {"service.plan_hit_ratio", "frac"},
    {"expr.intermediates_built", "count"},
    {"expr.intermediate_reuse", "count"},
    {"expr.peak_intermediate_mb", "MB"},
    {"expr.overhead_s_per_op", "s"},
    {"expr.replay_bitwise", "bool"},
    {"proc.cpu_util", "frac"},
    {"proc.sys_s_per_op", "s"},
    {"proc.minor_faults_per_op", "count"},
    {"proc.host_steal_frac", "frac"},
    {"trace.overhead_frac", "frac"},
};

void set_metric(Metrics& m, const std::string& name, double value) {
  m.at(name).value = value;
}

/// The result line; `extra` is appended verbatim as further keys.
std::string metrics_json(bool correct, int attempted, int failed,
                         const Metrics& metrics, const std::string& extra) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  char buf[64];
  for (const auto& [name, m] : metrics) {
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out += (first ? "\"" : ", \"") + name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  out += "}" + extra + "}";
  return out;
}

// ---------------------------------------------------------------------------
// Workloads.

/// One contraction the workload performs per op, as the inspector sees
/// it (the plan and kernel-sample layers are measured on these shapes).
struct NodeProblem {
  Shape a, b, c;
  MachineModel machine;
  PlanConfig plan;
};

/// Wall-clock spent inside a wrapped B generator, summed over threads.
struct GenMeter {
  std::atomic<std::uint64_t> ns{0};
  double seconds() const {
    return 1e-9 * static_cast<double>(ns.load(std::memory_order_relaxed));
  }
};

/// Wrap the generator the ledger passes into the engine: each tile is
/// timed into `meter` and, when tracing, marked by a span.
TileGenerator metered(TileGenerator gen, GenMeter& meter) {
  return [gen = std::move(gen), &meter](std::size_t r, std::size_t c) {
    obs::ScopedSpan span(obs::Category::kTask, "ledger.b_gen");
    const auto t0 = Clock::now();
    Tile t = gen(r, c);
    meter.ns.fetch_add(static_cast<std::uint64_t>(
                           std::chrono::duration_cast<std::chrono::nanoseconds>(
                               Clock::now() - t0)
                               .count()),
                       std::memory_order_relaxed);
    return t;
  };
}

BlockSparseMatrix materialize_b(const Shape& shape, const TileGenerator& gen) {
  BlockSparseMatrix m(shape);
  for (std::size_t r = 0; r < shape.tile_rows(); ++r) {
    for (std::size_t c = 0; c < shape.tile_cols(); ++c) {
      if (shape.nonzero(r, c)) m.tile(r, c) = gen(r, c);
    }
  }
  return m;
}

/// The outcome of one timed call.
struct OpResult {
  bool ok = false;
  std::string error;
  double wall_s = 0.0;
  std::size_t tasks = 0;
  double overhead_s = 0.0;  ///< expr: wall minus the nodes' execute_s
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Everything before the first op: inputs, sessions, lowering.
  virtual void prepare() = 0;
  /// One timed call on the inputs of `op_seed`; the result is kept for
  /// the correctness check and the replay witness.
  virtual OpResult op(std::uint64_t op_seed) = 0;
  /// Checksum of the kept result (bitwise identity witness).
  virtual std::uint64_t result_checksum() const = 0;
  /// Compare the kept result against an independent reference.
  virtual bool verify(std::string& detail) = 0;
  /// Layer metrics read from this workload's own result structs.
  virtual void layer_metrics(Metrics& m) const = 0;

  virtual const char* description() const = 0;
  /// The name of the replay witness this workload's layer owns.
  virtual const char* replay_metric() const { return "core.replay_bitwise"; }
  const std::vector<NodeProblem>& problems() const { return problems_; }
  const GenMeter& gen_meter() const { return meter_; }

  double flops_per_op() const {
    double f = 0.0;
    for (const NodeProblem& p : problems_) {
      f += contraction_stats(p.a, p.b, p.c).flops;
    }
    return f;
  }

 protected:
  std::vector<NodeProblem> problems_;
  GenMeter meter_;
};

/// The ROADMAP baseline problem: M=2048, N=K=8192, density 0.5, tiles
/// uniform in 64-256 (the same draw sequence as `bstc_cli execute`).
struct SynthShapes {
  Shape a, b, c;
};

SynthShapes baseline_shapes(std::uint64_t shape_seed) {
  Rng rng(shape_seed);
  const Tiling mt = Tiling::random_uniform(2048, 64, 256, rng);
  const Tiling kt = Tiling::random_uniform(8192, 64, 256, rng);
  const Tiling nt = Tiling::random_uniform(8192, 64, 256, rng);
  SynthShapes s;
  s.a = Shape::random(mt, kt, 0.5, rng);
  s.b = Shape::random(kt, nt, 0.5, rng);
  s.c = contract_shape(s.a, s.b);
  return s;
}

bool compare_exact(const BlockSparseMatrix& got,
                   const BlockSparseMatrix& expected, std::string& detail) {
  // The tolerance `bstc_cli execute` verifies the engine with.
  const double err = got.max_abs_diff(expected);
  char buf[96];
  std::snprintf(buf, sizeof buf, "max|C - C_ref| = %.3e (limit 1e-10)", err);
  detail = buf;
  return err < 1e-10;
}

/// abcd-fit: one cold contract() per op. B fits in device memory, so the
/// inspector reruns and B is regenerated every op while staging is light.
class AbcdFit final : public Workload {
 public:
  AbcdFit(std::uint64_t seed, std::uint64_t shape_seed)
      : seed_(seed), shapes_(baseline_shapes(shape_seed)) {
    problems_.push_back({shapes_.a, shapes_.b, shapes_.c, machine_, {}});
  }

  void prepare() override {
    Rng rng(derive_seed(seed_, 0xA));
    a_ = BlockSparseMatrix::random(shapes_.a, rng);
    raw_gen_ = random_tile_generator(shapes_.b, derive_seed(seed_, 0xB));
    gen_ = metered(raw_gen_, meter_);
  }

  OpResult op(std::uint64_t) override {
    OpResult r;
    last_ = EngineResult{};
    obs::ScopedSpan span(obs::Category::kPhase, "ledger.contract");
    const auto t0 = Clock::now();
    last_ = contract(a_, shapes_.b, gen_, shapes_.c, nullptr, machine_,
                     EngineConfig{});
    r.wall_s = seconds_since(t0);
    r.ok = true;
    r.tasks = last_.tasks_executed;
    return r;
  }

  std::uint64_t result_checksum() const override {
    return bsm_content_checksum(last_.c);
  }

  bool verify(std::string& detail) override {
    const BlockSparseMatrix b = materialize_b(shapes_.b, raw_gen_);
    BlockSparseMatrix expected(shapes_.c);
    multiply_reference(a_, b, expected);
    return compare_exact(last_.c, expected, detail);
  }

  void layer_metrics(Metrics& m) const override {
    std::size_t dev_peak = 0;
    for (const std::size_t b : last_.device_peak_bytes) {
      dev_peak = std::max(dev_peak, b);
    }
    set_metric(m, "core.device_peak_mb", static_cast<double>(dev_peak) / 1e6);
    set_metric(m, "core.host_b_peak_mb",
               static_cast<double>(last_.host_b_peak_bytes) / 1e6);
  }

  const char* description() const override {
    return "M=2048 N=K=8192 density 0.5 tiles 64-256; summit_gpus(3), "
           "16 GB per device; op = one cold contract()";
  }

 private:
  std::uint64_t seed_;
  SynthShapes shapes_;
  MachineModel machine_ = MachineModel::summit_gpus(3);
  BlockSparseMatrix a_;
  TileGenerator raw_gen_, gen_;
  EngineResult last_;
};

/// One service worker: the ledger is a single closed-loop caller.
ServiceConfig one_worker() {
  ServiceConfig cfg;
  cfg.workers = 1;
  return cfg;
}

/// The service layer's view, from its metrics snapshot: inspector time
/// spent (set-up), mean queue wait per request, plan-cache hit ratio.
void service_metrics(const ContractionService& service, Metrics& m) {
  const ServiceMetrics sm = service.metrics();
  set_metric(m, "service.inspect_s", sm.total_inspect_s);
  set_metric(m, "service.queue_wait_s", sm.mean_queue_wait_s());
  set_metric(m, "service.plan_hit_ratio",
             ratio(static_cast<double>(sm.plan_cache.hits),
                   static_cast<double>(sm.plan_cache.hits +
                                       sm.plan_cache.misses)));
}

/// abcd-stream: the paper's regime. B (268 MB) exceeds the aggregate
/// device budget (3 x 60 MB), so blocks stream and A is re-staged in
/// chunks; one session iterate() per op with a fresh A, B cached.
class AbcdStream final : public Workload {
 public:
  AbcdStream(std::uint64_t seed, std::uint64_t shape_seed)
      : seed_(seed), shapes_(baseline_shapes(shape_seed)),
        service_(one_worker()) {
    machine_.node.gpu.memory_bytes = 6.0e7;
    problems_.push_back({shapes_.a, shapes_.b, shapes_.c, machine_, {}});
  }

  ~AbcdStream() override {
    if (session_ != 0) service_.close_session(session_);
  }

  void prepare() override {
    raw_gen_ = random_tile_generator(shapes_.b, derive_seed(seed_, 0xB));
    SessionConfig cfg;
    cfg.a_shape = shapes_.a;
    cfg.b_shape = shapes_.b;
    cfg.c_shape = shapes_.c;
    cfg.b_generator = metered(raw_gen_, meter_);
    cfg.machine = machine_;
    obs::ScopedSpan span(obs::Category::kPhase, "ledger.open_session");
    const ServiceStatus st = service_.open_session(cfg, session_);
    BSTC_REQUIRE(st == ServiceStatus::kOk,
                 std::string("abcd-stream: open_session failed: ") +
                     service_status_name(st));
  }

  OpResult op(std::uint64_t op_seed) override {
    OpResult r;
    last_c_ = BlockSparseMatrix{};
    Rng rng(op_seed);
    last_a_ = BlockSparseMatrix::random(shapes_.a, rng);
    ContractionResponse resp;
    obs::ScopedSpan span(obs::Category::kServiceRequest, "ledger.iterate");
    const auto t0 = Clock::now();
    const ServiceStatus st = service_.iterate(session_, last_a_, nullptr, resp);
    r.wall_s = seconds_since(t0);
    r.ok = st == ServiceStatus::kOk;
    if (!r.ok) r.error = service_status_name(st) + (": " + resp.error);
    r.tasks = resp.tasks_executed;
    last_c_ = std::move(resp.c);
    return r;
  }

  std::uint64_t result_checksum() const override {
    return bsm_content_checksum(last_c_);
  }

  bool verify(std::string& detail) override {
    const BlockSparseMatrix b = materialize_b(shapes_.b, raw_gen_);
    BlockSparseMatrix expected(shapes_.c);
    multiply_reference(last_a_, b, expected);
    return compare_exact(last_c_, expected, detail);
  }

  void layer_metrics(Metrics& m) const override {
    service_metrics(service_, m);
  }

  const char* description() const override {
    return "M=2048 N=K=8192 density 0.5 tiles 64-256; summit_gpus(3), "
           "6e7 B per device; op = one session iterate() with a fresh A";
  }

 private:
  std::uint64_t seed_;
  SynthShapes shapes_;
  MachineModel machine_ = MachineModel::summit_gpus(3);
  ContractionService service_;
  std::uint64_t session_ = 0;
  TileGenerator raw_gen_;
  BlockSparseMatrix last_a_, last_c_;
};

/// ccsd-doubles: the shipped four-term program at 4 carbons, lowered to
/// five DAG nodes (four products, one shared intermediate), 3 device
/// queues and 1 service worker. Chemistry-clustered, skewed tiles.
class CcsdDoubles final : public Workload {
 public:
  explicit CcsdDoubles(std::uint64_t shape_seed)
      : service_(one_worker()) {
    spec_.m = 4;
    spec_.gpus = 3;
    spec_.seed = shape_seed;
  }

  void prepare() override {
    expr::NamedProgram np = expr::build_named_program("ccsd-doubles", spec_);
    expr::ProgramInstance inst =
        expr::bind_program(expr::lower(np.program), np.machine, np.engine);
    for (const expr::LoweredNode& node : inst.lowered.nodes) {
      problems_.push_back({node.a_shape, node.b_shape, node.c_shape,
                           inst.machine, inst.engine.plan});
    }
    program_ = np.program;
    r_shape_ = inst.lowered.r_shape;
    runner_ = std::make_unique<expr::ProgramRunner>(service_, std::move(inst));
  }

  OpResult op(std::uint64_t op_seed) override {
    OpResult r;
    last_ = expr::ProgramResult{};
    last_seed_ = op_seed;
    obs::ScopedSpan span(obs::Category::kExprTerm, "ledger.program_run");
    const auto t0 = Clock::now();
    const ServiceStatus st = runner_->run(op_seed, last_);
    r.wall_s = seconds_since(t0);
    r.ok = st == ServiceStatus::kOk;
    if (!r.ok) r.error = service_status_name(st) + (": " + last_.error);
    r.tasks = last_.tasks_executed;
    double node_s = 0.0;
    for (const expr::NodeReport& n : last_.nodes) node_s += n.execute_s;
    r.overhead_s = r.wall_s - node_s;
    return r;
  }

  std::uint64_t result_checksum() const override {
    return bsm_content_checksum(last_.r);
  }

  /// Reference evaluation of the program's terms from its tensor specs:
  /// each term's factors multiplied left to right with dense-tile
  /// products into the full closure, screened onto R's declared shape and
  /// summed in term order. Independent of lowering, orientation and CSE.
  bool verify(std::string& detail) override {
    std::map<std::string, BlockSparseMatrix> values;
    const auto value =
        [&](const std::string& name) -> const BlockSparseMatrix& {
      const auto it = values.find(name);
      if (it != values.end()) return it->second;
      const expr::TensorDecl* d = program_.find_tensor(name);
      BSTC_REQUIRE(d != nullptr, "ccsd-doubles: no tensor " + name);
      BlockSparseMatrix m;
      if (d->kind == expr::TensorKind::kIterated) {
        Rng rng(last_seed_ ^ d->seed);
        m = BlockSparseMatrix::random(d->shape, rng);
      } else {
        m = expr::materialize(d->shape,
                              random_tile_generator(d->shape, d->seed));
      }
      return values.emplace(name, std::move(m)).first->second;
    };
    BlockSparseMatrix ref(r_shape_);
    for (const expr::Term& term : program_.terms) {
      const expr::FactorRef& head = term.factors.front();
      BlockSparseMatrix acc = value(head.tensor);
      std::string col = head.col_sym;
      for (std::size_t f = 1; f < term.factors.size(); ++f) {
        const expr::FactorRef& next = term.factors[f];
        BSTC_REQUIRE(next.row_sym == col,
                     "ccsd-doubles reference: a term is not a left-to-right "
                     "chain");
        const BlockSparseMatrix& y = value(next.tensor);
        BlockSparseMatrix p(contract_shape(acc.shape(), y.shape()));
        multiply_reference(acc, y, p);
        acc = std::move(p);
        col = next.col_sym;
      }
      BSTC_REQUIRE(head.row_sym == term.out_row && col == term.out_col,
                   "ccsd-doubles reference: a term's free indices are not "
                   "the output's");
      for (std::size_t i = 0; i < r_shape_.tile_rows(); ++i) {
        for (std::size_t j = 0; j < r_shape_.tile_cols(); ++j) {
          if (r_shape_.nonzero(i, j) && acc.has_tile(i, j)) {
            ref.tile(i, j).axpy(1.0, acc.tile(i, j));
          }
        }
      }
    }

    const double scale = ref.max_abs_diff(BlockSparseMatrix(r_shape_));
    const double err = last_.r.max_abs_diff(ref);
    char buf[128];
    std::snprintf(buf, sizeof buf,
                  "max|R - R_ref| = %.3e, max|R_ref| = %.3e (limit 1e-12 "
                  "relative)",
                  err, scale);
    detail = buf;
    return err <= 1e-12 * std::max(1.0, scale);
  }

  void layer_metrics(Metrics& m) const override {
    service_metrics(service_, m);
    set_metric(m, "expr.intermediates_built",
               static_cast<double>(last_.intermediates_built));
    set_metric(m, "expr.intermediate_reuse",
               static_cast<double>(last_.intermediate_reuse));
    set_metric(m, "expr.peak_intermediate_mb",
               static_cast<double>(last_.peak_intermediate_bytes) / 1e6);
  }

  const char* description() const override {
    return "ccsd-doubles program, 4 carbons, 5 DAG nodes; summit_gpus(3), "
           "20 MB device floor, 1 service worker; op = one ProgramRunner::run";
  }

  const char* replay_metric() const override { return "expr.replay_bitwise"; }

 private:
  ServeProblemSpec spec_;
  ContractionService service_;
  std::unique_ptr<expr::ProgramRunner> runner_;
  expr::Program program_;
  Shape r_shape_;
  expr::ProgramResult last_;
  std::uint64_t last_seed_ = 0;
};

std::unique_ptr<Workload> make_workload(const Options& o) {
  if (o.workload == "abcd-fit") {
    return std::make_unique<AbcdFit>(o.seed, o.shape_seed);
  }
  if (o.workload == "abcd-stream") {
    return std::make_unique<AbcdStream>(o.seed, o.shape_seed);
  }
  if (o.workload == "ccsd-doubles") {
    return std::make_unique<CcsdDoubles>(o.shape_seed);
  }
  throw Error("ledger: unknown workload '" + o.workload +
              "' (abcd-fit, abcd-stream, ccsd-doubles)");
}

// ---------------------------------------------------------------------------
// Layers measured outside the ops.

/// build_plan per node problem (median of five timed builds, summed over
/// the nodes) and the plan's analytic statistics.
void plan_layer(const std::vector<NodeProblem>& problems, Metrics& m) {
  double build_s = 0.0, blocks = 0.0, chunks = 0.0, a_bytes = 0.0;
  for (const NodeProblem& p : problems) {
    ExecutionPlan plan;
    std::vector<double> times;
    for (int rep = 0; rep < 5; ++rep) {
      obs::ScopedSpan span(obs::Category::kPlan, "ledger.build_plan");
      const auto t0 = Clock::now();
      plan = build_plan(p.a, p.b, p.c, p.machine, p.plan);
      times.push_back(seconds_since(t0));
    }
    build_s += median(times);
    const PlanStats st = compute_stats(plan, p.a, p.b, p.c);
    blocks += static_cast<double>(st.blocks);
    chunks += static_cast<double>(st.chunks);
    a_bytes += st.a_h2d_bytes;
  }
  set_metric(m, "plan.build_s", build_s);
  set_metric(m, "plan.blocks", blocks);
  set_metric(m, "plan.chunks", chunks);
  set_metric(m, "plan.a_staged_mb", a_bytes / 1e6);
}

/// Single-thread gemm_batch rate on a fixed sample of the workload's own
/// tile triples: shared-B groups as the executor forms them (one B tile,
/// every A tile of its k row that meets a nonzero C tile).
double kernel_gflops(const std::vector<NodeProblem>& problems) {
  struct Group {
    Tile b;
    std::vector<Tile> a, c;
    std::vector<GemmBatchItem> items;
    double flops = 0.0;
  };
  std::vector<Group> groups;
  Rng rng(0x1ed9e4);  // fixed: the sample is part of the workload
  const std::size_t per_problem =
      std::max<std::size_t>(2, 16 / problems.size());
  for (const NodeProblem& p : problems) {
    std::size_t taken = 0;
    for (int attempt = 0; attempt < 4096 && taken < per_problem; ++attempt) {
      const std::size_t k = rng.uniform_index(p.b.tile_rows());
      const std::size_t j = rng.uniform_index(p.b.tile_cols());
      if (!p.b.nonzero(k, j)) continue;
      Group g;
      const Index kk = p.b.row_tiling().tile_extent(k);
      const Index nn = p.b.col_tiling().tile_extent(j);
      g.b = Tile(kk, nn);
      g.b.fill_random(rng);
      for (std::size_t i = 0; i < p.a.tile_rows(); ++i) {
        if (!p.a.nonzero(i, k) || !p.c.nonzero(i, j)) continue;
        const Index mm = p.a.row_tiling().tile_extent(i);
        g.a.emplace_back(mm, kk);
        g.a.back().fill_random(rng);
        g.c.emplace_back(mm, nn);
        g.flops += 2.0 * static_cast<double>(mm) * static_cast<double>(kk) *
                   static_cast<double>(nn);
      }
      if (g.a.empty()) continue;
      groups.push_back(std::move(g));
      ++taken;
    }
  }
  double flops = 0.0;
  for (Group& g : groups) {
    for (std::size_t i = 0; i < g.a.size(); ++i) {
      g.items.push_back({&g.a[i], &g.c[i]});
    }
    flops += g.flops;
  }
  const auto pass = [&] {
    for (const Group& g : groups) {
      obs::ScopedSpan span(obs::Category::kTask, "ledger.gemm_batch");
      gemm_batch(1.0, g.items, g.b, 0.0);
    }
  };
  pass();  // selects (and, for a new bucket, tunes) outside the timing
  int passes = 0;
  const auto t0 = Clock::now();
  while (passes < 3 || seconds_since(t0) < 0.5) {
    pass();
    ++passes;
  }
  return ratio(flops * passes, seconds_since(t0)) / 1e9;
}

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

/// Time sums of the engine's own task spans inside the traced ops, and
/// of the tuning spans up to the end of the timed loop.
struct SpanTotals {
  double device_busy_s = 0.0;
  double stage_s = 0.0;
  double gemm_s = 0.0;
  double gen_s = 0.0;
  double tune_s = 0.0;
};

SpanTotals span_totals(const std::vector<obs::Span>& spans,
                       const std::vector<std::pair<double, double>>& windows,
                       double loop_end) {
  SpanTotals t;
  for (const obs::Span& s : spans) {
    const double d = s.end_s - s.start_s;
    if (s.category == obs::Category::kTune && s.start_s <= loop_end) {
      t.tune_s += d;
    }
    // Engine task spans carry their scheduler queue as the lane; every
    // workload runs one node, so queue 0 is the generator queue and the
    // queues above it are the devices.
    if (s.category != obs::Category::kTask || s.lane >= obs::kThreadLaneBase) {
      continue;
    }
    const bool in_op = std::any_of(
        windows.begin(), windows.end(), [&](const auto& w) {
          return s.start_s >= w.first && s.start_s <= w.second;
        });
    if (!in_op) continue;
    if (s.lane == 0) {
      if (starts_with(s.name, "gen(")) t.gen_s += d;
      continue;
    }
    t.device_busy_s += d;
    if (starts_with(s.name, "load(") || starts_with(s.name, "chunkload(") ||
        starts_with(s.name, "chunkunload(") || starts_with(s.name, "store(")) {
      t.stage_s += d;
    }
    if (starts_with(s.name, "gemmbatch(")) t.gemm_s += d;
  }
  return t;
}

// ---------------------------------------------------------------------------
// The run.

/// One op; an exception thrown by the layer counts as a failed op.
OpResult run_op(Workload& wl, std::uint64_t op_seed) {
  try {
    return wl.op(op_seed);
  } catch (const std::exception& e) {
    OpResult r;
    r.error = e.what();
    return r;
  }
}

int run(const Options& o) {
  obs::Registry& reg = obs::Registry::instance();
  reg.set_enabled(o.trace);

  // Set-up: inputs, sessions/lowering and the first (cold) op.
  const auto start = Clock::now();
  std::unique_ptr<Workload> wl;
  OpResult first;
  {
    obs::ScopedSpan span(obs::Category::kPhase, "ledger.setup");
    wl = make_workload(o);
    wl->prepare();
    first = run_op(*wl, derive_seed(o.seed, 0));
  }
  const double setup_s = seconds_since(start);
  int attempted = 1;
  int failed = first.ok ? 0 : 1;
  if (!first.ok) {
    std::fprintf(stderr, "ledger: set-up op failed: %s\n", first.error.c_str());
  }

  // Timed closed loop. In a traced run every other op is traced, so the
  // untraced ops give the tracing overhead from the same process.
  const double flops = wl->flops_per_op();
  const std::uint64_t tiles0 = counter("bstc_b_tiles_generated_total");
  const double gen0 = wl->gen_meter().seconds();
  const Usage u0 = usage_now();
  StealMeter steal;
  std::vector<double> plain_walls, traced_walls;
  std::vector<std::pair<double, double>> traced_windows;
  double tasks = 0.0, overhead_s = 0.0;
  std::uint64_t last_op = 0;
  const auto loop_t0 = Clock::now();
  for (std::uint64_t i = 1;; ++i) {
    const double elapsed = seconds_since(loop_t0);
    // At least three good ops of each kind, unless ops keep failing.
    const bool enough =
        plain_walls.size() >= 3 && (!o.trace || traced_walls.size() >= 3);
    if (elapsed >= o.seconds && (enough || elapsed >= 2.0 * o.seconds)) break;
    const bool traced = o.trace && i % 2 == 1;
    reg.set_enabled(traced);
    const double w0 = reg.now();
    last_op = i;
    const OpResult r = run_op(*wl, derive_seed(o.seed, i));
    const double w1 = reg.now();
    ++attempted;
    if (!r.ok) {
      ++failed;
      std::fprintf(stderr, "ledger: op %llu failed: %s\n",
                   static_cast<unsigned long long>(i), r.error.c_str());
      continue;
    }
    (traced ? traced_walls : plain_walls).push_back(r.wall_s);
    if (traced) traced_windows.emplace_back(w0, w1);
    tasks += static_cast<double>(r.tasks);
    overhead_s += r.overhead_s;
  }
  const double loop_s = seconds_since(loop_t0);
  const double loop_end = reg.now();
  reg.set_enabled(o.trace);
  const Usage u1 = usage_now();
  const double steal_frac = steal.fraction();
  const std::uint64_t tiles1 = counter("bstc_b_tiles_generated_total");
  const std::uint64_t tune_benchmarks = counter("bstc_tune_benchmarks_total");
  const double gen1 = wl->gen_meter().seconds();
  const double ops =
      static_cast<double>(plain_walls.size() + traced_walls.size());
  const double gflops = ratio(flops, median(plain_walls)) / 1e9;

  std::printf("workload    %s (%s)\n", o.workload.c_str(), wl->description());
  std::printf("seeds       run %llu, shape %llu\n",
              static_cast<unsigned long long>(o.seed),
              static_cast<unsigned long long>(o.shape_seed));
  // The default kernel, then the tuned buckets each zoo kernel won.
  std::printf("kernel      %s", gemm_kernel_name());
  const std::string tune_gauge = "bstc_tune_active_buckets";
  for (const auto& [name, value] : reg.gauges()) {
    if (starts_with(name, tune_gauge.c_str())) {
      std::printf(" %s=%lld", name.substr(tune_gauge.size()).c_str(),
                  static_cast<long long>(value));
    }
  }
  std::printf("\n");
  std::printf("ops         1 set-up + %zu timed (%zu traced), %.1f Gflop each, "
              "median %.4f s untraced\n",
              plain_walls.size() + traced_walls.size(), traced_walls.size(),
              flops / 1e9, median(plain_walls));
  std::printf("host        %.1f%% of CPU time stolen during the timed ops\n",
              100.0 * steal_frac);

  // Correctness, outside the timed region and after the RSS sample.
  const std::uint64_t checksum = wl->result_checksum();
  bool correct = true;
  if (o.check) {
    std::string detail;
    {
      obs::ScopedSpan span(obs::Category::kPhase, "ledger.verify");
      correct = wl->verify(detail);
    }
    std::printf("check       %s -> %s\n", detail.c_str(),
                correct ? "OK" : "FAILED");
    if (!correct) ++failed;
  }

  Metrics metrics;
  std::string extra;
  if (!o.trace) {
    metrics["gflops"] = {gflops, "Gflop/s"};
    metrics["setup_s"] = {setup_s, "s"};
    metrics["peak_rss_mb"] = {u1.max_rss_mb, "MB"};
    char buf[64];
    std::snprintf(buf, sizeof buf, ", \"flops\": %.17g, \"op_walls_s\": [",
                  flops);
    extra = buf;
    for (std::size_t i = 0; i < plain_walls.size(); ++i) {
      std::snprintf(buf, sizeof buf, "%s%.9f", i == 0 ? "" : ", ",
                    plain_walls[i]);
      extra += buf;
    }
    extra += "]";
  } else {
    for (const auto& [name, unit] : kLayerMetrics) metrics[name] = {0.0, unit};
    Metrics& m = metrics;

    // Replay the last op's seed in this process; report, never gate.
    reg.set_enabled(false);
    const OpResult replay = run_op(*wl, derive_seed(o.seed, last_op));
    ++attempted;
    if (!replay.ok) ++failed;
    set_metric(m, wl->replay_metric(),
               replay.ok && wl->result_checksum() == checksum ? 1.0 : 0.0);
    reg.set_enabled(true);

    plan_layer(wl->problems(), m);
    const double kernel = kernel_gflops(wl->problems());
    const SpanTotals st = span_totals(reg.spans(), traced_windows, loop_end);
    const double devices =
        static_cast<double>(wl->problems().front().machine.total_gpus());
    const double traced_ops = static_cast<double>(traced_walls.size());
    const double traced_s =
        std::accumulate(traced_walls.begin(), traced_walls.end(), 0.0);
    set_metric(m, "bsm.tiles_generated_per_op",
               static_cast<double>(tiles1 - tiles0) / ops);
    set_metric(m, "bsm.gen_s_per_op", (gen1 - gen0) / ops);
    set_metric(m, "runtime.device_busy_frac",
               ratio(st.device_busy_s, devices * traced_s));
    set_metric(m, "runtime.stage_frac", ratio(st.stage_s, st.device_busy_s));
    set_metric(m, "runtime.gen_task_s_per_op", st.gen_s / traced_ops);
    set_metric(m, "runtime.tasks_per_op", tasks / ops);
    set_metric(m, "tile.kernel_gflops", kernel);
    set_metric(m, "tile.in_engine_gflops",
               ratio(flops * traced_ops, st.gemm_s) / 1e9);
    set_metric(m, "tile.ceiling_frac", ratio(gflops, devices * kernel));
    set_metric(m, "tile.tune_benchmarks", static_cast<double>(tune_benchmarks));
    set_metric(m, "tile.tune_s", st.tune_s);
    set_metric(m, "expr.overhead_s_per_op", overhead_s / ops);
    set_metric(m, "proc.cpu_util",
               ratio(u1.cpu_s - u0.cpu_s,
                     loop_s * std::max(1u, std::thread::hardware_concurrency())));
    set_metric(m, "proc.sys_s_per_op", (u1.sys_s - u0.sys_s) / ops);
    set_metric(m, "proc.minor_faults_per_op",
               (u1.minor_faults - u0.minor_faults) / ops);
    set_metric(m, "proc.host_steal_frac", steal_frac);
    set_metric(m, "trace.overhead_frac",
               1.0 - ratio(median(plain_walls), median(traced_walls)));
    wl->layer_metrics(m);

    if (!o.trace_out.empty()) {
      obs::RankTrace rank;
      rank.spans = reg.spans();
      rank.lane_names = reg.lane_names();
      obs::write_merged_trace(o.trace_out, {rank});
      std::printf("trace       %s (%zu spans)\n", o.trace_out.c_str(),
                  rank.spans.size());
    }
  }
  correct = correct && failed == 0;

  for (const auto& [name, metric] : metrics) {
    std::printf("%-28s %14.6g %s\n", name.c_str(), metric.value,
                metric.unit.c_str());
  }
  std::printf("%s\n",
              metrics_json(correct, attempted, failed, metrics, extra).c_str());
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_options(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ledger: %s\n", e.what());
    return 1;
  }
}
