#pragma once

/// \file obs.hpp
/// Observability registry: spans, counters, gauges and latency
/// histograms for every layer — scheduler task bodies, the serving
/// layer, B generation, the shm data plane and every frame on the wire —
/// with one span type and one trace writer (trace_merge.hpp).
///
/// One registry per rank. Library code records into Registry::current():
/// the registry bound to the calling thread by a ScopedRegistry, or the
/// process-wide instance() when none is bound. A rank entry point
/// (net::run_worker, net::run_serve_worker) owns a fresh registry and
/// binds it, and every component that spawns threads re-binds its
/// spawner's registry in each of them, so a rank counts exactly its own
/// work whether it was forked or started on a thread — nothing is reset
/// or subtracted. Code that binds nothing (the CLI's single-process
/// commands, the ledger) records into instance().
///
/// Spans are timeline intervals with a category (`task`, `comm.tx`,
/// `comm.rx`, `barrier`, `plan`, `service.request`, `phase`) and a lane
/// (a Chrome-tracing "thread" row). Span recording is gated on an
/// explicit enable flag — the default-off path is one relaxed atomic
/// load, so instrumented hot paths cost nothing unless a trace was
/// requested (`--trace-out`). Counters, gauges and histograms are always
/// on; they feed the Prometheus-style text exposition. A comm span and
/// its wire counters commit under the registry lock together
/// (record_counted), so summed comm-span bytes equal the wire totals in
/// every snapshot().
///
/// The registry epoch is its construction time on the steady clock;
/// span timestamps are seconds since that epoch. Separate ranks
/// therefore have skewed epochs even on one host — the distributed
/// trace gather (net/launch) measures the offset with an NTP-style
/// probe exchange and trace_merge shifts every rank onto rank 0's
/// timeline.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "support/histogram.hpp"

namespace bstc::obs {

/// Span taxonomy. Categories are coarse on purpose: the span *name*
/// carries the instance detail ("gemmbatch(0,2,1)", "tx(tile)", ...).
enum class Category : std::uint8_t {
  kTask = 0,        ///< one scheduler task body (lane = queue id), or
                    ///< one simulated pipeline step (lane = GPU index)
  kCommTx,          ///< one frame written to a socket
  kCommRx,          ///< one frame read from a socket (after its header)
  kBarrier,         ///< a full-mesh barrier epoch
  kPlan,            ///< an inspector (plan) build
  kServiceRequest,  ///< one ContractionService request lifecycle
  kPhase,           ///< a coarse worker phase (rendezvous, mesh, ...)
  kServiceNet,      ///< one distributed-serving request over the wire
  kShm,             ///< shared-memory store builds, attaches, swaps
  kExprTerm,        ///< one contraction-program DAG node (or whole program)
  kTune,            ///< a kernel-tuning pause; the library records none
                    ///< (the kernel is fixed per ISA), trace readers that
                    ///< sum this category read 0
};

const char* category_name(Category cat);

/// One recorded interval. Times are seconds since the registry epoch.
struct Span {
  std::string name;
  Category category = Category::kTask;
  std::uint32_t lane = 0;
  double start_s = 0.0;
  double end_s = 0.0;
  std::uint64_t bytes = 0;  ///< payload size for comm spans, else 0
};

/// A histogram plus what the Prometheus exposition needs beyond its
/// bins: the sample sum, and the samples above `hist.hi()`. Those are
/// kept out of every finite bucket (Histogram::add would clamp them into
/// the last one) and count only in `+Inf` and `_count`.
struct HistogramData {
  Histogram hist;
  double sum = 0.0;
  std::uint64_t above = 0;
};

/// Lanes below this are reserved for scheduler queue ids; lanes handed
/// to free threads by thread_lane() start here.
inline constexpr std::uint32_t kThreadLaneBase = 1024;

/// Stable per-thread lane id (allocated on first use, >= kThreadLaneBase).
std::uint32_t thread_lane();

/// One rank's span/counter registry. All methods are thread-safe.
class Registry {
 public:
  Registry();

  /// The process-wide registry: current() on a thread with none bound.
  static Registry& instance();
  /// The registry bound to the calling thread (ScopedRegistry), else
  /// instance(). Every library call site records here.
  static Registry& current();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  /// Seconds since the registry epoch (steady clock).
  double now() const;

  /// Record one span. No-op unless enabled.
  void record(Category cat, std::string name, std::uint32_t lane,
              double start_s, double end_s, std::uint64_t bytes = 0);

  /// Add each (counter, delta) and, when enabled, record one span — under
  /// one lock, so a snapshot() never sees the span without its counts.
  /// Comm instrumentation pairs each frame's span with its wire counters
  /// here (span byte sums must equal counter totals exactly). The counts
  /// are added whether or not spans are enabled.
  void record_counted(
      Category cat, std::string name, std::uint32_t lane, double start_s,
      double end_s, std::uint64_t bytes,
      std::initializer_list<std::pair<std::string_view, std::uint64_t>> counts);

  /// Label a lane for the trace ("net.tx", "queue 3", ...).
  void name_lane(std::uint32_t lane, std::string name);

  /// Add to a counter. A delta of 0 declares it: the component that owns
  /// a counter declares it when constructed, so the exposition shows it
  /// at 0 before its first event.
  void counter_add(std::string_view name, std::uint64_t delta = 1);
  void gauge_set(std::string_view name, std::int64_t value);
  /// Add a sample to a named histogram, creating it with the given
  /// layout on first use (later calls ignore lo/hi/bins).
  void observe(const std::string& name, double value, double lo, double hi,
               std::size_t bins);

  /// Spans, lane names and counters read under one lock.
  struct Snapshot {
    std::vector<Span> spans;
    std::map<std::uint32_t, std::string> lane_names;
    std::map<std::string, std::uint64_t> counters;
  };
  Snapshot snapshot() const;

  std::vector<Span> spans() const;
  std::map<std::uint32_t, std::string> lane_names() const;
  std::map<std::string, std::uint64_t> counters() const;
  /// One counter's value (0 if it was never added to or declared).
  std::uint64_t counter(std::string_view name) const;
  std::map<std::string, std::int64_t> gauges() const;
  std::map<std::string, HistogramData> histograms() const;

 private:
  std::atomic<bool> enabled_{false};
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::map<std::uint32_t, std::string> lane_names_;
  // Transparent comparators: hot call sites look names up without
  // building a std::string per event.
  std::map<std::string, std::uint64_t, std::less<>> counters_;
  std::map<std::string, std::int64_t, std::less<>> gauges_;
  std::map<std::string, HistogramData> histograms_;
};

/// Binds `reg` as the calling thread's Registry::current() for its
/// lifetime and restores the previous binding after. A rank entry point
/// binds the registry it owns; a component that starts threads binds its
/// spawner's registry first thing in each thread body.
class ScopedRegistry {
 public:
  explicit ScopedRegistry(Registry& reg);
  ~ScopedRegistry();

  ScopedRegistry(const ScopedRegistry&) = delete;
  ScopedRegistry& operator=(const ScopedRegistry&) = delete;

 private:
  Registry* prev_;
};

/// RAII span against Registry::current() at construction; the current
/// thread's lane unless one is given. Does nothing when recording is
/// disabled.
class ScopedSpan {
 public:
  ScopedSpan(Category cat, std::string name, std::uint64_t bytes = 0);
  ScopedSpan(Category cat, std::string name, std::uint32_t lane,
             std::uint64_t bytes);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_bytes(std::uint64_t bytes) { bytes_ = bytes; }

 private:
  Registry* reg_;
  bool active_;
  Category cat_ = Category::kTask;
  std::string name_;
  std::uint32_t lane_ = 0;
  double start_s_ = 0.0;
  std::uint64_t bytes_ = 0;
};

/// Prometheus-style text exposition of the registry's counters, gauges
/// and histograms (`name{labels} value` lines; histograms as cumulative
/// `_bucket{le="..."}` plus `_sum` / `_count`). Counters and gauges are
/// integers and render exactly. With `rank >= 0` every line carries a
/// `rank="N"` label — one rank's section of a gathered exposition.
std::string prometheus_text(const Registry& reg, int rank = -1);

}  // namespace bstc::obs
