#pragma once

/// \file obs.hpp
/// Process-wide observability registry: spans, counters, gauges and
/// latency histograms for every layer — scheduler task bodies, the
/// serving layer (ServiceMetrics) and wire bytes (WireCounters) — with
/// one span type and one trace writer (trace_merge.hpp).
///
/// Spans are timeline intervals with a category (`task`, `comm.tx`,
/// `comm.rx`, `barrier`, `plan`, `service.request`, `phase`) and a lane
/// (a Chrome-tracing "thread" row). Span recording is gated on an
/// explicit enable flag — the default-off path is one relaxed atomic
/// load, so instrumented hot paths cost nothing unless a trace was
/// requested (`--trace-out`). Counters, gauges and histograms are always
/// on; they feed the Prometheus-style text exposition.
///
/// The registry epoch is its construction time on the steady clock;
/// span timestamps are seconds since that epoch. Separate processes
/// therefore have skewed epochs even on one host — the distributed
/// trace gather (net/launch) measures the offset with an NTP-style
/// probe exchange and trace_merge shifts every rank onto rank 0's
/// timeline.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
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

/// A histogram plus the sample sum the Prometheus exposition needs
/// (support/histogram tracks counts only).
struct HistogramData {
  Histogram hist;
  double sum = 0.0;
};

/// Lanes below this are reserved for scheduler queue ids; lanes handed
/// to free threads by thread_lane() start here.
inline constexpr std::uint32_t kThreadLaneBase = 1024;

/// Stable per-thread lane id (allocated on first use, >= kThreadLaneBase).
std::uint32_t thread_lane();

/// The process-wide span/counter registry. All methods are thread-safe.
class Registry {
 public:
  Registry();

  static Registry& instance();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  /// Seconds since the registry epoch (steady clock).
  double now() const;

  /// Record one span. No-op unless enabled.
  void record(Category cat, std::string name, std::uint32_t lane,
              double start_s, double end_s, std::uint64_t bytes = 0);

  /// Record one span and run `and_then` under the registry lock — the
  /// same lock spans_with() holds. Comm instrumentation pairs the span
  /// with its WireCounters bump here so a concurrent snapshot can never
  /// observe one without the other (span byte sums must equal counter
  /// totals exactly, not approximately). `and_then` runs even when span
  /// recording is disabled.
  void record_with(Category cat, std::string name, std::uint32_t lane,
                   double start_s, double end_s, std::uint64_t bytes,
                   const std::function<void()>& and_then);

  /// Label a lane for the trace ("net.tx", "queue 3", ...).
  void name_lane(std::uint32_t lane, std::string name);

  void counter_add(const std::string& name, std::uint64_t delta = 1);
  void gauge_set(const std::string& name, std::int64_t value);
  /// Add a sample to a named histogram, creating it with the given
  /// layout on first use (later calls ignore lo/hi/bins).
  void observe(const std::string& name, double value, double lo, double hi,
               std::size_t bins);

  std::vector<Span> spans() const;
  /// Snapshot spans and run `under_lock` atomically with the snapshot
  /// (counterpart of record_with; see there).
  std::vector<Span> spans_with(const std::function<void()>& under_lock) const;
  std::map<std::uint32_t, std::string> lane_names() const;
  std::map<std::string, std::uint64_t> counters() const;
  std::map<std::string, std::int64_t> gauges() const;
  std::map<std::string, HistogramData> histograms() const;

  /// Drop all recorded data (tests; between serve-batch runs).
  void clear();

 private:
  std::atomic<bool> enabled_{false};
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::map<std::uint32_t, std::string> lane_names_;
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, std::int64_t> gauges_;
  std::map<std::string, HistogramData> histograms_;
};

/// RAII span against the global registry; the current thread's lane
/// unless one is given. Does nothing when recording is disabled.
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
  bool active_;
  Category cat_ = Category::kTask;
  std::string name_;
  std::uint32_t lane_ = 0;
  double start_s_ = 0.0;
  std::uint64_t bytes_ = 0;
};

/// Prometheus-style text exposition of the registry's counters, gauges
/// and histograms (`name{labels} value` lines; histograms as cumulative
/// `_bucket{le="..."}` plus `_sum` / `_count`). Values outside a
/// histogram's range are clamped into its edge bins, so the last
/// finite bucket may undercount relative to +Inf semantics.
std::string prometheus_text(const Registry& reg);

}  // namespace bstc::obs
