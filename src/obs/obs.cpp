#include "obs/obs.hpp"

#include <cstdio>
#include <utility>

namespace bstc::obs {

const char* category_name(Category cat) {
  switch (cat) {
    case Category::kTask: return "task";
    case Category::kCommTx: return "comm.tx";
    case Category::kCommRx: return "comm.rx";
    case Category::kBarrier: return "barrier";
    case Category::kPlan: return "plan";
    case Category::kServiceRequest: return "service.request";
    case Category::kPhase: return "phase";
    case Category::kServiceNet: return "service.net";
    case Category::kShm: return "shm";
    case Category::kExprTerm: return "expr.term";
    case Category::kTune: return "tune";
  }
  return "unknown";
}

std::uint32_t thread_lane() {
  static std::atomic<std::uint32_t> next{kThreadLaneBase};
  thread_local const std::uint32_t lane =
      next.fetch_add(1, std::memory_order_relaxed);
  return lane;
}

Registry::Registry() : epoch_(std::chrono::steady_clock::now()) {}

namespace {

thread_local Registry* bound_registry = nullptr;

template <typename Map>
typename Map::mapped_type& entry(Map& map, std::string_view name) {
  auto it = map.find(name);
  if (it == map.end()) it = map.emplace(std::string(name), 0).first;
  return it->second;
}

}  // namespace

Registry& Registry::instance() {
  static Registry reg;
  return reg;
}

Registry& Registry::current() {
  return bound_registry != nullptr ? *bound_registry : instance();
}

ScopedRegistry::ScopedRegistry(Registry& reg) : prev_(bound_registry) {
  bound_registry = &reg;
}

ScopedRegistry::~ScopedRegistry() { bound_registry = prev_; }

double Registry::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

void Registry::record(Category cat, std::string name, std::uint32_t lane,
                      double start_s, double end_s, std::uint64_t bytes) {
  if (!enabled()) return;
  std::lock_guard lock(mutex_);
  spans_.push_back(Span{std::move(name), cat, lane, start_s, end_s, bytes});
}

void Registry::record_counted(
    Category cat, std::string name, std::uint32_t lane, double start_s,
    double end_s, std::uint64_t bytes,
    std::initializer_list<std::pair<std::string_view, std::uint64_t>> counts) {
  std::lock_guard lock(mutex_);
  if (enabled()) {
    spans_.push_back(Span{std::move(name), cat, lane, start_s, end_s, bytes});
  }
  for (const auto& [counter, delta] : counts) {
    entry(counters_, counter) += delta;
  }
}

void Registry::name_lane(std::uint32_t lane, std::string name) {
  std::lock_guard lock(mutex_);
  lane_names_[lane] = std::move(name);
}

void Registry::counter_add(std::string_view name, std::uint64_t delta) {
  std::lock_guard lock(mutex_);
  entry(counters_, name) += delta;
}

void Registry::gauge_set(std::string_view name, std::int64_t value) {
  std::lock_guard lock(mutex_);
  entry(gauges_, name) = value;
}

void Registry::observe(const std::string& name, double value, double lo,
                       double hi, std::size_t bins) {
  std::lock_guard lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(name, HistogramData{Histogram(lo, hi, bins), 0.0})
             .first;
  }
  HistogramData& data = it->second;
  if (value > data.hist.hi()) {
    ++data.above;
  } else {
    data.hist.add(value);
  }
  data.sum += value;
}

Registry::Snapshot Registry::snapshot() const {
  std::lock_guard lock(mutex_);
  return Snapshot{spans_, lane_names_, {counters_.begin(), counters_.end()}};
}

std::vector<Span> Registry::spans() const {
  std::lock_guard lock(mutex_);
  return spans_;
}

std::map<std::uint32_t, std::string> Registry::lane_names() const {
  std::lock_guard lock(mutex_);
  return lane_names_;
}

std::map<std::string, std::uint64_t> Registry::counters() const {
  std::lock_guard lock(mutex_);
  return {counters_.begin(), counters_.end()};
}

std::uint64_t Registry::counter(std::string_view name) const {
  std::lock_guard lock(mutex_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

std::map<std::string, std::int64_t> Registry::gauges() const {
  std::lock_guard lock(mutex_);
  return {gauges_.begin(), gauges_.end()};
}

std::map<std::string, HistogramData> Registry::histograms() const {
  std::lock_guard lock(mutex_);
  return histograms_;
}

ScopedSpan::ScopedSpan(Category cat, std::string name, std::uint64_t bytes)
    : ScopedSpan(cat, std::move(name), thread_lane(), bytes) {}

ScopedSpan::ScopedSpan(Category cat, std::string name, std::uint32_t lane,
                       std::uint64_t bytes)
    : reg_(&Registry::current()), active_(reg_->enabled()) {
  if (!active_) return;
  cat_ = cat;
  name_ = std::move(name);
  lane_ = lane;
  bytes_ = bytes;
  start_s_ = reg_->now();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  reg_->record(cat_, std::move(name_), lane_, start_s_, reg_->now(), bytes_);
}

namespace {

std::string fmt_value(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

}  // namespace

std::string prometheus_text(const Registry& reg, int rank) {
  const std::string rank_label =
      rank >= 0 ? "rank=\"" + std::to_string(rank) + "\"" : "";
  // `name{rank="N",extra}`, leaving out whichever label is absent.
  const auto series = [&rank_label](const std::string& name,
                                    const std::string& extra = "") {
    if (rank_label.empty() && extra.empty()) return name;
    const char* sep = rank_label.empty() || extra.empty() ? "" : ",";
    return name + "{" + rank_label + sep + extra + "}";
  };
  std::string out;
  for (const auto& [name, value] : reg.counters()) {
    out += series(name) + " " + std::to_string(value) + "\n";
  }
  for (const auto& [name, value] : reg.gauges()) {
    out += series(name) + " " + std::to_string(value) + "\n";
  }
  for (const auto& [name, data] : reg.histograms()) {
    const Histogram& h = data.hist;
    std::size_t cumulative = 0;
    for (std::size_t b = 0; b < h.bin_count(); ++b) {
      cumulative += h.count(b);
      const double edge = b + 1 == h.bin_count()
                              ? h.hi()
                              : h.bin_lo(b) + h.bin_width();
      out += series(name + "_bucket", "le=\"" + fmt_value(edge) + "\"") +
             " " + std::to_string(cumulative) + "\n";
    }
    const std::string count = std::to_string(h.total() + data.above);
    out += series(name + "_bucket", "le=\"+Inf\"") + " " + count + "\n";
    out += series(name + "_sum") + " " + fmt_value(data.sum) + "\n";
    out += series(name + "_count") + " " + count + "\n";
  }
  // Span volume per category, so scrapes see tracing activity without
  // parsing the trace itself.
  if (reg.enabled()) {
    std::map<std::string, std::uint64_t> per_cat;
    for (const Span& s : reg.spans()) {
      per_cat[category_name(s.category)] += 1;
    }
    for (const auto& [cat, n] : per_cat) {
      out += series("bstc_obs_spans_total", "category=\"" + cat + "\"") +
             " " + std::to_string(n) + "\n";
    }
  }
  return out;
}

}  // namespace bstc::obs
