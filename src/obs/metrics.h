#ifndef MGJOIN_OBS_METRICS_H_
#define MGJOIN_OBS_METRICS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace mgjoin::obs {

/// Monotonic event/byte counter.
class Counter {
 public:
  void Add(std::uint64_t n = 1) { value_ += n; }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Point-in-time level with a high-water mark (queue depths, ring
/// occupancy). `Set` moves the level; the high-water mark only grows.
class Gauge {
 public:
  void Set(std::uint64_t v) {
    value_ = v;
    if (v > high_water_) high_water_ = v;
  }
  std::uint64_t value() const { return value_; }
  std::uint64_t high_water() const { return high_water_; }

 private:
  std::uint64_t value_ = 0;
  std::uint64_t high_water_ = 0;
};

/// Power-of-two bucketed histogram (bucket i >= 1 counts values in
/// (2^(i-1), 2^i]; bucket 0 counts zeros and ones).
class Histogram {
 public:
  void Observe(std::uint64_t v);
  std::uint64_t count() const { return count_; }
  std::uint64_t sum() const { return sum_; }
  std::uint64_t min() const { return count_ == 0 ? 0 : min_; }
  std::uint64_t max() const { return max_; }
  double Mean() const {
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_) /
                             static_cast<double>(count_);
  }
  const std::vector<std::uint64_t>& buckets() const { return buckets_; }

  /// \brief Approximate value at quantile `q` in [0, 1]: the bucket
  /// holding the q-th observation is exact, the position inside it is
  /// linearly interpolated; the result is clamped to the observed
  /// min/max. Error is bounded by the bucket width (a factor of 2).
  std::uint64_t ValueAtQuantile(double q) const;
  std::uint64_t P50() const { return ValueAtQuantile(0.50); }
  std::uint64_t P95() const { return ValueAtQuantile(0.95); }
  std::uint64_t P99() const { return ValueAtQuantile(0.99); }

 private:
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = ~0ull;
  std::uint64_t max_ = 0;
};

/// \brief Pre-resolved, null-safe reference to a registry Gauge.
///
/// Hot paths touch gauges once per packet/batch; resolving the name
/// through the registry's std::map on every touch costs more than the
/// set itself. A handle is resolved once at setup: a default-constructed
/// handle (metrics disabled) makes every touch a no-op, so call sites
/// need no branching of their own. Handles stay valid for the
/// registry's lifetime — std::map nodes never move.
class GaugeHandle {
 public:
  GaugeHandle() = default;
  explicit GaugeHandle(Gauge* g) : g_(g) {}
  void Set(std::uint64_t v) {
    if (g_ != nullptr) g_->Set(v);
  }
  explicit operator bool() const { return g_ != nullptr; }

 private:
  Gauge* g_ = nullptr;
};

/// Pre-resolved, null-safe reference to a registry Histogram (see
/// GaugeHandle).
class HistogramHandle {
 public:
  HistogramHandle() = default;
  explicit HistogramHandle(Histogram* h) : h_(h) {}
  void Observe(std::uint64_t v) {
    if (h_ != nullptr) h_->Observe(v);
  }
  explicit operator bool() const { return h_ != nullptr; }

 private:
  Histogram* h_ = nullptr;
};

/// \brief Registry of named metrics. Names are hierarchical by
/// convention ("net.packets", "link.<name>.state"); the summary is
/// sorted by name so output is deterministic.
///
/// Lookups create the metric on first use. The registry is not
/// synchronized: the simulator is single-threaded and so are all
/// producers.
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name) { return counters_[name]; }
  Gauge& gauge(const std::string& name) { return gauges_[name]; }
  Histogram& histogram(const std::string& name) { return histograms_[name]; }

  const std::map<std::string, Counter>& counters() const {
    return counters_;
  }
  const std::map<std::string, Gauge>& gauges() const { return gauges_; }
  const std::map<std::string, Histogram>& histograms() const {
    return histograms_;
  }

  /// Handle resolvers: one map lookup now, none per touch. An absent
  /// registry yields an empty (no-op) handle, so components resolve
  /// unconditionally at setup.
  static GaugeHandle ResolveGauge(MetricsRegistry* m,
                                  const std::string& name) {
    return m == nullptr ? GaugeHandle() : GaugeHandle(&m->gauge(name));
  }
  static HistogramHandle ResolveHistogram(MetricsRegistry* m,
                                          const std::string& name) {
    return m == nullptr ? HistogramHandle()
                        : HistogramHandle(&m->histogram(name));
  }

  /// Renders every metric.
  std::string Summary() const;

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
};

/// \brief Times one host-side phase into the `<name>.wall_us` counter
/// of `metrics`, the one sink of host wall time. With no registry it
/// does nothing, not even read the clock. Wall time never reaches the
/// trace recorder: traces carry only simulated time and stay
/// byte-identical across machines and thread counts.
class HostPhase {
 public:
  HostPhase(const char* name, MetricsRegistry* metrics)
      : name_(name), metrics_(metrics) {
    if (metrics_ != nullptr) start_ = std::chrono::steady_clock::now();
  }

  ~HostPhase() {
    if (metrics_ == nullptr) return;
    const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
        std::chrono::steady_clock::now() - start_);
    metrics_->counter(std::string(name_) + ".wall_us")
        .Add(static_cast<std::uint64_t>(us.count()));
  }

  HostPhase(const HostPhase&) = delete;
  HostPhase& operator=(const HostPhase&) = delete;

 private:
  const char* name_;
  MetricsRegistry* metrics_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace mgjoin::obs

#endif  // MGJOIN_OBS_METRICS_H_
