#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cstdio>

namespace mgjoin::obs {

void Histogram::Observe(std::uint64_t v) {
  const std::size_t bucket =
      v <= 1 ? 0 : static_cast<std::size_t>(std::bit_width(v - 1));
  if (bucket >= buckets_.size()) buckets_.resize(bucket + 1, 0);
  ++buckets_[bucket];
  ++count_;
  sum_ += v;
  min_ = std::min(min_, v);
  max_ = std::max(max_, v);
}

std::uint64_t Histogram::ValueAtQuantile(double q) const {
  if (count_ == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the target observation (1-based), then walk buckets until
  // the cumulative count reaches it.
  const std::uint64_t rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             q * static_cast<double>(count_) + 0.5));
  std::uint64_t cum = 0;
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    if (buckets_[b] == 0) continue;
    if (cum + buckets_[b] < rank) {
      cum += buckets_[b];
      continue;
    }
    // Bucket 0 holds {0, 1}; bucket b >= 1 holds (2^(b-1), 2^b].
    const double lo = b == 0 ? 0.0 : static_cast<double>(1ull << (b - 1));
    const double hi = b == 0 ? 1.0 : lo * 2.0;
    const double frac = static_cast<double>(rank - cum) /
                        static_cast<double>(buckets_[b]);
    const std::uint64_t v =
        static_cast<std::uint64_t>(lo + (hi - lo) * frac + 0.5);
    return std::clamp(v, min(), max_);
  }
  return max_;
}

std::string MetricsRegistry::Summary() const {
  std::string out;
  char line[256];
  if (!counters_.empty()) {
    out += "counters:\n";
    for (const auto& [name, c] : counters_) {
      std::snprintf(line, sizeof(line), "  %-36s %llu\n", name.c_str(),
                    static_cast<unsigned long long>(c.value()));
      out += line;
    }
  }
  if (!gauges_.empty()) {
    out += "gauges (value / high-water):\n";
    for (const auto& [name, g] : gauges_) {
      std::snprintf(line, sizeof(line), "  %-36s %llu / %llu\n",
                    name.c_str(),
                    static_cast<unsigned long long>(g.value()),
                    static_cast<unsigned long long>(g.high_water()));
      out += line;
    }
  }
  if (!histograms_.empty()) {
    out += "histograms (count / mean / min / max / p50 / p95 / p99):\n";
    for (const auto& [name, h] : histograms_) {
      std::snprintf(line, sizeof(line),
                    "  %-36s %llu / %.1f / %llu / %llu / %llu / %llu / "
                    "%llu\n",
                    name.c_str(),
                    static_cast<unsigned long long>(h.count()), h.Mean(),
                    static_cast<unsigned long long>(h.min()),
                    static_cast<unsigned long long>(h.max()),
                    static_cast<unsigned long long>(h.P50()),
                    static_cast<unsigned long long>(h.P95()),
                    static_cast<unsigned long long>(h.P99()));
      out += line;
    }
  }
  return out;
}

}  // namespace mgjoin::obs
