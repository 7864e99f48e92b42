#ifndef MGJOIN_OBS_TELEMETRY_H_
#define MGJOIN_OBS_TELEMETRY_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "sim/simulator.h"

namespace mgjoin::obs {

/// \brief Attribution tag carried by every registered flow (DESIGN.md
/// Sec 14): which query and pipeline phase a byte on the wire belongs
/// to, and which endpoint pair it travels between.
///
/// The transfer engine fills unset fields at registration (`src`/`dst`
/// from the flow endpoints, phase "flow"), so tags are always complete
/// by the time telemetry or metrics read them. This is the per-flow
/// groundwork ROADMAP item 1 (multi-tenant scheduler) builds on.
struct FlowTag {
  std::uint64_t query_id = 0;
  std::string phase;  ///< producing phase ("shuffle", "broadcast", ...)
  int src = -1;
  int dst = -1;

  /// Canonical metric-name component, e.g. "q0.shuffle" — shared by
  /// every flow of one (query, phase), so per-phase counters aggregate.
  std::string MetricComponent() const;
  /// Full label form, e.g. "{query=0,phase=shuffle,src=0,dst=3}".
  std::string ToString() const;
};

/// One sampled (simulated-time, value) series. Sample times are strictly
/// increasing: the sampler dedups ticks by timestamp.
class TimeSeries {
 public:
  struct Sample {
    sim::SimTime t = 0;
    std::uint64_t value = 0;
  };

  void Record(sim::SimTime t, std::uint64_t value) {
    samples_.push_back({t, value});
  }
  const std::vector<Sample>& samples() const { return samples_; }
  /// Value of the most recent sample (0 when empty).
  std::uint64_t last() const {
    return samples_.empty() ? 0 : samples_.back().value;
  }

 private:
  std::vector<Sample> samples_;
};

/// \brief Periodic sampler driven by the simulated clock.
///
/// Producers register *probes* — cheap read-only callbacks returning a
/// current value — and the sampler snapshots every probe into a
/// TimeSeries each time the attached simulator's clock crosses a
/// sample-interval boundary. A probe receives the tick time, which may
/// lie past the simulator's Now() (ticks run between events); probes of
/// state that is booked ahead of time, like link occupancy, use it to
/// report the value at the tick rather than at the last event.
/// Sampling rides Simulator::SetObserver, so it runs outside the
/// event-seq stream: enabling telemetry leaves the core join trace
/// byte-identical (verified by determinism tests).
///
/// Lifetime: one sampler serves one simulation run (Attach checks
/// this); every probe's captured state must outlive the sampler's last
/// SampleNow. Registration order is the export order, so probe
/// registration must itself be deterministic.
class TelemetrySampler {
 public:
  using Probe = std::function<std::uint64_t(sim::SimTime)>;

  static constexpr sim::SimTime kDefaultInterval = sim::kMillisecond;

  explicit TelemetrySampler(sim::SimTime interval = kDefaultInterval);

  /// Parses an interval spec: "250us", "1ms", "2s", "500ns", or a plain
  /// number (microseconds).
  static Result<sim::SimTime> ParseInterval(const std::string& text);

  /// MGJ_SAMPLE_EVERY from the environment (kDefaultInterval when unset;
  /// a malformed value warns on stderr and falls back to the default).
  static sim::SimTime IntervalFromEnv();

  sim::SimTime interval() const { return interval_; }

  /// Registers a plain probe under `name` ("net.inflight_bytes").
  void AddProbe(std::string name, Probe probe);

  /// Registers a per-flow probe: `metric` names what is measured
  /// ("delivered_bytes"), `tag` attributes it. May be called after
  /// sampling started (dynamically admitted service queries register
  /// flows mid-run); the series then begins at the next tick.
  void AddFlowProbe(FlowTag tag, std::string metric, Probe probe);

  /// Installs the sampler as `sim`'s observer (one Attach per sampler)
  /// and registers the built-in simulator probes
  /// ("sim.event_queue_depth", "sim.arena_blocks").
  void Attach(sim::Simulator* sim);

  /// Takes one snapshot at time `t` now (the engine fires this when the
  /// last payload lands, so final totals are captured even off-grid).
  /// Ticks at or before the previous sample time are ignored.
  void SampleNow(sim::SimTime t);

  /// Snapshot ticks taken so far.
  std::size_t ticks() const { return ticks_; }

  struct Series {
    std::string name;    ///< export name; flow series get the tag suffix
    std::string metric;  ///< flow metric ("" for plain probes)
    FlowTag tag;         ///< meaningful only for flow series
    bool is_flow = false;
    Probe probe;
    TimeSeries data;
  };
  const std::vector<Series>& series() const { return series_; }

 private:
  sim::SimTime interval_;
  sim::Simulator* sim_ = nullptr;
  bool sampled_ = false;
  sim::SimTime last_sample_ = 0;
  std::size_t ticks_ = 0;
  std::vector<Series> series_;
};

}  // namespace mgjoin::obs

#endif  // MGJOIN_OBS_TELEMETRY_H_
