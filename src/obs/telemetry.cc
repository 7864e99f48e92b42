#include "obs/telemetry.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/logging.h"
#include "sim/sim_time.h"

namespace mgjoin::obs {

std::string FlowTag::MetricComponent() const {
  return "q" + std::to_string(query_id) + "." +
         (phase.empty() ? "flow" : phase);
}

std::string FlowTag::ToString() const {
  return "{query=" + std::to_string(query_id) + ",phase=" +
         (phase.empty() ? "flow" : phase) + ",src=" + std::to_string(src) +
         ",dst=" + std::to_string(dst) + "}";
}

TelemetrySampler::TelemetrySampler(sim::SimTime interval)
    : interval_(interval) {
  MGJ_CHECK(interval_ > 0) << "sample interval must be positive";
}

Result<sim::SimTime> TelemetrySampler::ParseInterval(
    const std::string& text) {
  if (text.empty()) {
    return Status::InvalidArgument("empty sample interval");
  }
  const char* begin = text.c_str();
  char* end = nullptr;
  errno = 0;
  const unsigned long long n = std::strtoull(begin, &end, 10);
  if (end == begin || errno == ERANGE) {
    return Status::InvalidArgument("bad sample interval: " + text);
  }
  const std::string unit(end);
  sim::SimTime per = 0;
  if (unit.empty() || unit == "us") {
    per = sim::kMicrosecond;
  } else if (unit == "ns") {
    per = sim::kMicrosecond / 1000;
  } else if (unit == "ms") {
    per = sim::kMillisecond;
  } else if (unit == "s") {
    per = sim::kSecond;
  } else {
    return Status::InvalidArgument("bad sample interval unit '" + unit +
                                   "' (want ns/us/ms/s): " + text);
  }
  if (n == 0 || n > sim::kSimTimeMax / per) {
    return Status::InvalidArgument("sample interval out of range: " + text);
  }
  return static_cast<sim::SimTime>(n) * per;
}

sim::SimTime TelemetrySampler::IntervalFromEnv() {
  const char* env = std::getenv("MGJ_SAMPLE_EVERY");
  if (env == nullptr || *env == '\0') return kDefaultInterval;
  Result<sim::SimTime> parsed = ParseInterval(env);
  if (!parsed.ok()) {
    std::fprintf(stderr,
                 "mgjoin: ignoring MGJ_SAMPLE_EVERY: %s\n",
                 parsed.status().message().c_str());
    return kDefaultInterval;
  }
  return parsed.value();
}

void TelemetrySampler::AddProbe(std::string name, Probe probe) {
  MGJ_CHECK(!sampled_) << "probe registered after sampling started: "
                       << name;
  Series s;
  s.name = std::move(name);
  s.probe = std::move(probe);
  series_.push_back(std::move(s));
}

void TelemetrySampler::AddFlowProbe(FlowTag tag, std::string metric,
                                    Probe probe) {
  // Unlike plain probes, flow probes may arrive mid-run: the service
  // scheduler admits queries dynamically, registering their flows after
  // sampling started. A late series simply begins at the next tick —
  // every series carries its own timestamps, so exporters cope, and
  // registration rides the (deterministic) event order.
  Series s;
  s.name = "flow." + metric + tag.ToString();
  s.metric = std::move(metric);
  s.tag = std::move(tag);
  s.is_flow = true;
  s.probe = std::move(probe);
  series_.push_back(std::move(s));
}

void TelemetrySampler::Attach(sim::Simulator* sim) {
  MGJ_CHECK(sim != nullptr);
  MGJ_CHECK(sim_ == nullptr) << "sampler attached twice";
  sim_ = sim;
  AddProbe("sim.event_queue_depth", [sim](sim::SimTime) {
    return static_cast<std::uint64_t>(sim->queue_size());
  });
  AddProbe("sim.arena_blocks", [sim](sim::SimTime) {
    return static_cast<std::uint64_t>(sim->arena_blocks_allocated());
  });
  sim->SetObserver(interval_,
                   [this](sim::SimTime t) { SampleNow(t); });
}

void TelemetrySampler::SampleNow(sim::SimTime t) {
  if (sampled_ && t <= last_sample_) return;
  sampled_ = true;
  last_sample_ = t;
  ++ticks_;
  for (Series& s : series_) s.data.Record(t, s.probe(t));
}

}  // namespace mgjoin::obs
