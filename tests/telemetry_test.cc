// Tests for the fabric telemetry subsystem (DESIGN.md Sec 14): the
// simulated-clock sampler and its observer contract, interval parsing,
// the OpenMetrics/CSV exporters with their lint/parse round trip, and
// the live per-link busy series.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/units.h"
#include "net/routing_policy.h"
#include "net/transfer_engine.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "sim/simulator.h"
#include "topo/presets.h"

namespace mgjoin::obs {
namespace {

// ---------------------------------------------------------------------------
// Interval parsing.

TEST(ParseIntervalTest, AcceptsEveryUnitAndBareMicroseconds) {
  EXPECT_EQ(TelemetrySampler::ParseInterval("250us").ValueOrDie(),
            250 * sim::kMicrosecond);
  EXPECT_EQ(TelemetrySampler::ParseInterval("1ms").ValueOrDie(),
            sim::kMillisecond);
  EXPECT_EQ(TelemetrySampler::ParseInterval("2s").ValueOrDie(),
            2 * sim::kSecond);
  EXPECT_EQ(TelemetrySampler::ParseInterval("500ns").ValueOrDie(),
            500 * (sim::kMicrosecond / 1000));
  // A bare number means microseconds.
  EXPECT_EQ(TelemetrySampler::ParseInterval("42").ValueOrDie(),
            42 * sim::kMicrosecond);
}

TEST(ParseIntervalTest, RejectsMalformedSpecs) {
  EXPECT_FALSE(TelemetrySampler::ParseInterval("").ok());
  EXPECT_FALSE(TelemetrySampler::ParseInterval("fast").ok());
  EXPECT_FALSE(TelemetrySampler::ParseInterval("10h").ok());
  EXPECT_FALSE(TelemetrySampler::ParseInterval("0ms").ok());
  EXPECT_FALSE(TelemetrySampler::ParseInterval("-5us").ok());
  // Would overflow SimTime.
  EXPECT_FALSE(
      TelemetrySampler::ParseInterval("99999999999999999999s").ok());
}

// ---------------------------------------------------------------------------
// FlowTag naming.

TEST(FlowTagTest, MetricComponentAndLabels) {
  FlowTag tag{7, "shuffle", 0, 3};
  EXPECT_EQ(tag.MetricComponent(), "q7.shuffle");
  EXPECT_EQ(tag.ToString(), "{query=7,phase=shuffle,src=0,dst=3}");
  // Unset phase falls back to "flow" so names stay well-formed.
  FlowTag bare;
  EXPECT_EQ(bare.MetricComponent(), "q0.flow");
}

// ---------------------------------------------------------------------------
// Sampler grid semantics.

TEST(TelemetrySamplerTest, SamplesOnGridWithGapElision) {
  sim::Simulator s;
  TelemetrySampler sampler(10 * sim::kMicrosecond);
  sampler.Attach(&s);
  std::uint64_t counter = 0;
  sampler.AddProbe("test.counter",
                   [&counter](sim::SimTime) { return counter; });

  s.ScheduleAt(5 * sim::kMicrosecond, [&counter] { counter = 1; });
  s.ScheduleAt(35 * sim::kMicrosecond, [&counter] { counter = 2; });
  s.ScheduleAt(40 * sim::kMicrosecond, [&counter] { counter = 3; });
  s.Run();

  // Grid points 10 and 30 fire before the 35 us event (interior points
  // 20 us elided: state is frozen between events, so the 30 us sample
  // already carries the whole gap); 40 fires before the 40 us event.
  const auto& series = sampler.series();
  ASSERT_EQ(series.size(), 3u);  // 2 built-in sim probes + test.counter
  const TimeSeries& data = series.back().data;
  ASSERT_EQ(data.samples().size(), 3u);
  EXPECT_EQ(data.samples()[0].t, 10 * sim::kMicrosecond);
  EXPECT_EQ(data.samples()[0].value, 1u);  // after the 5 us event
  EXPECT_EQ(data.samples()[1].t, 30 * sim::kMicrosecond);
  EXPECT_EQ(data.samples()[1].value, 1u);
  EXPECT_EQ(data.samples()[2].t, 40 * sim::kMicrosecond);
  EXPECT_EQ(data.samples()[2].value, 2u);  // before the 40 us event
  EXPECT_EQ(sampler.ticks(), 3u);
}

TEST(TelemetrySamplerTest, BoundedRunSamplesTheTail) {
  sim::Simulator s;
  TelemetrySampler sampler(10 * sim::kMicrosecond);
  sampler.Attach(&s);
  s.ScheduleAt(5 * sim::kMicrosecond, [] {});
  s.RunUntil(100 * sim::kMicrosecond);
  // Events stop at 5 us but the bounded run still observes the first
  // and last grid points of the idle tail (10 and 100 us).
  ASSERT_EQ(sampler.ticks(), 2u);
  const TimeSeries& data = sampler.series().front().data;
  EXPECT_EQ(data.samples().front().t, 10 * sim::kMicrosecond);
  EXPECT_EQ(data.samples().back().t, 100 * sim::kMicrosecond);
}

TEST(TelemetrySamplerTest, SampleNowDedupsByTimestamp) {
  TelemetrySampler sampler(sim::kMillisecond);
  std::uint64_t v = 1;
  sampler.AddProbe("v", [&v](sim::SimTime) { return v; });
  sampler.SampleNow(100);
  sampler.SampleNow(100);  // duplicate tick: ignored
  sampler.SampleNow(50);   // time went backwards: ignored
  v = 2;
  sampler.SampleNow(200);
  EXPECT_EQ(sampler.ticks(), 2u);
  const TimeSeries& data = sampler.series().front().data;
  ASSERT_EQ(data.samples().size(), 2u);
  EXPECT_EQ(data.samples()[0].value, 1u);
  EXPECT_EQ(data.samples()[1].value, 2u);
  EXPECT_EQ(data.last(), 2u);
}

TEST(TelemetrySamplerTest, ObserverDoesNotPerturbTheEventStream) {
  // The exact workload twice — with and without a sampler on a dense
  // grid. Event count and final clock must not move by one tick.
  auto run = [](TelemetrySampler* sampler) {
    sim::Simulator s;
    if (sampler != nullptr) sampler->Attach(&s);
    std::uint64_t remaining = 1000;
    std::function<void()> tick = [&] {
      if (--remaining > 0) s.Schedule(7 * sim::kMicrosecond, tick);
    };
    s.Schedule(1, tick);
    s.Run();
    return std::make_pair(s.events_processed(), s.Now());
  };
  const auto plain = run(nullptr);
  TelemetrySampler sampler(sim::kMicrosecond);
  const auto sampled = run(&sampler);
  EXPECT_GT(sampler.ticks(), 0u);
  EXPECT_EQ(sampled.first, plain.first);
  EXPECT_EQ(sampled.second, plain.second);
}

// ---------------------------------------------------------------------------
// OpenMetrics export, parse, lint.

TEST(OpenMetricsTest, ExportsRegistryAndSampledSeries) {
  MetricsRegistry metrics;
  metrics.counter("net.payload_bytes").Add(4096);
  metrics.gauge("net.ring_occupancy").Set(17);
  metrics.histogram("net.batch_packets").Observe(3);
  metrics.histogram("net.batch_packets").Observe(200);

  TelemetrySampler sampler(sim::kMillisecond);
  std::uint64_t inflight = 5;
  sampler.AddProbe("net.inflight_bytes",
                   [&inflight](sim::SimTime) { return inflight; });
  std::uint64_t delivered = 0;
  sampler.AddFlowProbe(FlowTag{7, "shuffle", 0, 3}, "delivered_bytes",
                       [&delivered](sim::SimTime) { return delivered; });
  sampler.SampleNow(sim::kMillisecond);
  delivered = 999;
  sampler.SampleNow(2 * sim::kMillisecond);

  const std::string om = OpenMetricsText(&metrics, &sampler);
  EXPECT_TRUE(LintOpenMetrics(om).ok());

  auto families = ParseOpenMetrics(om).ValueOrDie();
  bool saw_counter = false, saw_hist = false, saw_flow = false;
  for (const OmFamily& fam : families) {
    if (fam.name == "mgj_net_payload_bytes") {
      saw_counter = true;
      EXPECT_EQ(fam.type, "counter");
      ASSERT_EQ(fam.samples.size(), 1u);
      EXPECT_EQ(fam.samples[0].name, "mgj_net_payload_bytes_total");
      EXPECT_DOUBLE_EQ(fam.samples[0].value, 4096.0);
    }
    if (fam.name == "mgj_net_batch_packets") {
      saw_hist = true;
      EXPECT_EQ(fam.type, "histogram");
      double count = -1, sum = -1;
      for (const OmSample& s : fam.samples) {
        if (s.name == "mgj_net_batch_packets_count") count = s.value;
        if (s.name == "mgj_net_batch_packets_sum") sum = s.value;
      }
      EXPECT_DOUBLE_EQ(count, 2.0);
      EXPECT_DOUBLE_EQ(sum, 203.0);
    }
    if (fam.name == "mgj_sample_flow_delivered_bytes") {
      saw_flow = true;
      EXPECT_EQ(fam.type, "gauge");
      ASSERT_EQ(fam.samples.size(), 2u);
      EXPECT_NE(fam.samples[0].labels.find("query=\"7\""),
                std::string::npos);
      EXPECT_NE(fam.samples[0].labels.find("phase=\"shuffle\""),
                std::string::npos);
      EXPECT_TRUE(fam.samples[1].has_timestamp);
      EXPECT_DOUBLE_EQ(fam.samples[1].value, 999.0);
      // Timestamps are simulated seconds, nondecreasing.
      EXPECT_LT(fam.samples[0].timestamp, fam.samples[1].timestamp);
    }
  }
  EXPECT_TRUE(saw_counter);
  EXPECT_TRUE(saw_hist);
  EXPECT_TRUE(saw_flow);
}

TEST(OpenMetricsTest, MultiRunExportLabelsEachSampler) {
  TelemetrySampler a(sim::kMillisecond), b(sim::kMillisecond);
  a.AddProbe("net.inflight_bytes", [](sim::SimTime) { return 1ull; });
  b.AddProbe("net.inflight_bytes", [](sim::SimTime) { return 2ull; });
  a.SampleNow(sim::kMillisecond);
  b.SampleNow(sim::kMillisecond);
  const std::string om =
      OpenMetricsText(nullptr, std::vector<const TelemetrySampler*>{&a, &b});
  EXPECT_TRUE(LintOpenMetrics(om).ok());
  EXPECT_NE(om.find("run=\"0\""), std::string::npos);
  EXPECT_NE(om.find("run=\"1\""), std::string::npos);
  // Single-run export carries no run label.
  const std::string single = OpenMetricsText(nullptr, &a);
  EXPECT_EQ(single.find("run="), std::string::npos);
}

TEST(OpenMetricsTest, LintCatchesStructuralDamage) {
  MetricsRegistry metrics;
  metrics.counter("net.packets").Add(1);
  const std::string om = OpenMetricsText(&metrics, nullptr);

  // Missing # EOF.
  std::string truncated = om.substr(0, om.find("# EOF"));
  EXPECT_FALSE(LintOpenMetrics(truncated).ok());

  // Content after # EOF.
  EXPECT_FALSE(LintOpenMetrics(om + "mgj_extra 1\n").ok());

  // Sample without a TYPE declaration.
  EXPECT_FALSE(LintOpenMetrics("mgj_orphan_total 3\n# EOF\n").ok());

  // Counter sample missing the _total suffix.
  EXPECT_FALSE(
      LintOpenMetrics("# TYPE mgj_x counter\nmgj_x 3\n# EOF\n").ok());

  // Negative value on a counter.
  EXPECT_FALSE(
      LintOpenMetrics("# TYPE mgj_x counter\nmgj_x_total -3\n# EOF\n")
          .ok());

  // Timestamps must be nondecreasing per series.
  EXPECT_FALSE(LintOpenMetrics(
                   "# TYPE mgj_g gauge\nmgj_g 1 2.0\nmgj_g 2 1.0\n# EOF\n")
                   .ok());
  EXPECT_TRUE(LintOpenMetrics(
                  "# TYPE mgj_g gauge\nmgj_g 1 1.0\nmgj_g 2 2.0\n# EOF\n")
                  .ok());
}

TEST(OpenMetricsTest, HistogramBucketsUseInclusivePowerOfTwoBounds) {
  // Bucket b >= 1 holds (2^(b-1), 2^b], so 2 and 4 land under le="2" and
  // le="4" — not under smaller bounds.
  MetricsRegistry metrics;
  metrics.histogram("h").Observe(2);
  metrics.histogram("h").Observe(4);
  const std::string om = OpenMetricsText(&metrics, nullptr);
  EXPECT_TRUE(LintOpenMetrics(om).ok()) << om;
  EXPECT_NE(om.find("mgj_h_bucket{le=\"1\"} 0\n"), std::string::npos) << om;
  EXPECT_NE(om.find("mgj_h_bucket{le=\"2\"} 1\n"), std::string::npos) << om;
  EXPECT_NE(om.find("mgj_h_bucket{le=\"4\"} 2\n"), std::string::npos) << om;
  // Values above 2^63 have no finite uint64 bound: only +Inf holds them.
  metrics.histogram("big").Observe(~0ull);
  EXPECT_TRUE(LintOpenMetrics(OpenMetricsText(&metrics, nullptr)).ok());

  // The earlier 2^b - 1 bounds repeated le="1" and undercounted; the
  // lint now rejects that shape.
  const std::string old_bounds =
      "# TYPE mgj_h histogram\n"
      "mgj_h_bucket{le=\"1\"} 0\n"
      "mgj_h_bucket{le=\"1\"} 1\n"
      "mgj_h_bucket{le=\"3\"} 2\n"
      "mgj_h_bucket{le=\"+Inf\"} 2\n"
      "mgj_h_sum 6\n"
      "mgj_h_count 2\n"
      "# EOF\n";
  EXPECT_FALSE(LintOpenMetrics(old_bounds).ok());
}

TEST(OpenMetricsTest, LintChecksHistogramShape) {
  const auto hist = [](const std::string& buckets, int count) {
    return "# TYPE mgj_h histogram\n" + buckets + "mgj_h_sum 6\n" +
           "mgj_h_count " + std::to_string(count) + "\n# EOF\n";
  };
  EXPECT_TRUE(LintOpenMetrics(hist("mgj_h_bucket{le=\"2\"} 1\n"
                                   "mgj_h_bucket{le=\"+Inf\"} 2\n",
                                   2))
                  .ok());
  // Cumulative counts decrease.
  EXPECT_FALSE(LintOpenMetrics(hist("mgj_h_bucket{le=\"2\"} 2\n"
                                    "mgj_h_bucket{le=\"4\"} 1\n"
                                    "mgj_h_bucket{le=\"+Inf\"} 2\n",
                                    2))
                   .ok());
  // No +Inf bucket.
  EXPECT_FALSE(
      LintOpenMetrics(hist("mgj_h_bucket{le=\"2\"} 2\n", 2)).ok());
  // +Inf disagrees with _count.
  EXPECT_FALSE(LintOpenMetrics(hist("mgj_h_bucket{le=\"+Inf\"} 2\n", 3))
                   .ok());
  // A bucket without an le label.
  EXPECT_FALSE(LintOpenMetrics(hist("mgj_h_bucket 2\n"
                                    "mgj_h_bucket{le=\"+Inf\"} 2\n",
                                    2))
                   .ok());
}

// ---------------------------------------------------------------------------
// Live per-link series.

TEST(LinkTelemetryTest, BusySeriesIsTheBusyTimeUpToEachTick) {
  // An 8-GPU all-to-all books wire time far ahead of the clock; each
  // busy_ps sample must count only the busy time before its tick.
  sim::Simulator s;
  auto topo = topo::MakeDgx1V();
  auto policy = net::MakePolicy(net::PolicyKind::kAdaptive);
  TraceRecorder trace;
  TelemetrySampler sampler(100 * sim::kMicrosecond);
  net::TransferOptions opts;
  opts.obs.trace = &trace;
  opts.obs.telemetry = &sampler;
  net::TransferEngine eng(&s, topo.get(), topo::FirstNGpus(8), policy.get(),
                          opts);
  std::uint64_t id = 0;
  for (int a = 0; a < 8; ++a) {
    for (int b = 0; b < 8; ++b) {
      if (a != b) {
        eng.AddFlow(net::Flow{id++, a, b, 256 * kMiB, 0, 0.0, 0, {}});
      }
    }
  }
  eng.Start();
  s.Run();
  ASSERT_TRUE(eng.AllDone());

  std::map<std::string, sim::SimTime> booked;  // series name -> BusyTime
  for (int l = 0; l < topo->num_links(); ++l) {
    for (int dir = 0; dir < 2; ++dir) {
      booked["link." + topo->link(l).ToString() +
             (dir == 0 ? ".fwd" : ".rev") + ".busy_ps"] =
          eng.links().BusyTime({l, dir});
    }
  }
  std::size_t checked = 0;
  std::map<std::string, std::uint64_t> sampled;  // track name -> last
  for (const TelemetrySampler::Series& series : sampler.series()) {
    const auto it = booked.find(series.name);
    if (it == booked.end()) continue;
    TimeSeries::Sample prev;  // busy time is 0 at time 0
    for (const TimeSeries::Sample& cur : series.data.samples()) {
      ASSERT_GE(cur.value, prev.value) << series.name;
      ASSERT_LE(cur.value - prev.value, cur.t - prev.t)
          << series.name << " at " << cur.t;
      prev = cur;
    }
    EXPECT_EQ(series.data.last(), it->second) << series.name;
    sampled[series.name.substr(0, series.name.rfind(".busy_ps"))] =
        series.data.last();
    ++checked;
  }
  EXPECT_EQ(checked, booked.size());

  // The offline view rebuilt from the trace's xfer spans agrees.
  const report::RunReport rep =
      report::BuildRunReport(trace.ExportEvents());
  ASSERT_FALSE(rep.congestion.links.empty());
  std::uint64_t trace_busy = 0;
  std::uint64_t series_busy = 0;
  for (const report::LinkReport& link : rep.congestion.links) {
    ASSERT_EQ(sampled.count(link.name), 1u) << link.name;
    EXPECT_EQ(sampled[link.name], link.busy) << link.name;
    trace_busy += link.busy;
  }
  for (const auto& [name, busy] : sampled) series_busy += busy;
  EXPECT_EQ(series_busy, trace_busy);
}

TEST(TelemetryCsvTest, EmitsFlowColumnsAndPlainRows) {
  TelemetrySampler sampler(sim::kMillisecond);
  sampler.AddProbe("net.inflight_bytes",
                   [](sim::SimTime) { return 11ull; });
  sampler.AddFlowProbe(FlowTag{3, "shuffle", 1, 2}, "delivered_bytes",
                       [](sim::SimTime) { return 22ull; });
  sampler.SampleNow(sim::kMillisecond);
  const std::string csv = TelemetryCsv(sampler);
  EXPECT_NE(csv.find("name,metric,query,phase,src,dst,time_ps,value"),
            std::string::npos);
  // Plain series: flow columns empty.
  EXPECT_NE(csv.find("net.inflight_bytes,,,,,,1000000000,11"),
            std::string::npos);
  // Flow series: metric + attribution columns filled.
  EXPECT_NE(csv.find("delivered_bytes,3,shuffle,1,2,1000000000,22"),
            std::string::npos);
}

}  // namespace
}  // namespace mgjoin::obs
