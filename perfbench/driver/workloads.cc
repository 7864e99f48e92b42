#include "driver/workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <utility>

#include "data/generator.h"
#include "gpusim/kernel_model.h"
#include "join/histogram.h"
#include "join/local_join.h"
#include "join/mg_join.h"
#include "join/partition_assignment.h"
#include "join/shuffle.h"
#include "net/routing_policy.h"
#include "net/transfer_engine.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "sim/simulator.h"
#include "svc/service.h"
#include "topo/presets.h"

namespace perfbench {
namespace {

namespace data = mgjoin::data;
namespace join = mgjoin::join;
namespace net = mgjoin::net;
namespace obs = mgjoin::obs;
namespace sim = mgjoin::sim;
namespace svc = mgjoin::svc;
namespace topo = mgjoin::topo;

using Clock = std::chrono::steady_clock;

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

constexpr int kGpus = 8;
constexpr int kServeQueries = 16;
// Tenant sets a timed serve_fair run rotates over (seed-derived). The
// run time of a set varies by up to half between sets, so a run takes
// the median over many.
constexpr int kServeSpecSets = 12;
constexpr std::uint64_t kServeTuplesPerGpu = 8192;
constexpr double kServeScale = 1024;
constexpr sim::SimTime kServeSampleEvery = sim::kMillisecond;

/// Parameters of the two join workloads (README.md, "Workloads").
struct JoinShape {
  double virtual_scale;
  double key_zipf;
  double placement_zipf;
  /// Sizes are kept small enough for the input and its copies to stay
  /// near the last-level cache: at 2^20 tuples/GPU host_join is
  /// memory-bound and its time drifts with the load of a shared host.
  std::uint64_t tuples_per_gpu;
  /// Distinct inputs every timed run covers, each for an equal share of
  /// the run and at least once. paper_join's host time varies by a
  /// quarter or more between inputs (adaptive routing re-polls a
  /// seed-dependent number of times), so it takes the median over many
  /// cheap inputs; host_join's barely varies.
  int inputs;
};

JoinShape ShapeOf(const std::string& workload) {
  if (workload == "paper_join") return {1024, 0.0, 0.0, 1 << 17, 80};
  return {1, 1.0, 0.5, 1 << 18, 8};  // host_join
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Describes the join_s samples: count, and the tail as the highest
/// percentile with at least ten samples beyond it (the 11th-largest
/// sample). Below 11 samples no percentile qualifies; the samples are
/// then listed in run order. Printed, not reported as a metric: with a
/// handful of samples per run (paper_join) the tail cannot be held to a
/// bound.
std::string TailNote(std::vector<double> v) {
  std::string note = "join_s samples: " + std::to_string(v.size());
  if (v.size() < 11) {
    note += ", too few for a tail with 10 beyond it:";
    for (double x : v) note += " " + std::to_string(x);
    return note;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  char buf[128];
  std::snprintf(buf, sizeof(buf), ", tail p%.1f = %.6f s (10 beyond it)",
                100.0 * static_cast<double>(n - 10) / static_cast<double>(n),
                v[n - 11]);
  return note + buf;
}

double PeakRssMiB() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Ms(sim::SimTime t) { return sim::ToSeconds(t) * 1e3; }

// Rounded like join/mg_join.cc: volumes at the virtual scale.
std::uint64_t Scale(std::uint64_t n, double s) {
  return static_cast<std::uint64_t>(
      std::llround(static_cast<double>(n) * s));
}

/// Every simulated output of a run that must repeat exactly: the
/// network stats plus the caller's simulated times.
std::string StatsFingerprint(const net::TransferStats& st) {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "first=%llu last=%llu payload=%llu wire=%llu packets=%llu "
      "hops=%llu batches=%llu syncs=%llu escapes=%llu freroutes=%llu "
      "faborts=%llu fwaits=%llu paces=%llu ctrl=%llu",
      static_cast<unsigned long long>(st.first_available),
      static_cast<unsigned long long>(st.last_delivery),
      static_cast<unsigned long long>(st.payload_bytes),
      static_cast<unsigned long long>(st.wire_bytes),
      static_cast<unsigned long long>(st.packets),
      static_cast<unsigned long long>(st.packet_hops),
      static_cast<unsigned long long>(st.batches),
      static_cast<unsigned long long>(st.ring_syncs),
      static_cast<unsigned long long>(st.escapes),
      static_cast<unsigned long long>(st.fault_reroutes),
      static_cast<unsigned long long>(st.fault_aborts),
      static_cast<unsigned long long>(st.fault_waits),
      static_cast<unsigned long long>(st.arb_paces),
      static_cast<unsigned long long>(st.control_overhead));
  return buf;
}

std::string JoinFingerprint(const join::JoinResult& res) {
  const join::JoinBreakdown& t = res.timing;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                " hist=%llu gp=%llu dist=%llu exposed=%llu lp=%llu "
                "probe=%llu total=%llu shuffled=%llu uncompressed=%llu",
                static_cast<unsigned long long>(t.histogram),
                static_cast<unsigned long long>(t.global_partition),
                static_cast<unsigned long long>(t.distribution),
                static_cast<unsigned long long>(t.distribution_exposed),
                static_cast<unsigned long long>(t.local_partition),
                static_cast<unsigned long long>(t.probe),
                static_cast<unsigned long long>(t.total),
                static_cast<unsigned long long>(res.shuffled_bytes),
                static_cast<unsigned long long>(res.uncompressed_bytes));
  return StatsFingerprint(res.net) + buf;
}

/// Counts failures of the correctness gate and keeps the first few
/// reasons for the notes.
struct Gate {
  RunOutcome* out;

  void Check(bool ok, const std::string& what) {
    ++out->attempted;
    if (ok) return;
    ++out->failed;
    if (out->failed <= 5) out->notes.push_back("FAILED: " + what);
  }
};

// ------------------------------------------------------------------
// Join workloads (paper_join, host_join).

/// Seed of a run's `i`-th input: input 0 is the workload seed itself,
/// later ones are spaced so that the inputs of runs with nearby seeds
/// never coincide.
std::uint64_t InputSeed(std::uint64_t seed, int i) {
  return seed + static_cast<std::uint64_t>(i) * 1000003;
}

/// What a join call needs before it can run: the set-up that setup_s
/// times.
struct JoinInput {
  std::unique_ptr<topo::Topology> topo;
  data::DistRelation r, s;
};

JoinInput SetUpJoin(const RunConfig& cfg, int input) {
  const JoinShape shape = ShapeOf(cfg.workload);
  data::GenOptions gen;
  gen.tuples_per_relation = shape.tuples_per_gpu * kGpus;
  gen.num_gpus = kGpus;
  gen.placement_zipf = shape.placement_zipf;
  gen.key_zipf = shape.key_zipf;
  gen.seed = InputSeed(cfg.seed, input);
  JoinInput in;
  in.topo = topo::MakeDgx1V();
  auto [r, s] = data::MakeJoinInput(gen);
  in.r = std::move(r);
  in.s = std::move(s);
  return in;
}

join::MgJoinOptions JoinOptions(const RunConfig& cfg) {
  join::MgJoinOptions opts;  // adaptive routing, FIFO, no sinks
  opts.virtual_scale = ShapeOf(cfg.workload).virtual_scale;
  opts.host_threads = cfg.host_threads;
  return opts;
}

/// MgJoin::Execute rebuilt from the layers' public calls with a span
/// around each call. It must reproduce Execute's result exactly; the
/// traced run checks that it does.
struct ComposedJoin {
  join::JoinResult result;
  std::uint64_t events = 0;
  std::uint64_t route_calls = 0;
  double route_s = 0;
  std::uint32_t split_partitions = 0;
  std::uint64_t moved_tuples = 0;
  int local_max_depth = 0;
};

ComposedJoin ComposeJoin(const topo::Topology& topology,
                         const std::vector<int>& gpus,
                         const join::MgJoinOptions& o,
                         const data::DistRelation& r,
                         const data::DistRelation& s, SpanLog* log,
                         int run) {
  ScopedSpan root(log, "join.compose", -1, run);
  const int g = static_cast<int>(gpus.size());
  const double vs = o.virtual_scale;
  const mgjoin::gpusim::KernelModel kernels(o.gpu);
  ComposedJoin c;
  join::JoinResult& res = c.result;
  res.input_tuples = r.TotalTuples() + s.TotalTuples();
  res.virtual_input_tuples = Scale(res.input_tuples, vs);

  const int radix_bits = o.radix_bits_override > 0
                             ? o.radix_bits_override
                             : join::RadixBitsFor(o.gpu, r.domain_bits);
  join::HistogramSet hist_r, hist_s;
  {
    ScopedSpan sp(log, "join.histogram", root.id(), run);
    hist_r = join::BuildHistograms(r, radix_bits);
  }
  {
    ScopedSpan sp(log, "join.histogram", root.id(), run);
    hist_s = join::BuildHistograms(s, radix_bits);
  }
  sim::SimTime hist_end = 0;
  std::vector<sim::SimTime> gp_time(g, 0);
  for (int d = 0; d < g; ++d) {
    const std::uint64_t n =
        Scale(r.shards[d].size() + s.shards[d].size(), vs);
    hist_end =
        std::max(hist_end, kernels.HistogramTime(n, data::kTupleBytes));
    gp_time[d] = kernels.PartitionPassTime(n, data::kTupleBytes);
  }
  res.timing.histogram = hist_end;

  join::AssignmentOptions aopts;
  aopts.strategy = o.assignment;
  aopts.heavy_hitter_factor = o.heavy_hitter_factor;
  aopts.packet_bytes = o.transfer.packet_bytes;
  join::PartitionAssignment assignment;
  {
    ScopedSpan sp(log, "join.assign", root.id(), run);
    assignment =
        join::ComputeAssignment(topology, gpus, hist_r, hist_s, aopts);
  }
  c.split_partitions = assignment.split_partitions;

  join::ShuffleOptions sopts;
  sopts.use_compression = o.use_compression;
  sopts.virtual_scale = vs;
  join::ShuffleResult shuffle;
  {
    ScopedSpan sp(log, "join.shuffle", root.id(), run);
    shuffle =
        join::ShufflePartitions(r, s, radix_bits, assignment, gpus, sopts);
  }
  c.moved_tuples = shuffle.moved_tuples;
  res.shuffled_bytes = Scale(shuffle.compressed_bytes, vs);
  res.uncompressed_bytes = Scale(shuffle.uncompressed_bytes, vs);

  std::vector<int> dense(topology.num_gpus(), -1);
  for (int d = 0; d < g; ++d) dense[gpus[d]] = d;
  std::vector<sim::SimTime> last_arrival(g, 0);
  {
    ScopedSpan sp(log, "net.simulate", root.id(), run);
    sim::Simulator net_sim(sim::QueueKind::kCalendar);
    auto inner = net::MakePolicy(o.policy, o.transfer.max_intermediates);
    CountingPolicy policy(inner.get(), topology.num_gpus(), gpus);
    net::TransferEngine engine(&net_sim, &topology, gpus, &policy,
                               o.transfer);
    engine.set_deliver_callback(
        [&](const net::Packet& p, sim::SimTime when) {
          sim::SimTime& at = last_arrival[dense[p.final_dst()]];
          at = std::max(at, when);
        });
    for (net::Flow f : shuffle.flows) {
      const int src_dense = dense[f.src_gpu];
      f.tag.query_id = o.query_id;
      f.tag.phase = "shuffle";
      if (o.overlap) {
        f.available_at = hist_end;
        f.generation_rate =
            static_cast<double>(f.bytes) /
            std::max(1e-9, sim::ToSeconds(gp_time[src_dense]));
      } else {
        f.available_at = hist_end + gp_time[src_dense];
        f.generation_rate = 0.0;
      }
      engine.AddFlow(f);
    }
    engine.Start();
    net_sim.Run();
    res.net = engine.stats();
    c.events = net_sim.events_processed();
    c.route_calls = policy.calls();
    c.route_s = policy.busy_seconds();
    log->AddAggregate("net.route", sp.id(), c.route_calls, c.route_s);
  }
  const sim::SimTime dist_end =
      shuffle.flows.empty() ? hist_end : res.net.last_delivery;
  res.timing.distribution = dist_end > hist_end ? dist_end - hist_end : 0;
  res.timing.global_partition =
      *std::max_element(gp_time.begin(), gp_time.end());

  sim::SimTime join_end = hist_end;
  sim::SimTime nodist_end = hist_end;
  sim::SimTime lp_max = 0, probe_max = 0;
  const sim::SimTime residual = kernels.PartitionPassTime(
      o.transfer.packet_bytes / data::kTupleBytes, data::kTupleBytes);
  for (int d = 0; d < g; ++d) {
    std::uint64_t pass_tuples = 0;
    std::uint64_t recv_r = 0, recv_s = 0;
    for (std::size_t p = 0; p < shuffle.r_recv[d].size(); ++p) {
      const std::uint64_t rv = Scale(shuffle.r_recv[d][p].size(), vs);
      const std::uint64_t sv = Scale(shuffle.s_recv[d][p].size(), vs);
      recv_r += rv;
      recv_s += sv;
      const std::uint64_t small_side = std::min(rv, sv);
      if (small_side == 0) continue;
      int depth = 0;
      double remaining = static_cast<double>(small_side);
      while (remaining > static_cast<double>(o.local.shared_mem_tuples) &&
             depth < o.local.max_depth) {
        ++depth;
        remaining /= static_cast<double>(1u << o.local.bits_per_pass);
      }
      pass_tuples += (rv + sv) * static_cast<std::uint64_t>(depth);
    }
    join::LocalJoinStats stats;
    {
      ScopedSpan sp(log, "join.local", root.id(), run);
      join::LocalJoinOptions lopts = o.local;
      lopts.materialize_pairs = o.materialize_pairs;
      stats = join::LocalPartitionAndProbe(&shuffle.r_recv[d],
                                           &shuffle.s_recv[d], lopts);
    }
    res.matches += stats.matches;
    res.checksum += stats.checksum;
    c.local_max_depth = std::max(c.local_max_depth, stats.max_depth);

    const sim::SimTime lp_t =
        kernels.PartitionPassTime(pass_tuples, data::kTupleBytes);
    const sim::SimTime probe_t = kernels.ProbeTime(
        recv_r, recv_s, Scale(stats.matches, vs), data::kTupleBytes);
    lp_max = std::max(lp_max, lp_t);
    probe_max = std::max(probe_max, probe_t);
    const sim::SimTime compute_end = hist_end + gp_time[d] + lp_t;
    sim::SimTime probe_start;
    if (o.overlap) {
      const sim::SimTime data_end =
          last_arrival[d] == 0 ? compute_end : last_arrival[d] + residual;
      probe_start = std::max(compute_end, data_end);
    } else {
      probe_start = std::max(dist_end, hist_end + gp_time[d]) + lp_t;
    }
    join_end = std::max(join_end, probe_start + probe_t);
    nodist_end = std::max(nodist_end, compute_end + probe_t);
  }
  res.timing.local_partition = lp_max;
  res.timing.probe = probe_max;
  res.timing.total = join_end;
  res.timing.distribution_exposed =
      join_end > nodist_end ? join_end - nodist_end : 0;
  return c;
}

RunOutcome RunJoinTimed(const RunConfig& cfg) {
  RunOutcome out;
  Gate gate{&out};
  const int inputs = ShapeOf(cfg.workload).inputs;
  // join_s is the median over inputs of each input's median call, so
  // that an input which fits more calls into its share weighs no more.
  std::vector<double> setup_s, calls_s, input_join_s, sim_ms;
  const auto start = Clock::now();
  const auto share = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(cfg.seconds / inputs));
  for (int i = 0; i < inputs; ++i) {
    // Set-up, then the oracle outside any timed region, then the join
    // until this input's share of the run is used. Input 0 runs at
    // least twice so that repeatability is always checked. Each input
    // is released before the next is built: peak memory is one input's.
    const auto t0 = Clock::now();
    const JoinInput in = SetUpJoin(cfg, i);
    setup_s.push_back(Since(t0));
    const join::LocalJoinStats oracle = join::ReferenceJoin(in.r, in.s);
    const join::MgJoin mg(in.topo.get(), topo::FirstNGpus(kGpus),
                          JoinOptions(cfg));
    std::string first;
    std::vector<double> join_s;
    do {
      const auto t1 = Clock::now();
      auto res = mg.Execute(in.r, in.s);
      join_s.push_back(Since(t1));
      if (!res.ok()) {
        gate.Check(false, "Execute: " + res.status().ToString());
        continue;
      }
      const join::JoinResult& jr = res.value();
      gate.Check(jr.matches == oracle.matches &&
                     jr.checksum == oracle.checksum,
                 "matches/checksum differ from ReferenceJoin");
      const std::string fp = JoinFingerprint(jr);
      if (first.empty()) {
        first = fp;
        sim_ms.push_back(Ms(jr.timing.total));
      }
      gate.Check(fp == first,
                 "simulated results differ from the input's first run");
    } while (Clock::now() < start + share * (i + 1) ||
             join_s.size() < (i == 0 ? 2u : 1u));
    input_join_s.push_back(Median(join_s));
    calls_s.insert(calls_s.end(), join_s.begin(), join_s.end());
  }

  out.notes.push_back(TailNote(calls_s));
  char buf[128];
  std::snprintf(buf, sizeof(buf), "%d inputs, %zu joins", inputs,
                calls_s.size());
  out.notes.push_back(buf);
  // Medians over the run's inputs, which depend on the seed alone. A
  // single query's latency is also its p95 and its makespan.
  const double sim = Median(sim_ms);
  out.metrics = {
      {"setup_s", Median(setup_s), "s"},
      {"join_s", Median(input_join_s), "s"},
      {"peak_rss_mb", PeakRssMiB(), "MiB"},
      {"sim_join_ms", sim, "sim_ms"},
      {"sim_p95_ms", sim, "sim_ms"},
      {"sim_makespan_ms", sim, "sim_ms"},
  };
  return out;
}

RunOutcome RunJoinTraced(const RunConfig& cfg, SpanLog* log) {
  RunOutcome out;
  Gate gate{&out};
  const int gen_span = log->Begin("data.generate", -1, 0);
  const JoinInput js = SetUpJoin(cfg, 0);
  log->End(gen_span);
  const int oracle_span = log->Begin("oracle.reference", -1, 0);
  const join::LocalJoinStats oracle = join::ReferenceJoin(js.r, js.s);
  log->End(oracle_span);

  const std::vector<int> gpus = topo::FirstNGpus(kGpus);
  const join::MgJoin mg(js.topo.get(), gpus, JoinOptions(cfg));
  std::vector<double> execute_s, compose_s;
  std::vector<std::vector<double>> layer_s(5);
  static const char* const kLayers[] = {"join.histogram", "join.assign",
                                        "join.shuffle", "net.simulate",
                                        "join.local"};
  std::vector<double> route_s;
  ComposedJoin last;
  const auto loop_start = Clock::now();
  for (int run = 0; run == 0 || Since(loop_start) < cfg.seconds; ++run) {
    // Untraced system call first, then the traced composition of the
    // same layers, alternating so drift hits both alike.
    const int span = log->Begin("join.execute", -1, run);
    auto res = mg.Execute(js.r, js.s);
    log->End(span);
    execute_s.push_back(log->Total("join.execute", run));
    if (!res.ok()) {
      gate.Check(false, "Execute: " + res.status().ToString());
      continue;
    }
    const join::JoinResult& ref = res.value();
    gate.Check(ref.matches == oracle.matches &&
                   ref.checksum == oracle.checksum,
               "matches/checksum differ from ReferenceJoin");

    last = ComposeJoin(*js.topo, gpus, mg.options(), js.r, js.s, log, run);
    const join::JoinResult& c = last.result;
    // The fingerprint covers every TransferStats field (packets and
    // last_delivery included) and the simulated breakdown.
    gate.Check(c.matches == ref.matches && c.checksum == ref.checksum &&
                   JoinFingerprint(c) == JoinFingerprint(ref),
               "traced composition differs from MgJoin::Execute");
    compose_s.push_back(log->Total("join.compose", run));
    for (int l = 0; l < 5; ++l) {
      layer_s[l].push_back(log->Total(kLayers[l], run));
    }
    route_s.push_back(last.route_s);
  }

  const double join_s = Median(execute_s);
  double layers_sum = 0;
  std::vector<double> med(5);
  for (int l = 0; l < 5; ++l) {
    med[l] = Median(layer_s[l]);
    layers_sum += med[l];
  }
  const net::TransferStats& st = last.result.net;
  const double packets = static_cast<double>(std::max<std::uint64_t>(
      st.packets, 1));
  const double simulate_s = med[3];
  const double route = Median(route_s);
  const double engine_s = simulate_s - route;
  out.metrics = {
      {"data.generate_s", log->Total("data.generate", 0), "s"},
      {"join.histogram_s", med[0], "s"},
      {"join.assign_s", med[1], "s"},
      {"join.shuffle_s", med[2], "s"},
      {"join.local_s", med[4], "s"},
      {"join.unattributed_s", join_s - layers_sum, "s"},
      {"join.split_partitions",
       static_cast<double>(last.split_partitions), "count"},
      {"join.moved_tuples", static_cast<double>(last.moved_tuples),
       "count"},
      {"join.compression_ratio", last.result.CompressionRatio(), "ratio"},
      {"join.local_max_depth", static_cast<double>(last.local_max_depth),
       "count"},
      {"net.simulate_s", simulate_s, "s"},
      {"net.route_s", route, "s"},
      {"net.engine_s", engine_s, "s"},
      {"net.route_calls", static_cast<double>(last.route_calls), "count"},
      {"net.route_yield",
       last.route_calls == 0 ? 0.0
                             : static_cast<double>(st.batches) /
                                   static_cast<double>(last.route_calls),
       "ratio"},
      {"net.host_us_per_event",
       last.events == 0 ? 0.0
                        : engine_s * 1e6 / static_cast<double>(last.events),
       "us/event"},
      {"sim.events", static_cast<double>(last.events), "count"},
      {"sim.events_per_packet", static_cast<double>(last.events) / packets,
       "events/packet"},
      {"net.packets", static_cast<double>(st.packets), "count"},
      {"net.batches", static_cast<double>(st.batches), "count"},
      {"net.ring_syncs", static_cast<double>(st.ring_syncs), "count"},
      {"net.ring_syncs_per_packet",
       static_cast<double>(st.ring_syncs) / packets, "syncs/packet"},
      {"net.escapes", static_cast<double>(st.escapes), "count"},
      {"net.arb_paces", static_cast<double>(st.arb_paces), "count"},
      // No observability sinks and no scheduler on the join workloads.
      {"obs.overhead_s", 0.0, "s"},
      {"obs.export_s", 0.0, "s"},
      {"obs.samples", 0.0, "count"},
      {"svc.prepare_s", 0.0, "s"},
      {"svc.fabric_s", 0.0, "s"},
      {"oracle.reference_s", log->Total("oracle.reference", 0), "s"},
      {"bench.trace_overhead_s", Median(compose_s) - join_s, "s"},
  };
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "traced run: %zu untraced Execute + %zu traced "
                "compositions; join_s %.4f s",
                execute_s.size(), compose_s.size(), join_s);
  out.notes.push_back(buf);
  return out;
}

// ------------------------------------------------------------------
// serve_fair: 16 tenants on one fabric under fair-share arbitration.

std::vector<svc::QuerySpec> ServeSpecs(std::uint64_t seed) {
  std::vector<svc::QuerySpec> specs;
  for (int q = 0; q < kServeQueries; ++q) {
    svc::QuerySpec qs;
    qs.query_id = static_cast<std::uint64_t>(q + 1);
    qs.gen.tuples_per_relation = kServeTuplesPerGpu * kGpus;
    qs.gen.num_gpus = kGpus;
    qs.gen.seed = seed + static_cast<std::uint64_t>(q);
    qs.priority = q % 3;
    qs.submit_at = 0;
    specs.push_back(qs);
  }
  return specs;
}

svc::ServiceOptions ServeOptions(const RunConfig& cfg) {
  svc::ServiceOptions opts;
  opts.join.virtual_scale = kServeScale;
  opts.join.host_threads = cfg.host_threads;
  opts.inflight_limit = 0;
  opts.arbitration = net::ArbitrationKind::kFairShare;
  opts.measure_solo = true;
  return opts;
}

/// The per-query ReferenceJoin oracle, summed like ServiceResult.
struct ServeOracle {
  std::uint64_t matches = 0;
  std::uint64_t checksum = 0;
};

ServeOracle ServeReference(const std::vector<svc::QuerySpec>& specs) {
  ServeOracle o;
  for (const svc::QuerySpec& q : specs) {
    auto [r, s] = data::MakeJoinInput(q.gen);
    const join::LocalJoinStats st = join::ReferenceJoin(r, s);
    o.matches += st.matches;
    o.checksum += st.checksum;
  }
  return o;
}

std::string ServeFingerprint(const svc::ServiceResult& res) {
  return StatsFingerprint(res.net) + "\n" + res.tenancy.ToText();
}

/// One QueryScheduler::Run. With `sinks`, a fresh metrics registry and
/// a 1 ms telemetry sampler are attached (the workload's configuration);
/// they are handed back through `metrics`/`telemetry` for export.
struct ServeRun {
  mgjoin::Result<svc::ServiceResult> result =
      mgjoin::Status::InvalidArgument("not run");
  double seconds = 0;
  std::unique_ptr<obs::MetricsRegistry> metrics;
  std::unique_ptr<obs::TelemetrySampler> telemetry;
};

ServeRun RunServe(const topo::Topology* topology, const RunConfig& cfg,
                  const std::vector<svc::QuerySpec>& specs, bool sinks) {
  ServeRun run;
  svc::ServiceOptions opts = ServeOptions(cfg);
  if (sinks) {
    run.metrics = std::make_unique<obs::MetricsRegistry>();
    run.telemetry = std::make_unique<obs::TelemetrySampler>(kServeSampleEvery);
    opts.join.transfer.obs.metrics = run.metrics.get();
    opts.join.transfer.obs.telemetry = run.telemetry.get();
  }
  const svc::QueryScheduler sched(topology, topo::FirstNGpus(kGpus), opts);
  const auto t0 = Clock::now();
  run.result = sched.Run(specs);
  run.seconds = Since(t0);
  return run;
}

void CheckServe(Gate* gate, const ServeRun& run, const ServeOracle& oracle,
                std::string* first) {
  if (!run.result.ok()) {
    gate->Check(false, "QueryScheduler::Run: " +
                           run.result.status().ToString());
    return;
  }
  const svc::ServiceResult& res = run.result.value();
  gate->Check(res.total_matches == oracle.matches &&
                  res.checksum == oracle.checksum,
              "matches/checksum differ from ReferenceJoin");
  const std::string fp = ServeFingerprint(res);
  if (first->empty()) *first = fp;
  gate->Check(fp == *first, "simulated results differ from the first run");
}

RunOutcome RunServeTimed(const RunConfig& cfg) {
  RunOutcome out;
  Gate gate{&out};
  // Set-up is tiny here (generation happens inside Run), so it is
  // repeated many times for a steady median.
  std::vector<double> setup_s;
  std::unique_ptr<topo::Topology> topology;
  std::vector<std::vector<svc::QuerySpec>> sets(kServeSpecSets);
  for (int rep = 0; rep < 200; ++rep) {
    const auto t0 = Clock::now();
    topology = topo::MakeDgx1V();
    for (int i = 0; i < kServeSpecSets; ++i) {
      sets[i] = ServeSpecs(InputSeed(cfg.seed, i));
    }
    setup_s.push_back(Since(t0));
  }
  std::vector<ServeOracle> oracles;
  for (const auto& specs : sets) oracles.push_back(ServeReference(specs));

  // Runs rotate over the spec sets; every set runs at least once, so
  // the simulated metrics (medians over the sets) depend on the seed
  // alone. join_s is the median over sets of each set's median run.
  std::vector<double> calls_s, p50, p95, makespan;
  std::vector<std::vector<double>> set_s(kServeSpecSets);
  std::vector<std::string> first(kServeSpecSets);
  const auto loop_start = Clock::now();
  for (int j = 0; j < kServeSpecSets || Since(loop_start) < cfg.seconds;
       ++j) {
    const int i = j % kServeSpecSets;
    const ServeRun run = RunServe(topology.get(), cfg, sets[i], true);
    set_s[i].push_back(run.seconds);
    calls_s.push_back(run.seconds);
    const bool first_of_set = first[i].empty();
    CheckServe(&gate, run, oracles[i], &first[i]);
    if (first_of_set && run.result.ok()) {
      const obs::report::TenancyReport& t = run.result.value().tenancy;
      p50.push_back(static_cast<double>(t.slo.p50_ns) / 1e6);
      p95.push_back(static_cast<double>(t.slo.p95_ns) / 1e6);
      makespan.push_back(Ms(t.makespan));
    }
  }
  std::vector<double> join_s;
  for (const std::vector<double>& v : set_s) join_s.push_back(Median(v));
  out.notes.push_back(TailNote(calls_s));
  out.metrics = {
      {"setup_s", Median(setup_s), "s"},
      {"join_s", Median(join_s), "s"},
      {"peak_rss_mb", PeakRssMiB(), "MiB"},
      // Median query latency: the simulated time of a typical join.
      {"sim_join_ms", Median(p50), "sim_ms"},
      {"sim_p95_ms", Median(p95), "sim_ms"},
      {"sim_makespan_ms", Median(makespan), "sim_ms"},
  };
  return out;
}

/// What the recomposed per-query host phases produced, over all queries:
/// the gate's matches/checksum plus the join-layer counters.
struct PreparedTotals {
  ServeOracle sum;
  std::uint32_t split_partitions = 0;
  std::uint64_t moved_tuples = 0;
  std::uint64_t compressed_bytes = 0;
  std::uint64_t uncompressed_bytes = 0;
  int local_max_depth = 0;
};

/// The host phases QueryScheduler::Run performs per query before the
/// shared simulation, rebuilt from the same public calls with spans.
PreparedTotals ComposePrepare(const topo::Topology& topology,
                           const RunConfig& cfg,
                           const std::vector<svc::QuerySpec>& specs,
                           SpanLog* log, int run) {
  ScopedSpan root(log, "svc.prepare", -1, run);
  const std::vector<int> gpus = topo::FirstNGpus(kGpus);
  // The scheduler resolves shared_mem_tuples the same way MgJoin does.
  const join::MgJoinOptions o =
      join::MgJoin(&topology, gpus, ServeOptions(cfg).join).options();
  PreparedTotals t;
  for (const svc::QuerySpec& q : specs) {
    ScopedSpan query(log, "svc.query", root.id(), run);
    data::DistRelation r, s;
    {
      ScopedSpan sp(log, "data.generate", query.id(), run);
      auto input = data::MakeJoinInput(q.gen);
      r = std::move(input.first);
      s = std::move(input.second);
    }
    const int radix_bits = o.radix_bits_override > 0
                               ? o.radix_bits_override
                               : join::RadixBitsFor(o.gpu, r.domain_bits);
    join::HistogramSet hist_r, hist_s;
    {
      ScopedSpan sp(log, "join.histogram", query.id(), run);
      hist_r = join::BuildHistograms(r, radix_bits);
      hist_s = join::BuildHistograms(s, radix_bits);
    }
    join::AssignmentOptions aopts;
    aopts.strategy = o.assignment;
    aopts.heavy_hitter_factor = o.heavy_hitter_factor;
    aopts.packet_bytes = o.transfer.packet_bytes;
    join::PartitionAssignment assignment;
    {
      ScopedSpan sp(log, "join.assign", query.id(), run);
      assignment =
          join::ComputeAssignment(topology, gpus, hist_r, hist_s, aopts);
    }
    t.split_partitions += assignment.split_partitions;
    join::ShuffleOptions sopts;
    sopts.use_compression = o.use_compression;
    sopts.virtual_scale = o.virtual_scale;
    join::ShuffleResult shuffle;
    {
      ScopedSpan sp(log, "join.shuffle", query.id(), run);
      shuffle = join::ShufflePartitions(r, s, radix_bits, assignment, gpus,
                                        sopts);
    }
    t.moved_tuples += shuffle.moved_tuples;
    t.compressed_bytes += shuffle.compressed_bytes;
    t.uncompressed_bytes += shuffle.uncompressed_bytes;
    ScopedSpan sp(log, "join.local", query.id(), run);
    for (int d = 0; d < kGpus; ++d) {
      join::LocalJoinOptions lopts = o.local;
      lopts.materialize_pairs = false;
      const join::LocalJoinStats st = join::LocalPartitionAndProbe(
          &shuffle.r_recv[d], &shuffle.s_recv[d], lopts);
      t.sum.matches += st.matches;
      t.sum.checksum += st.checksum;
      t.local_max_depth = std::max(t.local_max_depth, st.max_depth);
    }
  }
  return t;
}

RunOutcome RunServeTraced(const RunConfig& cfg, SpanLog* log) {
  RunOutcome out;
  Gate gate{&out};
  const std::unique_ptr<topo::Topology> topology = topo::MakeDgx1V();
  const std::vector<svc::QuerySpec> specs = ServeSpecs(cfg.seed);
  const int oracle_span = log->Begin("oracle.reference", -1, 0);
  const ServeOracle oracle = ServeReference(specs);
  log->End(oracle_span);

  std::vector<double> with_sinks, without_sinks, export_s, prepare_s;
  std::vector<std::vector<double>> layer_s(5);
  static const char* const kLayers[] = {"data.generate", "join.histogram",
                                        "join.assign", "join.shuffle",
                                        "join.local"};
  std::string first;
  double samples = 0;
  net::TransferStats st;
  PreparedTotals prepared;
  const auto loop_start = Clock::now();
  for (int run = 0; run == 0 || Since(loop_start) < cfg.seconds; ++run) {
    int span = log->Begin("svc.run", -1, run);
    const ServeRun sinks = RunServe(topology.get(), cfg, specs, true);
    log->End(span);
    with_sinks.push_back(sinks.seconds);
    CheckServe(&gate, sinks, oracle, &first);
    if (sinks.result.ok()) st = sinks.result.value().net;

    span = log->Begin("obs.export", -1, run);
    const std::string om =
        obs::OpenMetricsText(sinks.metrics.get(), sinks.telemetry.get());
    log->End(span);
    export_s.push_back(log->Total("obs.export", run));
    gate.Check(!om.empty(), "OpenMetricsText produced no exposition");
    samples = 0;
    for (const auto& series : sinks.telemetry->series()) {
      samples += static_cast<double>(series.data.samples().size());
    }

    span = log->Begin("svc.run_without_sinks", -1, run);
    const ServeRun bare = RunServe(topology.get(), cfg, specs, false);
    log->End(span);
    without_sinks.push_back(bare.seconds);
    // Sinks observe from outside the event stream: the same results.
    CheckServe(&gate, bare, oracle, &first);

    prepared = ComposePrepare(*topology, cfg, specs, log, run);
    gate.Check(prepared.sum.matches == oracle.matches &&
                   prepared.sum.checksum == oracle.checksum,
               "traced per-query host phases differ from ReferenceJoin");
    prepare_s.push_back(log->Total("svc.prepare", run));
    for (int l = 0; l < 5; ++l) {
      layer_s[l].push_back(log->Total(kLayers[l], run));
    }
  }

  const double join_s = Median(with_sinks);
  const double prepare = Median(prepare_s);
  const double fabric = join_s - prepare;
  const double packets =
      static_cast<double>(std::max<std::uint64_t>(st.packets, 1));
  // The scheduler builds its own engine and policy, so routing and the
  // event count cannot be observed from outside: they read 0 here, and
  // the whole fabric share of Run counts as net.simulate_s. The join.*
  // figures are sums over the 16 queries.
  out.metrics = {
      {"data.generate_s", Median(layer_s[0]), "s"},
      {"join.histogram_s", Median(layer_s[1]), "s"},
      {"join.assign_s", Median(layer_s[2]), "s"},
      {"join.shuffle_s", Median(layer_s[3]), "s"},
      {"join.local_s", Median(layer_s[4]), "s"},
      {"join.unattributed_s", 0.0, "s"},
      {"join.split_partitions",
       static_cast<double>(prepared.split_partitions), "count"},
      {"join.moved_tuples", static_cast<double>(prepared.moved_tuples),
       "count"},
      {"join.compression_ratio",
       static_cast<double>(prepared.uncompressed_bytes) /
           static_cast<double>(
               std::max<std::uint64_t>(prepared.compressed_bytes, 1)),
       "ratio"},
      {"join.local_max_depth", static_cast<double>(prepared.local_max_depth),
       "count"},
      {"net.simulate_s", fabric, "s"},
      {"net.route_s", 0.0, "s"},
      {"net.engine_s", fabric, "s"},
      {"net.route_calls", 0.0, "count"},
      {"net.route_yield", 0.0, "ratio"},
      {"net.host_us_per_event", 0.0, "us/event"},
      {"sim.events", 0.0, "count"},
      {"sim.events_per_packet", 0.0, "events/packet"},
      {"net.packets", static_cast<double>(st.packets), "count"},
      {"net.batches", static_cast<double>(st.batches), "count"},
      {"net.ring_syncs", static_cast<double>(st.ring_syncs), "count"},
      {"net.ring_syncs_per_packet",
       static_cast<double>(st.ring_syncs) / packets, "syncs/packet"},
      {"net.escapes", static_cast<double>(st.escapes), "count"},
      {"net.arb_paces", static_cast<double>(st.arb_paces), "count"},
      {"obs.overhead_s", join_s - Median(without_sinks), "s"},
      {"obs.export_s", Median(export_s), "s"},
      {"obs.samples", samples, "count"},
      {"svc.prepare_s", prepare, "s"},
      {"svc.fabric_s", fabric, "s"},
      {"oracle.reference_s", log->Total("oracle.reference", 0), "s"},
      // Spans are coarse here (no wrapper on the hot path): the
      // composition repeats Run's host phases, so its cost is reported
      // as svc.prepare_s rather than as tracing overhead.
      {"bench.trace_overhead_s", 0.0, "s"},
  };
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "traced run: %zu repetitions; join_s %.4f s",
                with_sinks.size(), join_s);
  out.notes.push_back(buf);
  return out;
}

}  // namespace

bool IsWorkload(const std::string& name) {
  return name == "paper_join" || name == "host_join" ||
         name == "serve_fair";
}

RunOutcome RunTimed(const RunConfig& cfg) {
  return cfg.workload == "serve_fair" ? RunServeTimed(cfg)
                                      : RunJoinTimed(cfg);
}

RunOutcome RunTraced(const RunConfig& cfg, SpanLog* log) {
  return cfg.workload == "serve_fair" ? RunServeTraced(cfg, log)
                                      : RunJoinTraced(cfg, log);
}

}  // namespace perfbench
