#include "join/mg_join.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "gpusim/kernel_model.h"
#include "join/histogram.h"
#include "join/shuffle.h"
#include "obs/obs.h"
#include "sim/simulator.h"

namespace mgjoin::join {

namespace {

// Virtual (paper-scale) tuple count. Rounded, not truncated: at
// non-integer virtual_scale, truncation shaved one tuple/byte off most
// products and the per-GPU sums drifted from the scaled totals.
std::uint64_t Scale(std::uint64_t n, double s) {
  return static_cast<std::uint64_t>(
      std::llround(static_cast<double>(n) * s));
}

}  // namespace

MgJoin::MgJoin(const topo::Topology* topo, std::vector<int> gpus,
               MgJoinOptions options)
    : topo_(topo), gpus_(std::move(gpus)), options_(std::move(options)) {
  MGJ_CHECK(topo_ != nullptr);
  MGJ_CHECK(!gpus_.empty());
  dense_.assign(topo_->num_gpus(), -1);
  for (std::size_t d = 0; d < gpus_.size(); ++d) {
    dense_[gpus_[d]] = static_cast<int>(d);
  }
  if (options_.local.shared_mem_tuples == 0) {
    options_.local.shared_mem_tuples =
        options_.gpu.SharedMemTuples(data::kTupleBytes);
  }
  if (options_.host_threads > 0) {
    ThreadPool::SetDefaultThreads(
        static_cast<std::size_t>(options_.host_threads));
  }
}

Result<PreparedJoin> MgJoin::Prepare(const data::DistRelation& r,
                                     const data::DistRelation& s) const {
  const int g = static_cast<int>(gpus_.size());
  if (r.num_shards() != g || s.num_shards() != g) {
    return Status::InvalidArgument("relations must have one shard per GPU");
  }
  if (r.domain_bits != s.domain_bits) {
    return Status::InvalidArgument("mismatched key domains");
  }
  const double vs = options_.virtual_scale;
  if (vs <= 0) return Status::InvalidArgument("virtual_scale must be > 0");

  const gpusim::KernelModel kernels(options_.gpu);
  obs::MetricsRegistry* host_metrics = options_.transfer.obs.metrics;
  PreparedJoin p;

  // ---- Phase 1: histogram generation (all GPUs in parallel; barrier).
  const int radix_bits =
      options_.radix_bits_override > 0
          ? options_.radix_bits_override
          : RadixBitsFor(options_.gpu, r.domain_bits);
  auto timed = [&](const char* name, auto&& fn) {
    obs::HostPhase phase(name, host_metrics);
    return fn();
  };
  const HistogramSet hist_r =
      timed("host.histogram", [&] { return BuildHistograms(r, radix_bits); });
  const HistogramSet hist_s =
      timed("host.histogram", [&] { return BuildHistograms(s, radix_bits); });

  // ---- Phase 2a: partition assignment. In MG-Join it overlaps the
  // partition kernel (modification 1); baselines without a histogram
  // use round-robin, which costs nothing either.
  AssignmentOptions aopts;
  aopts.strategy = options_.assignment;
  aopts.heavy_hitter_factor = options_.heavy_hitter_factor;
  aopts.packet_bytes = options_.transfer.packet_bytes;
  const PartitionAssignment assignment =
      ComputeAssignment(*topo_, gpus_, hist_r, hist_s, aopts);

  // ---- Phase 2b: histogram and partition kernel times (per GPU).
  p.gp_time.assign(g, 0);
  for (int d = 0; d < g; ++d) {
    const std::uint64_t n =
        Scale(r.shards[d].size() + s.shards[d].size(), vs);
    p.hist_end =
        std::max(p.hist_end, kernels.HistogramTime(n, data::kTupleBytes));
    p.gp_time[d] = kernels.PartitionPassTime(n, data::kTupleBytes);
  }

  // ---- Phase 2c: functional shuffle; its flows are what the simulated
  // network distributes.
  ShuffleOptions sopts;
  sopts.use_compression = options_.use_compression;
  sopts.virtual_scale = vs;
  ShuffleResult shuffle = timed("host.shuffle", [&] {
    return ShufflePartitions(r, s, radix_bits, assignment, gpus_, sopts);
  });
  p.shuffled_bytes = Scale(shuffle.compressed_bytes, vs);
  p.uncompressed_bytes = Scale(shuffle.uncompressed_bytes, vs);
  p.flows = std::move(shuffle.flows);
  for (net::Flow& f : p.flows) {
    f.tag.query_id = options_.query_id;
    f.tag.phase = "shuffle";
  }

  // ---- Phase 3 + 4: local partitioning and probe, per GPU.
  obs::HostPhase local_phase("host.local_join", host_metrics);
  p.lp_time.assign(g, 0);
  p.probe_time.assign(g, 0);
  p.recv_tuples.assign(g, 0);
  for (int d = 0; d < g; ++d) {
    // Cost model inputs come from the *virtual* partition sizes; the
    // recursion depth a partition needs grows with the scaled size.
    std::uint64_t pass_tuples = 0;
    std::uint64_t recv_r = 0, recv_s = 0;
    for (std::size_t part = 0; part < shuffle.r_recv[d].size(); ++part) {
      const std::uint64_t rv = Scale(shuffle.r_recv[d][part].size(), vs);
      const std::uint64_t sv = Scale(shuffle.s_recv[d][part].size(), vs);
      recv_r += rv;
      recv_s += sv;
      const std::uint64_t small_side = std::min(rv, sv);
      if (small_side == 0) continue;
      int depth = 0;
      double remaining = static_cast<double>(small_side);
      while (remaining > static_cast<double>(
                             options_.local.shared_mem_tuples) &&
             depth < options_.local.max_depth) {
        ++depth;
        remaining /= static_cast<double>(1u << options_.local.bits_per_pass);
      }
      pass_tuples += (rv + sv) * static_cast<std::uint64_t>(depth);
    }

    // Functional local join over the received partitions.
    LocalJoinOptions lopts = options_.local;
    lopts.materialize_pairs = options_.materialize_pairs;
    LocalJoinStats stats = LocalPartitionAndProbe(
        &shuffle.r_recv[d], &shuffle.s_recv[d], lopts);
    p.matches += stats.matches;
    p.checksum += stats.checksum;
    if (options_.materialize_pairs) {
      p.pairs.insert(p.pairs.end(), stats.pairs.begin(), stats.pairs.end());
    }

    p.lp_time[d] = kernels.PartitionPassTime(pass_tuples, data::kTupleBytes);
    p.probe_time[d] = kernels.ProbeTime(
        recv_r, recv_s, Scale(stats.matches, vs), data::kTupleBytes);
    p.recv_tuples[d] = recv_r + recv_s;
  }
  p.residual = kernels.PartitionPassTime(
      options_.transfer.packet_bytes / data::kTupleBytes, data::kTupleBytes);
  return p;
}

void MgJoin::TimeFlow(const PreparedJoin& p, sim::SimTime admit_at,
                      net::Flow* f) const {
  const sim::SimTime gp = p.gp_time[dense_[f->src_gpu]];
  if (options_.overlap) {
    // Packets become available as the partition kernel emits them.
    f->available_at = admit_at + p.hist_end;
    f->generation_rate = static_cast<double>(f->bytes) /
                         std::max(1e-9, sim::ToSeconds(gp));
  } else {
    // Bulk transfer after the partition kernel completes.
    f->available_at = admit_at + p.hist_end + gp;
    f->generation_rate = 0.0;
  }
}

void MgJoin::NoteArrival(const net::Packet& packet, sim::SimTime when,
                         JoinArrivals* a) const {
  sim::SimTime& at = a->last_arrival[dense_[packet.final_dst()]];
  at = std::max(at, when);
  a->last_delivery = std::max(a->last_delivery, when);
}

net::TransferStats MgJoin::Distribute(const std::vector<net::Flow>& flows,
                                      const net::TransferOptions& options,
                                      JoinArrivals* a) const {
  sim::Simulator net_sim;
  auto policy = net::MakePolicy(options_.policy, options.max_intermediates);
  net::TransferEngine engine(&net_sim, topo_, gpus_, policy.get(), options);
  engine.set_deliver_callback(
      [&](const net::Packet& packet, sim::SimTime when) {
        NoteArrival(packet, when, a);
      });
  for (const net::Flow& f : flows) engine.AddFlow(f);
  {
    obs::HostPhase net_phase("host.network_sim", options.obs.metrics);
    engine.Start();
    net_sim.Run();
  }
  MGJ_CHECK(engine.AllDone()) << "distribution did not complete";
  return engine.stats();
}

JoinCompletion MgJoin::Complete(const PreparedJoin& p, sim::SimTime admit_at,
                                const JoinArrivals& a) const {
  const int g = static_cast<int>(gpus_.size());
  const sim::SimTime base = admit_at + p.hist_end;
  JoinCompletion c;
  c.dist_end = p.flows.empty() ? base : std::max(a.last_delivery, base);
  c.join_end = base;
  c.nodist_end = base;
  c.probe_start.assign(g, 0);
  for (int d = 0; d < g; ++d) {
    const sim::SimTime compute_end = base + p.gp_time[d] + p.lp_time[d];
    if (options_.overlap) {
      // Local partitioning consumes packets as they arrive; the last
      // packet still needs one pass through the local pipeline.
      const sim::SimTime data_end = a.last_arrival[d] == 0
                                        ? compute_end
                                        : a.last_arrival[d] + p.residual;
      c.probe_start[d] = std::max(compute_end, data_end);
    } else {
      c.probe_start[d] =
          std::max(c.dist_end, base + p.gp_time[d]) + p.lp_time[d];
    }
    c.join_end = std::max(c.join_end, c.probe_start[d] + p.probe_time[d]);
    c.nodist_end = std::max(c.nodist_end, compute_end + p.probe_time[d]);
  }
  return c;
}

Result<JoinResult> MgJoin::Execute(const data::DistRelation& r,
                                   const data::DistRelation& s) const {
  Result<PreparedJoin> prepared = Prepare(r, s);
  if (!prepared.ok()) return prepared.status();
  PreparedJoin& p = prepared.value();
  const int g = static_cast<int>(gpus_.size());

  JoinResult result;
  result.input_tuples = r.TotalTuples() + s.TotalTuples();
  result.virtual_input_tuples =
      Scale(result.input_tuples, options_.virtual_scale);
  result.matches = p.matches;
  result.checksum = p.checksum;
  result.pairs = std::move(p.pairs);
  result.shuffled_bytes = p.shuffled_bytes;
  result.uncompressed_bytes = p.uncompressed_bytes;

  // ---- Data distribution on the simulated network.
  for (net::Flow& f : p.flows) TimeFlow(p, 0, &f);
  JoinArrivals arrivals(g);
  result.net = Distribute(p.flows, options_.transfer, &arrivals);
  const JoinCompletion c = Complete(p, 0, arrivals);

  const sim::SimTime hist_end = p.hist_end;
  result.timing.histogram = hist_end;
  result.timing.global_partition =
      *std::max_element(p.gp_time.begin(), p.gp_time.end());
  result.timing.distribution =
      c.dist_end > hist_end ? c.dist_end - hist_end : 0;
  result.timing.local_partition =
      *std::max_element(p.lp_time.begin(), p.lp_time.end());
  result.timing.probe =
      *std::max_element(p.probe_time.begin(), p.probe_time.end());
  result.timing.total = c.join_end;
  result.timing.distribution_exposed =
      c.join_end > c.nodist_end ? c.join_end - c.nodist_end : 0;

  // Join-phase spans share the engine's trace so the fabric activity can
  // be read against the phase it serves.
  obs::TraceRecorder* tr = options_.transfer.obs.trace;
  if (tr == nullptr) return result;
  const int phases = tr->Track("join.phases");
  tr->Span(phases, "join", "histogram", 0, hist_end);
  tr->Span(phases, "join", "distribution", hist_end, c.dist_end,
           {{"payload_bytes", result.net.payload_bytes},
            {"wire_bytes", result.net.wire_bytes}});
  for (int d = 0; d < g; ++d) {
    tr->Span(tr->Track("join.gpu" + std::to_string(gpus_[d])), "join",
             "global_partition", hist_end, hist_end + p.gp_time[d]);
  }
  // The GPU set's min-cut bisection, so achieved-vs-peak utilization
  // can be computed from the trace alone.
  net::TraceBisection(tr, topo_->MinBisectionCut(gpus_));
  for (int d = 0; d < g; ++d) {
    const int track = tr->Track("join.gpu" + std::to_string(gpus_[d]));
    const sim::SimTime lp_t = p.lp_time[d];
    const sim::SimTime probe_start = c.probe_start[d];
    // Without overlap the local partition really runs only after the
    // whole distribution lands; place the span at its true interval
    // so critical-path attribution charges the wait to the network.
    const sim::SimTime lp_begin = options_.overlap
                                      ? hist_end + p.gp_time[d]
                                      : probe_start - lp_t;
    tr->Span(track, "join", "local_partition", lp_begin, lp_begin + lp_t);
    tr->Span(track, "join", "probe", probe_start,
             probe_start + p.probe_time[d],
             {{"recv_tuples", p.recv_tuples[d]}});
  }
  tr->Span(phases, "join", "join_total", 0, c.join_end,
           {{"matches", result.matches},
            {"input_tuples", result.input_tuples}});
  return result;
}

}  // namespace mgjoin::join
