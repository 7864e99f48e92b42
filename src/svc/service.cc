#include "svc/service.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <functional>
#include <utility>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "gpusim/kernel_model.h"
#include "join/histogram.h"
#include "join/local_join.h"
#include "join/partition_assignment.h"
#include "join/shuffle.h"
#include "net/routing_policy.h"
#include "net/transfer_engine.h"
#include "obs/obs.h"
#include "sim/simulator.h"

namespace mgjoin::svc {

namespace {

// Same rounding as join/mg_join.cc: virtual (paper-scale) volumes.
std::uint64_t Scale(std::uint64_t n, double s) {
  return static_cast<std::uint64_t>(
      std::llround(static_cast<double>(n) * s));
}

// Flow ids encode (query index << shift) | per-query ordinal, so the
// deliver callback maps a packet back to its query with one shift — no
// map lookup on the per-packet path.
constexpr int kFlowIdShift = 20;

/// One query after its host phases ran: the functional join result, the
/// cost-model inputs (admission-relative), the untimed flow set, and
/// the mutable state of the shared simulation.
struct PreparedQuery {
  QuerySpec spec;
  std::vector<net::Flow> flows;  ///< available_at/rate/tag set at admit
  std::uint64_t payload_bytes = 0;
  sim::SimTime hist_end = 0;
  std::vector<sim::SimTime> gp_time;     // per dense GPU
  std::vector<sim::SimTime> lp_time;     // per dense GPU
  std::vector<sim::SimTime> probe_time;  // per dense GPU
  sim::SimTime residual = 0;  ///< last packet's local-partition pass
  std::uint64_t matches = 0;
  std::uint64_t checksum = 0;
  sim::SimTime solo_latency = 0;
  // Shared-run state.
  sim::SimTime admit_at = 0;
  sim::SimTime complete_at = 0;
  std::vector<sim::SimTime> last_arrival;  // per dense GPU, absolute
  sim::SimTime last_delivery = 0;
  std::uint64_t pending = 0;
  bool done = false;
};

/// Runs the host-side phases of one query (mirrors the functional parts
/// of join/mg_join.cc) and captures every cost-model input the timing
/// layer needs, as offsets from the query's future admission time.
PreparedQuery PrepareQuery(const topo::Topology& topo,
                           const std::vector<int>& gpus,
                           const join::MgJoinOptions& jopts,
                           const QuerySpec& spec) {
  const int g = static_cast<int>(gpus.size());
  const double vs = jopts.virtual_scale;
  const gpusim::KernelModel kernels(jopts.gpu);

  PreparedQuery p;
  p.spec = spec;
  p.gp_time.assign(g, 0);
  p.lp_time.assign(g, 0);
  p.probe_time.assign(g, 0);
  p.last_arrival.assign(g, 0);

  data::GenOptions gen = spec.gen;
  gen.num_gpus = g;
  auto [r, s] = data::MakeJoinInput(gen);

  // Phase 1: histograms (barrier across GPUs).
  const int radix_bits = jopts.radix_bits_override > 0
                             ? jopts.radix_bits_override
                             : join::RadixBitsFor(jopts.gpu, r.domain_bits);
  const join::HistogramSet hist_r = join::BuildHistograms(r, radix_bits);
  const join::HistogramSet hist_s = join::BuildHistograms(s, radix_bits);
  for (int d = 0; d < g; ++d) {
    const std::uint64_t n =
        Scale(r.shards[d].size() + s.shards[d].size(), vs);
    p.hist_end =
        std::max(p.hist_end, kernels.HistogramTime(n, data::kTupleBytes));
  }

  // Phase 2: assignment, partition kernel, functional shuffle.
  join::AssignmentOptions aopts;
  aopts.strategy = jopts.assignment;
  aopts.heavy_hitter_factor = jopts.heavy_hitter_factor;
  aopts.packet_bytes = jopts.transfer.packet_bytes;
  const join::PartitionAssignment assignment =
      join::ComputeAssignment(topo, gpus, hist_r, hist_s, aopts);
  for (int d = 0; d < g; ++d) {
    const std::uint64_t n =
        Scale(r.shards[d].size() + s.shards[d].size(), vs);
    p.gp_time[d] = kernels.PartitionPassTime(n, data::kTupleBytes);
  }
  join::ShuffleOptions sopts;
  sopts.use_compression = jopts.use_compression;
  sopts.virtual_scale = vs;
  join::ShuffleResult shuffle =
      join::ShufflePartitions(r, s, radix_bits, assignment, gpus, sopts);
  p.flows = std::move(shuffle.flows);
  for (const net::Flow& f : p.flows) p.payload_bytes += f.bytes;

  // Phases 3+4: functional local join + per-GPU cost-model inputs.
  for (int d = 0; d < g; ++d) {
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
      while (remaining >
                 static_cast<double>(jopts.local.shared_mem_tuples) &&
             depth < jopts.local.max_depth) {
        ++depth;
        remaining /= static_cast<double>(1u << jopts.local.bits_per_pass);
      }
      pass_tuples += (rv + sv) * static_cast<std::uint64_t>(depth);
    }
    join::LocalJoinOptions lopts = jopts.local;
    lopts.materialize_pairs = false;
    const join::LocalJoinStats stats = join::LocalPartitionAndProbe(
        &shuffle.r_recv[d], &shuffle.s_recv[d], lopts);
    p.matches += stats.matches;
    p.checksum += stats.checksum;
    p.lp_time[d] =
        kernels.PartitionPassTime(pass_tuples, data::kTupleBytes);
    p.probe_time[d] = kernels.ProbeTime(
        recv_r, recv_s, Scale(stats.matches, vs), data::kTupleBytes);
  }
  p.residual = kernels.PartitionPassTime(
      jopts.transfer.packet_bytes / data::kTupleBytes, data::kTupleBytes);
  return p;
}

/// End-to-end completion time of an admitted query, given the arrival
/// times its packets saw on the (shared or solo) fabric. Mirrors the
/// per-GPU dependency chain of join/mg_join.cc, shifted to admit_at.
sim::SimTime CompleteTime(const PreparedQuery& p, bool overlap) {
  const sim::SimTime base = p.admit_at + p.hist_end;
  sim::SimTime join_end = base;
  const int g = static_cast<int>(p.gp_time.size());
  for (int d = 0; d < g; ++d) {
    const sim::SimTime compute_end = base + p.gp_time[d] + p.lp_time[d];
    sim::SimTime probe_start;
    if (overlap) {
      // Local partitioning consumes packets as they arrive; the last
      // packet still needs one pass through the local pipeline.
      const sim::SimTime data_end = p.last_arrival[d] == 0
                                        ? compute_end
                                        : p.last_arrival[d] + p.residual;
      probe_start = std::max(compute_end, data_end);
    } else {
      const sim::SimTime dist_end =
          p.payload_bytes == 0 ? base : std::max(p.last_delivery, base);
      probe_start = std::max(dist_end, base + p.gp_time[d]) + p.lp_time[d];
    }
    join_end = std::max(join_end, probe_start + p.probe_time[d]);
  }
  return join_end;
}

/// Applies a query's timing knobs (availability, generation rate, tag,
/// flow id) and feeds its flows into `engine`.
void AdmitFlows(const PreparedQuery& p, std::size_t query_index,
                sim::SimTime admit_at, const join::MgJoinOptions& jopts,
                const std::vector<int>& dense,
                net::TransferEngine* engine) {
  for (std::size_t i = 0; i < p.flows.size(); ++i) {
    net::Flow f = p.flows[i];
    f.id = (static_cast<std::uint64_t>(query_index) << kFlowIdShift) |
           static_cast<std::uint64_t>(i);
    f.priority = p.spec.priority;
    f.tag.query_id = p.spec.query_id;
    f.tag.phase = "shuffle";
    const int src_dense = dense[f.src_gpu];
    if (jopts.overlap) {
      f.available_at = admit_at + p.hist_end;
      f.generation_rate =
          static_cast<double>(f.bytes) /
          std::max(1e-9, sim::ToSeconds(p.gp_time[src_dense]));
    } else {
      f.available_at = admit_at + p.hist_end + p.gp_time[src_dense];
      f.generation_rate = 0.0;
    }
    engine->AddFlow(f);
  }
}

/// Runs one query alone on an idle, healthy fabric (no faults, FIFO, no
/// observability) and returns its admission→completion latency — the
/// denominator of the slowdown column.
sim::SimTime SoloLatency(const topo::Topology* topo,
                         const std::vector<int>& gpus,
                         const std::vector<int>& dense,
                         const join::MgJoinOptions& jopts,
                         const PreparedQuery& prepared) {
  PreparedQuery p = prepared;  // private arrival state
  p.admit_at = 0;
  if (p.payload_bytes == 0) return CompleteTime(p, jopts.overlap);
  sim::Simulator sim;
  auto policy =
      net::MakePolicy(jopts.policy, jopts.transfer.max_intermediates);
  net::TransferOptions topts = jopts.transfer;
  topts.obs = obs::ObsHooks{};  // timing only: no sinks, default auditor
  topts.faults = net::FaultPlan{};
  topts.arbitration = net::ArbitrationKind::kFifo;
  net::TransferEngine engine(&sim, topo, gpus, policy.get(), topts);
  engine.set_deliver_callback(
      [&](const net::Packet& pkt, sim::SimTime when) {
        sim::SimTime& at = p.last_arrival[dense[pkt.final_dst()]];
        at = std::max(at, when);
        p.last_delivery = std::max(p.last_delivery, when);
      });
  AdmitFlows(p, 0, 0, jopts, dense, &engine);
  engine.Start();
  sim.Run();
  MGJ_CHECK(engine.AllDone()) << "solo baseline did not complete";
  return CompleteTime(p, jopts.overlap);
}

}  // namespace

QueryScheduler::QueryScheduler(const topo::Topology* topo,
                               std::vector<int> gpus,
                               ServiceOptions options)
    : topo_(topo), gpus_(std::move(gpus)), options_(std::move(options)) {
  MGJ_CHECK(topo_ != nullptr);
  MGJ_CHECK(!gpus_.empty());
  if (options_.join.local.shared_mem_tuples == 0) {
    options_.join.local.shared_mem_tuples =
        options_.join.gpu.SharedMemTuples(data::kTupleBytes);
  }
  if (options_.join.host_threads > 0) {
    ThreadPool::SetDefaultThreads(
        static_cast<std::size_t>(options_.join.host_threads));
  }
}

Result<ServiceResult> QueryScheduler::Run(
    const std::vector<QuerySpec>& queries) const {
  if (queries.empty()) {
    return Status::InvalidArgument("no queries submitted");
  }
  if (options_.join.virtual_scale <= 0) {
    return Status::InvalidArgument("virtual_scale must be > 0");
  }
  if (options_.inflight_limit < 0) {
    return Status::InvalidArgument("inflight_limit must be >= 0");
  }
  for (std::size_t i = 0; i < queries.size(); ++i) {
    for (std::size_t j = i + 1; j < queries.size(); ++j) {
      if (queries[i].query_id == queries[j].query_id) {
        return Status::InvalidArgument(
            "duplicate query_id " +
            std::to_string(queries[i].query_id));
      }
    }
  }

  std::vector<int> dense(topo_->num_gpus(), -1);
  for (std::size_t d = 0; d < gpus_.size(); ++d) {
    dense[gpus_[d]] = static_cast<int>(d);
  }

  // ---- Host phases: every query's functional join + cost-model inputs
  // run before the simulation, so the event loop is pure timing.
  std::vector<PreparedQuery> prepared;
  prepared.reserve(queries.size());
  for (const QuerySpec& spec : queries) {
    prepared.push_back(PrepareQuery(*topo_, gpus_, options_.join, spec));
    MGJ_CHECK(prepared.back().flows.size() <
              (std::size_t{1} << kFlowIdShift))
        << "query " << spec.query_id << " has too many flows";
  }
  if (options_.measure_solo) {
    for (PreparedQuery& p : prepared) {
      p.solo_latency =
          SoloLatency(topo_, gpus_, dense, options_.join, p);
    }
  }

  // ---- Shared fabric: one simulator, one engine, all tenants.
  sim::Simulator sim;
  auto policy = net::MakePolicy(options_.join.policy,
                                options_.join.transfer.max_intermediates);
  net::TransferOptions topts = options_.join.transfer;
  topts.arbitration = options_.arbitration;
  net::TransferEngine engine(&sim, topo_, gpus_, policy.get(), topts);

  obs::TraceRecorder* tr = topts.obs.trace;
  const int svc_track = tr != nullptr ? tr->Track("svc.admission") : -1;

  std::deque<std::size_t> admit_queue;
  std::vector<std::size_t> admission_order;
  int active = 0;

  std::function<void(std::size_t)> schedule_completion;
  std::function<void()> try_admit;

  schedule_completion = [&](std::size_t qi) {
    PreparedQuery& p = prepared[qi];
    const sim::SimTime end = CompleteTime(p, options_.join.overlap);
    MGJ_CHECK(end >= sim.Now()) << "completion scheduled in the past";
    sim.ScheduleAt(end, [&, qi] {
      PreparedQuery& q = prepared[qi];
      q.done = true;
      q.complete_at = sim.Now();
      --active;
      if (tr != nullptr) {
        tr->Span(tr->Track("svc.q" +
                           std::to_string(q.spec.query_id)),
                 "svc", "query", q.admit_at, q.complete_at,
                 {{"query", q.spec.query_id},
                  {"payload_bytes", q.payload_bytes},
                  {"matches", q.matches}});
      }
      try_admit();
    });
  };

  try_admit = [&] {
    while (!admit_queue.empty() &&
           (options_.inflight_limit == 0 ||
            active < options_.inflight_limit)) {
      const std::size_t qi = admit_queue.front();
      admit_queue.pop_front();
      PreparedQuery& p = prepared[qi];
      p.admit_at = sim.Now();
      admission_order.push_back(qi);
      ++active;
      if (tr != nullptr) {
        tr->Instant(svc_track, "svc", "admit", sim.Now(),
                    {{"query", p.spec.query_id},
                     {"active", static_cast<std::uint64_t>(active)}});
      }
      if (p.payload_bytes == 0) {
        // Nothing to shuffle (e.g. every partition stayed local): the
        // query completes on compute time alone.
        schedule_completion(qi);
        continue;
      }
      p.pending = p.payload_bytes;
      AdmitFlows(p, qi, p.admit_at, options_.join, dense, &engine);
    }
  };

  engine.set_deliver_callback(
      [&](const net::Packet& pkt, sim::SimTime when) {
        const std::size_t qi =
            static_cast<std::size_t>(pkt.flow_id >> kFlowIdShift);
        PreparedQuery& p = prepared[qi];
        sim::SimTime& at = p.last_arrival[dense[pkt.final_dst()]];
        at = std::max(at, when);
        p.last_delivery = std::max(p.last_delivery, when);
        MGJ_CHECK(p.pending >= pkt.payload_bytes);
        p.pending -= pkt.payload_bytes;
        if (p.pending == 0) schedule_completion(qi);
      });

  for (std::size_t qi = 0; qi < prepared.size(); ++qi) {
    const PreparedQuery& p = prepared[qi];
    sim.ScheduleAt(p.spec.submit_at, [&, qi] {
      admit_queue.push_back(qi);
      if (tr != nullptr) {
        tr->Instant(svc_track, "svc", "submit", sim.Now(),
                    {{"query", prepared[qi].spec.query_id}});
      }
      try_admit();
    });
  }

  engine.Start();  // no pre-start flows: queries admit dynamically
  sim.Run();
  MGJ_CHECK(engine.AllDone()) << "service run did not drain the fabric";

  // ---- Assemble the report (admission order).
  ServiceResult out;
  out.net = engine.stats();
  out.tenancy.arbitration = net::ArbitrationKindName(options_.arbitration);
  out.tenancy.inflight_limit = options_.inflight_limit;
  sim::SimTime last_complete = 0;
  for (const std::size_t qi : admission_order) {
    const PreparedQuery& p = prepared[qi];
    MGJ_CHECK(p.done) << "query " << p.spec.query_id << " never completed";
    obs::report::QueryOutcome q;
    q.query_id = p.spec.query_id;
    q.priority = p.spec.priority;
    q.submit_at = p.spec.submit_at;
    q.admit_at = p.admit_at;
    q.complete_at = p.complete_at;
    q.payload_bytes = p.payload_bytes;
    q.matches = p.matches;
    q.solo_latency = p.solo_latency;
    out.tenancy.queries.push_back(q);
    out.total_matches += p.matches;
    out.checksum += p.checksum;
    last_complete = std::max(last_complete, p.complete_at);
  }
  MGJ_CHECK(out.tenancy.queries.size() == queries.size())
      << "not every query was admitted";
  out.tenancy.Finalize();
  if (tr != nullptr) {
    // The analytics pipeline keys on a "join_total" span covering the
    // whole run (obs/report span contract).
    tr->Span(tr->Track("join.phases"), "join", "join_total", 0,
             last_complete,
             {{"matches", out.total_matches},
              {"queries",
               static_cast<std::uint64_t>(queries.size())}});
  }
  return out;
}

}  // namespace mgjoin::svc
