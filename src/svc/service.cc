#include "svc/service.h"

#include <algorithm>
#include <deque>
#include <functional>
#include <utility>

#include "common/logging.h"
#include "net/routing_policy.h"
#include "net/transfer_engine.h"
#include "obs/obs.h"
#include "sim/simulator.h"

namespace mgjoin::svc {

namespace {

// Flow ids encode (query index << shift) | per-query ordinal, so the
// deliver callback maps a packet back to its query with one shift — no
// map lookup on the per-packet path.
constexpr int kFlowIdShift = 20;

/// One query after its host phases ran (MgJoin::Prepare) plus the
/// mutable state of the shared simulation.
struct PreparedQuery {
  QuerySpec spec;
  join::PreparedJoin join;
  std::uint64_t payload_bytes = 0;
  sim::SimTime solo_latency = 0;
  // Shared-run state.
  sim::SimTime admit_at = 0;
  sim::SimTime complete_at = 0;
  join::JoinArrivals arrivals;
  std::uint64_t pending = 0;
  bool done = false;
};

/// The query's shuffle flows stamped with its flow ids, priority and
/// query id, and timed for admission at `admit_at`.
std::vector<net::Flow> AdmittedFlows(const join::MgJoin& join,
                                     const PreparedQuery& p,
                                     std::size_t query_index,
                                     sim::SimTime admit_at) {
  std::vector<net::Flow> flows = p.join.flows;
  for (std::size_t i = 0; i < flows.size(); ++i) {
    net::Flow& f = flows[i];
    f.id = (static_cast<std::uint64_t>(query_index) << kFlowIdShift) |
           static_cast<std::uint64_t>(i);
    f.priority = p.spec.priority;
    f.tag.query_id = p.spec.query_id;
    join.TimeFlow(p.join, admit_at, &f);
  }
  return flows;
}

/// Runs one query alone on an idle, healthy fabric (no faults, FIFO, no
/// observability) and returns its admission→completion latency — the
/// denominator of the slowdown column.
sim::SimTime SoloLatency(const join::MgJoin& join, const PreparedQuery& p) {
  join::JoinArrivals arrivals(join.gpus().size());
  if (p.payload_bytes > 0) {
    net::TransferOptions topts = join.options().transfer;
    topts.obs = obs::ObsHooks{};  // timing only: no sinks, default auditor
    topts.faults = net::FaultPlan{};
    topts.arbitration = net::ArbitrationKind::kFifo;
    join.Distribute(AdmittedFlows(join, p, 0, 0), topts, &arrivals);
  }
  return join.Complete(p.join, 0, arrivals).join_end;
}

join::MgJoinOptions WithoutPairs(join::MgJoinOptions o) {
  o.materialize_pairs = false;
  return o;
}

}  // namespace

QueryScheduler::QueryScheduler(const topo::Topology* topo,
                               std::vector<int> gpus,
                               ServiceOptions options)
    : topo_(topo),
      gpus_(std::move(gpus)),
      options_(std::move(options)),
      join_(topo_, gpus_, WithoutPairs(options_.join)) {}

Result<ServiceResult> QueryScheduler::Run(
    const std::vector<QuerySpec>& queries) const {
  if (queries.empty()) {
    return Status::InvalidArgument("no queries submitted");
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

  // ---- Host phases: every query's functional join + cost-model inputs
  // run before the simulation, so the event loop is pure timing.
  std::vector<PreparedQuery> prepared(queries.size());
  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    PreparedQuery& p = prepared[qi];
    p.spec = queries[qi];
    data::GenOptions gen = p.spec.gen;
    gen.num_gpus = static_cast<int>(gpus_.size());
    const auto [r, s] = data::MakeJoinInput(gen);
    Result<join::PreparedJoin> pj = join_.Prepare(r, s);
    if (!pj.ok()) return pj.status();
    p.join = std::move(pj).value();
    MGJ_CHECK(p.join.flows.size() < (std::size_t{1} << kFlowIdShift))
        << "query " << p.spec.query_id << " has too many flows";
    for (const net::Flow& f : p.join.flows) p.payload_bytes += f.bytes;
    p.arrivals = join::JoinArrivals(gpus_.size());
  }
  if (options_.measure_solo) {
    for (PreparedQuery& p : prepared) p.solo_latency = SoloLatency(join_, p);
  }

  // ---- Shared fabric: one simulator, one engine, all tenants.
  sim::Simulator sim;
  auto policy = net::MakePolicy(options_.join.policy,
                                options_.join.transfer.max_intermediates);
  net::TransferOptions topts = join_.options().transfer;
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
    const sim::SimTime end =
        join_.Complete(p.join, p.admit_at, p.arrivals).join_end;
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
                  {"matches", q.join.matches}});
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
      for (const net::Flow& f : AdmittedFlows(join_, p, qi, p.admit_at)) {
        engine.AddFlow(f);
      }
    }
  };

  engine.set_deliver_callback(
      [&](const net::Packet& pkt, sim::SimTime when) {
        const std::size_t qi =
            static_cast<std::size_t>(pkt.flow_id >> kFlowIdShift);
        PreparedQuery& p = prepared[qi];
        join_.NoteArrival(pkt, when, &p.arrivals);
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

  {
    obs::HostPhase net_phase("host.network_sim", topts.obs.metrics);
    engine.Start();  // no pre-start flows: queries admit dynamically
    sim.Run();
  }
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
    q.matches = p.join.matches;
    q.solo_latency = p.solo_latency;
    out.tenancy.queries.push_back(q);
    out.total_matches += p.join.matches;
    out.checksum += p.join.checksum;
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
