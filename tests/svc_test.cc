// Tests for the multi-tenant service layer: link-arbitration semantics
// in LinkStateTable, source pacing in the transfer engine, and the
// query scheduler's admission / SLO accounting (DESIGN.md Sec 15).

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/units.h"
#include "data/generator.h"
#include "join/mg_join.h"
#include "net/link_state.h"
#include "net/packet.h"
#include "net/routing_policy.h"
#include "net/transfer_engine.h"
#include "sim/simulator.h"
#include "svc/service.h"
#include "topo/presets.h"

namespace mgjoin {
namespace {

using net::ArbitrationKind;
using net::Flow;
using net::LinkStateTable;
using net::Packet;
using net::TransferEngine;
using net::TransferOptions;
using topo::MakeDgx1V;

// ---------------------------------------------------------------------------
// LinkStateTable arbitration semantics.

class ArbitrationTest : public ::testing::Test {
 protected:
  ArbitrationTest() : topo_(MakeDgx1V()), links_(&sim_, topo_.get()) {}
  sim::Simulator sim_;
  std::unique_ptr<topo::Topology> topo_;
  LinkStateTable links_;
};

TEST_F(ArbitrationTest, FifoNeverPaces) {
  links_.RegisterQuery(1, 0);
  links_.RegisterQuery(2, 7);
  const topo::Channel& ch = topo_->channel(0, 1);
  links_.ReserveChannel(ch, 2 * kMiB, 1);
  links_.ReserveChannel(ch, 2 * kMiB, 2);
  EXPECT_EQ(links_.QueryReleaseTime(1, ch.path[0]), 0u);
  EXPECT_EQ(links_.QueryReleaseTime(2, ch.path[0]), 0u);
}

TEST_F(ArbitrationTest, UnregisteredQueryDegradesToFifo) {
  links_.set_arbitration(ArbitrationKind::kPriority);
  const topo::Channel& ch = topo_->channel(0, 1);
  links_.ReserveChannel(ch, 2 * kMiB, 999);
  EXPECT_EQ(links_.QueryReleaseTime(999, ch.path[0]), 0u);
  EXPECT_EQ(links_.QueryReleaseTime(LinkStateTable::kNoQuery, ch.path[0]),
            0u);
}

TEST_F(ArbitrationTest, PriorityPacesLowerClassOnly) {
  links_.set_arbitration(ArbitrationKind::kPriority);
  links_.RegisterQuery(1, 0);  // low class
  links_.RegisterQuery(2, 5);  // high class
  const topo::Channel& ch = topo_->channel(0, 1);
  const topo::LinkDir ld = ch.path[0];
  links_.ReserveChannel(ch, 2 * kMiB, 2);
  links_.ReserveChannel(ch, 2 * kMiB, 1);
  // The high class has no competition above it: never paced.
  EXPECT_EQ(links_.QueryReleaseTime(2, ld), 0u);
  // The low class owes virtual time, capped at one tick past the wire
  // horizon (work conservation: an idle direction always re-opens).
  const sim::SimTime release = links_.QueryReleaseTime(1, ld);
  EXPECT_GT(release, sim_.Now());
  EXPECT_LE(release, sim_.Now() + links_.TrueQueueDelay(ld) + 1);
  // A tenant that never touched the direction has no debt there.
  EXPECT_EQ(links_.QueryReleaseTime(1, topo_->channel(2, 3).path[0]), 0u);
  // Once the high class finishes, the low class is immediately free.
  links_.UnregisterQuery(2);
  EXPECT_EQ(links_.QueryReleaseTime(1, ld), 0u);
}

TEST_F(ArbitrationTest, FairSharePacesOnlyUnderCompetition) {
  links_.set_arbitration(ArbitrationKind::kFairShare);
  links_.RegisterQuery(1);
  const topo::Channel& ch = topo_->channel(0, 1);
  const topo::LinkDir ld = ch.path[0];
  links_.ReserveChannel(ch, 2 * kMiB, 1);
  // Alone on the direction: fair-share degrades to FIFO.
  EXPECT_EQ(links_.QueryReleaseTime(1, ld), 0u);
  links_.RegisterQuery(2);
  links_.ReserveChannel(ch, 2 * kMiB, 2);
  // A competitor arrived: the first tenant's debt now bites.
  EXPECT_GT(links_.QueryReleaseTime(1, ld), sim_.Now());
  links_.UnregisterQuery(2);
  EXPECT_EQ(links_.QueryReleaseTime(1, ld), 0u);
}

TEST_F(ArbitrationTest, PacingNeverExceedsWireHorizon) {
  links_.set_arbitration(ArbitrationKind::kPriority);
  links_.RegisterQuery(1, 0);
  links_.RegisterQuery(2, 5);
  const topo::Channel& ch = topo_->channel(0, 1);
  const topo::LinkDir ld = ch.path[0];
  for (int i = 0; i < 4; ++i) links_.ReserveChannel(ch, 8 * kMiB, 2);
  links_.ReserveChannel(ch, 8 * kMiB, 1);
  const sim::SimTime horizon = links_.TrueQueueDelay(ld);
  ASSERT_GT(horizon, 0u);
  // However much virtual time the low class owes, the gate re-checks
  // one tick past the horizon so pacing cannot strand an idle wire.
  EXPECT_LE(links_.QueryReleaseTime(1, ld), horizon + 1);
  // Jump past the backlog: the wire is idle, so the release no longer
  // lies in the future even though the debt was never voided.
  sim_.ScheduleAt(horizon + 2, [] {});
  sim_.Run();
  EXPECT_LE(links_.QueryReleaseTime(1, ld), sim_.Now());
}

// ---------------------------------------------------------------------------
// Transfer-engine source pacing.

struct TenancyRun {
  net::TransferStats stats;
  std::map<std::uint64_t, sim::SimTime> last_delivery;  // by query id
};

// Three flows over the single 0->1 channel: a small high-class lead
// (so the high tenant touches the direction early), the low tenant's
// bulk, then the high tenant's bulk queued *behind* it. Under FIFO the
// queue order wins; under strict priority the high class must overtake
// through the arbitration gate's reorder window.
TenancyRun RunContendedPair(ArbitrationKind kind) {
  sim::Simulator s;
  auto topo = MakeDgx1V();
  auto policy = net::MakePolicy(net::PolicyKind::kDirect);
  TransferOptions options;
  options.arbitration = kind;
  options.packet_bytes = 1 * kMiB;
  TransferEngine eng(&s, topo.get(), {0, 1}, policy.get(), options);
  TenancyRun run;
  std::map<std::uint64_t, std::uint64_t> flow_query = {{1, 2}, {2, 1},
                                                       {3, 2}};
  eng.set_deliver_callback(
      [&run, &flow_query](const Packet& p, sim::SimTime when) {
        sim::SimTime& last = run.last_delivery[flow_query.at(p.flow_id)];
        last = std::max(last, when);
      });
  Flow lead{1, 0, 1, 2 * kMiB, 0, 0.0, 7, {}};
  lead.tag.query_id = 2;
  Flow low{2, 0, 1, 32 * kMiB, 0, 0.0, 0, {}};
  low.tag.query_id = 1;
  Flow bulk{3, 0, 1, 32 * kMiB, 0, 0.0, 7, {}};
  bulk.tag.query_id = 2;
  eng.AddFlow(lead);
  eng.AddFlow(low);
  eng.AddFlow(bulk);
  eng.Start();
  s.Run();
  EXPECT_TRUE(eng.AllDone());
  run.stats = eng.stats();
  return run;
}

TEST(TransferArbitrationTest, StrictPriorityOvertakesQueueOrder) {
  const TenancyRun fifo = RunContendedPair(ArbitrationKind::kFifo);
  const TenancyRun prio = RunContendedPair(ArbitrationKind::kPriority);
  // FIFO serves in queue order: the low tenant's bulk (queued first)
  // completes before the high tenant's bulk behind it.
  EXPECT_LT(fifo.last_delivery.at(1), fifo.last_delivery.at(2));
  EXPECT_EQ(fifo.stats.arb_paces, 0u);
  // Strict priority inverts that: the high class finishes first even
  // though its bulk sat behind 32 MiB of low-class packets.
  EXPECT_LT(prio.last_delivery.at(2), prio.last_delivery.at(1));
  EXPECT_GT(prio.stats.arb_paces, 0u);
  // Work conservation: reordering who goes first must not stretch the
  // overall drain of a saturated link by more than rounding.
  const double fifo_span = static_cast<double>(fifo.stats.last_delivery);
  const double prio_span = static_cast<double>(prio.stats.last_delivery);
  EXPECT_LT(prio_span, 1.10 * fifo_span);
}

TEST(TransferArbitrationTest, FairShareRemovesHeadStart) {
  const TenancyRun fifo = RunContendedPair(ArbitrationKind::kFifo);
  const TenancyRun fair = RunContendedPair(ArbitrationKind::kFairShare);
  // Under FIFO the first-queued tenant keeps a large head start; fair
  // share interleaves the two, pushing its completion later.
  EXPECT_GT(fair.last_delivery.at(1), fifo.last_delivery.at(1));
  EXPECT_GT(fair.stats.arb_paces, 0u);
  const double fifo_span = static_cast<double>(fifo.stats.last_delivery);
  const double fair_span = static_cast<double>(fair.stats.last_delivery);
  EXPECT_LT(fair_span, 1.10 * fifo_span);
}

// ---------------------------------------------------------------------------
// Query scheduler.

svc::QuerySpec SmallQuery(std::uint64_t id, int priority = 0,
                          sim::SimTime submit_at = 0) {
  svc::QuerySpec q;
  q.query_id = id;
  q.gen.tuples_per_relation = 1 << 14;
  q.gen.seed = 42 + id;
  q.priority = priority;
  q.submit_at = submit_at;
  return q;
}

TEST(QuerySchedulerTest, SingleQueryHasUnitSlowdown) {
  auto topo = MakeDgx1V();
  svc::ServiceOptions opts;
  svc::QueryScheduler sched(topo.get(), topo::FirstNGpus(4), opts);
  const auto res = sched.Run({SmallQuery(1)});
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  const auto& out = res.value().tenancy;
  ASSERT_EQ(out.queries.size(), 1u);
  EXPECT_GT(out.queries[0].matches, 0u);
  EXPECT_EQ(out.queries[0].QueueDelay(), 0u);
  // Alone on the fabric, the shared run IS the solo run.
  EXPECT_DOUBLE_EQ(out.queries[0].Slowdown(), 1.0);
}

TEST(QuerySchedulerTest, SoloQueryMatchesExecute) {
  // The scheduler runs a query through MgJoin's own host phases and
  // timing chain: alone on the fabric it must reproduce Execute exactly,
  // with overlap (MG-Join) and without (DPRJ's bulk transfers).
  auto topo = MakeDgx1V();
  const auto gpus = topo::FirstNGpus(4);
  for (join::MgJoinOptions jopts :
       {join::MgJoinOptions{}, join::MgJoinOptions::Dprj()}) {
    SCOPED_TRACE(jopts.overlap ? "overlap" : "bulk");
    jopts.virtual_scale = 256.0;
    svc::QuerySpec q = SmallQuery(1);
    q.gen.num_gpus = static_cast<int>(gpus.size());
    const auto [r, s] = data::MakeJoinInput(q.gen);
    const auto direct = join::MgJoin(topo.get(), gpus, jopts).Execute(r, s);
    ASSERT_TRUE(direct.ok()) << direct.status().ToString();

    svc::ServiceOptions opts;
    opts.join = jopts;
    const auto served =
        svc::QueryScheduler(topo.get(), gpus, opts).Run({q});
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    ASSERT_EQ(served.value().tenancy.queries.size(), 1u);
    const auto& out = served.value().tenancy.queries[0];
    const sim::SimTime total = direct.value().timing.total;
    EXPECT_GT(direct.value().net.payload_bytes, 0u);
    EXPECT_EQ(out.complete_at - out.admit_at, total);
    EXPECT_EQ(out.solo_latency, total);
    EXPECT_EQ(out.matches, direct.value().matches);
    EXPECT_EQ(served.value().checksum, direct.value().checksum);
  }
}

TEST(QuerySchedulerTest, HostPhasesTimeIntoTheAttachedRegistry) {
  // Same four wall-time counters as MgJoin::Execute; the shared fabric
  // run is the scheduler's host.network_sim phase.
  auto topo = MakeDgx1V();
  obs::MetricsRegistry metrics;
  svc::ServiceOptions opts;
  opts.join.transfer.obs.metrics = &metrics;
  svc::QueryScheduler sched(topo.get(), topo::FirstNGpus(4), opts);
  ASSERT_TRUE(sched.Run({SmallQuery(1), SmallQuery(2)}).ok());
  std::vector<std::string> wall;
  for (const auto& [name, counter] : metrics.counters()) {
    if (name.ends_with(".wall_us")) wall.push_back(name);
  }
  EXPECT_EQ(wall, (std::vector<std::string>{
                      "host.histogram.wall_us", "host.local_join.wall_us",
                      "host.network_sim.wall_us", "host.shuffle.wall_us"}));
}

TEST(QuerySchedulerTest, InflightLimitSerializesAdmissions) {
  auto topo = MakeDgx1V();
  svc::ServiceOptions opts;
  opts.inflight_limit = 1;
  opts.measure_solo = false;
  svc::QueryScheduler sched(topo.get(), topo::FirstNGpus(4), opts);
  const auto res =
      sched.Run({SmallQuery(1), SmallQuery(2), SmallQuery(3)});
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  const auto& qs = res.value().tenancy.queries;
  ASSERT_EQ(qs.size(), 3u);
  // One at a time: each admission waits for the predecessor to finish.
  EXPECT_EQ(qs[0].admit_at, qs[0].submit_at);
  EXPECT_GE(qs[1].admit_at, qs[0].complete_at);
  EXPECT_GE(qs[2].admit_at, qs[1].complete_at);
  EXPECT_GT(qs[2].QueueDelay(), qs[1].QueueDelay());
}

TEST(QuerySchedulerTest, UnlimitedInflightAdmitsAtSubmit) {
  auto topo = MakeDgx1V();
  svc::ServiceOptions opts;
  opts.measure_solo = false;
  svc::QueryScheduler sched(topo.get(), topo::FirstNGpus(4), opts);
  const auto res = sched.Run(
      {SmallQuery(1, 0, 0), SmallQuery(2, 1, 0),
       SmallQuery(3, 2, 5 * sim::kMicrosecond)});
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  const auto& out = res.value();
  ASSERT_EQ(out.tenancy.queries.size(), 3u);
  std::uint64_t payload = 0;
  for (const auto& q : out.tenancy.queries) {
    EXPECT_EQ(q.admit_at, q.submit_at);
    EXPECT_GT(q.matches, 0u);
    payload += q.payload_bytes;
  }
  EXPECT_EQ(out.tenancy.queries[2].priority, 2);
  // Per-query FlowTag attribution covers the whole shared fabric: the
  // tenants' payloads sum exactly to the engine's total.
  EXPECT_EQ(payload, out.net.payload_bytes);
  EXPECT_EQ(out.tenancy.slo.count, 3u);
  EXPECT_GE(out.tenancy.slo.p99_ns, out.tenancy.slo.p50_ns);
}

TEST(QuerySchedulerTest, ArbitrationPolicyChangesSloProfile) {
  auto topo = MakeDgx1V();
  const auto gpus = topo::FirstNGpus(4);
  std::vector<svc::QuerySpec> queries;
  for (std::uint64_t q = 1; q <= 4; ++q) {
    queries.push_back(SmallQuery(q, static_cast<int>(q % 2)));
  }
  std::map<std::string, svc::ServiceResult> by_policy;
  for (const ArbitrationKind kind :
       {ArbitrationKind::kFifo, ArbitrationKind::kFairShare,
        ArbitrationKind::kPriority}) {
    svc::ServiceOptions opts;
    opts.arbitration = kind;
    opts.measure_solo = false;
    // Simulate paper-sized flows over the smoke-sized functional input
    // so tenants actually collide on the wire (at the functional size
    // alone every flow drains before anyone owes debt).
    opts.join.virtual_scale = 2048.0;
    svc::QueryScheduler sched(topo.get(), gpus, opts);
    const auto res = sched.Run(queries);
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    by_policy[net::ArbitrationKindName(kind)] = res.value();
  }
  // Identical inputs: every policy joins the same data.
  const std::uint64_t matches = by_policy["fifo"].total_matches;
  EXPECT_GT(matches, 0u);
  EXPECT_EQ(by_policy["fair"].total_matches, matches);
  EXPECT_EQ(by_policy["priority"].total_matches, matches);
  EXPECT_EQ(by_policy["fifo"].net.arb_paces, 0u);
  // The tenant policies actually pace somebody under 4-way contention.
  EXPECT_GT(by_policy["fair"].net.arb_paces, 0u);
  EXPECT_GT(by_policy["priority"].net.arb_paces, 0u);
}

}  // namespace
}  // namespace mgjoin
