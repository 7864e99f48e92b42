// Property-based tests: invariants that must hold across broad parameter
// sweeps — payload conservation in the network under every policy and
// buffer configuration, route well-formedness on every fabric, ARM
// monotonicity, compression round-trips on adversarial inputs, and
// assignment completeness under skew.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/random.h"
#include "common/units.h"
#include "data/compression.h"
#include "data/generator.h"
#include "join/histogram.h"
#include "join/local_join.h"
#include "join/mg_join.h"
#include "join/partition_assignment.h"
#include "net/fault_plan.h"
#include "net/routing_policy.h"
#include "net/transfer_engine.h"
#include "obs/obs.h"
#include "sim/simulator.h"
#include "topo/presets.h"

namespace mgjoin {
namespace {

// ---------------------------------------------------------------------------
// Network conservation: every byte injected is delivered exactly once,
// for every (policy, ring size, packet size, gpu count) combination.

struct NetCase {
  net::PolicyKind policy;
  std::uint64_t ring_bytes;
  std::uint64_t packet_bytes;
  int num_gpus;
};

class NetConservationTest : public ::testing::TestWithParam<NetCase> {};

TEST_P(NetConservationTest, EveryByteDeliveredOnce) {
  const NetCase c = GetParam();
  sim::Simulator s;
  auto topo = topo::MakeDgx1V();
  net::TransferOptions opts;
  opts.ring_buffer_bytes = c.ring_bytes;
  opts.packet_bytes = c.packet_bytes;
  auto policy = net::MakePolicy(c.policy, opts.max_intermediates);
  const auto gpus = topo::FirstNGpus(c.num_gpus);
  net::TransferEngine eng(&s, topo.get(), gpus, policy.get(), opts);

  std::map<std::uint64_t, std::uint64_t> delivered;
  eng.set_deliver_callback([&](const net::Packet& p, sim::SimTime) {
    delivered[p.flow_id] += p.payload_bytes;
  });

  Rng rng(c.num_gpus * 977 + c.packet_bytes);
  std::map<std::uint64_t, std::uint64_t> expected;
  std::uint64_t id = 0;
  for (int a = 0; a < c.num_gpus; ++a) {
    for (int b = 0; b < c.num_gpus; ++b) {
      if (a == b) continue;
      const std::uint64_t bytes = 1 + rng.Uniform(24 * kMiB);
      expected[id] = bytes;
      eng.AddFlow(net::Flow{id++, gpus[a], gpus[b], bytes, 0, 0.0, 0, {}});
    }
  }
  eng.Start();
  s.Run();
  ASSERT_TRUE(eng.AllDone());
  EXPECT_EQ(delivered, expected);
  // Wire bytes never lie below payload (forwarding only adds traffic).
  EXPECT_GE(eng.stats().wire_bytes, eng.stats().payload_bytes);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, NetConservationTest,
    ::testing::Values(
        NetCase{net::PolicyKind::kAdaptive, 4 * kMiB, 2 * kMiB, 8},
        NetCase{net::PolicyKind::kAdaptive, 64 * kMiB, 2 * kMiB, 8},
        NetCase{net::PolicyKind::kAdaptive, 8 * kMiB, 512 * kKiB, 5},
        NetCase{net::PolicyKind::kBandwidth, 16 * kMiB, 2 * kMiB, 8},
        NetCase{net::PolicyKind::kBandwidth, 4 * kMiB, 1 * kMiB, 6},
        NetCase{net::PolicyKind::kLatency, 16 * kMiB, 2 * kMiB, 7},
        NetCase{net::PolicyKind::kHopCount, 16 * kMiB, 4 * kMiB, 8},
        NetCase{net::PolicyKind::kDirect, 64 * kMiB, 16 * kMiB, 8},
        NetCase{net::PolicyKind::kCentralized, 16 * kMiB, 2 * kMiB, 4},
        NetCase{net::PolicyKind::kAdaptive, 4 * kMiB, 256 * kKiB, 3},
        NetCase{net::PolicyKind::kAdaptive, 16 * kMiB, 2 * kMiB, 2}));

// ---------------------------------------------------------------------------
// Fault schedules: any plan whose downed links eventually come back is
// survivable. Random GPU subsets, random link faults, random policies —
// every byte must still arrive exactly once, with no payload loss and
// no deadlock-watchdog trip.

class FaultScheduleFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(FaultScheduleFuzzTest, SurvivablePlansDeliverEverything) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 0x9E3779B9ull + 17);
  sim::Simulator s;
  auto topo = topo::MakeDgx1V();

  // Random participant subset of at least two GPUs.
  std::vector<int> all{0, 1, 2, 3, 4, 5, 6, 7};
  rng.Shuffle(&all);
  const int g = 2 + static_cast<int>(rng.Uniform(7));
  std::vector<int> gpus(all.begin(), all.begin() + g);
  std::sort(gpus.begin(), gpus.end());

  // Random survivable plan: every down is paired with a later restore
  // (degrades need no repair — the link keeps carrying traffic).
  net::FaultPlan plan;
  std::set<int> used;
  const int num_faults = 1 + static_cast<int>(rng.Uniform(3));
  for (int i = 0; i < num_faults; ++i) {
    const int link = static_cast<int>(
        rng.Uniform(static_cast<std::uint64_t>(topo->num_links())));
    if (!used.insert(link).second) continue;
    const sim::SimTime at = rng.Uniform(2 * sim::kMillisecond);
    const sim::SimTime hold =
        100 * sim::kMicrosecond + rng.Uniform(2 * sim::kMillisecond);
    if (rng.Uniform(3) == 0) {
      plan.Degrade(link, 0.1 + 0.8 * rng.NextDouble(), at);
    } else {
      plan.Down(link, at);
      plan.Restore(link, at + hold);
    }
  }

  net::TransferOptions opts;
  opts.faults = plan;
  obs::InvariantAuditor auditor;
  std::vector<std::string> failures;
  auditor.set_failure_handler(
      [&failures](const std::string& m) { failures.push_back(m); });
  opts.obs.auditor = &auditor;
  const net::PolicyKind kinds[] = {net::PolicyKind::kAdaptive,
                                   net::PolicyKind::kBandwidth,
                                   net::PolicyKind::kDirect};
  auto policy = net::MakePolicy(kinds[rng.Uniform(3)],
                                opts.max_intermediates);
  net::TransferEngine eng(&s, topo.get(), gpus, policy.get(), opts);

  std::map<std::uint64_t, std::uint64_t> delivered, expected;
  eng.set_deliver_callback([&delivered](const net::Packet& p, sim::SimTime) {
    delivered[p.flow_id] += p.payload_bytes;
  });
  std::uint64_t id = 0;
  for (int a : gpus) {
    for (int b : gpus) {
      if (a == b) continue;
      const std::uint64_t bytes = 1 + rng.Uniform(4 * kMiB);
      expected[id] = bytes;
      eng.AddFlow(net::Flow{id++, a, b, bytes, 0, 0.0, 0, {}});
    }
  }
  eng.Start();
  s.Run();
  ASSERT_TRUE(eng.AllDone()) << plan.ToString(*topo);
  EXPECT_EQ(delivered, expected) << plan.ToString(*topo);
  EXPECT_TRUE(failures.empty())
      << "auditor tripped: " << failures.front() << "\nplan:\n"
      << plan.ToString(*topo);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultScheduleFuzzTest,
                         ::testing::Range(1, 13));

// ---------------------------------------------------------------------------
// Route invariants over every pair on both machines.

TEST(RoutePropertyTest, AllRoutesAreSimplePathsOverRealChannels) {
  for (auto make : {topo::MakeDgx1V, topo::MakeDgxStation}) {
    auto topo = make();
    for (int a = 0; a < topo->num_gpus(); ++a) {
      for (int b = 0; b < topo->num_gpus(); ++b) {
        if (a == b) continue;
        for (int max_int : {0, 1, 3}) {
          const auto& routes = topo->EnumerateRoutes(a, b, max_int);
          ASSERT_FALSE(routes.empty());
          for (const topo::Route& r : routes) {
            EXPECT_EQ(r.gpus.front(), a);
            EXPECT_EQ(r.gpus.back(), b);
            EXPECT_LE(r.intermediates(), max_int);
            std::set<int> uniq(r.gpus.begin(), r.gpus.end());
            EXPECT_EQ(uniq.size(), r.gpus.size()) << r.ToString();
            for (std::size_t i = 0; i + 1 < r.gpus.size(); ++i) {
              // Every hop resolves to a physical channel.
              EXPECT_FALSE(
                  topo->channel(r.gpus[i], r.gpus[i + 1]).path.empty());
            }
          }
        }
      }
    }
  }
}

TEST(RoutePropertyTest, PoliciesAlwaysReturnValidRoutes) {
  auto topo = topo::MakeDgx1V();
  sim::Simulator s;
  net::LinkStateTable links(&s, topo.get());
  for (net::PolicyKind kind :
       {net::PolicyKind::kDirect, net::PolicyKind::kBandwidth,
        net::PolicyKind::kHopCount, net::PolicyKind::kLatency,
        net::PolicyKind::kAdaptive, net::PolicyKind::kCentralized}) {
    auto policy = net::MakePolicy(kind);
    for (int a = 0; a < 8; ++a) {
      for (int b = 0; b < 8; ++b) {
        if (a == b) continue;
        for (std::uint64_t bytes : {64 * kKiB, 2 * kMiB, 16 * kMiB}) {
          const topo::Route r = policy->ChooseRoute(a, b, bytes, 8, links);
          EXPECT_EQ(r.gpus.front(), a) << net::PolicyKindName(kind);
          EXPECT_EQ(r.gpus.back(), b);
          EXPECT_LE(r.intermediates(), 3);
        }
      }
    }
  }
}

TEST(RoutePropertyTest, ArmIsMonotoneInCongestion) {
  // Adding load to any link of a route never decreases its ARM value.
  auto topo = topo::MakeDgx1V();
  sim::Simulator s;
  net::LinkStateTable links(&s, topo.get());
  Rng rng(5);
  for (int iter = 0; iter < 200; ++iter) {
    const int a = static_cast<int>(rng.Uniform(8));
    int b = static_cast<int>(rng.Uniform(8));
    if (a == b) b = (b + 1) % 8;
    const auto& routes = topo->EnumerateRoutes(a, b, 3);
    const topo::Route& r =
        routes[static_cast<std::size_t>(rng.Uniform(routes.size()))];
    const sim::SimTime before =
        net::ArmValue(r, 2 * kMiB, 8, links, /*published=*/false);
    const std::size_t hop = rng.Uniform(r.gpus.size() - 1);
    links.ReserveChannel(topo->channel(r.gpus[hop], r.gpus[hop + 1]),
                         4 * kMiB);
    const sim::SimTime after =
        net::ArmValue(r, 2 * kMiB, 8, links, /*published=*/false);
    EXPECT_GE(after, before) << r.ToString();
  }
}

// ---------------------------------------------------------------------------
// Compression round-trip on adversarial random inputs.

class CompressionFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(CompressionFuzzTest, RandomPartitionsRoundTrip) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 50; ++iter) {
    const int domain_bits = 8 + static_cast<int>(rng.Uniform(24));
    const int radix_bits =
        1 + static_cast<int>(rng.Uniform(std::min(domain_bits, 14)));
    const std::uint32_t partition = static_cast<std::uint32_t>(
        rng.Uniform(1u << radix_bits));
    const std::size_t n = rng.Uniform(6000);
    const int suffix = domain_bits - radix_bits;
    std::vector<data::Tuple> tuples(n);
    for (auto& t : tuples) {
      t.key = (partition << suffix) |
              static_cast<std::uint32_t>(rng.Uniform(1ull << suffix));
      t.id = static_cast<std::uint32_t>(rng.Next());
    }
    auto cp = data::CompressPartition(tuples.data(), n, partition,
                                      domain_bits, radix_bits);
    ASSERT_TRUE(cp.ok());
    auto back = data::DecompressPartition(cp.value());
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back.value(), tuples)
        << "domain=" << domain_bits << " radix=" << radix_bits
        << " n=" << n;
    // The estimator stays within a block header of the real payload.
    const std::uint64_t est = data::EstimateCompressedBytes(
        tuples.data(), n, domain_bits, radix_bits);
    if (n > 0) {
      const double rel =
          std::abs(static_cast<double>(est) -
                   static_cast<double>(cp.value().WireBytes())) /
          static_cast<double>(cp.value().WireBytes());
      EXPECT_LT(rel, 0.05);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompressionFuzzTest,
                         ::testing::Values(1, 2, 3, 4, 5));

// ---------------------------------------------------------------------------
// Assignment invariants under skew sweeps.

class AssignmentPropertyTest
    : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(AssignmentPropertyTest, CoversAllPartitionsAndBoundsLoad) {
  const auto [key_z, place_z] = GetParam();
  auto topo = topo::MakeDgx1V();
  data::GenOptions gen;
  gen.tuples_per_relation = 1 << 17;
  gen.num_gpus = 8;
  gen.key_zipf = key_z;
  gen.placement_zipf = place_z;
  auto [r, s] = data::MakeJoinInput(gen);
  const auto hr = join::BuildHistograms(r, 10);
  const auto hs = join::BuildHistograms(s, 10);
  const auto pa = join::ComputeAssignment(*topo, topo::FirstNGpus(8), hr,
                                          hs, join::AssignmentOptions{});
  std::vector<std::uint64_t> load(8, 0);
  for (std::uint32_t p = 0; p < hr.num_partitions(); ++p) {
    ASSERT_FALSE(pa.owners[p].empty()) << "unassigned partition " << p;
    std::set<int> uniq(pa.owners[p].begin(), pa.owners[p].end());
    EXPECT_EQ(uniq.size(), pa.owners[p].size());
    for (int o : pa.owners[p]) {
      ASSERT_GE(o, 0);
      ASSERT_LT(o, 8);
      load[o] += hr.PartitionTotal(p) + hs.PartitionTotal(p);
    }
  }
  // No GPU may end up with more than half the key-matching work.
  const std::uint64_t total = r.TotalTuples() + s.TotalTuples();
  for (int g = 0; g < 8; ++g) {
    EXPECT_LT(load[g], total) << "GPU " << g << " overloaded";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Skews, AssignmentPropertyTest,
    ::testing::Values(std::make_pair(0.0, 0.0), std::make_pair(0.5, 0.0),
                      std::make_pair(1.0, 0.0), std::make_pair(0.0, 1.0),
                      std::make_pair(1.0, 1.0),
                      std::make_pair(1.5, 0.5)));

// ---------------------------------------------------------------------------
// End-to-end join equivalence: every backend configuration produces the
// reference answer on the same skewed input.

class JoinEquivalenceTest
    : public ::testing::TestWithParam<net::PolicyKind> {};

TEST_P(JoinEquivalenceTest, PolicyDoesNotChangeTheAnswer) {
  auto topo = topo::MakeDgx1V();
  data::GenOptions gen;
  gen.tuples_per_relation = 1 << 16;
  gen.num_gpus = 8;
  gen.key_zipf = 0.75;
  gen.placement_zipf = 0.5;
  auto [r, s] = data::MakeJoinInput(gen);
  const join::LocalJoinStats ref = join::ReferenceJoin(r, s);

  join::MgJoinOptions opts;
  opts.policy = GetParam();
  const auto res = join::MgJoin(topo.get(), topo::FirstNGpus(8), opts)
                       .Execute(r, s)
                       .ValueOrDie();
  EXPECT_EQ(res.matches, ref.matches);
  EXPECT_EQ(res.checksum, ref.checksum);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, JoinEquivalenceTest,
    ::testing::Values(net::PolicyKind::kDirect, net::PolicyKind::kBandwidth,
                      net::PolicyKind::kHopCount, net::PolicyKind::kLatency,
                      net::PolicyKind::kAdaptive,
                      net::PolicyKind::kCentralized));

// ---------------------------------------------------------------------------
// Pair materialization matches the counting path.

TEST(MaterializePropertyTest, PairsMatchCountsAndChecksum) {
  auto topo = topo::MakeDgx1V();
  data::GenOptions gen;
  gen.tuples_per_relation = 1 << 15;
  gen.num_gpus = 4;
  gen.key_zipf = 0.9;
  auto [r, s] = data::MakeJoinInput(gen);

  join::MgJoinOptions opts;
  opts.materialize_pairs = true;
  const auto res = join::MgJoin(topo.get(), topo::FirstNGpus(4), opts)
                       .Execute(r, s)
                       .ValueOrDie();
  ASSERT_EQ(res.pairs.size(), res.matches);
  // Recompute the checksum from the materialized pairs.
  std::uint64_t checksum = 0;
  for (const auto& [a, b] : res.pairs) {
    join::AccumulateMatch(a, b, &checksum);
  }
  EXPECT_EQ(checksum, res.checksum);
}

}  // namespace
}  // namespace mgjoin
