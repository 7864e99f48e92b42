// Thread-count-invariance suite (DESIGN.md Sec 11): every functional
// result, matched-pair list, and exported trace must be byte-identical
// whether the host runs on 1, 2, 3 or 8 worker threads. This property is
// what makes the CI bench gate sound — a simulated-time regression can
// never be explained away by "the thread count changed".

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "data/generator.h"
#include "data/relation.h"
#include "join/histogram.h"
#include "join/local_join.h"
#include "join/mg_join.h"
#include "join/partition_assignment.h"
#include "join/shuffle.h"
#include "net/fault_plan.h"
#include "net/link_state.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "svc/service.h"
#include "topo/presets.h"

namespace mgjoin {
namespace {

// The thread counts the suite sweeps; the first is the serial baseline
// the others are compared against. ResolveThreadCount clamps explicit
// requests to max(hardware, 8), so 8 real workers exist even on small
// CI machines and the interleavings are genuinely exercised. ParallelFor
// splits a range into 4 blocks per worker, so at 3 workers (12 blocks)
// block edges fall inside the power-of-two partition and chunk ranges
// instead of on their boundaries.
constexpr std::size_t kThreadCounts[] = {1, 2, 3, 8};
constexpr std::span<const std::size_t> kParallelThreadCounts =
    std::span(kThreadCounts).subspan(1);

struct JoinRun {
  join::JoinResult result;
  std::string trace_json;
};

JoinRun RunSkewedJoin(std::size_t threads) {
  ThreadPool::SetDefaultThreads(threads);
  data::GenOptions gen;
  gen.tuples_per_relation = 1u << 16;
  gen.num_gpus = 8;
  gen.placement_zipf = 0.5;
  gen.key_zipf = 0.75;  // heavy hitters: deep local recursion
  auto [r, s] = data::MakeJoinInput(gen);

  auto topo = topo::MakeDgx1V();
  join::MgJoinOptions opts;
  opts.materialize_pairs = true;
  obs::TraceRecorder trace;
  opts.transfer.obs.trace = &trace;
  join::MgJoin join(topo.get(), topo::FirstNGpus(8), opts);

  JoinRun run;
  run.result = join.Execute(r, s).ValueOrDie();
  run.trace_json = trace.ToJson();
  return run;
}

TEST(DeterminismTest, JoinResultAndTraceInvariantAcrossThreadCounts) {
  const JoinRun base = RunSkewedJoin(kThreadCounts[0]);
  EXPECT_GT(base.result.matches, 0u);
  EXPECT_FALSE(base.result.pairs.empty());
  for (std::size_t t : kParallelThreadCounts) {
    const JoinRun run = RunSkewedJoin(t);
    EXPECT_EQ(run.result.matches, base.result.matches) << t;
    EXPECT_EQ(run.result.checksum, base.result.checksum) << t;
    EXPECT_EQ(run.result.shuffled_bytes, base.result.shuffled_bytes) << t;
    EXPECT_EQ(run.result.uncompressed_bytes,
              base.result.uncompressed_bytes)
        << t;
    EXPECT_EQ(run.result.timing.total, base.result.timing.total) << t;
    EXPECT_EQ(run.result.timing.distribution,
              base.result.timing.distribution)
        << t;
    // Matched pairs: same pairs in the same order, not merely the same
    // multiset.
    ASSERT_EQ(run.result.pairs.size(), base.result.pairs.size()) << t;
    EXPECT_TRUE(run.result.pairs == base.result.pairs) << t;
    // The exported trace — simulated spans only — is byte-identical.
    EXPECT_EQ(run.trace_json, base.trace_json) << t;
  }
  ThreadPool::SetDefaultThreads(0);
}

JoinRun RunFaultedJoin(std::size_t threads, bool telemetry = false,
                       std::uint64_t* telemetry_ticks = nullptr) {
  ThreadPool::SetDefaultThreads(threads);
  data::GenOptions gen;
  gen.tuples_per_relation = 1u << 16;
  gen.num_gpus = 8;
  gen.placement_zipf = 0.5;
  gen.key_zipf = 0.75;
  auto [r, s] = data::MakeJoinInput(gen);

  auto topo = topo::MakeDgx1V();
  join::MgJoinOptions opts;
  opts.materialize_pairs = true;
  opts.virtual_scale = 512;  // stretch the shuffle so the faults land
  opts.transfer.faults =
      net::FaultPlan::Parse(
          "down:gpu0-gpu3:@1ms,restore:gpu0-gpu3:@4ms,"
          "flap:nvlink5:@1ms:300usx3,degrade:qpi0:0.4:@0us",
          *topo)
          .ValueOrDie();
  obs::TraceRecorder trace;
  opts.transfer.obs.trace = &trace;
  obs::MetricsRegistry metrics;
  obs::TelemetrySampler sampler(250 * sim::kMicrosecond);
  if (telemetry) {
    opts.transfer.obs.metrics = &metrics;
    opts.transfer.obs.telemetry = &sampler;
  }
  join::MgJoin join(topo.get(), topo::FirstNGpus(8), opts);

  JoinRun run;
  run.result = join.Execute(r, s).ValueOrDie();
  run.trace_json = trace.ToJson();
  if (telemetry_ticks != nullptr) *telemetry_ticks = sampler.ticks();
  return run;
}

TEST(DeterminismTest, FaultedRunInvariantAcrossThreadCounts) {
  // PR 2 x PR 4 crossover: repair/retry machinery (reroutes, batch
  // aborts, waits) must replay identically — down to the exported trace
  // bytes — whether the host runs 1 worker or 8.
  const JoinRun base = RunFaultedJoin(1);
  EXPECT_GT(base.result.matches, 0u);
  EXPECT_GT(base.result.net.fault_reroutes + base.result.net.fault_waits,
            0u)
      << "fault schedule never intersected the shuffle; re-calibrate";
  const JoinRun run = RunFaultedJoin(8);
  EXPECT_EQ(run.result.matches, base.result.matches);
  EXPECT_EQ(run.result.checksum, base.result.checksum);
  EXPECT_EQ(run.result.shuffled_bytes, base.result.shuffled_bytes);
  EXPECT_EQ(run.result.timing.total, base.result.timing.total);
  EXPECT_EQ(run.result.net.fault_reroutes, base.result.net.fault_reroutes);
  EXPECT_EQ(run.result.net.fault_aborts, base.result.net.fault_aborts);
  EXPECT_EQ(run.result.net.fault_waits, base.result.net.fault_waits);
  ASSERT_EQ(run.result.pairs.size(), base.result.pairs.size());
  EXPECT_TRUE(run.result.pairs == base.result.pairs);
  EXPECT_EQ(run.trace_json, base.trace_json);
  ThreadPool::SetDefaultThreads(0);
}

TEST(DeterminismTest, TelemetrySamplingDoesNotPerturbTheRun) {
  // The sampler is an observer outside the event-sequence stream
  // (DESIGN.md Sec 14): enabling it on a faulted adaptive run must not
  // change the join result by one tuple or the core trace by one byte,
  // at any thread count.
  for (std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    const JoinRun plain = RunFaultedJoin(threads, /*telemetry=*/false);
    std::uint64_t ticks = 0;
    const JoinRun sampled =
        RunFaultedJoin(threads, /*telemetry=*/true, &ticks);
    EXPECT_GT(ticks, 0u) << "sampler never fired; shrink the interval";
    EXPECT_EQ(sampled.result.matches, plain.result.matches) << threads;
    EXPECT_EQ(sampled.result.checksum, plain.result.checksum) << threads;
    EXPECT_EQ(sampled.result.shuffled_bytes, plain.result.shuffled_bytes)
        << threads;
    EXPECT_EQ(sampled.result.timing.total, plain.result.timing.total)
        << threads;
    EXPECT_EQ(sampled.result.net.fault_reroutes,
              plain.result.net.fault_reroutes)
        << threads;
    EXPECT_EQ(sampled.result.net.fault_aborts,
              plain.result.net.fault_aborts)
        << threads;
    ASSERT_EQ(sampled.result.pairs.size(), plain.result.pairs.size())
        << threads;
    EXPECT_TRUE(sampled.result.pairs == plain.result.pairs) << threads;
    EXPECT_EQ(sampled.trace_json, plain.trace_json) << threads;
  }
  ThreadPool::SetDefaultThreads(0);
}

std::uint64_t DigestRelation(const data::DistRelation& rel) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const data::Shard& shard : rel.shards) {
    for (const data::Tuple& t : shard) {
      h = (h ^ t.key) * 0x100000001b3ull;
      h = (h ^ t.id) * 0x100000001b3ull;
    }
  }
  return h;
}

TEST(DeterminismTest, GeneratorInvariantAcrossThreadCounts) {
  data::GenOptions gen;
  gen.tuples_per_relation = 1u << 17;
  gen.num_gpus = 4;
  gen.key_zipf = 1.0;
  gen.placement_zipf = 0.8;

  ThreadPool::SetDefaultThreads(1);
  auto [r1, s1] = data::MakeJoinInput(gen);
  const std::uint64_t dr = DigestRelation(r1);
  const std::uint64_t ds = DigestRelation(s1);
  for (std::size_t t : kParallelThreadCounts) {
    ThreadPool::SetDefaultThreads(t);
    auto [r, s] = data::MakeJoinInput(gen);
    EXPECT_EQ(DigestRelation(r), dr) << t;
    EXPECT_EQ(DigestRelation(s), ds) << t;
  }
  ThreadPool::SetDefaultThreads(0);
}

TEST(DeterminismTest, ReferenceJoinInvariantAndAgreesWithMgJoin) {
  data::GenOptions gen;
  gen.tuples_per_relation = 1u << 14;
  gen.num_gpus = 4;
  gen.key_zipf = 0.9;
  auto [r, s] = data::MakeJoinInput(gen);

  ThreadPool::SetDefaultThreads(1);
  const join::LocalJoinStats ref1 = join::ReferenceJoin(r, s);
  EXPECT_GT(ref1.matches, 0u);
  for (std::size_t t : kParallelThreadCounts) {
    ThreadPool::SetDefaultThreads(t);
    const join::LocalJoinStats ref = join::ReferenceJoin(r, s);
    EXPECT_EQ(ref.matches, ref1.matches) << t;
    EXPECT_EQ(ref.checksum, ref1.checksum) << t;
    EXPECT_EQ(ref.r_tuples, ref1.r_tuples) << t;
    EXPECT_EQ(ref.s_tuples, ref1.s_tuples) << t;

    auto topo = topo::MakeDgx1V();
    join::MgJoin join(topo.get(), topo::FirstNGpus(4),
                      join::MgJoinOptions{});
    const join::JoinResult res = join.Execute(r, s).ValueOrDie();
    EXPECT_EQ(res.matches, ref1.matches) << t;
    EXPECT_EQ(res.checksum, ref1.checksum) << t;
  }
  ThreadPool::SetDefaultThreads(0);
}

// Lays out per-partition tuple lists as one flat partitioned shard.
data::PartitionedShard Flatten(
    const std::vector<std::vector<data::Tuple>>& parts) {
  data::PartitionedShard out;
  out.offsets.push_back(0);
  for (const std::vector<data::Tuple>& part : parts) {
    out.tuples.insert(out.tuples.end(), part.begin(), part.end());
    out.offsets.push_back(out.tuples.size());
  }
  return out;
}

TEST(DeterminismTest, ShuffleLayoutInvariantAndMatchesNaiveReference) {
  // Skewed keys and placement split partitions, so the broadcast copies
  // run too. The received layout, flows and byte counters must not
  // depend on the thread count, and the layout must equal a naive
  // append: per partition, source shards in ascending order, each in
  // shard order, at every destination.
  data::GenOptions gen;
  gen.tuples_per_relation = 1u << 17;
  gen.num_gpus = 8;
  gen.key_zipf = 1.0;
  gen.placement_zipf = 0.5;
  auto [r, s] = data::MakeJoinInput(gen);
  auto topo = topo::MakeDgx1V();
  const std::vector<int> gpus = topo::FirstNGpus(8);
  const int radix_bits = 12;
  const join::PartitionAssignment pa = join::ComputeAssignment(
      *topo, gpus, join::BuildHistograms(r, radix_bits),
      join::BuildHistograms(s, radix_bits), join::AssignmentOptions{});
  ASSERT_GT(pa.split_partitions, 0u);

  auto naive = [&](const data::DistRelation& rel, bool is_r) {
    std::vector<std::vector<std::vector<data::Tuple>>> recv(
        8, std::vector<std::vector<data::Tuple>>(1u << radix_bits));
    // Sources outermost: each (dst, p) list still receives src 0, 1,
    // ... in order, as the per-partition definition above states.
    for (int src = 0; src < 8; ++src) {
      for (const data::Tuple& t : rel.shards[src]) {
        const std::uint32_t p =
            data::RadixPartition(t.key, rel.domain_bits, radix_bits);
        std::vector<int> dests = pa.owners[p];
        if (pa.IsSplit(p) && pa.split_broadcast_r[p] != is_r) dests = {src};
        for (int d : dests) recv[d][p].push_back(t);
      }
    }
    std::vector<data::PartitionedShard> out;
    for (const auto& parts : recv) out.push_back(Flatten(parts));
    return out;
  };
  const auto r_ref = naive(r, true);
  const auto s_ref = naive(s, false);

  auto expect_same = [](const std::vector<data::PartitionedShard>& a,
                        const std::vector<data::PartitionedShard>& b,
                        std::size_t t) {
    ASSERT_EQ(a.size(), b.size()) << t;
    for (std::size_t d = 0; d < a.size(); ++d) {
      EXPECT_TRUE(a[d].offsets == b[d].offsets) << "gpu " << d << " " << t;
      EXPECT_TRUE(a[d].tuples == b[d].tuples) << "gpu " << d << " " << t;
    }
  };
  ThreadPool::SetDefaultThreads(1);
  const join::ShuffleResult base = join::ShufflePartitions(
      r, s, radix_bits, pa, gpus, join::ShuffleOptions{});
  EXPECT_GT(base.moved_tuples, 0u);
  expect_same(base.r_recv, r_ref, 1);
  expect_same(base.s_recv, s_ref, 1);
  for (std::size_t t : {3, 4, 8}) {
    ThreadPool::SetDefaultThreads(t);
    const join::ShuffleResult run = join::ShufflePartitions(
        r, s, radix_bits, pa, gpus, join::ShuffleOptions{});
    expect_same(run.r_recv, base.r_recv, t);
    expect_same(run.s_recv, base.s_recv, t);
    ASSERT_EQ(run.flows.size(), base.flows.size()) << t;
    for (std::size_t i = 0; i < run.flows.size(); ++i) {
      EXPECT_EQ(run.flows[i].id, base.flows[i].id) << t;
      EXPECT_EQ(run.flows[i].src_gpu, base.flows[i].src_gpu) << t;
      EXPECT_EQ(run.flows[i].dst_gpu, base.flows[i].dst_gpu) << t;
      EXPECT_EQ(run.flows[i].bytes, base.flows[i].bytes) << t;
    }
    EXPECT_EQ(run.compressed_bytes, base.compressed_bytes) << t;
    EXPECT_EQ(run.uncompressed_bytes, base.uncompressed_bytes) << t;
    EXPECT_EQ(run.moved_tuples, base.moved_tuples) << t;
  }
  ThreadPool::SetDefaultThreads(0);
}

TEST(DeterminismTest, LocalJoinPairOrderMatchesSerial) {
  // Per-partition morsels merged in canonical order must reproduce the
  // serial pair order exactly, including under materialization.
  data::GenOptions gen;
  gen.tuples_per_relation = 1u << 13;
  gen.num_gpus = 1;
  auto input = [&] {
    auto [r, s] = data::MakeJoinInput(gen);
    const int radix_bits = 4;
    std::vector<std::vector<data::Tuple>> rp(1u << radix_bits),
        sp(1u << radix_bits);
    for (const data::Tuple& t : r.shards[0]) {
      rp[data::RadixPartition(t.key, r.domain_bits, radix_bits)]
          .push_back(t);
    }
    for (const data::Tuple& t : s.shards[0]) {
      sp[data::RadixPartition(t.key, s.domain_bits, radix_bits)]
          .push_back(t);
    }
    return std::make_pair(Flatten(rp), Flatten(sp));
  };

  join::LocalJoinOptions opts;
  opts.shared_mem_tuples = 64;  // force recursion
  opts.materialize_pairs = true;

  ThreadPool::SetDefaultThreads(1);
  auto [r1, s1] = input();
  const join::LocalJoinStats serial =
      join::LocalPartitionAndProbe(&r1, &s1, opts);
  EXPECT_GT(serial.matches, 0u);
  for (std::size_t t : kParallelThreadCounts) {
    ThreadPool::SetDefaultThreads(t);
    auto [rp, sp] = input();
    const join::LocalJoinStats par =
        join::LocalPartitionAndProbe(&rp, &sp, opts);
    EXPECT_EQ(par.matches, serial.matches) << t;
    EXPECT_EQ(par.checksum, serial.checksum) << t;
    EXPECT_EQ(par.max_depth, serial.max_depth) << t;
    EXPECT_EQ(par.partition_tuple_passes, serial.partition_tuple_passes)
        << t;
    EXPECT_TRUE(par.pairs == serial.pairs) << t;
  }
  ThreadPool::SetDefaultThreads(0);
}

// PR 9 crossover: a multi-tenant service run — concurrent queries
// interleaving on a faulted fabric under each arbitration policy —
// must replay identically at any thread count, down to the exported
// trace bytes and the per-query SLO report (admission, completion,
// quantiles and the slowdown-vs-solo column).
struct ServiceRun {
  std::string trace_json;
  std::string slo_text;
  std::uint64_t checksum = 0;
};

ServiceRun RunFaultedService(std::size_t threads, net::ArbitrationKind kind) {
  ThreadPool::SetDefaultThreads(threads);
  auto topo = topo::MakeDgx1V();
  svc::ServiceOptions opts;
  opts.arbitration = kind;
  opts.join.virtual_scale = 512;  // stretch the shuffle into the faults
  opts.join.transfer.faults =
      net::FaultPlan::Parse(
          "down:gpu0-gpu3:@1ms,restore:gpu0-gpu3:@4ms,"
          "flap:nvlink5:@1ms:300usx3,degrade:qpi0:0.4:@0us",
          *topo)
          .ValueOrDie();
  obs::TraceRecorder trace;
  opts.join.transfer.obs.trace = &trace;
  std::vector<svc::QuerySpec> queries;
  for (std::uint64_t q = 1; q <= 4; ++q) {
    svc::QuerySpec spec;
    spec.query_id = q;
    spec.gen.tuples_per_relation = 1u << 14;
    spec.gen.seed = 42 + q;
    spec.priority = static_cast<int>(q % 3);
    queries.push_back(spec);
  }
  svc::QueryScheduler sched(topo.get(), topo::FirstNGpus(8), opts);
  const svc::ServiceResult res = sched.Run(queries).ValueOrDie();
  ServiceRun run;
  run.trace_json = trace.ToJson();
  run.slo_text = res.tenancy.ToText();
  run.checksum = res.checksum;
  return run;
}

TEST(DeterminismTest, ServiceRunInvariantAcrossThreadCounts) {
  for (const net::ArbitrationKind kind :
       {net::ArbitrationKind::kFifo, net::ArbitrationKind::kFairShare,
        net::ArbitrationKind::kPriority}) {
    const std::string label = net::ArbitrationKindName(kind);
    const ServiceRun base = RunFaultedService(1, kind);
    EXPECT_GT(base.checksum, 0u) << label;
    const ServiceRun run = RunFaultedService(8, kind);
    EXPECT_EQ(run.checksum, base.checksum) << label;
    EXPECT_EQ(run.slo_text, base.slo_text) << label;
    EXPECT_EQ(run.trace_json, base.trace_json) << label;
  }
  ThreadPool::SetDefaultThreads(0);
}

}  // namespace
}  // namespace mgjoin
