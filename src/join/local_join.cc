#include "join/local_join.h"

#include <algorithm>
#include <span>
#include <unordered_map>

#include "common/bitutil.h"
#include "common/hash.h"
#include "common/logging.h"
#include "common/thread_pool.h"

namespace mgjoin::join {

namespace {

// Joins one co-partition where at least one side is small: build a tiny
// chained hash table on the smaller side, probe with the other.
void JoinCoPartition(std::span<const data::Tuple> r,
                     std::span<const data::Tuple> s, bool materialize,
                     LocalJoinStats* stats) {
  if (r.empty() || s.empty()) return;
  const bool build_r = r.size() <= s.size();
  const auto& build = build_r ? r : s;
  const auto& probe = build_r ? s : r;

  const std::uint32_t slots =
      static_cast<std::uint32_t>(NextPow2(build.size() * 2));
  const std::uint32_t mask = slots - 1;
  std::vector<std::int32_t> heads(slots, -1);
  std::vector<std::int32_t> next(build.size(), -1);
  for (std::size_t i = 0; i < build.size(); ++i) {
    const std::uint32_t h = HashKey(build[i].key) & mask;
    next[i] = heads[h];
    heads[h] = static_cast<std::int32_t>(i);
  }
  for (const data::Tuple& t : probe) {
    const std::uint32_t h = HashKey(t.key) & mask;
    for (std::int32_t i = heads[h]; i >= 0; i = next[i]) {
      if (build[static_cast<std::size_t>(i)].key == t.key) {
        ++stats->matches;
        const data::Tuple& b = build[static_cast<std::size_t>(i)];
        if (build_r) {
          AccumulateMatch(b.id, t.id, &stats->checksum);
          if (materialize) stats->pairs.emplace_back(b.id, t.id);
        } else {
          AccumulateMatch(t.id, b.id, &stats->checksum);
          if (materialize) stats->pairs.emplace_back(t.id, b.id);
        }
      }
    }
  }
}

// Recursively splits a co-partition on hash bits until one side fits
// shared memory, then probes. Each level's sub-partitions are freed as
// soon as their own recursion returns.
void Recurse(std::span<const data::Tuple> r, std::span<const data::Tuple> s,
             int depth, const LocalJoinOptions& opts,
             LocalJoinStats* stats) {
  if (r.empty() || s.empty()) return;
  stats->max_depth = std::max(stats->max_depth, depth);
  const std::uint64_t small_side = std::min(r.size(), s.size());
  if (small_side <= opts.shared_mem_tuples || depth >= opts.max_depth) {
    JoinCoPartition(r, s, opts.materialize_pairs, stats);
    return;
  }
  const int fanout_bits = opts.bits_per_pass;
  const std::uint32_t fanout = 1u << fanout_bits;
  const int shift = depth * fanout_bits;
  auto bucket_of = [&](std::uint32_t key) {
    return (HashKey(key) >> shift) & (fanout - 1);
  };
  std::vector<std::vector<data::Tuple>> rb(fanout), sb(fanout);
  for (const data::Tuple& t : r) rb[bucket_of(t.key)].push_back(t);
  for (const data::Tuple& t : s) sb[bucket_of(t.key)].push_back(t);
  stats->partition_tuple_passes += r.size() + s.size();
  for (std::uint32_t b = 0; b < fanout; ++b) {
    Recurse(rb[b], sb[b], depth + 1, opts, stats);
    rb[b] = {};
    sb[b] = {};
  }
}

}  // namespace

LocalJoinStats LocalPartitionAndProbe(const data::PartitionedShard* r_parts,
                                      const data::PartitionedShard* s_parts,
                                      const LocalJoinOptions& options) {
  MGJ_CHECK(r_parts->size() == s_parts->size());
  // Morsel = one received co-partition: partitions share no keys, so
  // each runs the full recursion independently into its own stats.
  const std::size_t num_parts = r_parts->size();
  std::vector<LocalJoinStats> per_part(num_parts);
  ParallelFor(0, num_parts, [&](std::size_t p) {
    LocalJoinStats& st = per_part[p];
    st.r_tuples = (*r_parts)[p].size();
    st.s_tuples = (*s_parts)[p].size();
    Recurse((*r_parts)[p], (*s_parts)[p], /*depth=*/0, options, &st);
  });
  // Merge in canonical partition order. Counts and the checksum are
  // additive; pairs concatenate partition-by-partition, reproducing the
  // serial iteration byte-for-byte at any thread count.
  LocalJoinStats stats;
  for (LocalJoinStats& st : per_part) {
    stats.r_tuples += st.r_tuples;
    stats.s_tuples += st.s_tuples;
    stats.matches += st.matches;
    stats.checksum += st.checksum;
    stats.max_depth = std::max(stats.max_depth, st.max_depth);
    stats.partition_tuple_passes += st.partition_tuple_passes;
    stats.pairs.insert(stats.pairs.end(), st.pairs.begin(),
                       st.pairs.end());
  }
  return stats;
}

LocalJoinStats ReferenceJoin(const data::DistRelation& r,
                             const data::DistRelation& s) {
  // Fixed hash-bucket fanout: bucket membership depends only on the
  // key, so the per-bucket sub-joins are independent and their additive
  // stats merge to the same totals at any thread count.
  constexpr std::size_t kBuckets = 64;
  std::vector<std::vector<data::Tuple>> rb(kBuckets), sb(kBuckets);
  LocalJoinStats stats;
  for (const data::Shard& shard : r.shards) {
    stats.r_tuples += shard.size();
    for (const data::Tuple& t : shard) {
      rb[HashKey(t.key) & (kBuckets - 1)].push_back(t);
    }
  }
  for (const data::Shard& shard : s.shards) {
    stats.s_tuples += shard.size();
    for (const data::Tuple& t : shard) {
      sb[HashKey(t.key) & (kBuckets - 1)].push_back(t);
    }
  }
  std::vector<LocalJoinStats> per_bucket(kBuckets);
  ParallelFor(0, kBuckets, [&](std::size_t b) {
    LocalJoinStats& st = per_bucket[b];
    std::unordered_multimap<std::uint32_t, std::uint32_t> table;
    table.reserve(rb[b].size());
    for (const data::Tuple& t : rb[b]) table.emplace(t.key, t.id);
    for (const data::Tuple& t : sb[b]) {
      auto [lo, hi] = table.equal_range(t.key);
      for (auto it = lo; it != hi; ++it) {
        ++st.matches;
        AccumulateMatch(it->second, t.id, &st.checksum);
      }
    }
  });
  for (const LocalJoinStats& st : per_bucket) {
    stats.matches += st.matches;
    stats.checksum += st.checksum;
  }
  return stats;
}

}  // namespace mgjoin::join
