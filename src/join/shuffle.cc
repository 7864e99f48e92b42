#include "join/shuffle.h"

#include <algorithm>
#include <utility>

#include "common/bitutil.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "data/compression.h"

namespace mgjoin::join {

namespace {

using Buckets = std::vector<std::vector<data::Tuple>>;

// Buckets one shard by radix partition. A counting pass sizes each
// bucket exactly, so filling it never regrows (or over-allocates) it.
Buckets BucketShard(const data::Shard& shard, int domain_bits,
                    int radix_bits) {
  std::vector<std::size_t> counts(1u << radix_bits, 0);
  for (const data::Tuple& t : shard) {
    ++counts[data::RadixPartition(t.key, domain_bits, radix_bits)];
  }
  Buckets buckets(counts.size());
  for (std::size_t p = 0; p < counts.size(); ++p) {
    if (counts[p] != 0) buckets[p].reserve(counts[p]);
  }
  for (const data::Tuple& t : shard) {
    buckets[data::RadixPartition(t.key, domain_bits, radix_bits)]
        .push_back(t);
  }
  return buckets;
}

}  // namespace

ShuffleResult ShufflePartitions(const data::DistRelation& r,
                                const data::DistRelation& s,
                                int radix_bits,
                                const PartitionAssignment& assignment,
                                const std::vector<int>& gpus,
                                const ShuffleOptions& options) {
  const int g = static_cast<int>(gpus.size());
  const std::uint32_t parts = 1u << radix_bits;
  MGJ_CHECK(r.num_shards() == g && s.num_shards() == g);
  MGJ_CHECK(assignment.owners.size() == parts);

  ShuffleResult out;
  out.r_recv.assign(g, std::vector<std::vector<data::Tuple>>(parts));
  out.s_recv.assign(g, std::vector<std::vector<data::Tuple>>(parts));

  // Step 1 (functional partition kernel): bucket each shard, in parallel.
  std::vector<Buckets> r_buckets(g), s_buckets(g);
  ParallelFor(0, g, [&](std::size_t src) {
    r_buckets[src] = BucketShard(r.shards[src], r.domain_bits, radix_bits);
    s_buckets[src] = BucketShard(s.shards[src], s.domain_bits, radix_bits);
  });

  // Step 3 (data distribution): place buckets at their owners and account
  // wire bytes per (src, dst). Morsel = a fixed chunk of partitions:
  // every write under partition p (recv[*][p], per-chunk accumulators)
  // is private to p's chunk, srcs are visited in ascending order within
  // each p, and the per-chunk byte counters are integer sums — so both
  // the received buckets and the totals are identical at any thread
  // count.
  struct ChunkAcc {
    std::vector<std::uint64_t> flow;  // g x g wire bytes, row-major
    std::uint64_t compressed = 0;
    std::uint64_t uncompressed = 0;
    std::uint64_t moved = 0;
  };
  constexpr std::size_t kPartGrain = 64;
  std::vector<ChunkAcc> chunk_acc((parts + kPartGrain - 1) / kPartGrain);

  auto place = [&](ChunkAcc* acc, bool is_r, int src, std::uint32_t p,
                   std::vector<data::Tuple>&& bucket) {
    if (bucket.empty()) return;
    const auto& owners = assignment.owners[p];
    const bool split = owners.size() > 1;
    const bool broadcast_this =
        split && (assignment.split_broadcast_r[p] == is_r);
    auto& recv = is_r ? out.r_recv : out.s_recv;

    std::vector<int> dests;
    if (!split) {
      dests.push_back(owners[0]);
    } else if (broadcast_this) {
      dests = owners;  // selective broadcast of the smaller side
    } else {
      // The larger side of a split partition never moves: its holders
      // are the owner set by construction.
      dests.push_back(src);
    }

    const std::uint64_t raw = bucket.size() * data::kTupleBytes;
    std::uint64_t wire = raw;
    if (options.use_compression) {
      // Estimate at the *virtual* key/id width: simulating inputs
      // virtual_scale larger widens the domain by log2(scale) bits.
      const int extra_bits = Log2Ceil(static_cast<std::uint64_t>(
          options.virtual_scale < 1.0 ? 1.0 : options.virtual_scale));
      wire = data::EstimateCompressedBytes(bucket.data(), bucket.size(),
                                           r.domain_bits, radix_bits,
                                           extra_bits);
      wire = std::min(wire, raw);
    }
    for (int dst : dests) {
      if (dst != src) {
        acc->flow[static_cast<std::size_t>(src) * g + dst] += wire;
        acc->compressed += wire;
        acc->uncompressed += raw;
        acc->moved += bucket.size();
      }
      auto& target = recv[dst][p];
      if (dests.size() == 1 && target.empty()) {
        target = std::move(bucket);  // sole destination: hand it over
      } else {
        target.insert(target.end(), bucket.begin(), bucket.end());
      }
    }
  };

  ParallelForChunked(0, parts, kPartGrain,
                     [&](std::size_t lo, std::size_t hi) {
                       ChunkAcc& acc = chunk_acc[lo / kPartGrain];
                       acc.flow.assign(static_cast<std::size_t>(g) * g, 0);
                       for (std::size_t p = lo; p < hi; ++p) {
                         for (int src = 0; src < g; ++src) {
                           const auto pp = static_cast<std::uint32_t>(p);
                           place(&acc, true, src, pp,
                                 std::move(r_buckets[src][p]));
                           place(&acc, false, src, pp,
                                 std::move(s_buckets[src][p]));
                         }
                       }
                     });

  std::vector<std::vector<std::uint64_t>> flow_bytes(
      g, std::vector<std::uint64_t>(g, 0));
  for (const ChunkAcc& acc : chunk_acc) {
    if (acc.flow.empty()) continue;
    for (int src = 0; src < g; ++src) {
      for (int dst = 0; dst < g; ++dst) {
        flow_bytes[src][dst] +=
            acc.flow[static_cast<std::size_t>(src) * g + dst];
      }
    }
    out.compressed_bytes += acc.compressed;
    out.uncompressed_bytes += acc.uncompressed;
    out.moved_tuples += acc.moved;
  }

  // Build one flow per (src, dst) pair.
  std::uint64_t flow_id = 0;
  for (int src = 0; src < g; ++src) {
    for (int dst = 0; dst < g; ++dst) {
      if (flow_bytes[src][dst] == 0) continue;
      net::Flow f;
      f.id = flow_id++;
      f.src_gpu = gpus[src];
      f.dst_gpu = gpus[dst];
      f.bytes = static_cast<std::uint64_t>(
          static_cast<double>(flow_bytes[src][dst]) *
          options.virtual_scale);
      out.flows.push_back(f);
    }
  }
  return out;
}

}  // namespace mgjoin::join
