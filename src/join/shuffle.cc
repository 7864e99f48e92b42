#include "join/shuffle.h"

#include <algorithm>
#include <span>

#include "common/bitutil.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "data/compression.h"
#include "join/histogram.h"

namespace mgjoin::join {

ShuffleResult ShufflePartitions(const data::DistRelation& r,
                                const data::DistRelation& s,
                                int radix_bits,
                                const PartitionAssignment& assignment,
                                const std::vector<int>& gpus,
                                const ShuffleOptions& options) {
  const int g = static_cast<int>(gpus.size());
  const std::uint32_t parts = 1u << radix_bits;
  MGJ_CHECK(r.num_shards() == g && s.num_shards() == g);
  MGJ_CHECK(r.domain_bits == s.domain_bits);
  MGJ_CHECK(assignment.owners.size() == parts);
  const int domain_bits = r.domain_bits;

  // Run (src, p) = the partition-p tuples of shard src. It goes to the
  // owner of an unsplit partition, to every owner when it is the
  // broadcast (smaller) side of a split partition, and stays at src when
  // it is the larger side: its holders are the owner set by construction.
  auto broadcast = [&](bool is_r, std::size_t p) {
    return assignment.IsSplit(p) && assignment.split_broadcast_r[p] == is_r;
  };
  auto first_dest = [&](bool is_r, int src, std::size_t p) {
    return assignment.IsSplit(p) && !broadcast(is_r, p)
               ? src
               : assignment.owners[p][0];
  };

  ShuffleResult out;
  struct Side {
    const data::DistRelation& rel;
    bool is_r;
    std::vector<data::PartitionedShard>& recv;
    HistogramSet hist;
    std::vector<std::size_t> start;  // [p * g + src], in first dest
  };
  Side sides[2] = {
      {r, true, out.r_recv, BuildHistograms(r, radix_bits), {}},
      {s, false, out.s_recv, BuildHistograms(s, radix_bits), {}}};

  // Step 1 (functional partition kernel): one serial walk over (p, src
  // ascending) lays out every destination's partitions from the
  // histogram and fixes each run's start in its first destination; then
  // each shard is scattered once, in parallel over sources. Runs are
  // disjoint, so the layout does not depend on the thread count.
  for (Side& side : sides) {
    side.recv.resize(g);
    side.start.resize(static_cast<std::size_t>(g) * parts);
    std::vector<std::size_t> end(g, 0);
    for (std::size_t p = 0; p < parts; ++p) {
      for (int d = 0; d < g; ++d) side.recv[d].offsets.push_back(end[d]);
      for (int src = 0; src < g; ++src) {
        const std::size_t n = side.hist.counts[src][p];
        const int first = first_dest(side.is_r, src, p);
        side.start[p * g + src] = end[first];
        if (broadcast(side.is_r, p)) {
          for (int dst : assignment.owners[p]) end[dst] += n;
        } else {
          end[first] += n;
        }
      }
    }
    for (int d = 0; d < g; ++d) {
      side.recv[d].offsets.push_back(end[d]);
      side.recv[d].tuples.resize(end[d]);
    }
  }
  ParallelFor(0, g, [&](std::size_t src) {
    std::vector<data::Tuple*> cursor(parts);
    for (Side& side : sides) {
      for (std::size_t p = 0; p < parts; ++p) {
        const int first = first_dest(side.is_r, static_cast<int>(src), p);
        cursor[p] = side.recv[first].tuples.data() + side.start[p * g + src];
      }
      for (const data::Tuple& t : side.rel.shards[src]) {
        *cursor[data::RadixPartition(t.key, domain_bits, radix_bits)]++ = t;
      }
    }
  });

  // Step 3 (data distribution): copy broadcast runs to their other
  // owners and account wire bytes per (src, dst). Morsel = a fixed chunk
  // of partitions: every write under partition p is private to p's
  // chunk and the per-chunk byte counters are integer sums, so both the
  // received layout and the totals are identical at any thread count.
  struct ChunkAcc {
    std::vector<std::uint64_t> flow;  // g x g wire bytes, row-major
    std::uint64_t compressed = 0;
    std::uint64_t uncompressed = 0;
    std::uint64_t moved = 0;
  };
  constexpr std::size_t kPartGrain = 64;
  std::vector<ChunkAcc> chunk_acc((parts + kPartGrain - 1) / kPartGrain);
  // Estimate at the *virtual* key/id width: simulating inputs
  // virtual_scale larger widens the domain by log2(scale) bits.
  const int extra_bits = Log2Ceil(static_cast<std::uint64_t>(
      options.virtual_scale < 1.0 ? 1.0 : options.virtual_scale));

  ParallelForChunked(0, parts, kPartGrain, [&](std::size_t lo,
                                               std::size_t hi) {
    ChunkAcc& acc = chunk_acc[lo / kPartGrain];
    acc.flow.assign(static_cast<std::size_t>(g) * g, 0);
    for (std::size_t p = lo; p < hi; ++p) {
      for (Side& side : sides) {
        const bool bcast = broadcast(side.is_r, p);
        for (int src = 0; src < g; ++src) {
          const std::size_t n = side.hist.counts[src][p];
          const int first = first_dest(side.is_r, src, p);
          if (n == 0 || (!bcast && first == src)) continue;
          const std::size_t at = side.start[p * g + src];
          const data::PartitionedShard& home = side.recv[first];
          const std::span<const data::Tuple> run(home.tuples.data() + at, n);
          const std::uint64_t raw = n * data::kTupleBytes;
          const std::uint64_t wire =
              options.use_compression
                  ? std::min(raw, data::EstimateCompressedBytes(
                                      run.data(), n, domain_bits,
                                      radix_bits, extra_bits))
                  : raw;
          const std::span<const int> dests =
              bcast ? std::span<const int>(assignment.owners[p])
                    : std::span<const int>(&first, 1);
          for (int dst : dests) {
            if (dst != first) {
              data::PartitionedShard& copy = side.recv[dst];
              std::copy(run.begin(), run.end(),
                        copy.tuples.begin() + copy.offsets[p] +
                            (at - home.offsets[p]));
            }
            if (dst != src) {
              acc.flow[static_cast<std::size_t>(src) * g + dst] += wire;
              acc.compressed += wire;
              acc.uncompressed += raw;
              acc.moved += n;
            }
          }
        }
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
