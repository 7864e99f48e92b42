#ifndef MGJOIN_JOIN_SHUFFLE_H_
#define MGJOIN_JOIN_SHUFFLE_H_

#include <cstdint>
#include <vector>

#include "data/relation.h"
#include "join/partition_assignment.h"
#include "net/packet.h"

namespace mgjoin::join {

/// \brief Functional outcome of the data-distribution step plus the flow
/// set that drives its timing simulation.
///
/// The functional layer moves real tuples to their assigned owners; the
/// timing layer replays the same movement as net::Flows whose byte
/// counts reflect the transfer compression (and the virtual scale, when
/// the experiment simulates paper-sized inputs).
struct ShuffleResult {
  /// Tuples of each relation now resident, per dense GPU. Partition p
  /// at a GPU holds the runs of source GPUs 0, 1, ..., g-1 in that
  /// order, each run in shard order.
  std::vector<data::PartitionedShard> r_recv;
  std::vector<data::PartitionedShard> s_recv;
  /// One flow per (src, dst) pair with traffic; bytes are wire bytes
  /// after compression, multiplied by the virtual scale.
  std::vector<net::Flow> flows;
  /// Wire bytes before virtual scaling.
  std::uint64_t compressed_bytes = 0;
  /// What the wire bytes would have been without compression.
  std::uint64_t uncompressed_bytes = 0;
  /// Tuples that crossed GPUs (not counting local placements).
  std::uint64_t moved_tuples = 0;
};

struct ShuffleOptions {
  bool use_compression = true;
  double virtual_scale = 1.0;
};

/// Executes the distribution functionally and builds the flow set.
/// `radix_bits` sets the partition count, the assignment supplies
/// owners; R and S must share one key domain.
ShuffleResult ShufflePartitions(const data::DistRelation& r,
                                const data::DistRelation& s,
                                int radix_bits,
                                const PartitionAssignment& assignment,
                                const std::vector<int>& gpus,
                                const ShuffleOptions& options);

}  // namespace mgjoin::join

#endif  // MGJOIN_JOIN_SHUFFLE_H_
