#ifndef MGJOIN_DATA_RELATION_H_
#define MGJOIN_DATA_RELATION_H_

#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

#include "common/bitutil.h"

namespace mgjoin::data {

/// \brief The paper's workload tuple: 8 bytes, a 4-byte join key and a
/// 4-byte record id (Sec 5.1).
struct Tuple {
  std::uint32_t key = 0;
  std::uint32_t id = 0;

  bool operator==(const Tuple&) const = default;
};

inline constexpr std::uint32_t kTupleBytes = sizeof(Tuple);
static_assert(sizeof(Tuple) == 8);

/// Tuples resident on one GPU.
using Shard = std::vector<Tuple>;

/// \brief Tuples resident on one GPU, grouped by radix partition: one
/// flat array in which partition p occupies [offsets[p], offsets[p + 1]).
struct PartitionedShard {
  std::vector<Tuple> tuples;
  /// Partition count + 1 entries; offsets.back() == tuples.size().
  std::vector<std::size_t> offsets;

  /// Number of partitions.
  std::size_t size() const {
    return offsets.empty() ? 0 : offsets.size() - 1;
  }
  std::span<const Tuple> operator[](std::size_t p) const {
    return std::span(tuples).subspan(offsets[p],
                                     offsets[p + 1] - offsets[p]);
  }
};

/// \brief A relation horizontally partitioned over the participating
/// GPUs (shards are indexed by dense position, not GPU id).
struct DistRelation {
  std::vector<Shard> shards;
  /// Bits of the key domain: keys lie in [0, 2^domain_bits). Radix
  /// partitioning takes the top bits of the key within this domain.
  int domain_bits = 32;

  std::uint64_t TotalTuples() const {
    std::uint64_t n = 0;
    for (const Shard& s : shards) n += s.size();
    return n;
  }
  std::uint64_t TotalBytes() const { return TotalTuples() * kTupleBytes; }
  int num_shards() const { return static_cast<int>(shards.size()); }
};

/// Radix partition of `key`: the top `radix_bits` bits of the
/// `domain_bits`-wide key (the paper's "first n bits of the keys").
inline std::uint32_t RadixPartition(std::uint32_t key, int domain_bits,
                                    int radix_bits) {
  if (radix_bits <= 0) return 0;
  const int shift = domain_bits - radix_bits;
  return shift >= 0 ? (key >> shift) & ((1u << radix_bits) - 1u)
                    : key & ((1u << radix_bits) - 1u);
}

}  // namespace mgjoin::data

#endif  // MGJOIN_DATA_RELATION_H_
