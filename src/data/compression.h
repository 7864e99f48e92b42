#ifndef MGJOIN_DATA_COMPRESSION_H_
#define MGJOIN_DATA_COMPRESSION_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "data/relation.h"

namespace mgjoin::data {

/// \brief Bit-granular writer used by the transfer compression.
class BitWriter {
 public:
  /// Appends the low `bits` bits of `value`.
  void Put(std::uint64_t value, int bits);
  /// Pads to a byte boundary and returns the buffer.
  std::vector<std::uint8_t> Finish();
  std::uint64_t bit_count() const { return bit_count_; }

 private:
  std::vector<std::uint8_t> bytes_;
  std::uint64_t bit_count_ = 0;
};

/// \brief Bit-granular reader matching BitWriter's layout.
class BitReader {
 public:
  BitReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_bits_(size * 8) {}
  /// Reads `bits` bits; returns 0 past the end (caller checks counts).
  std::uint64_t Get(int bits);
  bool Exhausted() const { return pos_ >= size_bits_; }

 private:
  const std::uint8_t* data_;
  std::uint64_t size_bits_;
  std::uint64_t pos_ = 0;
};

/// \brief One radix partition compressed for the wire (paper Sec 5.1,
/// "Implementation details").
///
/// Two schemes compose: (1) radix-prefix elision — every key in a
/// partition shares its top `radix_bits`, so only the suffix travels;
/// (2) block-wise id compression — ids are delta-encoded against the
/// block minimum and null-suppressed to the delta width.
struct CompressedPartition {
  std::uint32_t partition_id = 0;
  int domain_bits = 32;
  int radix_bits = 0;
  std::uint32_t tuple_count = 0;
  std::vector<std::uint8_t> payload;

  std::uint64_t WireBytes() const {
    return payload.size() + 16;  // payload + small descriptor
  }
};

/// Ids per compression block: 2048 ids = 8 KiB of raw id data, the
/// paper's block size.
inline constexpr std::uint32_t kIdsPerBlock = 2048;

/// Compresses `tuples` (all of radix partition `partition_id`). Returns
/// InvalidArgument if a tuple does not belong to the partition.
Result<CompressedPartition> CompressPartition(const Tuple* tuples,
                                              std::size_t n,
                                              std::uint32_t partition_id,
                                              int domain_bits,
                                              int radix_bits);

/// Reverses CompressPartition. Output order matches input order.
Result<std::vector<Tuple>> DecompressPartition(
    const CompressedPartition& cp);

/// Bytes the partition occupies on the wire after compression, without
/// materializing the payload (used to size flows at paper scale).
///
/// `extra_bits` widens both the key suffix and the id deltas (capped at
/// 32 bits): when the timing layer simulates inputs `2^extra_bits`
/// larger than the functional data, the virtual key domain and id range
/// are that much wider, and a ratio estimated from the narrow functional
/// domain would be optimistic.
std::uint64_t EstimateCompressedBytes(const Tuple* tuples, std::size_t n,
                                      int domain_bits, int radix_bits,
                                      int extra_bits = 0);

}  // namespace mgjoin::data

#endif  // MGJOIN_DATA_COMPRESSION_H_
