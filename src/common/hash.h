#ifndef MGJOIN_COMMON_HASH_H_
#define MGJOIN_COMMON_HASH_H_

#include <cstdint>

namespace mgjoin {

/// Finalizer from MurmurHash3: a cheap, high-quality 32-bit mixer. Used
/// for hash-partitioning join keys; radix partitioning in MG-Join takes
/// the top bits of this value so that sequential keys spread uniformly.
inline std::uint32_t HashKey(std::uint32_t k) {
  k ^= k >> 16;
  k *= 0x85EBCA6Bu;
  k ^= k >> 13;
  k *= 0xC2B2AE35u;
  k ^= k >> 16;
  return k;
}

}  // namespace mgjoin

#endif  // MGJOIN_COMMON_HASH_H_
