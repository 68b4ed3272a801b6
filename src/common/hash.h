// Hash primitives shared by values, tuples and bloom filters.

#ifndef IMP_COMMON_HASH_H_
#define IMP_COMMON_HASH_H_

#include <cstddef>
#include <cstdint>

namespace imp {

/// 64-bit finalizer (splitmix64); good avalanche for integer keys.
inline uint64_t HashInt64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// FNV-1a over a byte range, finalized with splitmix64.
inline uint64_t HashBytes(const void* data, size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t h = 0xcbf29ce484222325ULL;
  for (size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return HashInt64(h);
}

/// Boost-style hash combining.
inline uint64_t HashCombine(uint64_t seed, uint64_t h) {
  return seed ^ (h + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2));
}

/// Column-batch hashing: fold one key column's element hashes into the
/// running per-row key hashes, `(*inout)[i] = HashCombine((*inout)[i],
/// elem_hash(i))`. Seeding `inout` with the key seed and folding each key
/// column in order is bit-identical to the row-at-a-time
/// `HashCombine(h, row[col].Hash())` loop, but walks one column at a time
/// so only referenced columns are touched.
template <typename ElemHash, typename Vec>
inline void HashColumnBatch(size_t num_rows, ElemHash&& elem_hash,
                            Vec* inout) {
  for (size_t i = 0; i < num_rows; ++i) {
    (*inout)[i] = HashCombine((*inout)[i], elem_hash(i));
  }
}

}  // namespace imp

#endif  // IMP_COMMON_HASH_H_
