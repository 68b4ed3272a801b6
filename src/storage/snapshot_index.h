// Chunk-granular index shards: the building blocks of the incremental,
// shareable snapshot indexes.
//
// A shard indexes exactly one (chunk, column) pair and is immutable once
// handed out. Because chunks referenced by published TableSnapshots are
// themselves physically immutable (the write path copy-on-writes a shared
// tail before appending), a shard built for a sealed chunk stays valid for
// every later snapshot that retains the chunk — publication carries the
// shard forward by sharing the chunk's shared_ptr, with zero rebuild work.
// Steady-state index maintenance therefore costs O(delta rows) per
// publication (only the COW tail and delete-rebuilt chunks need new
// shards), not O(table rows) as the old per-snapshot monolithic hash index
// did. Shards reclaim with their chunk via the existing epoch scheme; no
// new lifetime rules.
//
// Two shard kinds exist side by side:
//   - HashShard: value -> ascending row ids, serving point probes
//     (IncJoin's delegated indexed equi-join).
//   - SortedShard: (value, row) run sorted by Value::Compare with NULLs
//     excluded, serving range probes (sketch-safety / zone-filter style
//     range predicates) — exactly SQL comparison semantics, where a NULL
//     never satisfies a range and values follow the global total order.

#ifndef IMP_STORAGE_SNAPSHOT_INDEX_H_
#define IMP_STORAGE_SNAPSHOT_INDEX_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/value.h"
#include "storage/column_vector.h"

namespace imp {

/// Immutable per-chunk point index: value -> row ids in ascending order.
/// NULLs are excluded, as in SortedShard: under SQL equality a NULL
/// matches nothing, so probing with NULL finds no row.
class HashShard {
 public:
  /// Build from the first `num_rows` entries of a chunk column.
  static std::shared_ptr<const HashShard> Build(const ColumnVector& column,
                                                size_t num_rows);

  /// Rows holding `v`, ascending; nullptr when none.
  const std::vector<uint32_t>* Probe(const Value& v) const {
    auto it = buckets_.find(v);
    return it == buckets_.end() ? nullptr : &it->second;
  }

  size_t MemoryBytes() const;

 private:
  std::unordered_map<Value, std::vector<uint32_t>, ValueHash> buckets_;
};

/// Immutable per-chunk ordered run: (value, row) pairs sorted by
/// (Value::Compare, row). NULLs are excluded — a SQL range predicate never
/// matches them.
class SortedShard {
 public:
  /// Build from the first `num_rows` entries of a chunk column, sorting
  /// on the raw payload (no Value::Compare in the hot comparator) and
  /// boxing each value once at materialization.
  static std::shared_ptr<const SortedShard> Build(const ColumnVector& column,
                                                  size_t num_rows);

  /// True when some entry lies in the bound range. A null `lo` / `hi`
  /// pointer means unbounded on that side; inclusivity flags select
  /// <= / < semantics per bound. O(log n).
  bool AnyInRange(const Value* lo, bool lo_inclusive, const Value* hi,
                  bool hi_inclusive) const;

  /// Append every row whose value lies in the bound range to `*rows`, in
  /// ascending row order (so callers can reproduce scan emission order
  /// bit-identically).
  void CollectRange(const Value* lo, bool lo_inclusive, const Value* hi,
                    bool hi_inclusive, std::vector<uint32_t>* rows) const;

  /// Number of indexed (non-null) entries.
  size_t size() const { return entries_.size(); }

  size_t MemoryBytes() const;

 private:
  using Entry = std::pair<Value, uint32_t>;
  /// [first, last) span of entries_ within the bound range.
  std::pair<size_t, size_t> Span(const Value* lo, bool lo_inclusive,
                                 const Value* hi, bool hi_inclusive) const;

  std::vector<Entry> entries_;
};

}  // namespace imp

#endif  // IMP_STORAGE_SNAPSHOT_INDEX_H_
