// Typed columnar storage for DataChunk: one ColumnVector per column holding
// an unboxed payload — int64/double arrays with a null bitmap, or
// dictionary/flat-encoded strings over a shared byte arena.
//
// A column is committed to its schema type at construction (INT -> kInt64,
// DOUBLE -> kDouble, STRING -> a string encoding); the write boundary
// (ConformRows in storage/table.h) guarantees every appended cell is NULL
// or of that type, so there is no fallback layout. `GetValue()` reboxes
// exactly — an encoding only ever holds one value type or NULL.
//
// Strings are dictionary-coded first (per-row u32 codes into a distinct
// set stored back-to-back in the arena) and convert once to a flat layout
// (per-row offsets into the arena) when the distinct count outgrows the
// dictionary. The conversion only ever happens on the writer-private tail
// chunk — published chunks are immutable — so readers never observe an
// encoding change.
//
// Zone-map min/max accumulators are maintained inline per append on the
// raw payload (no Value boxing), replicating Value::Compare's update
// semantics exactly (strict-< keeps the first of equal values; NaN never
// compares less/greater, matching Compare's 0).

#ifndef IMP_STORAGE_COLUMN_VECTOR_H_
#define IMP_STORAGE_COLUMN_VECTOR_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/bitvector.h"
#include "common/tuple.h"
#include "common/value.h"

namespace imp {

class ColumnVector {
 public:
  enum class Encoding : uint8_t {
    kInt64,       ///< raw int64 array + null bitmap
    kDouble,      ///< raw double array + null bitmap
    kDictString,  ///< per-row u32 codes into a distinct-string arena
    kFlatString,  ///< per-row offsets into the shared byte arena
  };

  /// A dictionary converts to the flat layout when its distinct count
  /// would exceed this (repeat-free columns pay codes + dict for nothing).
  static constexpr size_t kDictMaxDistinct = 256;

  /// An empty column committed to `type` (INT, DOUBLE or STRING).
  explicit ColumnVector(ValueType type);

  size_t size() const { return size_; }
  Encoding encoding() const { return encoding_; }

  /// Append a cell that is NULL or of the column's type (the write
  /// boundary's contract; checked in debug builds).
  void Append(const Value& v);

  /// Rebox cell `i`. Exact: an encoding stores one value type, so the
  /// round trip is lossless.
  Value GetValue(size_t i) const;

  bool IsNull(size_t i) const { return has_nulls_ && nulls_.Test(i); }

  // ---- Raw views (valid for the matching encoding only) -------------------
  bool has_nulls() const { return has_nulls_; }
  const BitVector& nulls() const { return nulls_; }
  const int64_t* ints() const { return ints_.data(); }
  const double* doubles() const { return doubles_.data(); }
  const uint32_t* codes() const { return codes_.data(); }
  size_t dict_size() const {
    return dict_offsets_.empty() ? 0 : dict_offsets_.size() - 1;
  }
  std::string_view DictString(uint32_t code) const {
    return std::string_view(arena_.data() + dict_offsets_[code],
                            dict_offsets_[code + 1] - dict_offsets_[code]);
  }
  /// String payload of a non-NULL row under either string encoding.
  std::string_view StringAt(size_t i) const {
    if (encoding_ == Encoding::kDictString) return DictString(codes_[i]);
    return std::string_view(arena_.data() + flat_offsets_[i],
                            flat_offsets_[i + 1] - flat_offsets_[i]);
  }

  /// Min/max over non-NULL cells under Value::Compare order (the zone-map
  /// accumulators, maintained per append). False when all cells are NULL.
  bool MinMax(Value* min, Value* max) const;

  /// Column-at-a-time gather: (*out)[k][col] = GetValue(rows[k]). `out`
  /// tuples must already be sized past `col` (NULL-initialized).
  void Gather(const std::vector<uint32_t>& rows, size_t col,
              std::vector<Tuple>* out) const;

  /// A new column holding the cells at `rows` (ascending), copied unboxed:
  /// payload, null bitmap and zone accumulators are rebuilt in one pass,
  /// exactly as appending those cells in order would build them. A
  /// dictionary keeps only the codes the rows use, renumbered in
  /// first-use order; a flat string column stays flat.
  ColumnVector CopyRows(const std::vector<uint32_t>& rows) const;

  /// Heap bytes of the payload (typed arrays + null bitmap + arena/offsets
  /// + writer-side dictionary map). Excludes sizeof(*this).
  size_t MemoryBytes() const;

 private:
  void ConvertDictToFlat();
  void AppendNullSlot();
  void UpdateIntStats(int64_t a);
  void UpdateDoubleStats(double a);
  void UpdateStringStats(std::string_view s);

  Encoding encoding_ = Encoding::kInt64;  ///< set from the type by the ctor
  size_t size_ = 0;

  // nulls_ spans [0, size_) for every encoding; payload slots at NULL rows
  // hold 0 / 0.0 / an empty span.
  BitVector nulls_;
  bool has_nulls_ = false;
  std::vector<int64_t> ints_;
  std::vector<double> doubles_;

  // String encodings share the byte arena. Dict: codes_ per row,
  // dict_offsets_ (distinct+1 entries) frames each distinct string.
  // Flat: flat_offsets_ (size_+1 entries) frames each row's bytes.
  std::string arena_;
  std::vector<uint32_t> codes_;
  std::vector<uint32_t> dict_offsets_;
  std::vector<uint32_t> flat_offsets_;
  std::unordered_map<std::string, uint32_t> dict_lookup_;  ///< writer-side

  // Zone accumulators over the raw payload (valid iff stats_valid_).
  bool stats_valid_ = false;
  int64_t imin_ = 0, imax_ = 0;
  double dmin_ = 0, dmax_ = 0;
  std::string smin_, smax_;
};

}  // namespace imp

#endif  // IMP_STORAGE_COLUMN_VECTOR_H_
