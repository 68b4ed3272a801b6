#include "storage/snapshot_index.h"

#include <algorithm>

namespace imp {

std::shared_ptr<const HashShard> HashShard::Build(const ColumnVector& column,
                                                  size_t num_rows) {
  auto shard = std::make_shared<HashShard>();
  shard->buckets_.reserve(num_rows);
  // Each cell is reboxed exactly once into its bucket key.
  for (uint32_t r = 0; r < num_rows; ++r) {
    if (column.IsNull(r)) continue;
    shard->buckets_[column.GetValue(r)].push_back(r);
  }
  return shard;
}

size_t HashShard::MemoryBytes() const {
  size_t bytes = sizeof(HashShard);
  // Bucket-array + node overhead, approximated as one pointer-sized slot
  // per bucket plus the node payloads.
  bytes += buckets_.bucket_count() * sizeof(void*);
  for (const auto& [v, rows] : buckets_) {
    bytes += v.MemoryBytes() + sizeof(rows) + rows.capacity() * sizeof(uint32_t);
  }
  return bytes;
}

namespace {

/// Sort (raw value, row) pairs replicating Value::Compare's three-way form
/// exactly — `<` then `>` then row tie-break — so a NaN (which Compare
/// treats as equal to everything) lands where a Value comparator would
/// put it.
template <typename T>
void SortRawRun(std::vector<std::pair<T, uint32_t>>* run) {
  std::sort(run->begin(), run->end(),
            [](const std::pair<T, uint32_t>& a, const std::pair<T, uint32_t>& b) {
              int c = a.first < b.first ? -1 : (a.first > b.first ? 1 : 0);
              if (c != 0) return c < 0;
              return a.second < b.second;
            });
}

}  // namespace

std::shared_ptr<const SortedShard> SortedShard::Build(
    const ColumnVector& column, size_t num_rows) {
  auto shard = std::make_shared<SortedShard>();
  shard->entries_.reserve(num_rows);
  switch (column.encoding()) {
    case ColumnVector::Encoding::kInt64: {
      std::vector<std::pair<int64_t, uint32_t>> run;
      run.reserve(num_rows);
      const int64_t* vals = column.ints();
      for (uint32_t r = 0; r < num_rows; ++r) {
        if (column.has_nulls() && column.nulls().Test(r)) continue;
        run.emplace_back(vals[r], r);
      }
      SortRawRun(&run);
      for (const auto& [v, r] : run) {
        shard->entries_.emplace_back(Value::Int(v), r);
      }
      return shard;
    }
    case ColumnVector::Encoding::kDouble: {
      std::vector<std::pair<double, uint32_t>> run;
      run.reserve(num_rows);
      const double* vals = column.doubles();
      for (uint32_t r = 0; r < num_rows; ++r) {
        if (column.has_nulls() && column.nulls().Test(r)) continue;
        run.emplace_back(vals[r], r);
      }
      SortRawRun(&run);
      for (const auto& [v, r] : run) {
        shard->entries_.emplace_back(Value::Double(v), r);
      }
      return shard;
    }
    case ColumnVector::Encoding::kDictString:
    case ColumnVector::Encoding::kFlatString: {
      // string_view comparison == std::string::compare sign == the string
      // leg of Value::Compare.
      std::vector<std::pair<std::string_view, uint32_t>> run;
      run.reserve(num_rows);
      for (uint32_t r = 0; r < num_rows; ++r) {
        if (column.has_nulls() && column.nulls().Test(r)) continue;
        run.emplace_back(column.StringAt(r), r);
      }
      std::sort(run.begin(), run.end(),
                [](const std::pair<std::string_view, uint32_t>& a,
                   const std::pair<std::string_view, uint32_t>& b) {
                  int c = a.first.compare(b.first);
                  if (c != 0) return c < 0;
                  return a.second < b.second;
                });
      for (const auto& [v, r] : run) {
        shard->entries_.emplace_back(Value::String(std::string(v)), r);
      }
      return shard;
    }
  }
  return shard;
}

std::pair<size_t, size_t> SortedShard::Span(const Value* lo, bool lo_inclusive,
                                            const Value* hi,
                                            bool hi_inclusive) const {
  auto value_less = [](const Entry& e, const Value& v) {
    return e.first.Compare(v) < 0;
  };
  auto less_value = [](const Value& v, const Entry& e) {
    return v.Compare(e.first) < 0;
  };
  size_t first = 0;
  size_t last = entries_.size();
  if (lo != nullptr) {
    first = lo_inclusive
                ? std::lower_bound(entries_.begin(), entries_.end(), *lo,
                                   value_less) -
                      entries_.begin()
                : std::upper_bound(entries_.begin(), entries_.end(), *lo,
                                   less_value) -
                      entries_.begin();
  }
  if (hi != nullptr) {
    last = hi_inclusive
               ? std::upper_bound(entries_.begin(), entries_.end(), *hi,
                                  less_value) -
                     entries_.begin()
               : std::lower_bound(entries_.begin(), entries_.end(), *hi,
                                  value_less) -
                     entries_.begin();
  }
  if (last < first) last = first;
  return {first, last};
}

bool SortedShard::AnyInRange(const Value* lo, bool lo_inclusive,
                             const Value* hi, bool hi_inclusive) const {
  auto [first, last] = Span(lo, lo_inclusive, hi, hi_inclusive);
  return first < last;
}

void SortedShard::CollectRange(const Value* lo, bool lo_inclusive,
                               const Value* hi, bool hi_inclusive,
                               std::vector<uint32_t>* rows) const {
  auto [first, last] = Span(lo, lo_inclusive, hi, hi_inclusive);
  const size_t base = rows->size();
  rows->reserve(base + (last - first));
  for (size_t i = first; i < last; ++i) rows->push_back(entries_[i].second);
  // Entries are value-ordered; emission must be row-ordered.
  std::sort(rows->begin() + base, rows->end());
}

size_t SortedShard::MemoryBytes() const {
  size_t bytes = sizeof(SortedShard) + entries_.capacity() * sizeof(Entry);
  // The capacity term covers the inline Value; add only string heap bytes.
  for (const Entry& e : entries_) bytes += e.first.MemoryBytes() - sizeof(Value);
  return bytes;
}

}  // namespace imp
