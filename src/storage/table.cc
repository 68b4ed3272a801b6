#include "storage/table.h"

#include <algorithm>
#include <mutex>

namespace imp {

Status ConformRows(const Schema& schema, const std::vector<Tuple>& rows,
                   std::vector<Tuple>* widened) {
  std::vector<ValueType> types;
  types.reserve(schema.size());
  for (const ColumnDef& col : schema.columns()) types.push_back(col.type);
  for (size_t r = 0; r < rows.size(); ++r) {
    const Tuple& row = rows[r];
    if (row.size() != types.size()) {
      return Status::InvalidArgument(
          "row has " + std::to_string(row.size()) + " values, table has " +
          std::to_string(types.size()) + " columns");
    }
    for (size_t c = 0; c < row.size(); ++c) {
      if (row[c].type() == types[c] || row[c].is_null()) continue;
      if (!FitsColumnType(row[c].type(), types[c])) {
        return Status::InvalidArgument(
            "column " + schema.column(c).name + " is " +
            ValueTypeName(types[c]) + ", got " + row[c].ToString());
      }
      if (widened->empty()) *widened = rows;  // the first widening copies
      (*widened)[r][c] = Value::Double(static_cast<double>(row[c].AsInt()));
    }
  }
  return Status::OK();
}

DataChunk::DataChunk(const Schema& schema) : num_rows_(0) {
  columns_.reserve(schema.size());
  for (const ColumnDef& col : schema.columns()) columns_.emplace_back(col.type);
}

void DataChunk::AppendRow(const Tuple& row) {
  IMP_DCHECK(row.size() == columns_.size());
  // Appends only ever hit writer-private chunks (a snapshot-shared tail is
  // cloned or sealed first), but a chunk can become private again after the
  // last pinned snapshot drops it — drop any shards it left behind.
  {
    std::lock_guard<std::mutex> lock(shard_mu_);
    hash_shards_.clear();
    sorted_shards_.clear();
  }
  // The column vectors fold the zone-map min/max accumulators into the
  // same append — one columnar pass, no re-boxing.
  for (size_t c = 0; c < columns_.size(); ++c) columns_[c].Append(row[c]);
  ++num_rows_;
}

Tuple DataChunk::GetRow(size_t row) const {
  Tuple out;
  out.reserve(columns_.size());
  for (size_t c = 0; c < columns_.size(); ++c) {
    out.push_back(columns_[c].GetValue(row));
  }
  return out;
}

std::vector<Tuple> DataChunk::GatherRows(const BitVector& sel) const {
  std::vector<uint32_t> idx;
  idx.reserve(sel.Count());
  sel.ForEachSetBit([&](size_t r) { idx.push_back(static_cast<uint32_t>(r)); });
  std::vector<Tuple> out(idx.size());
  for (Tuple& t : out) t.assign(columns_.size(), Value());
  for (size_t c = 0; c < columns_.size(); ++c) columns_[c].Gather(idx, c, &out);
  return out;
}

std::shared_ptr<DataChunk> DataChunk::Without(const BitVector& erased) const {
  std::vector<uint32_t> keep;
  keep.reserve(num_rows_);
  for (size_t r = 0; r < num_rows_; ++r) {
    if (!erased.Test(r)) keep.push_back(static_cast<uint32_t>(r));
  }
  std::vector<ColumnVector> columns;
  columns.reserve(columns_.size());
  for (const ColumnVector& col : columns_) {
    columns.push_back(col.CopyRows(keep));
  }
  return std::shared_ptr<DataChunk>(new DataChunk(std::move(columns),
                                                  keep.size()));
}

DataChunk::ZoneEntry DataChunk::zone(size_t col) const {
  ZoneEntry z;
  z.valid = columns_[col].MinMax(&z.min, &z.max);
  return z;
}

size_t DataChunk::MemoryBytes() const {
  size_t bytes = sizeof(DataChunk);
  bytes += columns_.capacity() * sizeof(ColumnVector);
  for (const auto& col : columns_) bytes += col.MemoryBytes();
  return bytes;
}

std::shared_ptr<const HashShard> DataChunk::HashShardFor(
    size_t col, bool* built_now) const {
  std::lock_guard<std::mutex> lock(shard_mu_);
  auto it = hash_shards_.find(col);
  if (it != hash_shards_.end()) {
    *built_now = false;
    return it->second;
  }
  auto shard = HashShard::Build(columns_[col], num_rows_);
  hash_shards_[col] = shard;
  *built_now = true;
  return shard;
}

std::shared_ptr<const SortedShard> DataChunk::SortedShardFor(
    size_t col, bool* built_now) const {
  std::lock_guard<std::mutex> lock(shard_mu_);
  auto it = sorted_shards_.find(col);
  if (it != sorted_shards_.end()) {
    *built_now = false;
    return it->second;
  }
  auto shard = SortedShard::Build(columns_[col], num_rows_);
  sorted_shards_[col] = shard;
  *built_now = true;
  return shard;
}

std::shared_ptr<const SortedShard> DataChunk::SortedShardIfBuilt(
    size_t col) const {
  std::lock_guard<std::mutex> lock(shard_mu_);
  auto it = sorted_shards_.find(col);
  return it == sorted_shards_.end() ? nullptr : it->second;
}

size_t DataChunk::IndexBytes() const {
  std::lock_guard<std::mutex> lock(shard_mu_);
  size_t bytes = 0;
  for (const auto& kv : hash_shards_) bytes += kv.second->MemoryBytes();
  for (const auto& kv : sorted_shards_) bytes += kv.second->MemoryBytes();
  return bytes;
}

// ---- TableSnapshot ---------------------------------------------------------

const std::string& TableSnapshot::table_name() const { return table_->name(); }

const Schema& TableSnapshot::schema() const { return table_->schema(); }

void TableSnapshot::ForEachRow(
    const std::function<void(const Tuple&)>& fn) const {
  for (const auto& chunk : chunks_) {
    for (size_t r = 0; r < chunk->num_rows(); ++r) fn(chunk->GetRow(r));
  }
}

std::pair<Value, Value> TableSnapshot::ColumnMinMax(size_t col) const {
  // Fold the chunks' inline zone accumulators — no row visit. Strict-<
  // folding keeps the earliest of Compare-equal candidates, matching the
  // row-order loop this replaced.
  Value min, max;
  bool first = true;
  for (const auto& chunk : chunks_) {
    Value cmin, cmax;
    if (!chunk->column(col).MinMax(&cmin, &cmax)) continue;
    if (first) {
      min = std::move(cmin);
      max = std::move(cmax);
      first = false;
    } else {
      if (cmin < min) min = std::move(cmin);
      if (max < cmax) max = std::move(cmax);
    }
  }
  return {min, max};
}

std::vector<Value> TableSnapshot::ColumnValues(size_t col) const {
  std::vector<Value> out;
  out.reserve(num_rows_);
  for (const auto& chunk : chunks_) {
    const ColumnVector& column = chunk->column(col);
    for (size_t r = 0; r < chunk->num_rows(); ++r) {
      out.push_back(column.GetValue(r));
    }
  }
  return out;
}

const TableSnapshot::HashShardVec& TableSnapshot::HashShards(size_t col) const {
  // Fast path: already assembled — a shared lock keeps concurrent probes
  // from maintenance workers parallel. Map nodes are stable, so the
  // returned reference stays valid after the lock is released.
  {
    std::shared_lock<std::shared_mutex> lock(index_mu_);
    auto it = hash_assemblies_.find(col);
    if (it != hash_assemblies_.end()) return it->second;
  }
  // Slow path: serialize the lazy assembly; re-check under the exclusive
  // lock since another reader may have assembled it meanwhile. Chunks that
  // already carry a shard (a predecessor snapshot probed them) are shared
  // as-is — only delta chunks pay a build.
  std::unique_lock<std::shared_mutex> lock(index_mu_);
  auto it = hash_assemblies_.find(col);
  if (it == hash_assemblies_.end()) {
    HashShardVec shards;
    shards.reserve(chunks_.size());
    uint64_t built = 0, reused = 0;
    for (const auto& chunk : chunks_) {
      bool built_now = false;
      shards.push_back(chunk->HashShardFor(col, &built_now));
      built_now ? ++built : ++reused;
    }
    if (table_ != nullptr) {
      TableIndexStats& s = table_->index_stats();
      s.shards_built.fetch_add(built, std::memory_order_relaxed);
      s.shards_reused.fetch_add(reused, std::memory_order_relaxed);
    }
    it = hash_assemblies_.emplace(col, std::move(shards)).first;
  }
  return it->second;
}

const TableSnapshot::SortedShardVec& TableSnapshot::SortedShards(
    size_t col) const {
  {
    std::shared_lock<std::shared_mutex> lock(index_mu_);
    auto it = sorted_assemblies_.find(col);
    if (it != sorted_assemblies_.end()) return it->second;
  }
  std::unique_lock<std::shared_mutex> lock(index_mu_);
  auto it = sorted_assemblies_.find(col);
  if (it == sorted_assemblies_.end()) {
    SortedShardVec shards;
    shards.reserve(chunks_.size());
    uint64_t built = 0, reused = 0;
    for (const auto& chunk : chunks_) {
      bool built_now = false;
      shards.push_back(chunk->SortedShardFor(col, &built_now));
      built_now ? ++built : ++reused;
    }
    if (table_ != nullptr) {
      TableIndexStats& s = table_->index_stats();
      s.shards_built.fetch_add(built, std::memory_order_relaxed);
      s.shards_reused.fetch_add(reused, std::memory_order_relaxed);
    }
    it = sorted_assemblies_.emplace(col, std::move(shards)).first;
  }
  return it->second;
}

void TableSnapshot::ForEachIndexMatch(
    size_t col, const Value& v,
    const std::function<void(const RowLoc&)>& fn) const {
  IMP_CHECK(col < schema().size());
  const HashShardVec& shards = HashShards(col);
  if (table_ != nullptr) {
    table_->index_stats().point_probes.fetch_add(1, std::memory_order_relaxed);
  }
  for (uint32_t c = 0; c < shards.size(); ++c) {
    const std::vector<uint32_t>* rows = shards[c]->Probe(v);
    if (rows == nullptr) continue;
    for (uint32_t r : *rows) fn(RowLoc{c, r});
  }
}

std::vector<TableSnapshot::RowLoc> TableSnapshot::IndexProbe(
    size_t col, const Value& v) const {
  std::vector<RowLoc> out;
  ForEachIndexMatch(col, v, [&](const RowLoc& loc) { out.push_back(loc); });
  return out;
}

void TableSnapshot::ForEachIndexRangeMatch(
    size_t col, const Value* lo, bool lo_inclusive, const Value* hi,
    bool hi_inclusive, const std::function<void(const RowLoc&)>& fn) const {
  IMP_CHECK(col < schema().size());
  const SortedShardVec& shards = SortedShards(col);
  if (table_ != nullptr) {
    table_->index_stats().range_probes.fetch_add(1, std::memory_order_relaxed);
  }
  std::vector<uint32_t> rows;
  for (uint32_t c = 0; c < shards.size(); ++c) {
    rows.clear();
    shards[c]->CollectRange(lo, lo_inclusive, hi, hi_inclusive, &rows);
    for (uint32_t r : rows) fn(RowLoc{c, r});
  }
}

std::vector<TableSnapshot::RowLoc> TableSnapshot::IndexRangeProbe(
    size_t col, const Value& lo, const Value& hi) const {
  std::vector<RowLoc> out;
  ForEachIndexRangeMatch(col, &lo, /*lo_inclusive=*/true, &hi,
                         /*hi_inclusive=*/true,
                         [&](const RowLoc& loc) { out.push_back(loc); });
  return out;
}

namespace {
bool Contains(const std::vector<size_t>& cols, size_t col) {
  return std::find(cols.begin(), cols.end(), col) != cols.end();
}

template <typename Map>
std::vector<size_t> MergeIndexedColumns(const std::vector<size_t>& warm,
                                        const Map& assemblies) {
  std::vector<size_t> out = warm;
  for (const auto& kv : assemblies) out.push_back(kv.first);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}
}  // namespace

bool TableSnapshot::HasIndex(size_t col) const {
  if (Contains(warm_hash_cols_, col)) return true;
  std::shared_lock<std::shared_mutex> lock(index_mu_);
  return hash_assemblies_.count(col) > 0;
}

bool TableSnapshot::HasRangeIndex(size_t col) const {
  if (Contains(warm_sorted_cols_, col)) return true;
  std::shared_lock<std::shared_mutex> lock(index_mu_);
  return sorted_assemblies_.count(col) > 0;
}

std::vector<size_t> TableSnapshot::IndexedHashColumns() const {
  std::shared_lock<std::shared_mutex> lock(index_mu_);
  return MergeIndexedColumns(warm_hash_cols_, hash_assemblies_);
}

std::vector<size_t> TableSnapshot::IndexedSortedColumns() const {
  std::shared_lock<std::shared_mutex> lock(index_mu_);
  return MergeIndexedColumns(warm_sorted_cols_, sorted_assemblies_);
}

size_t TableSnapshot::IndexBytes() const {
  size_t bytes = 0;
  for (const auto& chunk : chunks_) bytes += chunk->IndexBytes();
  {
    std::shared_lock<std::shared_mutex> lock(index_mu_);
    bytes += hash_assemblies_.size() * chunks_.size() *
             sizeof(std::shared_ptr<const HashShard>);
    bytes += sorted_assemblies_.size() * chunks_.size() *
             sizeof(std::shared_ptr<const SortedShard>);
  }
  return bytes;
}

size_t TableSnapshot::MemoryBytes() const {
  size_t bytes = sizeof(TableSnapshot);
  for (const auto& chunk : chunks_) bytes += chunk->MemoryBytes();
  // Materialized index shards are real memory too; without this the
  // fig17-style accounting would report index carry-forward as free.
  bytes += IndexBytes();
  return bytes;
}

// ---- Table -----------------------------------------------------------------

Table::Table(std::string name, Schema schema)
    : name_(std::move(name)), schema_(std::move(schema)) {
  // Publish the empty snapshot so readers never observe a null pointer.
  snapshot_ = std::make_shared<const TableSnapshot>(
      this, std::vector<std::shared_ptr<const DataChunk>>{}, /*num_rows=*/0,
      /*version=*/0, /*epoch=*/++snapshot_epoch_);
}

void Table::AppendRow(const Tuple& row) {
  IMP_CHECK_MSG(row.size() == schema_.size(), name_.c_str());
  if (chunks_.empty() || chunks_.back()->Full()) {
    chunks_.push_back(std::make_shared<DataChunk>(schema_));
  } else if (chunks_.back().use_count() > 1) {
    // The tail chunk is still referenced by a published snapshot, so it is
    // physically immutable for pinned readers. Small tails are cloned
    // (copy-on-write; the clone stays private until the next
    // PublishSnapshot shares it again); a tail at or past the seal
    // threshold is sealed instead — the append opens a fresh chunk. The
    // threshold bounds a statement's publication overhead to one
    // ≤kSealThreshold-row clone (per-statement publishing would otherwise
    // re-clone an ever-growing tail, quadratic over a chunk's fill) while
    // keeping every sealed chunk at least kSealThreshold rows full.
    if (chunks_.back()->num_rows() >= DataChunk::kSealThreshold) {
      chunks_.push_back(std::make_shared<DataChunk>(schema_));
    } else {
      chunks_.back() = std::make_shared<DataChunk>(*chunks_.back());
    }
  }
  chunks_.back()->AppendRow(row);
  ++num_rows_;
}

std::vector<Tuple> Table::EraseRows(const std::vector<BitVector>& selection) {
  IMP_CHECK(selection.size() == chunks_.size());
  std::vector<Tuple> erased;
  std::vector<std::shared_ptr<DataChunk>> kept;
  kept.reserve(chunks_.size());
  for (size_t i = 0; i < chunks_.size(); ++i) {
    const BitVector& sel = selection[i];
    IMP_CHECK(sel.num_bits() <= chunks_[i]->num_rows());
    const size_t n = sel.Count();
    if (n == 0) {
      kept.push_back(std::move(chunks_[i]));
      continue;
    }
    for (Tuple& row : chunks_[i]->GatherRows(sel)) {
      erased.push_back(std::move(row));
    }
    num_rows_ -= n;
    if (n < chunks_[i]->num_rows()) kept.push_back(chunks_[i]->Without(sel));
  }
  chunks_ = std::move(kept);
  return erased;
}

void Table::PublishSnapshot() {
  // Sharing the writer's chunk pointers is what makes publication O(#chunks):
  // row data is never copied here. The tail chunk becomes shared — the next
  // append clones it (COW), every other chunk is immutable by construction.
  std::vector<std::shared_ptr<const DataChunk>> chunks(chunks_.begin(),
                                                       chunks_.end());
  // Index carry-forward: the predecessor's indexed columns stay available
  // on the successor. The shards themselves ride the shared chunk
  // pointers above; only the availability sets are copied here, so
  // publication stays O(#chunks) and the first probe on the new snapshot
  // rebuilds shards for delta chunks alone.
  std::shared_ptr<const TableSnapshot> prev = Snapshot();
  auto next = std::make_shared<const TableSnapshot>(
      this, std::move(chunks), num_rows_, delta_log_.last_published_version(),
      ++snapshot_epoch_, prev->IndexedHashColumns(),
      prev->IndexedSortedColumns());
  std::atomic_store_explicit(&snapshot_,
                             std::shared_ptr<const TableSnapshot>(next),
                             std::memory_order_release);
}

size_t Table::MemoryBytes() const {
  size_t bytes = sizeof(Table);
  std::shared_ptr<const TableSnapshot> snap = Snapshot();
  bytes += snap->MemoryBytes();
  bytes += delta_log_.MemoryBytes();
  return bytes;
}

}  // namespace imp
