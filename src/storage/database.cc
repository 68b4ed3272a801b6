#include "storage/database.h"

#include <algorithm>
#include <thread>

#include "common/failpoint.h"

namespace imp {

Status Database::CreateTable(const std::string& name, Schema schema) {
  if (tables_.count(name) > 0) {
    return Status::InvalidArgument("table already exists: " + name);
  }
  for (const ColumnDef& col : schema.columns()) {
    if (col.type == ValueType::kNull) {
      return Status::InvalidArgument("column " + name + "." + col.name +
                                     " has no type");
    }
  }
  tables_[name] = std::make_unique<Table>(name, std::move(schema));
  return Status::OK();
}

bool Database::HasTable(std::string_view name) const {
  return tables_.count(name) > 0;
}

const Table* Database::GetTable(std::string_view name) const {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : it->second.get();
}

Table* Database::GetMutableTable(std::string_view name) {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : it->second.get();
}

std::vector<std::string> Database::TableNames() const {
  std::vector<std::string> out;
  out.reserve(tables_.size());
  for (const auto& [name, _] : tables_) out.push_back(name);
  return out;
}

std::unique_lock<std::mutex> Database::WriteSession(
    std::string_view table) const {
  const Table* t = GetTable(table);
  IMP_CHECK_MSG(t != nullptr, "WriteSession on missing table");
  return std::unique_lock<std::mutex>(t->write_stripe());
}

ReadView Database::OpenReadView() const {
  // Open loop: pin every table's snapshot after reading the stable
  // watermark W. stable() >= W happens-after every table publication of
  // every statement <= W (PublishTable's release swap precedes the clock
  // retire), so each pinned snapshot contains ALL statements <= W touching
  // its table. A snapshot stamped beyond W means a publication landed
  // mid-open: re-read the (now advanced) watermark and re-pin. The loop
  // converges at the first open that doesn't straddle a publication —
  // writers never block it and it never blocks writers.
  for (;;) {
    uint64_t w = clock_.stable();
    std::vector<ReadView::Entry> entries;
    entries.reserve(tables_.size());
    bool consistent = true;
    for (const auto& [name, table] : tables_) {
      std::shared_ptr<const TableSnapshot> snap = table->Snapshot();
      if (snap->version() > w) {
        consistent = false;
        break;
      }
      entries.push_back(ReadView::Entry{std::string_view(name),
                                        std::move(snap)});
    }
    if (consistent) return ReadView(w, std::move(entries));
    // A publication straddled this open (a table is stamped past the
    // watermark we read, i.e. its statement's clock retire is still in
    // flight). Yield instead of spinning hot — the writer needs the CPU
    // to finish the retire that unblocks us.
    std::this_thread::yield();
  }
}

Status Database::BulkLoad(const std::string& table,
                          const std::vector<Tuple>& rows) {
  Table* t = GetMutableTable(table);
  if (t == nullptr) return Status::NotFound("no such table: " + table);
  std::vector<Tuple> widened;
  IMP_RETURN_NOT_OK(ConformRows(t->schema(), rows, &widened));
  auto session = WriteSession(table);
  for (const Tuple& row : widened.empty() ? rows : widened) t->AppendRow(row);
  t->PublishSnapshot();
  return Status::OK();
}

Status Database::StageInsert(const std::string& table,
                             const std::vector<Tuple>& rows,
                             uint64_t version) {
  Table* t = GetMutableTable(table);
  if (t == nullptr) return Status::NotFound("no such table: " + table);
  std::vector<Tuple> widened;
  IMP_RETURN_NOT_OK(ConformRows(t->schema(), rows, &widened));
  for (const Tuple& row : widened.empty() ? rows : widened) {
    t->AppendRow(row);
    t->AppendDelta(DeltaRecord{row, /*mult=*/1, version});
  }
  return Status::OK();
}

Result<size_t> Database::StageDelete(const std::string& table,
                                     const std::vector<BitVector>& selection,
                                     uint64_t version) {
  Table* t = GetMutableTable(table);
  if (t == nullptr) return Status::NotFound("no such table: " + table);
  std::vector<Tuple> removed = t->EraseRows(selection);
  for (Tuple& row : removed) {
    t->AppendDelta(DeltaRecord{std::move(row), /*mult=*/-1, version});
  }
  return removed.size();
}

Status Database::PublishTable(std::string_view table) {
  // The failpoint sits BEFORE any mutation: a fired publication leaves the
  // staged state untouched, so the caller's retry republishes cleanly.
  IMP_FAILPOINT(kFpSnapshotPublish);
  PublishTableUnchecked(table);
  return Status::OK();
}

void Database::PublishTableUnchecked(std::string_view table) {
  Table* t = GetMutableTable(table);
  if (t == nullptr) return;
  // Deltas first: the snapshot's version stamp is the log's published
  // watermark, so the stamp reflects everything this publication exposes.
  t->PublishDeltas();
  t->PublishSnapshot();
}

Status Database::PublishTableRetrying(std::string_view table,
                                      size_t max_retries) {
  Status first = PublishTable(table);
  if (first.ok()) return first;
  publish_faults_.fetch_add(1, std::memory_order_relaxed);
  for (size_t attempt = 0; attempt < max_retries; ++attempt) {
    if (PublishTable(table).ok()) return first;
    publish_faults_.fetch_add(1, std::memory_order_relaxed);
  }
  // Retries exhausted: force the publication through (see header for why
  // skipping it is never an option), leaving the fault visible in the
  // counters and the returned status.
  forced_publishes_.fetch_add(1, std::memory_order_relaxed);
  PublishTableUnchecked(table);
  return first;
}

void Database::PublishVersion(const std::string& table, uint64_t version) {
  // A failed statement may target a missing table: retire its version
  // anyway so the stable watermark cannot stall behind it. The retrying
  // publication guarantees the retire below never exposes a watermark
  // whose data is still unpublished.
  PublishTableRetrying(table, kSyncPublishRetries);
  RetireVersion(version);
}

Result<uint64_t> Database::Insert(const std::string& table,
                                  const std::vector<Tuple>& rows) {
  if (!HasTable(table)) return Status::NotFound("no such table: " + table);
  // Allocation happens under the stripe: concurrent sync writers to the
  // same table stage in allocation order, keeping the log's version column
  // non-decreasing.
  auto session = WriteSession(table);
  uint64_t v = AllocateVersion();
  Status staged = StageInsert(table, rows, v);
  // Publish even on failure: an allocated version that never publishes
  // would stall the stable watermark forever.
  PublishVersion(table, v);
  IMP_RETURN_NOT_OK(staged);
  return v;
}

TableDelta Database::ScanDelta(
    std::string_view table, uint64_t from_version, uint64_t to_version,
    const std::function<bool(const Tuple&)>& pred) const {
  TableDelta out;
  out.table = std::string(table);
  const Table* t = GetTable(table);
  if (t == nullptr) return out;
  t->delta_log().CollectWindow(from_version, to_version, pred, &out.records);
  return out;
}

size_t Database::PendingDeltaCount(std::string_view table,
                                   uint64_t from_version) const {
  const Table* t = GetTable(table);
  if (t == nullptr) return 0;
  return t->delta_log().CountAfter(from_version);
}

bool Database::HasPendingDelta(std::string_view table,
                               uint64_t from_version) const {
  const Table* t = GetTable(table);
  if (t == nullptr) return false;
  return t->delta_log().HasRecordAfter(from_version);
}

void Database::TruncateDeltaLogs(uint64_t version) {
  for (auto& [_, table] : tables_) table->TruncateDeltaLog(version);
}

size_t Database::MemoryBytes() const {
  size_t bytes = sizeof(Database);
  for (const auto& [_, table] : tables_) bytes += table->MemoryBytes();
  return bytes;
}

Database::IndexStatsSnapshot Database::AggregateIndexStats() const {
  IndexStatsSnapshot out;
  for (const auto& [_, table] : tables_) {
    const TableIndexStats& s = table->index_stats();
    out.shards_built += s.shards_built.load(std::memory_order_relaxed);
    out.shards_reused += s.shards_reused.load(std::memory_order_relaxed);
    out.point_probes += s.point_probes.load(std::memory_order_relaxed);
    out.range_probes += s.range_probes.load(std::memory_order_relaxed);
  }
  return out;
}

size_t Database::IndexBytes() const {
  size_t bytes = 0;
  for (const auto& [_, table] : tables_) {
    bytes += table->Snapshot()->IndexBytes();
  }
  return bytes;
}

}  // namespace imp
