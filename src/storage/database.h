// The in-memory backend database: catalog + versioned updates + delta scans.
//
// Stands in for the paper's PostgreSQL backend. It provides exactly the
// backend surface IMP needs (Sec. 2 / Sec. 7): applying updates under a
// monotonically increasing statement-level snapshot version, fetching the
// (optionally pre-filtered) delta between two versions, and evaluating
// queries / delta joins (via exec::Executor, which reads through a pinned
// ReadView or the tables' published snapshots).
//
// Versioning is epoch-aware (storage/version_clock.h): every statement's
// version is first *allocated*, then *applied* (base rows + staged delta
// records), then *published*. StableVersion() — the highest version whose
// every predecessor is fully published — is the watermark maintenance
// rounds cut at; CurrentVersion() is the highest allocated version and may
// run ahead of the watermark while asynchronous ingestion is in flight.
// On the synchronous Insert path (and exec's DeleteWhere) the three steps
// happen under the caller, so the two counters always coincide there.
//
// Concurrency — the lock-free read path (no global session lock exists):
//
//   * READERS NEVER LOCK. Base-table readers pin an immutable, epoch-
//     stamped TableSnapshot per table — or a whole-database ReadView
//     (storage/read_view.h) when they need one consistent watermark across
//     tables — via a single atomic load each. Delta-log readers
//     (ScanDelta / PendingDeltaCount / HasPendingDelta) are wait-free
//     against the published tail (storage/delta_log.h). Old snapshots are
//     reclaimed epoch-style when the last pin drops; a writer never waits
//     for or observes readers.
//   * WRITERS STRIPE PER TABLE. Every mutation of a table — the sync
//     Insert/DELETE paths, the ingestion worker's staged applies, snapshot
//     publication — runs under that table's write stripe
//     (WriteSession(table)); writers to different tables never contend.
//     Publication order inside PublishVersion — deltas, then the table
//     snapshot, then the version clock — is what makes a ReadView opened
//     at stable watermark W see every statement <= W.
//   * The catalog (CreateTable) is setup-time only: creating tables
//     concurrently with readers/writers is unsupported, as in the seed.

#ifndef IMP_STORAGE_DATABASE_H_
#define IMP_STORAGE_DATABASE_H_

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "storage/read_view.h"
#include "storage/table.h"
#include "storage/version_clock.h"

namespace imp {

/// A batch of signed delta rows for one table, in log order.
struct TableDelta {
  std::string table;
  std::vector<DeltaRecord> records;

  bool empty() const { return records.empty(); }
  size_t size() const { return records.size(); }
};

class Database {
 public:
  /// Create an empty table; fails if the name exists or a column has no
  /// type (each column's type is its storage type). Setup-time only (not
  /// safe against concurrent readers of the catalog).
  Status CreateTable(const std::string& name, Schema schema);
  // Catalog lookups take string_views (the table map's transparent
  // comparator resolves them without building a std::string per call) so
  // hot-path callers holding cached table names never allocate here.
  bool HasTable(std::string_view name) const;
  const Table* GetTable(std::string_view name) const;
  Table* GetMutableTable(std::string_view name);
  std::vector<std::string> TableNames() const;

  /// Bulk load without delta logging or version bump (initial load; the
  /// paper's experiments capture sketches only after loading). Publishes
  /// the loaded rows as the table's next snapshot. Rows pass ConformRows
  /// first; a mistyped row fails the whole load with nothing appended.
  Status BulkLoad(const std::string& table, const std::vector<Tuple>& rows);

  /// Insert rows as one statement: appends to base data and delta log,
  /// bumps the snapshot version. Returns the new version. Synchronous:
  /// the version is allocated, applied and published under the caller
  /// (holding the table's write stripe).
  Result<uint64_t> Insert(const std::string& table,
                          const std::vector<Tuple>& rows);

  /// Highest allocated snapshot version (0 before any update). May exceed
  /// StableVersion() while asynchronous ingestion is in flight.
  uint64_t CurrentVersion() const { return clock_.allocated(); }

  /// Highest fully-published version: every statement <= this version has
  /// been applied and its delta records are visible. The epoch cut for
  /// maintenance rounds and ReadViews.
  uint64_t StableVersion() const { return clock_.stable(); }

  // --- Epoch-aware append path (asynchronous ingestion) -------------------
  //
  // The middleware's ingestion worker drives statements through
  //   v = AllocateVersion();              (at enqueue: v is the ticket)
  //   { WriteSession(table);              (at apply)
  //     StageInsert/StageDelete(..., v); }
  //   PublishVersion(table, v);           (or, batched: one PublishTable
  //                                        per touched table, then
  //                                        RetireVersion per statement)
  // Statements must be applied in allocation order (the bounded MPSC
  // queue's pop order); each table's log then keeps non-decreasing
  // versions, which the window binary search relies on.

  /// Reserve the next statement version without touching storage.
  uint64_t AllocateVersion() { return clock_.Allocate(); }

  /// Apply an insert at a pre-allocated version: append base rows and
  /// stage delta records into `table`'s unpublished log tail. Caller holds
  /// the table's write stripe. Rows pass ConformRows first; a mistyped row
  /// fails the statement with nothing staged.
  Status StageInsert(const std::string& table, const std::vector<Tuple>& rows,
                     uint64_t version);

  /// Apply a delete at a pre-allocated version: erase the rows
  /// `selection` picks — one bitmap per chunk of the table's writer state,
  /// computed under the same stripe hold (exec's SelectRows) — and stage
  /// them as negative delta records, in scan order. Only the chunks that
  /// lose rows are rewritten (Table::EraseRows). Returns the number of
  /// rows removed. Caller holds the table's stripe.
  Result<size_t> StageDelete(const std::string& table,
                             const std::vector<BitVector>& selection,
                             uint64_t version);

  /// Publish `table`'s staged state: make its staged delta records visible
  /// and swap in the next immutable TableSnapshot. Caller holds the
  /// table's write stripe. One call may cover several staged statements
  /// (the ingestion worker's batched apply publishes once per batch).
  /// Carries the `snapshot.publish` failpoint: a fired failpoint returns
  /// non-OK WITHOUT publishing anything, so a retry is always clean. A
  /// missing table publishes nothing and returns OK (failed statements
  /// flow through here; see PublishVersion).
  Status PublishTable(std::string_view table);

  /// Publication with the system's failure policy baked in: retry the
  /// failpoint-gated publish up to `max_retries` extra times, then FORCE
  /// the publication. Skipping a publication is the one fault this design
  /// cannot absorb — staged-but-unpublished state under an advancing
  /// watermark would let a sketch fast-forward past rows it never saw
  /// (breaking superset safety), and a permanently stalled watermark
  /// livelocks OpenReadView. Publication is an in-memory pointer swap
  /// that cannot genuinely fail, so transient faults retry and a
  /// persistent fault is overridden, loudly: every failed attempt counts
  /// in publish_faults(), every override in forced_publishes(). Returns
  /// the first attempt's error (telemetry) — the publication itself has
  /// ALWAYS completed when this returns.
  Status PublishTableRetrying(std::string_view table, size_t max_retries);

  /// Retry budget the synchronous write paths grant their (forced)
  /// publication; the asynchronous worker passes its configured budget.
  static constexpr size_t kSyncPublishRetries = 4;

  /// Retire `version` in the version clock: the statement is fully applied
  /// and published, and the stable watermark advances once the version gap
  /// below closes. Must happen AFTER the owning table's PublishTable so a
  /// ReadView at the advanced watermark finds the data. Also used to
  /// retire the version of a failed statement (a no-op statement still
  /// consumes its version, otherwise the watermark would stall).
  void RetireVersion(uint64_t version) { clock_.Publish(version); }

  /// PublishTable + RetireVersion for one statement (the per-statement
  /// publication path). Caller holds the table's write stripe; a missing
  /// table (failed statement) only retires the version.
  void PublishVersion(const std::string& table, uint64_t version);

  // --- Per-table write stripe ---------------------------------------------

  /// Exclusive guard every writer of `table` holds while applying and
  /// publishing (sync mutators, the ingestion worker, repartitioning's
  /// freeze of one table). Never taken by readers — the read path is
  /// lock-free. The table must exist.
  std::unique_lock<std::mutex> WriteSession(std::string_view table) const;

  // --- Lock-free read path -------------------------------------------------

  /// Pin a consistent set of every table's snapshot at the current stable
  /// watermark (see storage/read_view.h). Wait-free in the absence of a
  /// racing publication; lock-free overall (retries only while publications
  /// land mid-open).
  ReadView OpenReadView() const;

  /// Fetch the signed delta of `table` in the half-open version interval
  /// (from_version, to_version]. If `pred` is set, only rows satisfying it
  /// are returned — this implements IMP's "filtering deltas based on
  /// selections" push-down (Sec. 7.2). Only published records are visible;
  /// wait-free against the in-flight writer and concurrent truncation.
  TableDelta ScanDelta(std::string_view table, uint64_t from_version,
                       uint64_t to_version,
                       const std::function<bool(const Tuple&)>& pred = {}) const;

  /// Number of published delta rows in (from_version, current] for `table`.
  size_t PendingDeltaCount(std::string_view table,
                           uint64_t from_version) const;

  /// True iff `table` has any published delta row newer than `from_version`.
  /// Wait-free (two atomic loads).
  bool HasPendingDelta(std::string_view table, uint64_t from_version) const;

  /// Truncate every table's delta log up to `version` (drop records with
  /// version <= it). Driven by the middleware after a MaintainAll round
  /// with the minimum valid_version across all sketch shards: no sketch
  /// will ever re-scan below that watermark. Safe against concurrent
  /// window scans (pinned log views keep dropped segments alive) and the
  /// in-flight ingestion writer (per-log writer mutex).
  void TruncateDeltaLogs(uint64_t version);

  /// Failed publication attempts observed by PublishTableRetrying /
  /// PublishVersion (injected or genuine), and the subset that exhausted
  /// retries and forced the publication through. Fault telemetry.
  size_t publish_faults() const {
    return publish_faults_.load(std::memory_order_relaxed);
  }
  size_t forced_publishes() const {
    return forced_publishes_.load(std::memory_order_relaxed);
  }

  /// Key-value blob store used by the middleware to persist incremental
  /// operator state in the backend (Sec. 2: eviction / restart recovery).
  void PutStateBlob(const std::string& key, std::string blob) {
    state_blobs_[key] = std::move(blob);
  }
  const std::string* GetStateBlob(const std::string& key) const {
    auto it = state_blobs_.find(key);
    return it == state_blobs_.end() ? nullptr : &it->second;
  }
  void EraseStateBlob(const std::string& key) { state_blobs_.erase(key); }

  size_t MemoryBytes() const;

  /// Cross-table roll-up of the per-table snapshot-index counters
  /// (TableIndexStats), for stats reporting and O(delta) maintenance
  /// gating in the benches.
  struct IndexStatsSnapshot {
    uint64_t shards_built = 0;
    uint64_t shards_reused = 0;
    uint64_t point_probes = 0;
    uint64_t range_probes = 0;
  };
  IndexStatsSnapshot AggregateIndexStats() const;

  /// Bytes held by materialized index shards reachable from the currently
  /// published snapshots (reported separately from data bytes so
  /// carry-forward sharing is measurable).
  size_t IndexBytes() const;

 private:
  /// The actual publication work (deltas, then snapshot) — no failpoint.
  void PublishTableUnchecked(std::string_view table);

  /// Transparent comparator: find() accepts string_views (heterogeneous
  /// lookup) so per-call key strings are never built on the hot path.
  std::map<std::string, std::unique_ptr<Table>, std::less<>> tables_;
  VersionClock clock_;
  std::map<std::string, std::string> state_blobs_;
  std::atomic<size_t> publish_faults_{0};
  std::atomic<size_t> forced_publishes_{0};
};

}  // namespace imp

#endif  // IMP_STORAGE_DATABASE_H_
