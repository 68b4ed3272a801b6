// The IMP middleware (Fig. 2): sits between the user and the backend DBMS,
// accepts SQL queries and updates, manages provenance sketches, and decides
// per query whether to (i) capture a new sketch, (ii) use an existing
// non-stale sketch, or (iii) incrementally maintain a stale sketch and then
// use it.
//
// Three execution modes reproduce the paper's compared systems:
//   kNoSketch        — NS baseline: queries run directly on the backend;
//   kFullMaintenance — FM baseline: sketches are used, staleness triggers a
//                      full re-run of the capture query;
//   kIncremental     — IMP: staleness is repaired by the incremental engine.
// Maintenance timing follows the configured strategy: lazy (maintain when a
// stale sketch is needed) or eager (maintain after every batch of updates).
//
// Every update (INSERT / DELETE / UPDATE) runs on the caller's thread: it
// stages, publishes and retires its statement version while holding the
// table's write stripe, and Update() returns that published version.
// Writers to different tables run concurrently and may retire their
// versions out of order; the stable watermark (storage/version_clock.h)
// passes a version only once every earlier one has retired. Maintenance
// rounds cut at that watermark, never at the allocated version, so a
// round is immune to rows a writer is still staging.
//
// Concurrency model (sharded front end over a lock-free storage read path):
//
//   Query is reader-concurrent and takes NO backend lock at all. A query
//   resolves its entry under a brief per-shard read lock, pins the entry's
//   immutable SketchSnapshot AND a storage ReadView (the pinned set of
//   per-table TableSnapshots at the stable watermark), and validates the
//   sketch against the view by comparing version stamps: if no table of
//   the entry was modified past the snapshot's valid version, the snapshot
//   is exactly the sketch a fully serialized run would use at the view's
//   watermark, and the query rewrites + executes over the view with no
//   lock held anywhere. Only a STALE entry (lazy repair) or a miss
//   (capture) takes the entry's shard write lock — and even then execution
//   resumes lock-free once the repaired snapshot is published.
//
//   Maintenance is shard-exclusive but storage-lock-free. MaintainAll,
//   eager rounds (run by the writer whose statement completes a batch) and
//   lazy repairs take the write lock of only the shards they touch, one
//   shard at a time; each round pins a ReadView at its frozen cut and
//   scans deltas / delegates joins / recaptures through it — other writers
//   keep publishing concurrently without ever blocking or being blocked by
//   a round. Repartitioning and state eviction remain stop-the-world for
//   the SKETCH store (exclusive front-end lock); on the storage side
//   repartition now freezes only the affected table's write stripe
//   instead of the whole backend.
//
//   Lock hierarchy (acquire strictly downwards; never two shard locks at
//   once): front-end lock -> shard lock -> table write stripe (writers
//   only) -> delta-log / table internals. The stats mutex is a leaf.
//   Readers appear nowhere in the hierarchy — the read path pins
//   immutable snapshots and holds no lock while executing.
//
//   Snapshot lifetime: pinned SketchSnapshots, TableSnapshots and
//   ReadViews stay valid and self-consistent indefinitely — publication
//   swaps pointers, never mutates pointees; reclamation is epoch-based
//   through the pins (the last holder frees an old snapshot). A
//   SketchSnapshot is guaranteed CURRENT at watermark W exactly when no
//   entry table's view version exceeds its valid version.

#ifndef IMP_MIDDLEWARE_IMP_SYSTEM_H_
#define IMP_MIDDLEWARE_IMP_SYSTEM_H_

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "exec/executor.h"
#include "middleware/sketch_manager.h"
#include "sql/binder.h"

namespace imp {

enum class ExecutionMode : uint8_t { kNoSketch, kFullMaintenance, kIncremental };
enum class MaintenanceStrategy : uint8_t { kLazy, kEager };

/// System configuration.
struct ImpConfig {
  ExecutionMode mode = ExecutionMode::kIncremental;
  MaintenanceStrategy strategy = MaintenanceStrategy::kLazy;
  /// Eager mode: number of update statements buffered before maintenance.
  size_t eager_batch_size = 1;
  /// Incremental engine tunables (bloom filters, push-down, buffers).
  MaintainerOptions maintainer;
  /// Batched maintenance: scan + annotate each referenced table's pending
  /// delta once per round (shared annotation cache) and hand per-sketch
  /// filtered views to the maintainers, instead of one backend log scan
  /// per sketch. Applies to every incremental round — MaintainAll, eager
  /// flushes AND lazy single-entry repair on use — so the shared-work
  /// counters (delta_scans / annotation_hits / zero-copy stats) are
  /// accounted uniformly. Results are bit-identical either way.
  bool shared_delta_fetch = true;
  /// Worker threads for MaintainAll fan-out over independent sketch
  /// entries (1 = serial in-thread, 0 = hardware concurrency). Sketch
  /// results are bit-identical to the serial run for any thread count.
  size_t maintenance_threads = 1;

  // --- Fault handling & graceful degradation ------------------------------
  // The failure posture throughout: sketches are a pure accelerator, so a
  // faulty sketch degrades the query to a plain scan (bit-identical
  // answer), never to an error or a wrong result. A rejected write reports
  // its error to its own caller and changes nothing.

  /// Failpoint spec armed at construction, same grammar as the
  /// IMP_FAILPOINTS environment variable (common/failpoint.h):
  /// "point=trigger;point=trigger". Empty = arm nothing.
  std::string failpoints;
  /// Injectable monotonic clock (milliseconds) driving maintenance retry
  /// backoff deadlines. Unset = steady_clock. Maintenance NEVER sleeps on
  /// this clock — a backing-off entry is simply skipped until its
  /// deadline passes, so tests advance a fake clock instead of waiting.
  std::function<uint64_t()> clock_ms;
  /// Exponential backoff for failed maintenance of one sketch: the k-th
  /// consecutive failure defers the next retry by
  /// min(cap, base << (k - 1)) milliseconds. base 0 = retry immediately.
  uint64_t maintenance_backoff_ms = 10;
  uint64_t maintenance_backoff_cap_ms = 5000;
  /// After this many consecutive failures, escalate from incremental
  /// repair to a full FM-style recapture of the entry from base tables.
  size_t recapture_after_failures = 3;
  /// After this many consecutive failures, quarantine the entry: excluded
  /// from maintenance, from log pinning and from lazy repair (queries
  /// degrade to plain scans) until RepairQuarantined()/RepartitionTable.
  size_t quarantine_after_failures = 5;
};

/// Wall-clock accounting split by pipeline stage.
struct ImpSystemStats {
  size_t queries = 0;
  size_t updates = 0;
  size_t sketch_captures = 0;    ///< capture-query executions
  size_t sketch_uses = 0;        ///< queries answered through a sketch
  size_t snapshot_reads = 0;     ///< sketch uses served lock-free from a
                                 ///< published snapshot (no shard write
                                 ///< lock, no repair on the query path)
  size_t maintenances = 0;       ///< incremental/full maintenance runs
  size_t batch_rounds = 0;       ///< batched maintenance rounds (per-shard
                                 ///< MaintainAll rounds or lazy repair)
  size_t delta_scans = 0;        ///< backend delta-log scans for maintenance
  size_t annotation_passes = 0;  ///< annotate(ΔR, Φ) runs over table deltas
  size_t annotation_hits = 0;    ///< per-sketch views served from the cache
  size_t log_truncations = 0;    ///< delta-log truncation sweeps driven
  // Zero-copy delta pipeline roll-up (summed over the per-sketch
  // MaintainStats deltas of each round): borrowed views served by table
  // access, copy-on-write materializations, and the rows they copied.
  // Filterless-scan sketches on the shared-fetch path keep rows_copied at
  // zero — the machine-checkable claim behind the batched pipeline.
  size_t deltas_borrowed = 0;
  size_t deltas_materialized = 0;
  size_t rows_copied = 0;
  // Batch-kernel roll-up (exec/vector_kernels; see README "Execution
  // model"): batches whose predicate ran through a compiled column kernel,
  // and rows that fell back to row-at-a-time Expr::Eval (uncompilable
  // predicate shapes). Summed over maintenance rounds (per-maintainer
  // MaintainStats diffs + the shared push-down bitmaps) and query
  // execution.
  size_t vectorized_batches = 0;
  size_t scalar_fallback_rows = 0;
  // Snapshot-index roll-up (storage/snapshot_index; see README "Index
  // lifetime"). The shard counters are snapshot-style refreshes of the
  // backend's cumulative per-table TableIndexStats: built counts shard
  // materializations, reused counts carry-forwards from a chunk's cache —
  // a healthy steady state reuses nearly everything and builds O(delta).
  // index_fallback_scans sums the per-maintainer MaintainStats diffs
  // (delegated joins that could not use the point index); index_bytes is
  // the materialized shard footprint reachable from current snapshots.
  size_t index_shards_built = 0;
  size_t index_shards_reused = 0;
  size_t index_point_probes = 0;
  size_t index_range_probes = 0;
  size_t index_fallback_scans = 0;
  size_t index_bytes = 0;
  // Fault-handling counters (Health() refreshes the snapshot-style ones).
  size_t faults_injected = 0;       ///< failpoint fires since construction
  size_t maintenance_retries = 0;   ///< rounds re-attempting a previously
                                    ///< failed entry (post-backoff)
  size_t sketches_quarantined = 0;  ///< entries that ENTERED quarantine
                                    ///< (cumulative, not current count)
  size_t degraded_queries = 0;      ///< queries answered by plain scan
                                    ///< because their sketch was unhealthy
  double capture_seconds = 0;
  double maintain_seconds = 0;
  double query_seconds = 0;      ///< instrumented/plain query execution
  double update_seconds = 0;     ///< statement apply latency
};

/// Point-in-time health snapshot of the pipeline (Health()). Safe to take
/// concurrently with queries, updates and maintenance — each field is
/// internally consistent; the set as a whole is advisory, not a fence.
struct SystemHealth {
  size_t sketches_fresh = 0;
  size_t sketches_stale = 0;
  size_t sketches_quarantined = 0;
  size_t faults_injected = 0;        ///< failpoint fires since construction
};

/// Thread-safety contract: Update()/UpdateBound() may be called from many
/// writer threads concurrently (they serialize per table on the write
/// stripes). Query/QueryPlan and MaintainAll may also be called from many
/// threads concurrently with each other and with the writers, including
/// the eager rounds writers run; each query's result is identical to a
/// fully serialized run at the watermark it executed under.
/// RegisterPartition / PartitionTable / RepartitionTable /
/// EvictSketchStates are stop-the-world (they serialize against
/// everything). Read stats() only at quiescent points (after in-flight
/// updates and queries returned).
class ImpSystem {
 public:
  ImpSystem(Database* db, ImpConfig config = {});

  ImpSystem(const ImpSystem&) = delete;
  ImpSystem& operator=(const ImpSystem&) = delete;

  /// Register a range partition for sketching (part of Φ).
  Status RegisterPartition(RangePartition partition);
  /// Convenience: build an equi-depth partition from the table's current
  /// contents (Sec. 7.4) and register it.
  Status PartitionTable(const std::string& table, const std::string& attribute,
                        size_t num_fragments);

  /// Run a SQL query through the sketch pipeline of Fig. 2.
  Result<Relation> Query(const std::string& sql);
  /// Run a bound plan (bypasses the parser; used by benchmarks).
  Result<Relation> QueryPlan(const PlanPtr& plan);

  /// Apply a SQL update (INSERT / DELETE / UPDATE) under the caller and
  /// return its published version; it is visible to queries and
  /// maintenance once the stable watermark passes it. A row that does not
  /// fit the column types (ConformRows) or writes NULL into a partition
  /// attribute fails with InvalidArgument and changes nothing.
  Result<uint64_t> Update(const std::string& sql);
  /// Apply a bound update.
  Result<uint64_t> UpdateBound(const BoundUpdate& update);

  /// Force maintenance of every stale sketch (flushes eager buffering).
  /// Proceeds shard by shard — readers of other shards are never blocked.
  /// Reports the first entry-level failure (quarantined and backing-off
  /// entries are skipped silently — their failures were already
  /// reported by the round that recorded them).
  Status MaintainAll();

  /// Point-in-time pipeline health; also refreshes the snapshot-style
  /// stats fields (faults_injected and the index counters).
  SystemHealth Health();

  /// Recapture every quarantined sketch from base tables and return it to
  /// service (the explicit repair step quarantine waits for). Stop-the-
  /// world like RepartitionTable. Returns the first recapture error;
  /// entries that still fail stay quarantined.
  Status RepairQuarantined();

  /// Persist every sketch's incremental operator state into the backend's
  /// blob store and release the in-memory state (Sec. 2: eviction under
  /// memory pressure / restart recovery). States are transparently
  /// restored on the next use of each sketch.
  Status EvictSketchStates();

  /// Replace `table`'s range partition with a fresh equi-depth partition
  /// over its current contents and recapture all sketches (Sec. 7.4:
  /// significant distribution changes -> update ranges and recapture).
  /// Stop-the-world; a reader already holding a pinned SketchSnapshot
  /// keeps a self-consistent (pre-repartition) view.
  Status RepartitionTable(const std::string& table,
                          const std::string& attribute, size_t num_fragments);

  Database* db() { return db_; }
  const PartitionCatalog& catalog() const { return catalog_; }
  SketchManager& sketches() { return sketches_; }
  const ImpSystemStats& stats() const { return stats_; }
  const ImpConfig& config() const { return config_; }

 private:
  /// Plain (no-sketch) execution over its own pinned ReadView.
  Result<Relation> ExecutePlain(const PlanPtr& plan);
  /// True iff any of the entry's tables was modified past `version` as of
  /// the pinned `view` — the staleness verdict shared by the snapshot
  /// fast path and batch-round planning. Pure snapshot-stamp comparisons:
  /// wait-free, and immune to delta-log truncation racing the probe.
  static bool EntryIsStaleAt(const SketchEntry& entry, uint64_t version,
                             const ReadView& view);
  /// First candidate of `key` in `shard` that passes the reuse check.
  /// Caller holds the shard's lock (either side).
  SketchEntry* FindReusableLocked(const SketchManager::Shard& shard,
                                  std::string_view key, const PlanPtr& plan);
  /// Answer through `entry`: snapshot fast path, or shard-exclusive lazy
  /// repair when the snapshot is stale at the current watermark. Caller
  /// holds the front-end lock shared and NO shard lock.
  Result<Relation> AnswerWithEntry(SketchManager::Shard& shard,
                                   SketchEntry* entry, const PlanPtr& plan);
  /// Capture a new entry for `key`. Caller holds `shard`'s write lock.
  Result<SketchEntry*> TryCreateEntryLocked(SketchManager::Shard& shard,
                                            const std::string& key,
                                            const PlanPtr& plan);
  /// One batched maintenance round over `entries`: shared delta fetch &
  /// annotation (config.shared_delta_fetch), parallel per-entry fan-out
  /// (config.maintenance_threads), cut frozen at `view.watermark()`.
  /// Caller holds the front-end lock (either side) and the WRITE lock of
  /// the single shard containing every entry in `entries`, and passes the
  /// pinned ReadView the round reads through (so the repaired sketches and
  /// any subsequent execution over the same view observe one consistent
  /// watermark — no backend lock involved). Each repaired entry's
  /// snapshot is republished before the round returns.
  Status MaintainBatchLocked(const std::vector<SketchEntry*>& entries,
                             const ReadView& view);
  /// Health bookkeeping for one failed maintenance of `entry` (caller
  /// holds the entry's shard WRITE lock): records the failure, derives
  /// the exponential-backoff deadline from `now`, escalates to an
  /// FM-style recapture from base tables after
  /// config.recapture_after_failures (reading through the round's pinned
  /// `view`; success returns the entry to service on the spot), and
  /// quarantines after config.quarantine_after_failures.
  void RecordRoundFailureLocked(SketchEntry* entry, const Status& error,
                                uint64_t now, const ReadView& view);
  /// MaintainAll body: per-shard write-locked rounds + truncation sweep.
  /// Caller holds the front-end lock (either side) and no shard lock.
  Status MaintainAllShards();
  /// After each MaintainAll round, truncate every table's delta log up to
  /// the minimum valid_version across all sketch shards (no sketch will
  /// ever re-scan below it), bounding log growth on long-lived systems.
  /// No-op on an empty store.
  void TruncateDeltaLogs();
  /// Re-materialize an evicted maintainer from the backend blob store.
  Status EnsureMaintainer(SketchEntry* entry);
  /// Rebuild an entry's state + sketch from scratch (repartitioning),
  /// reading through the repartition pass's pinned `view`. Caller holds
  /// the front-end lock exclusively.
  Status RecaptureEntry(SketchEntry* entry, const ReadView& view);
  /// Eager-strategy bookkeeping; runs on the writer's thread after its
  /// statement is published.
  void NoteUpdate();
  /// Index of `table`'s partition attribute (NOT NULL), or SIZE_MAX when
  /// the table is unpartitioned. Takes the shared front-end lock, so never
  /// call it while holding a write stripe.
  size_t PartitionColumn(const std::string& table);
  /// Stage, publish and retire the statement under its table's write
  /// stripe; returns its version.
  Result<uint64_t> ApplyBound(const BoundUpdate& update);
  /// Milliseconds on the backoff clock (config.clock_ms or steady_clock).
  uint64_t NowMs() const;
  /// Worker pool for maintenance rounds, created on first use and reused
  /// across rounds (spawning/joining threads per round would dominate
  /// small rounds, especially under eager maintenance). Concurrent rounds
  /// share it — ParallelFor tracks completion per call.
  ThreadPool& MaintenancePool();

  Database* db_;
  ImpConfig config_;
  PartitionCatalog catalog_;
  SketchManager sketches_;
  Binder binder_;
  ImpSystemStats stats_;
  /// Eager-strategy statement counter. Atomic: incremented by NoteUpdate
  /// on writer threads, reset by the maintenance round that flushes it.
  std::atomic<size_t> pending_update_statements_{0};
  std::unique_ptr<ThreadPool> maintenance_pool_;
  std::once_flag maintenance_pool_once_;
  /// Top of the lock hierarchy. Shared: the whole sketch-touching front
  /// end (queries, maintenance rounds, eager flushes) — these coordinate
  /// among themselves through shard locks and snapshots. Exclusive:
  /// catalog mutation and whole-store surgery (RegisterPartition,
  /// PartitionTable, RepartitionTable, EvictSketchStates), which every
  /// shared-side path reads without further locking.
  std::shared_mutex frontend_mu_;
  /// Guards every stat field, which concurrent queries, writers and
  /// per-shard rounds update. Leaf lock.
  std::mutex stats_mu_;
  /// Registry-wide fire count at construction: stats_.faults_injected
  /// reports fires SINCE this system was built, not process lifetime.
  size_t faults_baseline_ = 0;
};

}  // namespace imp

#endif  // IMP_MIDDLEWARE_IMP_SYSTEM_H_
