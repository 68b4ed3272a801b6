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
// Ingestion runs in one of two modes:
//   synchronous  — Update() applies the statement under the caller and
//                  returns its published version (the seed behaviour);
//   asynchronous — Update() allocates the statement's version, enqueues it
//                  onto a bounded MPSC queue and returns the version as a
//                  ticket immediately; a background worker applies
//                  statements in ticket order and publishes the stable
//                  watermark. Maintenance rounds cut at the watermark
//                  epoch, never at the (possibly ahead) allocated version,
//                  so a round is immune to rows racing in mid-round. After
//                  WaitForIngest() every sketch, query result and
//                  maintenance counter is bit-identical to the synchronous
//                  run of the same stream of VALID statements. (A failing
//                  statement diverges deliberately: its version was
//                  allocated at enqueue and is retired on failure so the
//                  watermark cannot stall — WAL/sequence-number semantics —
//                  whereas the synchronous path validates before
//                  allocating.)
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
//   eager worker rounds and lazy repairs take the write lock of only the
//   shards they touch, one shard at a time; each round pins a ReadView at
//   its frozen cut and scans deltas / delegates joins / recaptures through
//   it — the ingestion worker keeps publishing concurrently without ever
//   blocking or being blocked by a round. Repartitioning and state
//   eviction remain stop-the-world for the SKETCH store (exclusive
//   front-end lock); on the storage side repartition now freezes only the
//   affected table's write stripe instead of the whole backend.
//
//   Lock hierarchy (acquire strictly downwards; never two shard locks at
//   once): front-end lock -> shard lock -> table write stripe (writers
//   only) -> delta-log / table internals. The stats mutexes are leaves.
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
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/ingestion_queue.h"
#include "common/thread_pool.h"
#include "exec/executor.h"
#include "middleware/sketch_manager.h"
#include "sql/binder.h"

namespace imp {

enum class ExecutionMode : uint8_t { kNoSketch, kFullMaintenance, kIncremental };
enum class MaintenanceStrategy : uint8_t { kLazy, kEager };

/// Producer behaviour when the bounded ingestion queue is full.
enum class QueueFullPolicy : uint8_t {
  kBlock,   ///< wait for space (bounded by ingest_push_timeout_ms if > 0)
  kReject,  ///< fail fast with kUnavailable — never park the producer
};

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
  /// Asynchronous ingestion: Update() enqueues and returns the statement's
  /// pre-allocated version (the ticket) immediately; the background worker
  /// applies and publishes. Off = the seed's synchronous path.
  bool async_ingestion = false;
  /// Bounded ingestion queue capacity; producers block when it is full
  /// (backpressure instead of unbounded memory growth).
  size_t ingest_queue_capacity = 1024;
  /// Asynchronous ingestion batching: the worker drains up to this many
  /// queued statements per apply cycle and publishes each touched table
  /// ONCE per batch (one snapshot swap + one delta publication instead of
  /// per statement), raising sustained ingest throughput under deep
  /// queues. 1 = publish per statement (the PR 3 behaviour: eager rounds
  /// then fire at exactly the synchronous path's epochs). Versions are
  /// still applied and retired in ticket order, so drained results are
  /// identical for any batch size.
  size_t ingest_apply_batch = 1;

  // --- Fault handling & graceful degradation ------------------------------
  // The failure posture throughout: sketches are a pure accelerator, so a
  // faulty sketch degrades the query to a plain scan (bit-identical
  // answer), never to an error or a wrong result; only the write path may
  // surface kUnavailable (dead worker / full queue under kReject).

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
  /// Full-queue behaviour of async Update(): block (default) or reject.
  QueueFullPolicy queue_full_policy = QueueFullPolicy::kBlock;
  /// kBlock only: maximum milliseconds a producer may wait for queue
  /// space before kUnavailable. 0 = wait indefinitely (Close() still
  /// wakes it if the worker dies).
  uint64_t ingest_push_timeout_ms = 0;
  /// Immediate retries of a transiently failing statement apply, taken
  /// only while NOTHING of the statement was staged yet (a partially
  /// staged apply is not idempotent — it dead-letters instead).
  size_t ingest_retry_limit = 3;
  /// Extra publication attempts the worker grants per touched table
  /// before the publication is forced through (storage/database.h).
  size_t publish_retry_limit = 8;
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
  // Asynchronous ingestion counters. In async mode update_seconds measures
  // ENQUEUE latency (what the writer observes); the apply cost moves to
  // the worker and is reported separately.
  size_t ingest_enqueued = 0;      ///< statements enqueued (async mode)
  size_t ingest_applied = 0;       ///< statements applied by the worker
  size_t ingest_queue_peak = 0;    ///< queue-depth high-water mark
  size_t ingest_batches = 0;       ///< worker apply cycles (publishes per
                                   ///< touched table once per cycle)
  size_t ingest_batch_max = 0;     ///< largest statements-per-cycle drained
  double ingest_apply_seconds = 0; ///< worker time applying statements
  // Fault-handling counters (Health() refreshes the snapshot-style ones).
  size_t faults_injected = 0;       ///< failpoint fires since construction
  size_t maintenance_retries = 0;   ///< rounds re-attempting a previously
                                    ///< failed entry (post-backoff)
  size_t sketches_quarantined = 0;  ///< entries that ENTERED quarantine
                                    ///< (cumulative, not current count)
  size_t degraded_queries = 0;      ///< queries answered by plain scan
                                    ///< because their sketch was unhealthy
  size_t dead_letter_size = 0;      ///< poisoned statements currently held
  size_t ingest_retries = 0;        ///< statement apply retries taken
  size_t ingest_dead_letters = 0;   ///< statements dead-lettered (lifetime)
  size_t publish_retries = 0;       ///< worker publish cycles that needed
                                    ///< retry or force
  double capture_seconds = 0;
  double maintain_seconds = 0;
  double query_seconds = 0;      ///< instrumented/plain query execution
  double update_seconds = 0;     ///< sync: apply latency; async: enqueue

  double TotalSeconds() const {
    return capture_seconds + maintain_seconds + query_seconds +
           update_seconds + ingest_apply_seconds;
  }
  void Reset() { *this = ImpSystemStats{}; }
};

/// Point-in-time health snapshot of the pipeline (Health()). Safe to take
/// concurrently with queries, updates and maintenance — each field is
/// internally consistent; the set as a whole is advisory, not a fence.
struct SystemHealth {
  /// False once the async worker fail-stopped (crash failpoint or an
  /// escaped exception); always true in synchronous mode. A dead worker
  /// closes the queue: Update() returns kUnavailable, the READ path keeps
  /// serving the last stable watermark.
  bool ingest_worker_alive = true;
  size_t ingest_queue_depth = 0;
  size_t dead_letter_size = 0;
  size_t sketches_fresh = 0;
  size_t sketches_stale = 0;
  size_t sketches_quarantined = 0;
  size_t faults_injected = 0;        ///< failpoint fires since construction
  std::string last_ingest_error;     ///< first deferred error ("" = none)
};

/// One statement the ingestion worker gave up on (poisoned): kept out of
/// the pipeline so the watermark and the statements behind it keep
/// flowing, retained here for diagnosis / manual replay.
struct DeadLetter {
  BoundUpdate update;
  uint64_t version = 0;
  uint64_t delete_version = 0;  ///< kUpdate only
  std::string error;
};

/// Thread-safety contract: Update()/UpdateBound() may be called from many
/// producer threads concurrently (async mode serializes them on the queue;
/// sync mode on the per-table write stripes). Query/QueryPlan and
/// MaintainAll may also be called from many threads concurrently with each
/// other, with the producers and with the ingestion worker's eager rounds;
/// each query's result is identical to a fully serialized run at the
/// watermark it executed under. RegisterPartition / PartitionTable /
/// RepartitionTable / EvictSketchStates are stop-the-world (they serialize
/// against everything). Read stats() only at quiescent points (e.g. after
/// WaitForIngest() and after in-flight queries returned).
class ImpSystem {
 public:
  ImpSystem(Database* db, ImpConfig config = {});
  ~ImpSystem();

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

  /// Apply a SQL update (INSERT / DELETE / UPDATE). Synchronous mode:
  /// applies under the caller and returns the published version.
  /// Asynchronous mode: enqueues and immediately returns the statement's
  /// pre-allocated version — the ticket; the statement is visible to
  /// queries/maintenance once the stable watermark passes it. A row that
  /// does not fit the column types (ConformRows) or writes NULL into a
  /// partition attribute fails with InvalidArgument and changes nothing —
  /// in async mode before enqueueing, except an UPDATE's computed rows,
  /// which the worker rejects as a dead letter.
  Result<uint64_t> Update(const std::string& sql);
  /// Apply a bound update.
  Result<uint64_t> UpdateBound(const BoundUpdate& update);

  /// Drain barrier for asynchronous ingestion: block until every enqueued
  /// statement has been applied and published, and any eager maintenance
  /// it triggered has finished. Returns the first deferred apply error (a
  /// failed async statement cannot report through its own Update call).
  /// No-op returning OK in synchronous mode.
  Status WaitForIngest();

  /// Force maintenance of every stale sketch (flushes eager buffering).
  /// Proceeds shard by shard — readers of other shards are never blocked.
  /// Reports the first entry-level failure (quarantined and backing-off
  /// entries are skipped silently — their failures were already
  /// reported by the round that recorded them).
  Status MaintainAll();

  /// Point-in-time pipeline health; also refreshes the snapshot-style
  /// stats fields (faults_injected, dead_letter_size).
  SystemHealth Health();

  /// Recapture every quarantined sketch from base tables and return it to
  /// service (the explicit repair step quarantine waits for). Stop-the-
  /// world like RepartitionTable. Returns the first recapture error;
  /// entries that still fail stay quarantined.
  Status RepairQuarantined();

  /// Snapshot of the dead-letter store (poisoned async statements).
  std::vector<DeadLetter> DeadLetters() const;

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
  ImpSystemStats* mutable_stats() { return &stats_; }
  const ImpConfig& config() const { return config_; }

 private:
  /// One queued update statement with its pre-allocated version(s).
  struct IngestTask {
    BoundUpdate update;
    uint64_t version = 0;         ///< the ticket (kUpdate: the insert half)
    uint64_t delete_version = 0;  ///< kUpdate only: the delete half
  };

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
  /// Eager-strategy bookkeeping; runs on the caller (sync) or the
  /// ingestion worker (async), after the statement is applied.
  void NoteUpdate();
  /// Index of `table`'s partition attribute (NOT NULL), or SIZE_MAX when
  /// the table is unpartitioned. Takes the shared front-end lock, so never
  /// call it while holding a write stripe.
  size_t PartitionColumn(const std::string& table);
  /// Apply the statement under the caller (synchronous mode).
  Result<uint64_t> ApplySyncBound(const BoundUpdate& update);
  /// Allocate version(s) + enqueue; returns the ticket (async mode).
  Result<uint64_t> EnqueueUpdate(const BoundUpdate& update);
  /// Worker body: drain up to config.ingest_apply_batch statements per
  /// cycle, stage each under its table's write stripe (with bounded
  /// retries / dead-lettering), publish every touched table once, retire
  /// the versions in ticket order. Exits early only on a terminal fault
  /// (crash failpoint), after fail-stopping and draining the queue.
  void IngestWorkerLoop();
  /// One apply cycle over `batch` (see IngestWorkerLoop). Never throws:
  /// per-statement exceptions are converted to that statement's Status.
  void ApplyIngestBatch(const std::vector<IngestTask>& batch);
  /// Stage (apply without publishing) one statement under its table's
  /// write stripe; records the touched table in `touched` (first-touch
  /// order) for the batch-end publication. Carries the `ingest.apply`
  /// failpoint. `*staged_any` is set the moment the statement mutates
  /// anything — a failure with it still false is safe to retry (nothing
  /// to undo); with it true the statement must dead-letter (a partial
  /// kUpdate re-applied would double its delete half).
  Status StageIngestTask(const IngestTask& task,
                         std::vector<std::string>* touched, bool* staged_any);
  /// Record a poisoned statement in the dead-letter store (bounded by
  /// kDeadLetterCapacity in imp_system.cc; lifetime count in stats).
  void DeadLetterStatement(const IngestTask& task, const std::string& error);
  /// Fail-stop the write path: record `error`, mark the worker dead and
  /// close the queue (waking parked producers). Read path unaffected.
  void TerminalIngestFailure(const Status& error);
  /// Dead-letter + retire + TaskDone `batch` and everything still queued
  /// (the dead worker's drain — WaitForIngest and producers never hang).
  /// Only reached before anything of the batch was staged, so retiring
  /// the versions is safe (nothing unpublished exists).
  void DrainToDeadLetters(const std::vector<IngestTask>& batch,
                          const Status& error);
  void StopIngestWorker();
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
  /// on the ingestion worker (async) or producer threads (sync), reset by
  /// the maintenance round that flushes it.
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
  /// Guards the front-end stat fields (queries/captures/uses/maintenance
  /// counters and timings), which concurrent readers and per-shard rounds
  /// update. Leaf lock.
  std::mutex stats_mu_;
  /// Guards the ingestion-side stat fields (updates / update_seconds /
  /// ingest_enqueued on producers; ingest_applied / ingest_apply_seconds /
  /// ingest_queue_peak on the worker and drain) so a front end may poll
  /// stats() for ingestion progress mid-flight. Leaf lock.
  std::mutex update_stats_mu_;
  std::mutex ingest_error_mu_;
  Status ingest_error_;  ///< first deferred async apply error
  std::unique_ptr<IngestionQueue<IngestTask>> ingest_queue_;
  std::thread ingest_worker_;
  /// Set by TerminalIngestFailure; Update() then fails fast with
  /// kUnavailable instead of enqueueing onto a queue nobody drains.
  std::atomic<bool> ingest_worker_dead_{false};
  /// Dead-letter store (leaf lock, like the stats mutexes).
  mutable std::mutex dead_letter_mu_;
  std::deque<DeadLetter> dead_letters_;
  /// Registry-wide fire count at construction: stats_.faults_injected
  /// reports fires SINCE this system was built, not process lifetime.
  size_t faults_baseline_ = 0;
};

}  // namespace imp

#endif  // IMP_MIDDLEWARE_IMP_SYSTEM_H_
