#include "middleware/imp_system.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <optional>

#include "common/failpoint.h"
#include "common/thread_pool.h"
#include "middleware/maintenance_batch.h"
#include "sketch/reuse.h"
#include "sketch/safety.h"
#include "sketch/use_rewrite.h"

namespace imp {

namespace {
/// Seconds elapsed since `start`.
double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Partition attributes are NOT NULL: a range predicate cannot admit NULL
/// without losing zone skipping, so a NULL partition value would drop out
/// of every sketch-filtered answer. `col` indexes the attribute (SIZE_MAX:
/// unpartitioned table).
Status CheckPartitionNotNull(const std::vector<Tuple>& rows, size_t col) {
  for (const Tuple& row : rows) {
    if (col < row.size() && row[col].is_null()) {
      return Status::InvalidArgument("partition attribute must not be NULL");
    }
  }
  return Status::OK();
}

/// The same check over stored data: the chunks' null bitmaps answer it in
/// O(chunks).
Status CheckPartitionNotNull(const TableSnapshot& snap, size_t col) {
  for (const auto& chunk : snap.chunks()) {
    if (chunk->column(col).has_nulls()) {
      return Status::InvalidArgument(
          "partition attribute " + snap.table_name() + "." +
          snap.schema().column(col).name + " holds NULL");
    }
  }
  return Status::OK();
}

/// The modified rows of an UPDATE statement (UPDATE = DELETE the rows
/// `selection` picks + INSERT these): each picked row of the table's
/// current state with the SET expressions applied, checked like an
/// INSERT's rows (ConformRows, NOT NULL `partition_col`) before the caller
/// stages the delete half, so a rejected UPDATE changes nothing. Shared by
/// the synchronous apply path and the ingestion worker so the two can
/// never diverge.
Result<std::vector<Tuple>> ComputeUpdatedRows(
    const Table& table, const BoundUpdate& update,
    const std::vector<BitVector>& selection, size_t partition_col) {
  std::vector<Tuple> modified;
  for (size_t i = 0; i < selection.size(); ++i) {
    for (Tuple& row : table.chunks()[i]->GatherRows(selection[i])) {
      Tuple next = row;
      for (const auto& [col, expr] : update.sets) next[col] = expr->Eval(row);
      modified.push_back(std::move(next));
    }
  }
  std::vector<Tuple> widened;
  IMP_RETURN_NOT_OK(ConformRows(table.schema(), modified, &widened));
  if (!widened.empty()) modified = std::move(widened);
  IMP_RETURN_NOT_OK(CheckPartitionNotNull(modified, partition_col));
  return modified;
}

/// Total rows of `tables` in the pinned view — the scale a capture's cost
/// is normalized against in the policy ledger.
size_t RowsInView(const ReadView& view, const std::vector<std::string>& tables) {
  size_t rows = 0;
  for (const std::string& table : tables) {
    if (const TableSnapshot* snap = view.Find(table)) rows += snap->num_rows();
  }
  return rows;
}
}  // namespace

ImpSystem::ImpSystem(Database* db, ImpConfig config)
    : db_(db), config_(std::move(config)), binder_(db) {
  faults_baseline_ = FailpointRegistry::Instance().TotalFired();
  if (!config_.failpoints.empty()) {
    // Same grammar as IMP_FAILPOINTS; a malformed spec is a programming
    // error in the test/bench that built the config.
    Status armed = FailpointRegistry::Instance().ArmFromSpec(config_.failpoints);
    IMP_CHECK_MSG(armed.ok(), "bad ImpConfig::failpoints spec");
  }
  if (config_.async_ingestion) {
    ingest_queue_ = std::make_unique<IngestionQueue<IngestTask>>(
        config_.ingest_queue_capacity);
    ingest_worker_ = std::thread([this] { IngestWorkerLoop(); });
  }
}

ImpSystem::~ImpSystem() { StopIngestWorker(); }

uint64_t ImpSystem::NowMs() const {
  if (config_.clock_ms) return config_.clock_ms();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void ImpSystem::StopIngestWorker() {
  if (!ingest_queue_) return;
  ingest_queue_->Close();
  if (ingest_worker_.joinable()) ingest_worker_.join();
}

Status ImpSystem::RegisterPartition(RangePartition partition) {
  if (const Table* t = db_->GetTable(partition.table())) {
    IMP_RETURN_NOT_OK(
        CheckPartitionNotNull(*t->Snapshot(), partition.attr_index()));
  }
  std::unique_lock<std::shared_mutex> frontend(frontend_mu_);
  // A new partition can make previously unsketchable templates sketchable.
  sketches_.ClearUnsketchable();
  return catalog_.Register(std::move(partition));
}

Status ImpSystem::PartitionTable(const std::string& table,
                                 const std::string& attribute,
                                 size_t num_fragments) {
  std::unique_lock<std::shared_mutex> frontend(frontend_mu_);
  const Table* t = db_->GetTable(table);
  if (t == nullptr) return Status::NotFound("no such table: " + table);
  auto idx = t->schema().IndexOf(attribute);
  if (!idx.has_value()) {
    return Status::NotFound("no such column: " + table + "." + attribute);
  }
  // Read the histogram source from the pinned published snapshot — no
  // backend lock; a concurrent writer publishes past us without blocking.
  std::shared_ptr<const TableSnapshot> snap = t->Snapshot();
  IMP_RETURN_NOT_OK(CheckPartitionNotNull(*snap, *idx));
  std::vector<Value> values = snap->ColumnValues(*idx);
  if (values.empty()) {
    return Status::InvalidArgument("cannot partition empty table " + table);
  }
  // A new partition can make previously unsketchable templates sketchable.
  // Cleared only once validation has passed — a doomed request must not
  // re-enable capture attempts for templates that stay unsketchable (same
  // failure-path contract as RepartitionTable).
  sketches_.ClearUnsketchable();
  return catalog_.Register(RangePartition::EquiDepth(
      table, attribute, *idx, std::move(values), num_fragments));
}

Result<SketchEntry*> ImpSystem::TryCreateEntryLocked(
    SketchManager::Shard& shard, const std::string& key, const PlanPtr& plan) {
  // Determine which partitioned tables referenced by the query have a safe
  // partition attribute; only those may be filtered by the sketch.
  std::set<std::string> filter_tables;
  std::set<std::string> referenced = plan->ReferencedTables();
  for (const std::string& table : referenced) {
    const RangePartition* part = catalog_.Find(table);
    if (part == nullptr) continue;
    SafetyResult safety =
        AnalyzeSketchSafety(plan, table, part->attr_index());
    if (safety.safe) filter_tables.insert(table);
  }
  if (filter_tables.empty()) return Status::NotFound("no safe partition");

  auto entry = std::make_unique<SketchEntry>();
  entry->state_key =
      "imp_state/" + key + "#" + std::to_string(sketches_.NextEntryId());
  entry->plan = plan;
  entry->tables.assign(referenced.begin(), referenced.end());
  entry->filter_tables = std::move(filter_tables);

  auto start = std::chrono::steady_clock::now();
  // Capture over a pinned view: the state is built from exactly the
  // watermark the sketch anchors at, while ingestion publishes freely.
  ReadView view = db_->OpenReadView();
  if (config_.mode == ExecutionMode::kIncremental) {
    entry->maintainer = std::make_unique<Maintainer>(db_, &catalog_, plan,
                                                     config_.maintainer);
    IMP_ASSIGN_OR_RETURN(entry->sketch, entry->maintainer->Initialize(&view));
    if (config_.policy.mode == PolicyMode::kCostBased) {
      // Seed the capture-cost EWMA from the initial build so the
      // outgrown-window comparison has a capture sample before any
      // recapture happened (chicken-and-egg otherwise: the measured rule
      // could never fire first).
      entry->ledger.ObserveCapture(entry->maintainer->last_build_seconds(),
                                   RowsInView(view, entry->tables));
    }
  } else {
    CaptureEngine capture(db_, &catalog_);
    IMP_ASSIGN_OR_RETURN(entry->sketch, capture.Capture(plan, &view));
  }
  // Readers resolve the entry only after InsertLocked below, but publish
  // first so no window ever exposes an entry without a current snapshot.
  entry->PublishSnapshot();
  {
    std::lock_guard<std::mutex> stats(stats_mu_);
    stats_.capture_seconds += SecondsSince(start);
    ++stats_.sketch_captures;
  }
  return sketches_.InsertLocked(shard, key, std::move(entry));
}

Status ImpSystem::EnsureMaintainer(SketchEntry* entry) {
  if (config_.mode != ExecutionMode::kIncremental) return Status::OK();
  if (entry->maintainer != nullptr) return Status::OK();
  if (!entry->state_evicted) {
    return Status::Internal("sketch entry lost its maintainer");
  }
  // Fetch the persisted operator state from the backend (Sec. 2: "if the
  // operator states for a sketch's query are not currently in memory, they
  // will be fetched from the database").
  const std::string* blob = db_->GetStateBlob(entry->state_key);
  if (blob == nullptr) {
    return Status::NotFound("no persisted state for " + entry->state_key);
  }
  entry->maintainer = std::make_unique<Maintainer>(db_, &catalog_, entry->plan,
                                                   config_.maintainer);
  IMP_RETURN_NOT_OK(entry->maintainer->RestoreState(*blob));
  entry->state_evicted = false;
  return Status::OK();
}

Status ImpSystem::EvictSketchStates() {
  if (config_.mode != ExecutionMode::kIncremental) return Status::OK();
  std::unique_lock<std::shared_mutex> frontend(frontend_mu_);
  for (SketchEntry* entry : sketches_.AllEntries()) {
    if (entry->maintainer == nullptr) continue;
    db_->PutStateBlob(entry->state_key, entry->maintainer->SerializeState());
    entry->maintainer.reset();
    entry->state_evicted = true;
  }
  return Status::OK();
}

Status ImpSystem::RecaptureEntry(SketchEntry* entry, const ReadView& view) {
  // Re-derive which partitioned tables are safely filterable (partition
  // attributes may have changed).
  entry->filter_tables.clear();
  for (const std::string& table : entry->tables) {
    const RangePartition* part = catalog_.Find(table);
    if (part == nullptr) continue;
    if (AnalyzeSketchSafety(entry->plan, table, part->attr_index()).safe) {
      entry->filter_tables.insert(table);
    }
  }
  if (config_.mode == ExecutionMode::kIncremental) {
    entry->maintainer = std::make_unique<Maintainer>(
        db_, &catalog_, entry->plan, config_.maintainer);
    entry->state_evicted = false;
    db_->EraseStateBlob(entry->state_key);
    IMP_ASSIGN_OR_RETURN(entry->sketch, entry->maintainer->Initialize(&view));
  } else {
    CaptureEngine capture(db_, &catalog_);
    IMP_ASSIGN_OR_RETURN(entry->sketch, capture.Capture(entry->plan, &view));
  }
  // The fragment-id space changed with the catalog: readers arriving after
  // the repartition releases the front-end lock must see the recaptured
  // snapshot, never the old fragment ids against the new catalog.
  entry->PublishSnapshot();
  // A successful rebuild from base tables clears any accumulated failure
  // state — recapture is also how a quarantined entry returns to service.
  entry->RecordSuccess();
  if (config_.mode == ExecutionMode::kIncremental &&
      config_.policy.mode == PolicyMode::kCostBased) {
    entry->ledger.ObserveCapture(entry->maintainer->last_build_seconds(),
                                 RowsInView(view, entry->tables));
  }
  {
    std::lock_guard<std::mutex> stats(stats_mu_);
    ++stats_.sketch_captures;
    // Repartition / quarantine repair also returns an evicted or
    // recapture-flagged entry to normal incremental service.
    if (entry->policy != SketchPolicy::kIncremental) ++stats_.policy_switches;
  }
  entry->policy = SketchPolicy::kIncremental;
  return Status::OK();
}

Status ImpSystem::RepairQuarantined() {
  // Same stop-the-world posture as RepartitionTable: recapture writes the
  // blob store (EraseStateBlob), which only the exclusive front-end lock
  // may do while shared-side readers use GetStateBlob unguarded.
  std::unique_lock<std::shared_mutex> frontend(frontend_mu_);
  ReadView view = db_->OpenReadView();
  Status first_error = Status::OK();
  for (SketchEntry* entry : sketches_.AllEntries()) {
    if (entry->health != SketchHealth::kQuarantined) continue;
    Status recaptured = RecaptureEntry(entry, view);
    if (!recaptured.ok() && first_error.ok()) first_error = recaptured;
    // A still-failing entry stays quarantined (and keeps degrading its
    // queries to plain scans) until a later repair succeeds.
  }
  return first_error;
}

SystemHealth ImpSystem::Health() {
  SystemHealth health;
  health.ingest_worker_alive =
      !config_.async_ingestion ||
      !ingest_worker_dead_.load(std::memory_order_acquire);
  health.ingest_queue_depth = ingest_queue_ ? ingest_queue_->size() : 0;
  {
    std::lock_guard<std::mutex> lock(dead_letter_mu_);
    health.dead_letter_size = dead_letters_.size();
  }
  SketchManager::HealthTally tally = sketches_.TallyHealth();
  health.sketches_fresh = tally.fresh;
  health.sketches_stale = tally.stale;
  health.sketches_quarantined = tally.quarantined;
  health.faults_injected =
      FailpointRegistry::Instance().TotalFired() - faults_baseline_;
  health.policies = sketches_.PolicyStates();
  {
    std::lock_guard<std::mutex> lock(ingest_error_mu_);
    if (!ingest_error_.ok()) health.last_ingest_error = ingest_error_.ToString();
  }
  if (ingest_queue_) {
    // Fold the queue's push-time high-water mark into the stats read path
    // directly: WaitForIngest used to be the only sampling point, which
    // under-reported depth reached while the worker was fail-stopped or
    // dead-lettering (no apply cycle ever ran to observe it) — and the
    // policy engine's pressure deferral reads this signal.
    std::lock_guard<std::mutex> lock(update_stats_mu_);
    stats_.ingest_queue_peak =
        std::max(stats_.ingest_queue_peak, ingest_queue_->max_depth());
  }
  // Refresh the snapshot-style stats fields from the same readings.
  {
    Database::IndexStatsSnapshot istats = db_->AggregateIndexStats();
    std::lock_guard<std::mutex> stats(stats_mu_);
    stats_.faults_injected = health.faults_injected;
    stats_.dead_letter_size = health.dead_letter_size;
    stats_.index_shards_built = istats.shards_built;
    stats_.index_shards_reused = istats.shards_reused;
    stats_.index_point_probes = istats.point_probes;
    stats_.index_range_probes = istats.range_probes;
    stats_.index_bytes = db_->IndexBytes();
  }
  return health;
}

Status ImpSystem::RepartitionTable(const std::string& table,
                                   const std::string& attribute,
                                   size_t num_fragments) {
  // Validate the request BEFORE acquiring any lock: a bad table/column or
  // an empty table must fail without serializing concurrent readers and
  // without touching sketch bookkeeping — the failure path used to clear
  // every shard's unsketchable cache (re-enabling capture attempts) under
  // the exclusive front-end lock even when nothing was going to change
  // (regression-tested). The schema is immutable, so these checks cannot
  // be invalidated later; emptiness is re-checked on the frozen snapshot.
  {
    const Table* t = db_->GetTable(table);
    if (t == nullptr) return Status::NotFound("no such table: " + table);
    auto idx = t->schema().IndexOf(attribute);
    if (!idx.has_value()) {
      return Status::NotFound("no such column: " + table + "." + attribute);
    }
    std::shared_ptr<const TableSnapshot> snap = t->Snapshot();
    if (snap->num_rows() == 0) {
      return Status::InvalidArgument("cannot partition empty table " + table);
    }
    IMP_RETURN_NOT_OK(CheckPartitionNotNull(*snap, *idx));
  }
  // Stop-the-world for the SKETCH STORE: every query path reads the
  // catalog, and the global fragment-id compaction below invalidates every
  // sketch at once. A reader that already pinned a SketchSnapshot keeps
  // its (immutable, pre-repartition) view; it cannot be executing
  // concurrently because it holds the front-end lock shared for the
  // query's duration.
  std::unique_lock<std::shared_mutex> frontend(frontend_mu_);
  std::vector<SketchEntry*> entries = sketches_.AllEntries();
  // The replaced partition (different attribute or ranges) can change
  // which templates are sketchable. Conservative if a step below fails.
  sketches_.ClearUnsketchable();
  // On the STORAGE side only the affected table freezes, and only
  // briefly: its write stripe blocks that table's appliers just long
  // enough to read the histogram values and pin the view against the
  // identical state of `table` — ingestion into OTHER tables keeps
  // flowing throughout, and this table's resumes as soon as the view is
  // pinned below. This replaces the old whole-backend read session.
  auto stripe = db_->WriteSession(table);
  const Table* t = db_->GetTable(table);
  auto idx = t->schema().IndexOf(attribute);
  std::vector<Value> values = t->Snapshot()->ColumnValues(*idx);
  if (values.empty()) {
    // Emptied between validation and the freeze: still no mutation done.
    return Status::InvalidArgument("cannot partition empty table " + table);
  }
  // Likewise for a NULL written between validation and the freeze.
  IMP_RETURN_NOT_OK(CheckPartitionNotNull(*t->Snapshot(), *idx));
  IMP_RETURN_NOT_OK(catalog_.Unregister(table));
  // From here on the fragment-id space HAS changed; every sketch must be
  // re-anchored against the current catalog before readers return, even
  // if a step fails — collect errors instead of returning early. Recapture
  // is skipped only when REGISTRATION failed (there is no catalog to
  // recapture against) — one entry's recapture failure must not disable
  // the remaining entries.
  Status registered = catalog_.Register(RangePartition::EquiDepth(
      table, attribute, *idx, std::move(values), num_fragments));
  ReadView view = db_->OpenReadView();
  // The stripe only had to keep the histogram values and the pinned view's
  // snapshot of `table` identical; both are frozen now, so release it
  // before the (potentially long) recapture loop — a blocked ingestion
  // worker would otherwise stall every table's ingestion for the whole
  // repartition. Recaptures read the immutable view, so concurrently
  // published statements merely leave the new sketches stale-and-
  // maintainable.
  stripe.unlock();
  Status first_error = registered;
  for (SketchEntry* entry : entries) {
    Status recaptured =
        registered.ok() ? RecaptureEntry(entry, view) : registered;
    if (!recaptured.ok()) {
      // The entry's sketch still encodes pre-repartition fragment ids.
      // Disable sketch filtering for it (an empty filter set leaves every
      // scan untouched in the use-rewrite — correct, merely
      // unaccelerated) and republish so readers never pair the stale ids
      // with the new catalog; the next successful recapture re-enables
      // filtering.
      entry->filter_tables.clear();
      entry->PublishSnapshot();
      if (first_error.ok()) first_error = recaptured;
    }
  }
  return first_error;
}

Result<Relation> ImpSystem::ExecutePlain(const PlanPtr& plan) {
  auto start = std::chrono::steady_clock::now();
  ReadView view = db_->OpenReadView();
  Executor exec(db_, &view);
  Result<Relation> result = exec.Execute(plan);
  std::lock_guard<std::mutex> stats(stats_mu_);
  stats_.query_seconds += SecondsSince(start);
  stats_.vectorized_batches += exec.scan_stats().vectorized_batches;
  stats_.scalar_fallback_rows += exec.scan_stats().scalar_fallback_rows;
  return result;
}

bool ImpSystem::EntryIsStaleAt(const SketchEntry& entry, uint64_t version,
                               const ReadView& view) {
  // A table snapshot's version stamp is the last statement that modified
  // the table as of the view's watermark; a sketch valid at `version`
  // misses that table's deltas iff the stamp exceeds it. Unlike the old
  // delta-log probe this cannot be fooled by a truncation sweep racing in
  // behind a republished snapshot — the stamp survives truncation.
  for (const std::string& table : entry.tables) {
    if (view.TableVersion(table) > version) return true;
  }
  return false;
}

SketchEntry* ImpSystem::FindReusableLocked(const SketchManager::Shard& shard,
                                           std::string_view key,
                                           const PlanPtr& plan) {
  // Prefilter candidate sketches by query template, then apply the reuse
  // check from [37] (Sec. 2: "determine whether a sketch captured for a
  // query Q' in the past can be safely used to answer Q").
  for (SketchEntry* candidate : SketchManager::CandidatesLocked(shard, key)) {
    if (CanReuseSketch(candidate->plan, plan)) return candidate;
  }
  return nullptr;
}

Result<Relation> ImpSystem::AnswerWithEntry(SketchManager::Shard& shard,
                                            SketchEntry* entry,
                                            const PlanPtr& plan) {
  // Fast path — fully lock-free snapshot-isolated read. Pin a storage
  // ReadView and the entry's published SketchSnapshot, then validate the
  // sketch against the view's per-table version stamps: if no table of
  // the entry advanced past the sketch, the snapshot is exactly the
  // sketch a fully serialized run would use at the view's watermark (the
  // serialized round would classify the entry non-stale and only
  // fast-forward its version; the fragment set — all the rewrite reads —
  // would be unchanged), and execution over the view observes exactly
  // that watermark. Nothing here blocks the ingestion worker or a
  // maintenance round, and neither can invalidate what we pinned.
  //
  // The benefit signal for the policy engine counts DEMAND — queries that
  // resolved to this entry, including ones that end up degraded — so a
  // sketch someone keeps asking for is never evicted for idleness while
  // it happens to be failing. Lock-free, like the rest of the fast path.
  entry->uses.fetch_add(1, std::memory_order_relaxed);
  {
    ReadView view = db_->OpenReadView();
    std::shared_ptr<const SketchSnapshot> snapshot = entry->Snapshot();
    while (snapshot->valid_version() > view.watermark()) {
      // A concurrent repair published a snapshot NEWER than our view
      // (its cut was taken after ours). Executing view-state at W with a
      // sketch repaired to W' > W could miss fragments deleted in
      // (W, W']; advance the view instead — the stable watermark has
      // necessarily reached the snapshot's cut, so re-opening closes the
      // gap (each iteration strictly raises the watermark).
      view = db_->OpenReadView();
      snapshot = entry->Snapshot();
    }
    if (!EntryIsStaleAt(*entry, snapshot->valid_version(), view)) {
      auto start = std::chrono::steady_clock::now();
      PlanPtr rewritten =
          ApplyUseRewrite(plan, catalog_, *snapshot, &entry->filter_tables);
      Executor exec(db_, &view);
      Result<Relation> result = exec.Execute(rewritten);
      std::lock_guard<std::mutex> stats(stats_mu_);
      stats_.query_seconds += SecondsSince(start);
      stats_.vectorized_batches += exec.scan_stats().vectorized_batches;
      stats_.scalar_fallback_rows += exec.scan_stats().scalar_fallback_rows;
      if (result.ok()) {
        ++stats_.sketch_uses;
        ++stats_.snapshot_reads;
      }
      return result;
    }
  }

  // Slow path — lazy repair. Exclusive on this entry's shard (readers of
  // other tables proceed); ONE pinned view spans staleness repair AND
  // execution: the sketch is repaired to the view's watermark and the
  // executor then scans exactly that pinned state — a statement published
  // between the two would otherwise leave base rows the (older) sketch
  // filter was never maintained against. The shard lock itself is
  // released before execution: the repaired snapshot and the view are
  // immutable, so nothing can drift between them.
  std::unique_lock<std::shared_mutex> wl(shard.mu);
  ReadView view = db_->OpenReadView();
  // Readmission: eviction declined upkeep because no query used the
  // sketch — this query IS the benefit signal, so the entry re-enters
  // maintenance. Its ledger's needs_recapture flag (set at eviction)
  // routes the repair below to a rebuild from base tables: the delta log
  // may have truncated past the evicted version while it wasn't pinned.
  if (entry->policy == SketchPolicy::kEvicted) {
    entry->policy = SketchPolicy::kIncremental;
    std::lock_guard<std::mutex> stats(stats_mu_);
    ++stats_.policy_switches;
  }
  // A quarantined entry is not repaired on the query path; for the others
  // the repair's error (if any) lands in the entry's health state — the
  // verdict that matters HERE is only whether the entry ended up current.
  if (entry->health != SketchHealth::kQuarantined) {
    Status repaired = MaintainBatchLocked({entry}, view);
    (void)repaired;  // outcome is read off the entry's health/version below
  }
  if (entry->health == SketchHealth::kQuarantined ||
      EntryIsStaleAt(*entry, entry->valid_version(), view)) {
    // Degrade, never fail: the sketch is a pure accelerator, so a query
    // whose sketch is quarantined, backing off, or freshly failed runs as
    // a plain scan over the SAME pinned view — bit-identical to the
    // fault-free answer, merely unaccelerated. Repair continues in the
    // background rounds; once the fault clears, queries re-accelerate
    // without any restart.
    wl.unlock();
    auto start = std::chrono::steady_clock::now();
    Executor exec(db_, &view);
    Result<Relation> result = exec.Execute(plan);
    std::lock_guard<std::mutex> stats(stats_mu_);
    stats_.query_seconds += SecondsSince(start);
    stats_.vectorized_batches += exec.scan_stats().vectorized_batches;
    stats_.scalar_fallback_rows += exec.scan_stats().scalar_fallback_rows;
    ++stats_.degraded_queries;
    return result;
  }
  std::shared_ptr<const SketchSnapshot> snapshot = entry->Snapshot();
  wl.unlock();
  auto start = std::chrono::steady_clock::now();
  PlanPtr rewritten =
      ApplyUseRewrite(plan, catalog_, *snapshot, &entry->filter_tables);
  Executor exec(db_, &view);
  Result<Relation> result = exec.Execute(rewritten);
  std::lock_guard<std::mutex> stats(stats_mu_);
  stats_.query_seconds += SecondsSince(start);
  stats_.vectorized_batches += exec.scan_stats().vectorized_batches;
  stats_.scalar_fallback_rows += exec.scan_stats().scalar_fallback_rows;
  if (result.ok()) ++stats_.sketch_uses;
  return result;
}

Result<Relation> ImpSystem::QueryPlan(const PlanPtr& plan) {
  {
    std::lock_guard<std::mutex> stats(stats_mu_);
    ++stats_.queries;
  }
  // The whole sketch pipeline runs under the SHARED front-end lock: many
  // queries, maintenance rounds and eager flushes proceed concurrently;
  // only catalog mutation / whole-store surgery excludes them.
  std::shared_lock<std::shared_mutex> frontend(frontend_mu_);
  if (config_.mode == ExecutionMode::kNoSketch ||
      catalog_.total_fragments() == 0) {
    return ExecutePlain(plan);
  }

  std::string key = plan->TemplateKey();
  std::string_view shard_key = SketchManager::ShardKeyFor(*plan);
  if (shard_key.empty()) return ExecutePlain(plan);  // table-less plan
  SketchManager::Shard& shard = sketches_.GetOrCreateShard(shard_key);

  SketchEntry* entry = nullptr;
  {
    std::shared_lock<std::shared_mutex> sl(shard.mu);
    // Known-unsketchable templates bypass the store entirely — re-running
    // the capture attempt per query would take the shard WRITE lock and
    // serialize this shard's snapshot readers for nothing.
    if (shard.unsketchable.count(key) > 0) {
      sl.unlock();
      return ExecutePlain(plan);
    }
    entry = FindReusableLocked(shard, key, plan);
  }
  if (entry == nullptr) {
    std::unique_lock<std::shared_mutex> wl(shard.mu);
    // Double-checked: a racing query may have captured it — or recorded
    // the unsketchable verdict — between our shared probe and this lock.
    if (shard.unsketchable.count(key) > 0) {
      wl.unlock();
      return ExecutePlain(plan);
    }
    entry = FindReusableLocked(shard, key, plan);
    if (entry == nullptr) {
      Result<SketchEntry*> created = TryCreateEntryLocked(shard, key, plan);
      if (!created.ok()) {
        // No safe partition: fall back to plain execution (the paper's
        // "counterexample" queries that do not profit from PBDS), and
        // remember the verdict until the catalog changes. Any OTHER
        // capture failure (e.g. the `capture` failpoint) degrades this
        // query to a plain scan WITHOUT caching the verdict — the next
        // query retries the capture, so a transient fault heals itself.
        if (created.status().code() == StatusCode::kNotFound) {
          shard.unsketchable.insert(key);
        } else {
          std::lock_guard<std::mutex> stats(stats_mu_);
          ++stats_.degraded_queries;
        }
        wl.unlock();
        return ExecutePlain(plan);
      }
      entry = created.value();
    }
  }
  return AnswerWithEntry(shard, entry, plan);
}

Result<Relation> ImpSystem::Query(const std::string& sql) {
  IMP_ASSIGN_OR_RETURN(PlanPtr plan, binder_.BindQuery(sql));
  return QueryPlan(plan);
}

size_t ImpSystem::PartitionColumn(const std::string& table) {
  std::shared_lock<std::shared_mutex> frontend(frontend_mu_);
  const RangePartition* part = catalog_.Find(table);
  return part == nullptr ? SIZE_MAX : part->attr_index();
}

Result<uint64_t> ImpSystem::ApplySyncBound(const BoundUpdate& update) {
  switch (update.kind) {
    case BoundUpdate::Kind::kInsert:
      // Insert/DeleteWhere take the table's write stripe internally; readers
      // proceed on the published snapshots throughout.
      return db_->Insert(update.table, update.rows);
    case BoundUpdate::Kind::kDelete:
      return DeleteWhere(db_, update.table, update.where);
    case BoundUpdate::Kind::kUpdate: {
      // UPDATE = DELETE matching rows + INSERT the modified rows, computed
      // and applied under ONE hold of the table's stripe so no other
      // writer can slip between the halves (the old global write session's
      // guarantee, now scoped to the one table). One selection serves
      // both: it names the rows to rewrite and the rows to erase.
      const Table* table = db_->GetTable(update.table);
      if (table == nullptr) {
        return Status::NotFound("no such table: " + update.table);
      }
      const size_t partition_col = PartitionColumn(update.table);
      auto session = db_->WriteSession(update.table);
      std::vector<BitVector> selection = SelectRows(*table, update.where);
      IMP_ASSIGN_OR_RETURN(
          std::vector<Tuple> modified,
          ComputeUpdatedRows(*table, update, selection, partition_col));
      uint64_t delete_version = db_->AllocateVersion();
      uint64_t insert_version = db_->AllocateVersion();
      Status deleted =
          db_->StageDelete(update.table, selection, delete_version).status();
      Status inserted =
          deleted.ok()
              ? db_->StageInsert(update.table, modified, insert_version)
              : deleted;
      // One publication covers both halves; retire in allocation order.
      // Retrying (ultimately forced) publication: staged halves must be
      // visible before their versions retire (storage/database.h).
      db_->PublishTableRetrying(update.table, Database::kSyncPublishRetries);
      db_->RetireVersion(delete_version);
      db_->RetireVersion(insert_version);
      IMP_RETURN_NOT_OK(deleted);
      IMP_RETURN_NOT_OK(inserted);
      return insert_version;
    }
  }
  return Status::Internal("unhandled update kind");
}

Result<uint64_t> ImpSystem::EnqueueUpdate(const BoundUpdate& update) {
  auto start = std::chrono::steady_clock::now();
  // Fail fast on a dead worker — before allocating anything. (The closed
  // queue below catches the race where the worker dies mid-call.)
  if (ingest_worker_dead_.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(ingest_error_mu_);
    return Status::Unavailable("ingestion worker dead: " +
                               ingest_error_.ToString());
  }
  // Copy the statement payload BEFORE entering the queue's critical
  // section — a large row batch must not serialize other producers.
  IngestTask task;
  task.update = update;
  // Type-check an INSERT's rows here, so a mistyped row fails this call
  // instead of dead-lettering on the worker.
  const Table* table = db_->GetTable(update.table);
  if (update.kind == BoundUpdate::Kind::kInsert && table != nullptr) {
    std::vector<Tuple> widened;
    IMP_RETURN_NOT_OK(ConformRows(table->schema(), update.rows, &widened));
    if (!widened.empty()) task.update.rows = std::move(widened);
  }
  uint64_t ticket = 0;
  // Full-queue policy: kReject never waits, kBlock waits up to the
  // configured timeout (0 = indefinitely; Close() still wakes it).
  std::optional<std::chrono::milliseconds> wait_budget;
  if (config_.queue_full_policy == QueueFullPolicy::kReject) {
    wait_budget = std::chrono::milliseconds(0);
  } else if (config_.ingest_push_timeout_ms > 0) {
    wait_budget = std::chrono::milliseconds(config_.ingest_push_timeout_ms);
  }
  // Only version allocation runs inside the push critical section, so
  // ticket order == queue order even with racing producers; the worker
  // then applies statements in ticket order, keeping every delta log's
  // version column non-decreasing. The factory runs ONLY on success, so
  // a rejected push never leaks an allocated version (which would stall
  // the watermark behind a statement nobody will ever apply).
  QueuePushOutcome outcome = ingest_queue_->PushWithUntil(
      [&]() -> IngestTask {
        if (task.update.kind == BoundUpdate::Kind::kUpdate) {
          task.delete_version = db_->AllocateVersion();
        }
        task.version = db_->AllocateVersion();
        ticket = task.version;
        return std::move(task);
      },
      wait_budget);
  if (outcome == QueuePushOutcome::kClosed) {
    std::lock_guard<std::mutex> lock(ingest_error_mu_);
    return Status::Unavailable(ingest_error_.ok()
                                   ? "ingestion queue closed"
                                   : "ingestion worker dead: " +
                                         ingest_error_.ToString());
  }
  if (outcome == QueuePushOutcome::kFull) {
    return Status::Unavailable("ingestion queue full");
  }
  {
    std::lock_guard<std::mutex> lock(update_stats_mu_);
    ++stats_.updates;
    ++stats_.ingest_enqueued;
    stats_.update_seconds += SecondsSince(start);
  }
  return ticket;
}

Result<uint64_t> ImpSystem::UpdateBound(const BoundUpdate& update) {
  if (update.kind == BoundUpdate::Kind::kInsert) {
    IMP_RETURN_NOT_OK(
        CheckPartitionNotNull(update.rows, PartitionColumn(update.table)));
  }
  if (config_.async_ingestion) return EnqueueUpdate(update);
  {
    std::lock_guard<std::mutex> lock(update_stats_mu_);
    ++stats_.updates;
  }
  auto start = std::chrono::steady_clock::now();
  Result<uint64_t> version = ApplySyncBound(update);
  {
    std::lock_guard<std::mutex> lock(update_stats_mu_);
    stats_.update_seconds += SecondsSince(start);
  }
  if (!version.ok()) return version;
  NoteUpdate();
  return version;
}

Result<uint64_t> ImpSystem::Update(const std::string& sql) {
  IMP_ASSIGN_OR_RETURN(BoundStatement bound, binder_.BindSql(sql));
  if (bound.kind == Statement::Kind::kSelect) {
    return Status::InvalidArgument("Update() called with a query");
  }
  return UpdateBound(bound.update);
}

Status ImpSystem::StageIngestTask(const IngestTask& task,
                                  std::vector<std::string>* touched,
                                  bool* staged_any) {
  // Fires before anything is staged or recorded: a fired apply is always
  // safe to retry (*staged_any stays false).
  IMP_FAILPOINT(kFpIngestApply);
  const BoundUpdate& update = task.update;
  const Table* table = db_->GetTable(update.table);
  if (table == nullptr) {
    // The versions are still retired at the end of the batch cycle so the
    // watermark cannot stall behind the failed statement.
    return Status::NotFound("no such table: " + update.table);
  }
  if (std::find(touched->begin(), touched->end(), update.table) ==
      touched->end()) {
    touched->push_back(update.table);
  }
  // Read before taking the stripe: the catalog lock ranks above stripes.
  const size_t partition_col = update.kind == BoundUpdate::Kind::kUpdate
                                   ? PartitionColumn(update.table)
                                   : SIZE_MAX;
  auto session = db_->WriteSession(update.table);
  switch (update.kind) {
    case BoundUpdate::Kind::kInsert:
      *staged_any = true;
      return db_->StageInsert(update.table, update.rows, task.version);
    case BoundUpdate::Kind::kDelete:
      *staged_any = true;
      return db_
          ->StageDelete(update.table, SelectRows(*table, update.where),
                        task.version)
          .status();
    case BoundUpdate::Kind::kUpdate: {
      // Selected against the worker's current applied state (all earlier
      // tickets staged), under the stripe — identical to the synchronous
      // path's view of the table.
      std::vector<BitVector> selection = SelectRows(*table, update.where);
      IMP_ASSIGN_OR_RETURN(
          std::vector<Tuple> modified,
          ComputeUpdatedRows(*table, update, selection, partition_col));
      *staged_any = true;
      IMP_RETURN_NOT_OK(
          db_->StageDelete(update.table, selection, task.delete_version)
              .status());
      return db_->StageInsert(update.table, modified, task.version);
    }
  }
  return Status::Internal("unhandled update kind");
}

namespace {
/// Poisoned statements kept for diagnosis; beyond this the oldest dead
/// letter is dropped (the count keeps climbing in stats).
constexpr size_t kDeadLetterCapacity = 64;
}  // namespace

void ImpSystem::DeadLetterStatement(const IngestTask& task,
                                    const std::string& error) {
  {
    std::lock_guard<std::mutex> lock(dead_letter_mu_);
    dead_letters_.push_back(
        DeadLetter{task.update, task.version, task.delete_version, error});
    while (dead_letters_.size() > kDeadLetterCapacity) {
      dead_letters_.pop_front();
    }
  }
  std::lock_guard<std::mutex> lock(update_stats_mu_);
  ++stats_.ingest_dead_letters;
}

std::vector<DeadLetter> ImpSystem::DeadLetters() const {
  std::lock_guard<std::mutex> lock(dead_letter_mu_);
  return std::vector<DeadLetter>(dead_letters_.begin(), dead_letters_.end());
}

void ImpSystem::TerminalIngestFailure(const Status& error) {
  {
    std::lock_guard<std::mutex> lock(ingest_error_mu_);
    if (ingest_error_.ok()) ingest_error_ = error;
  }
  ingest_worker_dead_.store(true, std::memory_order_release);
  // Closing the queue wakes producers parked on a full queue (they see
  // kClosed -> kUnavailable) and caps what the death drain must consume.
  ingest_queue_->Close();
}

void ImpSystem::DrainToDeadLetters(const std::vector<IngestTask>& batch,
                                   const Status& error) {
  // Nothing of these statements was staged, so retiring their versions is
  // safe (no unpublished data hides behind the advancing watermark) and
  // necessary (a stalled watermark would freeze every future ReadView).
  auto bury = [&](const IngestTask& task) {
    DeadLetterStatement(task, error.ToString());
    if (task.delete_version != 0) db_->RetireVersion(task.delete_version);
    db_->RetireVersion(task.version);
    ingest_queue_->TaskDone();
  };
  for (const IngestTask& task : batch) bury(task);
  // The queue is closed (no new pushes); drain what raced in before the
  // close so WaitForIngest's idle barrier is reachable.
  while (std::optional<IngestTask> task = ingest_queue_->TryPop()) {
    bury(*task);
  }
}

void ImpSystem::ApplyIngestBatch(const std::vector<IngestTask>& batch) {
  std::vector<Status> statuses;
  std::vector<std::string> touched;
  auto start = std::chrono::steady_clock::now();
  // Stage every statement in ticket order; publication is deferred to
  // the end of the cycle, so each touched table gets ONE delta
  // publication + ONE snapshot swap per batch instead of per statement.
  // A transiently failing apply is retried while nothing of it was
  // staged yet; a poisoned statement (retries exhausted, partial stage,
  // or a deterministic error) is dead-lettered — never wedging the
  // watermark or the statements queued behind it.
  for (const IngestTask& task : batch) {
    bool staged_any = false;
    Status st;
    try {
      st = StageIngestTask(task, &touched, &staged_any);
      size_t retries = 0;
      while (!st.ok() && !staged_any &&
             st.code() != StatusCode::kNotFound &&
             st.code() != StatusCode::kInvalidArgument &&
             retries < config_.ingest_retry_limit) {
        ++retries;
        {
          std::lock_guard<std::mutex> lock(update_stats_mu_);
          ++stats_.ingest_retries;
        }
        st = StageIngestTask(task, &touched, &staged_any);
      }
    } catch (const std::exception& e) {
      st = Status::Internal(std::string("apply threw: ") + e.what());
    } catch (...) {
      st = Status::Internal("apply threw: unknown exception");
    }
    if (!st.ok()) DeadLetterStatement(task, st.ToString());
    statuses.push_back(st);
  }
  // Publish per touched table, retiring that table's versions right
  // after its publication (a version may only retire once its table
  // snapshot is visible — and retiring table by table keeps the stable
  // watermark advancing even if the NEXT table's stripe is briefly held
  // by a repartition freeze, which view-opening readers may be spinning
  // on the watermark for). The version clock reorders out-of-order
  // retires internally. Publication retries the snapshot.publish
  // failpoint and is ultimately FORCED (storage/database.h): the one
  // fault that may never win is a skipped publication under a retired
  // version.
  for (const std::string& table : touched) {
    auto session = db_->WriteSession(table);
    Status pub = db_->PublishTableRetrying(table, config_.publish_retry_limit);
    session.unlock();
    if (!pub.ok()) {
      std::lock_guard<std::mutex> lock(update_stats_mu_);
      ++stats_.publish_retries;
    }
    for (const IngestTask& task : batch) {
      if (task.update.table != table) continue;
      if (task.delete_version != 0) db_->RetireVersion(task.delete_version);
      db_->RetireVersion(task.version);
    }
  }
  // Failed statements (missing table, dead-lettered before touching their
  // table) still consume their versions — the watermark never stalls
  // behind a no-op. Safe precisely because these statements staged
  // nothing into an untouched table.
  for (size_t i = 0; i < batch.size(); ++i) {
    if (statuses[i].ok()) continue;
    const IngestTask& task = batch[i];
    if (std::find(touched.begin(), touched.end(), task.update.table) !=
        touched.end()) {
      continue;  // staged tables retired their versions above
    }
    if (task.delete_version != 0) db_->RetireVersion(task.delete_version);
    db_->RetireVersion(task.version);
  }
  {
    // Same mutex as the producer-side fields: a front end may poll
    // stats() for ingestion progress while the worker runs.
    std::lock_guard<std::mutex> lock(update_stats_mu_);
    stats_.ingest_apply_seconds += SecondsSince(start);
    stats_.ingest_applied += batch.size();
    ++stats_.ingest_batches;
    stats_.ingest_batch_max = std::max(stats_.ingest_batch_max, batch.size());
  }
  for (const Status& applied : statuses) {
    if (applied.ok()) continue;
    std::lock_guard<std::mutex> lock(ingest_error_mu_);
    if (ingest_error_.ok()) ingest_error_ = applied;
  }
  // Eager maintenance runs on the worker, after the batch is published —
  // one NoteUpdate per applied statement, the same statement count as
  // the synchronous path (with batch_limit == 1 also the same epochs).
  for (const Status& applied : statuses) {
    if (applied.ok()) NoteUpdate();
  }
  for (size_t i = 0; i < batch.size(); ++i) ingest_queue_->TaskDone();
}

namespace {
/// Upper bound on an adaptively sized ingestion apply batch.
constexpr size_t kIngestBatchCeiling = 64;
}  // namespace

void ImpSystem::IngestWorkerLoop() {
  const size_t configured = std::max<size_t>(1, config_.ingest_apply_batch);
  const bool adaptive = config_.policy.mode == PolicyMode::kCostBased &&
                        config_.policy.adaptive_ingest_batch;
  std::vector<IngestTask> batch;
  while (std::optional<IngestTask> first = ingest_queue_->Pop()) {
    // Drain up to batch_limit queued statements into one apply cycle; the
    // first pop blocks (idle worker), the rest are opportunistic.
    size_t batch_limit = configured;
    if (adaptive) {
      // Size the cycle from the observed backlog: a deep queue amortizes
      // one publication per touched table across more statements, a
      // shallow one stays at the configured floor for per-statement
      // latency. Drained results are identical for any batch size
      // (ticket-order apply), so this only moves throughput.
      batch_limit = std::max(
          configured, std::min(ingest_queue_->size() + 1, kIngestBatchCeiling));
    }
    batch.clear();
    batch.push_back(std::move(*first));
    while (batch.size() < batch_limit) {
      std::optional<IngestTask> next = ingest_queue_->TryPop();
      if (!next) break;
      batch.push_back(std::move(*next));
    }
    // Worker-death injection: fires BEFORE anything of the batch is
    // staged, so the fail-stop below retires cleanly-unapplied versions
    // only. Producers observe kUnavailable from then on; queries keep
    // serving the last stable watermark; WaitForIngest returns the error
    // instead of deadlocking.
    if (IMP_FAILPOINT_HIT(kFpIngestWorkerCrash)) {
      Status death =
          Status::Unavailable("failpoint fired: ingest.worker_crash");
      TerminalIngestFailure(death);
      DrainToDeadLetters(batch, death);
      return;
    }
    // ApplyIngestBatch never throws (per-statement exceptions become that
    // statement's dead-letter), so reaching here means the cycle fully
    // accounted for its versions and TaskDone()s.
    ApplyIngestBatch(batch);
  }
}

Status ImpSystem::WaitForIngest() {
  if (ingest_queue_) {
    ingest_queue_->WaitIdle();
    std::lock_guard<std::mutex> lock(update_stats_mu_);
    stats_.ingest_queue_peak =
        std::max(stats_.ingest_queue_peak, ingest_queue_->max_depth());
  }
  std::lock_guard<std::mutex> lock(ingest_error_mu_);
  return ingest_error_;
}

void ImpSystem::NoteUpdate() {
  if (config_.strategy != MaintenanceStrategy::kEager) return;
  if (pending_update_statements_.fetch_add(1, std::memory_order_relaxed) + 1 <
      config_.eager_batch_size) {
    return;
  }
  // Cost-based round planning: under ingest-queue pressure the eager
  // flush waits — the pending counter keeps accumulating, so the next
  // applied statement re-triggers the decision, and once the queue drains
  // (or the starvation bound trips) the deferred statements flush in one
  // round. Explicit MaintainAll() calls never defer.
  if (ShouldDeferEagerRound()) return;
  // Eagerly maintain every sketch that may be affected (Sec. 2) through
  // the shared batch pipeline; best effort — errors surface on use.
  MaintainAll();
}

bool ImpSystem::ShouldDeferEagerRound() {
  if (config_.policy.mode != PolicyMode::kCostBased) return false;
  if (!ingest_queue_) return false;  // sync ingestion has no backlog signal
  const size_t depth = ingest_queue_->size();
  const size_t threshold = static_cast<size_t>(
      config_.policy.defer_queue_fraction *
      static_cast<double>(ingest_queue_->capacity()));
  if (depth <= threshold) {
    consecutive_deferrals_.store(0, std::memory_order_relaxed);
    return false;
  }
  // Starvation bound: pressure may delay maintenance, never stop it.
  const size_t prior =
      consecutive_deferrals_.fetch_add(1, std::memory_order_relaxed);
  if (prior >= config_.policy.max_consecutive_deferrals) {
    consecutive_deferrals_.store(0, std::memory_order_relaxed);
    return false;
  }
  {
    std::lock_guard<std::mutex> stats(stats_mu_);
    ++stats_.rounds_deferred;
  }
  return true;
}

Status ImpSystem::MaintainAll() {
  std::shared_lock<std::shared_mutex> frontend(frontend_mu_);
  return MaintainAllShards();
}

Status ImpSystem::MaintainAllShards() {
  pending_update_statements_.store(0, std::memory_order_relaxed);
  // Shard by shard, write-locking only the shard being maintained:
  // concurrent queries on other tables proceed, and even queries on the
  // shard in flight can keep serving their pinned snapshots. Each shard
  // round cuts at the watermark current when it starts — every cut is a
  // state a fully serialized schedule could have produced.
  Status first_error = Status::OK();
  for (SketchManager::Shard* shard : sketches_.Shards()) {
    std::unique_lock<std::shared_mutex> wl(shard->mu);
    std::vector<SketchEntry*> entries;
    for (const auto& [_, bucket] : shard->buckets) {
      for (const auto& entry : bucket) entries.push_back(entry.get());
    }
    if (entries.empty()) continue;
    // Pin this shard round's view at the current watermark; the round
    // reads only through it, so the ingestion worker publishes freely.
    ReadView view = db_->OpenReadView();
    Status st = MaintainBatchLocked(entries, view);
    if (first_error.ok()) first_error = st;
  }
  TruncateDeltaLogs();
  return first_error;
}

void ImpSystem::TruncateDeltaLogs() {
  // The minimum valid_version across all shards: no sketch ever re-scans
  // at or below it, so the logs can drop that prefix. An empty store
  // truncates nothing (a first sketch captured later anchors at the
  // watermark and never looks back, but staying conservative costs one
  // skipped sweep). Computed under shard read locks — a round racing in on
  // another shard can only RAISE its entries' versions, making our minimum
  // merely conservative.
  uint64_t min_valid = sketches_.MinValidVersion();
  if (min_valid == UINT64_MAX) return;
  db_->TruncateDeltaLogs(min_valid);
  std::lock_guard<std::mutex> stats(stats_mu_);
  ++stats_.log_truncations;
}

ThreadPool& ImpSystem::MaintenancePool() {
  // Concurrent rounds (per-shard MaintainAll rounds, lazy repairs, eager
  // flushes) share one pool; creation is raced by all of them.
  std::call_once(maintenance_pool_once_, [this] {
    maintenance_pool_ = std::make_unique<ThreadPool>(
        ThreadPool::ResolveThreads(config_.maintenance_threads));
  });
  return *maintenance_pool_;
}

void ImpSystem::RecordRoundFailureLocked(SketchEntry* entry,
                                         const Status& error, uint64_t now,
                                         const ReadView& view) {
  size_t failures = entry->RecordFailure(error.ToString());
  // Bounded exponential backoff on the injectable clock: min(cap,
  // base << (failures - 1)), SATURATING end to end. Maintenance never
  // sleeps on it — the entry is simply deferred until the deadline passes
  // on a later round. The saturation matters: whether the shift overflows
  // depends on the BASE's magnitude, not on some fixed shift count — a
  // large configured base wrapping uint64 would produce a tiny retry
  // deadline exactly when a sketch is failing hard, defeating backoff.
  const uint64_t base = config_.maintenance_backoff_ms;
  uint64_t backoff = 0;
  if (base > 0) {
    const uint64_t shift = failures > 0 ? failures - 1 : 0;
    backoff = (shift >= 64 || base > (UINT64_MAX >> shift)) ? UINT64_MAX
                                                            : base << shift;
    if (backoff > config_.maintenance_backoff_cap_ms) {
      backoff = config_.maintenance_backoff_cap_ms;
    }
  }
  entry->retry_after_ms =
      backoff > UINT64_MAX - now ? UINT64_MAX : now + backoff;
  // Escalation: incremental repair keeps failing — throw the operator
  // state away and rebuild from base tables (the FM fallback), through
  // the round's pinned view. Success returns the entry to service on the
  // spot; failure continues toward quarantine.
  if (config_.mode == ExecutionMode::kIncremental &&
      failures >= config_.recapture_after_failures &&
      failures < config_.quarantine_after_failures) {
    entry->maintainer = std::make_unique<Maintainer>(db_, &catalog_,
                                                     entry->plan,
                                                     config_.maintainer);
    entry->state_evicted = false;
    // No EraseStateBlob here: this path runs under the SHARED front-end
    // lock, and the blob map is only written under the exclusive side
    // (concurrent GetStateBlob readers). The superseded blob is simply
    // overwritten by the next eviction.
    Result<ProvenanceSketch> rebuilt = entry->maintainer->Initialize(&view);
    if (rebuilt.ok()) {
      entry->sketch = std::move(rebuilt).value();
      entry->PublishSnapshot();
      entry->RecordSuccess();
      std::lock_guard<std::mutex> stats(stats_mu_);
      ++stats_.sketch_captures;
      return;
    }
    entry->last_error = rebuilt.status().ToString();
  }
  if (failures >= config_.quarantine_after_failures) {
    entry->health = SketchHealth::kQuarantined;
    std::lock_guard<std::mutex> stats(stats_mu_);
    ++stats_.sketches_quarantined;
  }
}

Status ImpSystem::MaintainBatchLocked(const std::vector<SketchEntry*>& entries,
                                      const ReadView& view) {
  // The round's epoch cut is the pinned view's watermark: every statement
  // at or below it is fully published IN THE VIEW, and later publications
  // are invisible through it — so no in-flight statement can race rows
  // into the round even though nothing is locked. The cut — not
  // CurrentVersion(), which may run ahead during asynchronous ingestion —
  // keys every shared cache below.
  const uint64_t cut = view.watermark();
  const bool incremental = config_.mode == ExecutionMode::kIncremental;
  // The cost model only decides where a choice exists: incremental mode
  // (FM recaptures by definition; kNoSketch never reaches here).
  const bool cost_based =
      incremental && config_.policy.mode == PolicyMode::kCostBased;

  // Round planning (serial): restore evicted maintainers and classify each
  // entry as stale (has pending deltas on a referenced table), merely
  // behind on the version counter, or already current.
  struct Item {
    SketchEntry* entry;
    bool stale;
    // Cost-based planning verdict for this round (kIncremental under
    // kFixed) and the decision's inputs, kept for the post-round ledger
    // observation.
    SketchPolicy decision = SketchPolicy::kIncremental;
    size_t pending_rows = 0;
    size_t table_rows = 0;
    double seconds = 0;  ///< wall time of this item's maintenance work
    // Pre-round snapshot of the maintainer's cumulative zero-copy
    // counters; the post-round diff is rolled up into ImpSystemStats.
    size_t borrowed_before = 0;
    size_t materialized_before = 0;
    size_t copied_before = 0;
    size_t vectorized_before = 0;
    size_t fallback_before = 0;
    size_t index_fallback_before = 0;
    size_t delta_rows_before = 0;
    size_t recaptures_before = 0;
  };
  std::vector<Item> items;
  items.reserve(entries.size());
  size_t stale_count = 0;
  size_t retried_entries = 0;
  const uint64_t now = NowMs();
  // Best effort across entries: one sketch whose evicted state fails to
  // restore must not keep every healthy sketch stale; its error is still
  // reported after the round.
  Status planning_error = Status::OK();
  for (SketchEntry* entry : entries) {
    // Quarantined entries sit the round out entirely (they repair through
    // RepairQuarantined / RepartitionTable); a stale entry inside its
    // backoff window is deferred until the deadline passes — its earlier
    // failure was already reported, so the deferral itself is silent.
    if (entry->health == SketchHealth::kQuarantined) continue;
    if (entry->health == SketchHealth::kStale && entry->retry_after_ms > now) {
      continue;
    }
    // NOTE the ordering above: the health ladder outranks the cost model.
    // A quarantined or backing-off entry is excluded before any policy
    // decision, so a failing sketch can never be recaptured in a storm —
    // its backoff deadline governs, exactly as under kFixed.
    if (entry->policy == SketchPolicy::kEvicted) {
      // Upkeep declined; a query wanting this entry readmits it
      // (AnswerWithEntry). It no longer pins the delta log.
      continue;
    }
    if (entry->consecutive_failures > 0) ++retried_entries;
    Status restored = EnsureMaintainer(entry);
    if (!restored.ok()) {
      RecordRoundFailureLocked(entry, restored, now, view);
      if (planning_error.ok()) planning_error = restored;
      continue;
    }
    if (entry->valid_version() >= cut) continue;
    bool stale = EntryIsStaleAt(*entry, entry->valid_version(), view);
    Item item{entry, stale};
    if (cost_based) {
      PolicyInputs inputs;
      inputs.stale = stale;
      inputs.current_uses = entry->uses.load(std::memory_order_relaxed);
      if (stale) {
        for (const std::string& table : entry->tables) {
          item.pending_rows +=
              db_->PendingDeltaCount(table, entry->valid_version());
        }
        item.table_rows = RowsInView(view, entry->tables);
        inputs.pending_delta_rows = item.pending_rows;
        inputs.table_rows = item.table_rows;
      }
      item.decision = DecideMaintenance(config_.policy, &entry->ledger, inputs);
      if (item.decision != entry->policy) {
        entry->policy = item.decision;
        std::lock_guard<std::mutex> stats(stats_mu_);
        ++stats_.policy_switches;
        if (item.decision == SketchPolicy::kEvicted) ++stats_.sketches_evicted;
      }
      if (item.decision == SketchPolicy::kEvicted) {
        // From here the log may truncate past this entry (MinValidVersion
        // no longer counts it), so readmission must rebuild from base
        // tables — record that before declining the round.
        entry->ledger.needs_recapture = true;
        continue;
      }
    }
    // Recapture items rebuild from the view and never read the shared
    // delta cache, so only repair-bound stale items ask for prefetch.
    stale_count +=
        (stale && item.decision != SketchPolicy::kRecapture) ? 1 : 0;
    if (entry->maintainer != nullptr) {
      const MaintainStats& mstats = entry->maintainer->stats();
      item.borrowed_before = mstats.deltas_borrowed;
      item.materialized_before = mstats.deltas_materialized;
      item.copied_before = mstats.rows_copied;
      item.vectorized_before = mstats.vectorized_batches;
      item.fallback_before = mstats.scalar_fallback_rows;
      item.index_fallback_before = mstats.index_fallback_scans;
      item.delta_rows_before = mstats.delta_rows_processed;
      item.recaptures_before = mstats.recaptures;
    }
    items.push_back(item);
  }
  if (items.empty()) return planning_error;

  // Shared delta fetch & annotation: scan + annotate each distinct
  // (table, from_version) once so workers only read the cache. Every
  // incremental round — including a lazy single-entry repair on use —
  // goes through the shared pipeline, so delta_scans / annotation_hits /
  // zero-copy counters mean the same thing on every path. (A single-entry
  // round trades ScanDelta's scan-time push-down for a bitmap over the
  // unfiltered annotated delta; results are bit-identical.)
  const bool shared = incremental && config_.shared_delta_fetch &&
                      stale_count > 0;
  auto round_start = std::chrono::steady_clock::now();
  MaintenanceBatch batch(db_, &catalog_, cut, &view);
  if (shared) {
    for (const Item& item : items) {
      if (!item.stale || item.decision == SketchPolicy::kRecapture) continue;
      for (const std::string& table : item.entry->tables) {
        batch.Prefetch(table, item.entry->valid_version());
      }
    }
  }

  // Fan independent entries out across workers. Entries share no mutable
  // state (the database is only read, the shared cache is immutable after
  // prefetching), so results are bit-identical to the serial run. Each
  // successful entry republishes its snapshot — concurrent readers of
  // this shard that already pinned the old snapshot finish on it; new
  // pins see the repaired one.
  std::vector<Status> statuses(items.size());
  std::vector<uint8_t> maintained(items.size(), 0);
  Status pool_error =
      MaintenancePool().ParallelFor(items.size(), [&](size_t i) {
    SketchEntry* entry = items[i].entry;
    auto item_start = std::chrono::steady_clock::now();
    // Per-item exception wall: an escaped exception becomes THIS item's
    // status (health machine + backoff), not the whole round's — and
    // never reaches the pool's worker thread.
    try {
      if (!items[i].stale) {
        // Version bumps from updates to unrelated tables only fast-forward.
        if (entry->maintainer) {
          statuses[i] = entry->maintainer->Maintain({}, cut).status();
        }
        if (statuses[i].ok()) {
          entry->sketch.valid_version = cut;
          entry->PublishSnapshot();
        }
        return;
      }
      if (config_.retain_sketch_history) {
        entry->history.push_back(entry->sketch);
      }
      if (incremental) {
        if (items[i].decision == SketchPolicy::kRecapture) {
          // Cost-model recapture: the delta window outgrew the sketch, so
          // rebuild the operator state from base tables through the
          // round's pinned view instead of replaying a repair that costs
          // more than the capture. Initialize anchors at the view's
          // watermark — the same cut a repair would have reached.
          Result<ProvenanceSketch> rebuilt = entry->maintainer->Initialize(&view);
          statuses[i] = rebuilt.status();
          if (rebuilt.ok()) entry->sketch = std::move(rebuilt).value();
        } else {
          Result<SketchDelta> result =
              shared ? entry->maintainer->MaintainAnnotated(
                           batch.ContextFor(*entry->maintainer), cut)
                     : entry->maintainer->MaintainFromBackend(cut, &view);
          statuses[i] = result.status();
          if (result.ok()) entry->sketch = entry->maintainer->sketch();
        }
      } else {
        // Full maintenance: re-run the capture query (Sec. 1) over the
        // round's pinned view, anchoring at the frozen cut.
        CaptureEngine capture(db_, &catalog_);
        Result<ProvenanceSketch> result = capture.Capture(entry->plan, &view);
        statuses[i] = result.status();
        if (result.ok()) entry->sketch = std::move(result).value();
      }
    } catch (const std::exception& e) {
      statuses[i] =
          Status::Internal(std::string("maintenance threw: ") + e.what());
    } catch (...) {
      statuses[i] = Status::Internal("maintenance threw: unknown exception");
    }
    if (statuses[i].ok()) entry->PublishSnapshot();
    maintained[i] = statuses[i].ok() ? 1 : 0;
    items[i].seconds = SecondsSince(item_start);
  });
  // The per-item walls above make an escaped exception from the pool
  // itself unreachable; fold it into the round's error just in case.
  if (!pool_error.ok() && planning_error.ok()) planning_error = pool_error;

  // Health transitions, serial under the shard write lock: success resets
  // an entry to kFresh (fault-clear recovery needs nothing but a passing
  // round); failure records backoff / escalation / quarantine.
  for (size_t i = 0; i < items.size(); ++i) {
    if (statuses[i].ok()) {
      items[i].entry->RecordSuccess();
    } else {
      RecordRoundFailureLocked(items[i].entry, statuses[i], now, view);
    }
  }

  // Ledger observation, serial under the shard write lock: feed the EWMAs
  // the round's measured per-item costs. Fast-forwards are skipped (their
  // near-zero samples would drag the repair estimate toward zero without
  // representing any repair), and a repair that recaptured INTERNALLY
  // (truncated buffer ran dry) is observed as a capture — its cost scaled
  // with the table, not the delta.
  if (cost_based) {
    double round_hit_rate = -1.0;
    if (shared) {
      MaintenanceBatchStats bstats = batch.stats();
      const size_t lookups = bstats.annotation_hits + bstats.annotation_passes;
      if (lookups > 0) {
        round_hit_rate =
            static_cast<double>(bstats.annotation_hits) / lookups;
      }
    }
    for (size_t i = 0; i < items.size(); ++i) {
      Item& item = items[i];
      if (!item.stale) continue;
      if (!statuses[i].ok() || item.entry->maintainer == nullptr) continue;
      const MaintainStats& mstats = item.entry->maintainer->stats();
      const bool captured = item.decision == SketchPolicy::kRecapture ||
                            mstats.recaptures > item.recaptures_before;
      if (captured) {
        item.entry->ledger.ObserveCapture(
            item.entry->maintainer->last_build_seconds(), item.table_rows);
      } else {
        item.entry->ledger.ObserveRepair(
            item.seconds, mstats.delta_rows_processed - item.delta_rows_before);
      }
      if (round_hit_rate >= 0) {
        item.entry->ledger.ObserveAnnotationHitRate(round_hit_rate);
      }
    }
  }

  {
    std::lock_guard<std::mutex> stats(stats_mu_);
    // Wall-clock time of the round (prefetch + fan-out), not the sum of
    // per-entry durations — with workers the latter exceeds elapsed time.
    stats_.maintain_seconds += SecondsSince(round_start);
    ++stats_.batch_rounds;
    stats_.maintenance_retries += retried_entries;
    for (size_t i = 0; i < items.size(); ++i) {
      if (maintained[i]) ++stats_.maintenances;
      if (maintained[i] && items[i].decision == SketchPolicy::kRecapture) {
        // A cost-model recapture is a capture-query execution like the
        // escalation path's, plus its own counter for the bench gates.
        ++stats_.policy_recaptures;
        ++stats_.sketch_captures;
      }
      if (items[i].entry->maintainer != nullptr) {
        const MaintainStats& mstats = items[i].entry->maintainer->stats();
        stats_.deltas_borrowed +=
            mstats.deltas_borrowed - items[i].borrowed_before;
        stats_.deltas_materialized +=
            mstats.deltas_materialized - items[i].materialized_before;
        stats_.rows_copied += mstats.rows_copied - items[i].copied_before;
        stats_.vectorized_batches +=
            mstats.vectorized_batches - items[i].vectorized_before;
        stats_.scalar_fallback_rows +=
            mstats.scalar_fallback_rows - items[i].fallback_before;
        stats_.index_fallback_scans +=
            mstats.index_fallback_scans - items[i].index_fallback_before;
      }
    }
    // Snapshot-style refresh of the backend's cumulative index counters —
    // every round's probes/builds (delegated joins, side evaluations) are
    // visible here without threading deltas through each maintainer.
    Database::IndexStatsSnapshot istats = db_->AggregateIndexStats();
    stats_.index_shards_built = istats.shards_built;
    stats_.index_shards_reused = istats.shards_reused;
    stats_.index_point_probes = istats.point_probes;
    stats_.index_range_probes = istats.range_probes;
    stats_.index_bytes = db_->IndexBytes();
    if (shared) {
      MaintenanceBatchStats bstats = batch.stats();
      stats_.delta_scans += bstats.delta_scans;
      stats_.annotation_passes += bstats.annotation_passes;
      stats_.annotation_hits += bstats.annotation_hits;
      stats_.vectorized_batches += bstats.vectorized_batches;
      stats_.scalar_fallback_rows += bstats.scalar_fallback_rows;
    } else if (incremental) {
      // Per-sketch fetch: every stale entry re-scanned each of its
      // referenced tables and re-annotated the non-empty post-push-down
      // deltas (the redundant work batching removes). Measured by the
      // maintainer during MaintainFromBackend, not estimated.
      for (const Item& item : items) {
        if (!item.stale || !item.entry->maintainer) continue;
        const Maintainer::FetchStats& fetched =
            item.entry->maintainer->last_fetch_stats();
        stats_.delta_scans += fetched.delta_scans;
        stats_.annotation_passes += fetched.annotation_passes;
      }
    }
  }
  for (const Status& st : statuses) IMP_RETURN_NOT_OK(st);
  return planning_error;
}

}  // namespace imp
