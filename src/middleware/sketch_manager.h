// The sketch store (Sec. 7.1), sharded for the concurrent front end: a
// hash table keyed by query template whose entries hold the sketch, the
// query it was captured for, the state of the incremental operators (the
// Maintainer), and the database version the sketch was last maintained at.
//
// Concurrency model:
//   * entries are grouped into per-table SHARDS — the shard key of a plan
//     is its alphabetically-first referenced table, so every candidate of a
//     template key lives in one shard. Each shard carries its own
//     std::shared_mutex: readers looking up candidates take the shared
//     side, maintenance of the shard's entries (which mutates maintainer
//     state and the working sketch copy) takes the exclusive side. Readers
//     and maintainers of DIFFERENT tables never contend.
//   * each entry additionally publishes an immutable, epoch-stamped
//     SketchSnapshot via an RCU-style shared_ptr swap: a query pins the
//     snapshot under a brief shard read lock and then rewrites/executes
//     with NO sketch-store lock held at all, even while the same entry is
//     being maintained.
//   * the shard map itself only ever grows (shards are created on first
//     use, never removed); a top-level shared_mutex guards its structure.
//
// Entry lifetime: entries are never erased (the store only grows; eviction
// drops maintainer STATE, not the entry), so an entry pointer resolved
// under a shard lock stays valid for the life of the manager.

#ifndef IMP_MIDDLEWARE_SKETCH_MANAGER_H_
#define IMP_MIDDLEWARE_SKETCH_MANAGER_H_

#include <atomic>
#include <map>
#include <memory>
#include <set>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

#include "imp/maintainer.h"
#include "sketch/capture.h"
#include "sketch/sketch.h"

namespace imp {

/// Health of one managed sketch — the degradation ladder a faulty entry
/// descends (and climbs back up) without ever affecting query answers:
/// sketches only ever PRUNE work, so an unhealthy sketch degrades the
/// query to a plain scan, never to a wrong result.
enum class SketchHealth : uint8_t {
  kFresh,        ///< maintaining normally
  kStale,        ///< round(s) failed; retried under backoff, may escalate
                 ///< to a recapture from base tables
  kQuarantined,  ///< repeated failures; excluded from maintenance AND from
                 ///< query use until an explicit repair
};

/// One managed sketch. In incremental mode the Maintainer owns the sketch
/// and operator state; in full-maintenance mode only the sketch is kept
/// and staleness triggers recapture. Sketch versions are immutable: each
/// one is published as a SketchSnapshot, which stays valid for as long as
/// a reader holds it.
///
/// Locking: every field except the published snapshot is maintenance-side
/// state, written only under the owning shard's WRITE lock (`sketch` is
/// the working copy the next snapshot is built from). The snapshot is the
/// read side: Snapshot()/PublishSnapshot() synchronize on their own via
/// the shared_ptr's atomic access functions, so readers never need the
/// shard lock to use a pinned snapshot.
struct SketchEntry {
  std::string state_key;        ///< backend blob-store key for eviction
  PlanPtr plan;                 ///< the query the sketch was captured for
  /// Cached plan->ReferencedTables() (sorted): staleness probes and delta
  /// prefetch loops run every round/query — re-deriving the set would
  /// allocate per call.
  std::vector<std::string> tables;
  std::set<std::string> filter_tables;  ///< safe, partitioned tables
  std::unique_ptr<Maintainer> maintainer;  ///< incremental mode only
  bool state_evicted = false;   ///< maintainer state lives in the backend
  ProvenanceSketch sketch;      ///< working copy (mirrors maintainer's)

  // --- Health state machine (written under the shard WRITE lock) ----------
  // kFresh --failure--> kStale --(recapture_after_failures)--> recapture
  // attempt --(quarantine_after_failures)--> kQuarantined. Any maintenance
  // success resets to kFresh. While kStale, retries wait out an
  // exponential-backoff deadline on the middleware's injectable clock.
  SketchHealth health = SketchHealth::kFresh;
  size_t consecutive_failures = 0;  ///< since the last successful round
  uint64_t retry_after_ms = 0;      ///< clock deadline for the next retry
  std::string last_error;           ///< most recent failure (diagnostics)
  size_t total_failures = 0;        ///< lifetime failure count (telemetry)

  /// Record a failed maintenance round; the caller derives backoff and
  /// escalation from the returned consecutive-failure count.
  size_t RecordFailure(const std::string& error) {
    if (health == SketchHealth::kFresh) health = SketchHealth::kStale;
    ++total_failures;
    last_error = error;
    return ++consecutive_failures;
  }

  /// Record a successful round: the entry climbs back to kFresh and all
  /// backoff state clears (fault-clear recovery needs no restart).
  void RecordSuccess() {
    health = SketchHealth::kFresh;
    consecutive_failures = 0;
    retry_after_ms = 0;
    last_error.clear();
  }

  uint64_t valid_version() const { return sketch.valid_version; }

  /// Pin the current published snapshot (never null once the entry is in
  /// the store). Safe from any thread, no locks required.
  std::shared_ptr<const SketchSnapshot> Snapshot() const {
    return std::atomic_load_explicit(&snapshot_, std::memory_order_acquire);
  }

  /// Publish the working copy as the next immutable snapshot (epoch + 1).
  /// Caller holds the owning shard's write lock (or is the creating
  /// thread, before the entry is visible to readers).
  void PublishSnapshot();

 private:
  std::shared_ptr<const SketchSnapshot> snapshot_ =
      std::make_shared<const SketchSnapshot>();
};

/// Template-keyed, table-sharded sketch store. Each template may hold
/// several sketches (captured for different constants); lookup returns the
/// candidates and the middleware applies the reuse check from [37]
/// (sketch/reuse.h).
class SketchManager {
 public:
  /// One shard: the entries of every template whose plan's primary table
  /// is `table`, plus the lock that serializes their maintenance against
  /// candidate lookups. Buckets use an ordered map with a transparent
  /// comparator so hot-path lookups pass string_views without building a
  /// key string per call.
  struct Shard {
    explicit Shard(std::string t) : table(std::move(t)) {}
    const std::string table;  ///< shard key (plans' primary table)
    mutable std::shared_mutex mu;
    std::map<std::string, std::vector<std::unique_ptr<SketchEntry>>,
             std::less<>>
        buckets;
    /// Negative cache: templates whose capture found no safe partition.
    /// Checked under the SHARED lock so unsketchable queries never take
    /// the shard write lock (which would serialize the shard's snapshot
    /// readers) or re-run the safety analysis in the steady state.
    /// Invalidated wholesale when the partition catalog changes (a new or
    /// replaced partition can make a template sketchable).
    std::set<std::string, std::less<>> unsketchable;
  };

  /// Shard routing key of a plan: its alphabetically-first referenced
  /// table (empty view for table-less plans, which are never sketched).
  /// All candidates of one template key share it.
  static std::string_view ShardKeyFor(const PlanNode& plan) {
    return plan.PrimaryTable();
  }

  /// The shard for `table`, or nullptr when none exists yet.
  Shard* FindShard(std::string_view table) const;
  /// The shard for `table`, created on first use.
  Shard& GetOrCreateShard(std::string_view table);
  /// All shards in key-sorted (deterministic) order.
  std::vector<Shard*> Shards() const;

  /// Candidate entries for a template within `shard` (empty when none).
  /// Caller holds the shard's lock (either side).
  static std::vector<SketchEntry*> CandidatesLocked(
      const Shard& shard, std::string_view template_key);

  /// Insert into `shard` under the caller's WRITE lock on it. The entry's
  /// plan must route to this shard.
  SketchEntry* InsertLocked(Shard& shard, std::string_view template_key,
                            std::unique_ptr<SketchEntry> entry);

  /// Monotonic id for building unique state keys (replaces the seed's
  /// size()-based naming, which needed a whole-store walk per capture).
  size_t NextEntryId() {
    return next_entry_id_.fetch_add(1, std::memory_order_relaxed);
  }

  // --- Whole-store views ----------------------------------------------------
  // Each shard is locked shared while collecting, so the walk is safe
  // against concurrent maintenance; the returned pointers are stable
  // because entries are never erased (see header comment). Intended for
  // tests, benches, eviction, repartitioning and round planning — not the
  // per-query hot path.

  /// Total number of stored sketch entries.
  size_t size() const;
  /// All entries.
  std::vector<SketchEntry*> AllEntries();
  /// Minimum valid_version across all entries (UINT64_MAX when the store
  /// is empty) — the delta-log truncation watermark. Quarantined entries
  /// are EXCLUDED: they repair by recapturing from base tables, never by
  /// replaying the log, so they must not pin it (a wedged sketch holding
  /// the log forever would turn one fault into unbounded memory growth).
  uint64_t MinValidVersion() const;

  /// Per-state entry counts (one shared-locked walk; health fields are
  /// stable under the shard's shared lock).
  struct HealthTally {
    size_t fresh = 0;
    size_t stale = 0;
    size_t quarantined = 0;
  };
  HealthTally TallyHealth() const;

  /// Drop every shard's unsketchable negative cache (the partition
  /// catalog changed). Caller excludes concurrent shard users (the
  /// middleware's exclusive front-end lock).
  void ClearUnsketchable();

  /// Total bytes of sketches + operator state across entries.
  size_t MemoryBytes() const;

 private:
  /// Guards the shard map's STRUCTURE only; per-shard state is guarded by
  /// the shard's own lock.
  mutable std::shared_mutex map_mu_;
  /// unique_ptr keeps Shard addresses stable across map growth.
  std::map<std::string, std::unique_ptr<Shard>, std::less<>> shards_;
  std::atomic<size_t> next_entry_id_{0};
};

}  // namespace imp

#endif  // IMP_MIDDLEWARE_SKETCH_MANAGER_H_
