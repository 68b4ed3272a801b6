// The incremental maintenance procedure I (Def. 4.5): builds an incremental
// operator tree mirroring a query plan, initializes its state alongside
// sketch capture, and turns backend deltas into sketch deltas.
//
// Responsibilities:
//  * operator tree construction (Sec. 5.2) plus the merge operator μ,
//  * state initialization from the current database ("the state of the
//    incremental operators for this query", Sec. 2),
//  * the selection push-down analysis that lets delta fetching pre-filter
//    rows in the backend (Sec. 7.2),
//  * recapture-on-truncation: when a truncated min/max or top-k buffer runs
//    dry the maintainer transparently rebuilds all state (Sec. 8.4.3).

#ifndef IMP_IMP_MAINTAINER_H_
#define IMP_IMP_MAINTAINER_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "algebra/plan.h"
#include "imp/inc_operators.h"
#include "sketch/sketch.h"

namespace imp {

/// Tunables for the incremental engine (all paper optimizations).
struct MaintainerOptions {
  bool bloom_filters = true;       ///< Sec. 7.2 join bloom filters
  bool selection_pushdown = true;  ///< Sec. 7.2 delta pre-filtering
  size_t minmax_buffer = 0;        ///< top-l buffer for min/max (0 = all)
  size_t topk_buffer = 0;          ///< top-l buffer for top-k (0 = all)
};

/// Incremental maintenance procedure for one query's sketch.
class Maintainer {
 public:
  Maintainer(const Database* db, const PartitionCatalog* catalog, PlanPtr plan,
             MaintainerOptions options = {});

  /// Build all operator state by evaluating the (annotated) query once and
  /// record the accurate sketch — the capture step (Fig. 2, blue pipeline).
  /// With `view`, the capture reads the pinned snapshots and the sketch
  /// anchors at the view's watermark; without one it reads each table's
  /// currently published snapshot and anchors at StableVersion().
  Result<ProvenanceSketch> Initialize(const ReadView* view = nullptr);

  /// Incrementally maintain with raw backend deltas, advancing the sketch
  /// to `new_version`. Returns the sketch delta ΔP. On buffer exhaustion
  /// the maintainer recaptures internally (counted in stats().recaptures)
  /// and returns the diff between old and new sketch.
  Result<SketchDelta> Maintain(const std::vector<TableDelta>& deltas,
                               uint64_t new_version);

  /// Maintain with an already-annotated delta context. This is the shared
  /// batch path: the middleware scans and annotates each table's delta once
  /// and hands every maintainer a context of per-table DeltaBatches —
  /// borrowed views into the round's shared annotated deltas (optionally
  /// restricted by a push-down selection bitmap), or owned batches on the
  /// legacy path. The operator chain processes borrowed batches in place
  /// (zero row copies for filterless scans), so the shared deltas behind
  /// `ctx` must outlive this call; they are never mutated through it. The
  /// context must be annotated against this maintainer's catalog.
  Result<SketchDelta> MaintainAnnotated(const DeltaContext& ctx,
                                        uint64_t new_version);

  /// Fetch the pending deltas for all referenced tables from the backend
  /// (applying selection push-down) and maintain up to `cut_version` — the
  /// frozen epoch cut of the maintenance round. Only published delta
  /// records are visible, so a cut at the stable watermark never observes
  /// a statement that is still being applied. `view` (pinned at the cut)
  /// is what delegated joins and recapture-on-truncation read through, so
  /// the round stays at one watermark even under concurrent ingestion.
  Result<SketchDelta> MaintainFromBackend(uint64_t cut_version,
                                          const ReadView* view = nullptr);
  /// Convenience: cut at the database's stable watermark.
  Result<SketchDelta> MaintainFromBackend();

  /// Backend fetch work done by the last MaintainFromBackend call: one
  /// delta-log scan per referenced table, one annotation pass per
  /// non-empty (post-push-down) delta. Lets the middleware report the
  /// per-sketch path's measured cost next to the shared batch's counters.
  struct FetchStats {
    size_t delta_scans = 0;
    size_t annotation_passes = 0;
  };
  const FetchStats& last_fetch_stats() const { return last_fetch_stats_; }

  /// Wall seconds of the last Initialize (the state build from base
  /// tables), measured inside the maintainer so every capture path —
  /// initial capture, failure escalation, cost-model recapture,
  /// recapture-on-truncation — feeds the policy ledger the build cost
  /// alone, without plan/bind overhead from the surrounding call.
  double last_build_seconds() const { return last_build_seconds_; }

  const ProvenanceSketch& sketch() const { return sketch_; }
  uint64_t maintained_version() const { return sketch_.valid_version; }
  const PlanPtr& plan() const { return plan_; }
  /// The plan's referenced tables, cached at construction (sorted): every
  /// maintenance round iterates them, and re-deriving the set would
  /// allocate per round.
  const std::vector<std::string>& tables() const { return tables_; }

  /// Predicate to push into the delta fetch for `table`, or an empty
  /// function when nothing can be pushed (Sec. 7.2 delta filtering).
  std::function<bool(const Tuple&)> DeltaPredicate(
      const std::string& table) const;
  /// The pushed-down expression itself (for tests / inspection).
  ExprPtr DeltaPredicateExpr(const std::string& table) const;

  /// Total bytes of incremental operator state (Figs. 13e/f, 15, 17).
  size_t StateBytes() const;

  /// Persist the complete maintenance state — sketch, merge counters and
  /// every stateful operator — into a blob (Sec. 2: persist operator state
  /// in the database to survive restarts / memory-pressure eviction).
  std::string SerializeState() const;
  /// Restore state persisted by SerializeState. The maintainer must have
  /// been constructed for the same plan, catalog and options.
  Status RestoreState(const std::string& blob);

  const MaintainStats& stats() const { return stats_; }
  MaintainStats* mutable_stats() { return &stats_; }

 private:
  std::unique_ptr<IncOperator> BuildOperator(const PlanPtr& plan);
  void ComputePushdowns();

  const Database* db_;
  const PartitionCatalog* catalog_;
  PlanPtr plan_;
  std::vector<std::string> tables_;  ///< cached plan_->ReferencedTables()
  MaintainerOptions options_;
  MaintainStats stats_;
  std::unique_ptr<IncOperator> root_;
  IncMerge merge_;
  ProvenanceSketch sketch_;
  std::map<std::string, ExprPtr> pushdown_preds_;
  std::map<std::string, size_t> scan_counts_;
  FetchStats last_fetch_stats_;
  double last_build_seconds_ = 0;
};

}  // namespace imp

#endif  // IMP_IMP_MAINTAINER_H_
