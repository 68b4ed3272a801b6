// Annotated (capture) execution: evaluates a plan over sketch-annotated
// relations (Def. 4.3/4.4). Each base-table row is annotated with the
// singleton fragment its partition-attribute value belongs to; operators
// propagate and union annotations. The union of the result rows' sketches
// is the accurate provenance sketch S(F(Q(D))) of Sec. 6.1.
//
// This path implements both sketch *capture* and *full maintenance* (FM),
// which simply re-runs capture (Sec. 1: "full maintenance ... rerun the
// sketch's capture query").
//
// The executor is sketch-module-agnostic: annotation of base rows is
// provided by a callback, so exec does not depend on partition machinery.

#ifndef IMP_EXEC_ANNOTATED_EXECUTOR_H_
#define IMP_EXEC_ANNOTATED_EXECUTOR_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "algebra/plan.h"
#include "common/bitvector.h"
#include "common/status.h"
#include "exec/executor.h"
#include "storage/database.h"

namespace imp {

/// One sketch-annotated row ⟨t, P⟩.
struct AnnotatedRow {
  Tuple row;
  BitVector sketch;  // over the global fragment-id space
};

/// A bag of annotated rows.
struct AnnotatedRelation {
  Schema schema;
  std::vector<AnnotatedRow> rows;

  size_t size() const { return rows.size(); }
  /// Union of all row sketches (= S(F(Q(𝒟))), the accurate sketch).
  BitVector SketchUnion() const;
  /// Drop annotations.
  Relation ToRelation() const;
};

/// Annotates a base-table row: appends the row's fragment bit(s) for
/// `table`'s registered partition into `out` (no-op when the table has no
/// partition, which models the single-whole-domain-range case of Def. 4.1).
using RowAnnotator =
    std::function<void(const std::string& table, const Tuple& row, BitVector* out)>;

/// Executes plans under annotated semantics. Base tables are read through
/// immutable snapshots — the caller's pinned ReadView when provided (one
/// consistent watermark for the whole capture query; required whenever
/// writers may be concurrent), else each table's currently published
/// snapshot.
class AnnotatedExecutor {
 public:
  AnnotatedExecutor(const Database* db, RowAnnotator annotator,
                    const ReadView* view = nullptr)
      : db_(db), annotator_(std::move(annotator)), view_(view) {}

  /// Bind an already-annotated relation under a table name (shadowing the
  /// base table); used when joining deltas against subplans.
  void BindRelation(const std::string& name, const AnnotatedRelation* rel) {
    bindings_[name] = rel;
  }

  Result<AnnotatedRelation> Execute(const PlanPtr& plan) const;

  /// Scan/filter counters (zone skips + kernel-vs-fallback path), matching
  /// Executor::scan_stats().
  const ScanStats& scan_stats() const { return scan_stats_; }

  /// Range-index policy for exact single-column range filters (see
  /// Executor::set_range_index_mode). Maintenance callers (delegated join
  /// sides, recapture) set kBuild — the build amortizes across rounds.
  void set_range_index_mode(RangeIndexMode m) { range_index_mode_ = m; }
  RangeIndexMode range_index_mode() const { return range_index_mode_; }

 private:
  Result<AnnotatedRelation> ExecScan(const ScanNode& node) const;
  Result<AnnotatedRelation> ExecSelect(const SelectNode& node) const;
  Result<AnnotatedRelation> ExecProject(const ProjectNode& node) const;
  Result<AnnotatedRelation> ExecJoin(const JoinNode& node) const;
  Result<AnnotatedRelation> ExecAggregate(const AggregateNode& node) const;
  Result<AnnotatedRelation> ExecTopK(const TopKNode& node) const;
  Result<AnnotatedRelation> ExecDistinct(const DistinctNode& node) const;

  const Database* db_;
  RowAnnotator annotator_;
  const ReadView* view_;  ///< pinned snapshots; nullptr = latest published
  std::map<std::string, const AnnotatedRelation*> bindings_;
  RangeIndexMode range_index_mode_ = RangeIndexMode::kIfAvailable;
  mutable ScanStats scan_stats_;
};

}  // namespace imp

#endif  // IMP_EXEC_ANNOTATED_EXECUTOR_H_
