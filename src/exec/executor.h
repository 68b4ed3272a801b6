// Bag-semantics plan executor over the backend database.
//
// This is the one evaluation engine of the simulated DBMS backend. Plain,
// it answers user queries (the NS baseline and sketch-filtered queries).
// Annotated, it carries one fragment BitVector per row (Def. 4.3/4.4): that
// run is sketch capture, the full-maintenance (FM) baseline (Sec. 1: FM
// "reruns the sketch's capture query"), and the evaluation of the join
// sides IMP delegates to the backend (Sec. 7: "ΔR ⋈ S ... are executed by
// sending ΔR to the database and evaluating the join in the database").
// Each operator is written once over the row type and instantiated for
// both, so the plain path carries no per-row annotation branch.

#ifndef IMP_EXEC_EXECUTOR_H_
#define IMP_EXEC_EXECUTOR_H_

#include <functional>
#include <string>
#include <vector>

#include "algebra/plan.h"
#include "common/bitvector.h"
#include "common/status.h"
#include "storage/database.h"

namespace imp {

/// A materialized bag of rows (duplicates represent multiplicity).
struct Relation {
  Schema schema;
  std::vector<Tuple> rows;

  size_t size() const { return rows.size(); }
  /// Canonical multiset rendering for tests (sorted row strings).
  std::string ToString() const;
  /// Multiset equality (order-insensitive).
  bool SameBag(const Relation& other) const;
};

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
using RowAnnotator = std::function<void(const std::string& table,
                                        const Tuple& row, BitVector* out)>;

/// Scan-level counters: chunks skipped via zone maps vs scanned, and which
/// evaluation path filtered the surviving chunks (see exec/vector_kernels).
struct ScanStats {
  size_t chunks_scanned = 0;
  size_t chunks_skipped = 0;
  size_t rows_scanned = 0;
  /// Batches whose predicate (or a compiled part of it) ran as a kernel.
  size_t vectorized_batches = 0;
  /// Rows the scalar Expr::Eval fallback had to inspect.
  size_t scalar_fallback_rows = 0;
  /// Scans answered by ordered-index range enumeration instead of chunk
  /// filtering (the predicate reduced exactly to single-column ranges).
  size_t index_range_scans = 0;
};

/// When a scan's filter reduces exactly to single-column value ranges
/// (ExtractColumnRanges), should it be answered by the snapshot's ordered
/// index instead of filtering chunks?
///   kOff         — never (chunk filtering only).
///   kIfAvailable — only when the snapshot already has a range index on the
///                  column (warm or assembled); one-off queries never pay a
///                  build. Default.
///   kBuild       — build the index on first use; for repeating scans
///                  (sketch use-rewrite fragment ranges, maintenance
///                  rounds) where the build amortizes across calls.
enum class RangeIndexMode : uint8_t { kOff, kIfAvailable, kBuild };

/// Executes plans against a Database. Scans with filters consult each
/// chunk's zone map and skip chunks that cannot match — the physical
/// mechanism behind PBDS data skipping.
///
/// Base tables are read lock-free through immutable TableSnapshots: either
/// the caller's pinned ReadView (every scan sees one consistent watermark
/// for the plan's whole evaluation — pass it whenever writers may be
/// concurrent) or, without a view, each table's currently published
/// snapshot pinned per scan.
class Executor {
 public:
  explicit Executor(const Database* db, const ReadView* view = nullptr)
      : db_(db), view_(view) {}

  /// Evaluate the plan and materialize its result.
  Result<Relation> Execute(const PlanPtr& plan) const;

  /// Evaluate the plan under annotated semantics: each base row a scan
  /// emits carries the fragment bits `annotator` gives it; projection and
  /// top-k keep a row's sketch, join unions both sides' (P1 ∪ P2), and
  /// aggregation and distinct union the sketches of the rows they fold.
  /// The rows are Execute's, in the same order, and the union of their
  /// sketches is the accurate sketch S(F(Q(𝒟))) of Sec. 6.1.
  Result<AnnotatedRelation> ExecuteAnnotated(
      const PlanPtr& plan, const RowAnnotator& annotator) const;

  /// Counters accumulated across Execute and ExecuteAnnotated calls.
  const ScanStats& scan_stats() const { return scan_stats_; }

  /// Range-index policy for scans whose filter is exactly single-column
  /// ranges (results never differ from the filtering paths).
  void set_range_index_mode(RangeIndexMode m) { range_index_mode_ = m; }
  RangeIndexMode range_index_mode() const { return range_index_mode_; }

 private:
  // One operator each, instantiated for Relation (plain; `annotator` is
  // null) and AnnotatedRelation.
  template <typename Rel>
  Result<Rel> Exec(const PlanPtr& plan, const RowAnnotator* annotator) const;
  template <typename Rel>
  Result<Rel> ExecScan(const ScanNode& node,
                       const RowAnnotator* annotator) const;
  template <typename Rel>
  Result<Rel> ExecSelect(const SelectNode& node,
                         const RowAnnotator* annotator) const;
  template <typename Rel>
  Result<Rel> ExecProject(const ProjectNode& node,
                          const RowAnnotator* annotator) const;
  template <typename Rel>
  Result<Rel> ExecJoin(const JoinNode& node,
                       const RowAnnotator* annotator) const;
  template <typename Rel>
  Result<Rel> ExecAggregate(const AggregateNode& node,
                            const RowAnnotator* annotator) const;
  template <typename Rel>
  Result<Rel> ExecTopK(const TopKNode& node,
                       const RowAnnotator* annotator) const;
  template <typename Rel>
  Result<Rel> ExecDistinct(const DistinctNode& node,
                           const RowAnnotator* annotator) const;

  const Database* db_;
  const ReadView* view_;  ///< pinned snapshots; nullptr = latest published
  RangeIndexMode range_index_mode_ = RangeIndexMode::kIfAvailable;
  mutable ScanStats scan_stats_;
};

/// The one hash join over materialized bags: `left` ⋈ `right` on the
/// equi-key pairs `keys` (left column, right column) with an optional
/// `residual` over the concatenated row, or `left` × `right` when `keys` is
/// empty. Builds on the right side; rows come out in left-row order, each
/// left row's matches in right-row order. An annotated output row carries
/// P1 ∪ P2 (Sec. 5.2.4). Defined for Relation and AnnotatedRelation.
template <typename Rel>
Rel HashJoin(const Rel& left, const Rel& right,
             const std::vector<JoinNode::KeyPair>& keys,
             const ExprPtr& residual);

/// The equi-key of `row` on one side of `keys` (its left columns when
/// `left_side`), written to `*key`. False when a component is NULL: SQL
/// equality never holds for NULL, so such a row joins nothing. GROUP BY and
/// DISTINCT still treat NULLs as equal.
bool JoinKeyOf(const Tuple& row, const std::vector<JoinNode::KeyPair>& keys,
               bool left_side, Tuple* key);

/// The rows of `table`'s writer state a DELETE or UPDATE with WHERE
/// `where` (null: every row) removes, picked chunk by chunk the way a scan
/// picks them: zone maps skip the chunks no row of which can match, and
/// the compiled predicate kernel selects rows in the rest. One bitmap per
/// chunk of table.chunks() — no bit set for a chunk that loses nothing —
/// holding at most `limit` rows, the first in scan order. The caller holds
/// the table's write stripe and hands the result, under the same hold, to
/// Database::StageDelete.
std::vector<BitVector> SelectRows(const Table& table, const ExprPtr& where,
                                  size_t limit = SIZE_MAX);

/// DELETE FROM `table` [WHERE `where`] as one synchronous statement: under
/// the table's write stripe, allocate a version, erase the rows SelectRows
/// picks (at most `limit`) and publish. Returns the statement's version.
Result<uint64_t> DeleteWhere(Database* db, const std::string& table,
                             const ExprPtr& where, size_t limit = SIZE_MAX);

}  // namespace imp

#endif  // IMP_EXEC_EXECUTOR_H_
