// Bag-semantics plan executor over the backend database.
//
// This is the evaluation engine of the simulated DBMS backend: it answers
// user queries (the NS baseline), runs capture queries for full maintenance
// (through AnnotatedExecutor), and evaluates the delta joins IMP delegates
// to the backend (Sec. 7: "ΔR ⋈ S ... are executed by sending ΔR to the
// database and evaluating the join in the database"). Delegated relations
// are exposed to plans through name bindings that shadow base tables.

#ifndef IMP_EXEC_EXECUTOR_H_
#define IMP_EXEC_EXECUTOR_H_

#include <map>
#include <string>
#include <vector>

#include "algebra/plan.h"
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

/// Executes plans against a Database plus optional name-bound relations.
/// Scans with filters consult each chunk's zone map and skip chunks that
/// cannot match — the physical mechanism behind PBDS data skipping.
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

  /// Bind `rel` under `name`: scans of `name` read it instead of the base
  /// table. Used to ship deltas into backend-evaluated joins.
  void BindRelation(const std::string& name, const Relation* rel) {
    bindings_[name] = rel;
  }
  void ClearBindings() { bindings_.clear(); }

  /// Evaluate the plan and materialize its result.
  Result<Relation> Execute(const PlanPtr& plan) const;

  /// Counters accumulated across Execute calls.
  const ScanStats& scan_stats() const { return scan_stats_; }

  /// Range-index policy for scans whose filter is exactly single-column
  /// ranges (results never differ from the filtering paths).
  void set_range_index_mode(RangeIndexMode m) { range_index_mode_ = m; }
  RangeIndexMode range_index_mode() const { return range_index_mode_; }

 private:
  Result<Relation> ExecScan(const ScanNode& node) const;
  Result<Relation> ExecSelect(const SelectNode& node) const;
  Result<Relation> ExecProject(const ProjectNode& node) const;
  Result<Relation> ExecJoin(const JoinNode& node) const;
  Result<Relation> ExecAggregate(const AggregateNode& node) const;
  Result<Relation> ExecTopK(const TopKNode& node) const;
  Result<Relation> ExecDistinct(const DistinctNode& node) const;

  const Database* db_;
  const ReadView* view_;  ///< pinned snapshots; nullptr = latest published
  std::map<std::string, const Relation*> bindings_;
  RangeIndexMode range_index_mode_ = RangeIndexMode::kIfAvailable;
  mutable ScanStats scan_stats_;
};

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

/// Comparator over tuples induced by ORDER BY sort specs.
struct SortSpecLess {
  const std::vector<SortSpec>* sorts;
  bool operator()(const Tuple& a, const Tuple& b) const {
    for (const SortSpec& s : *sorts) {
      int c = a[s.column].Compare(b[s.column]);
      if (c != 0) return s.ascending ? c < 0 : c > 0;
    }
    return false;
  }
};

/// Aggregation accumulator shared by the full executor, the annotated
/// (capture) executor and tests. Handles sum/count/avg/min/max with
/// int/double promotion matching Sec. 5.2.5.
class AggAccumulator {
 public:
  explicit AggAccumulator(const AggSpec* spec) : spec_(spec) {}

  /// Fold one input row with multiplicity `mult` (may be negative when the
  /// caller implements Z-semantics; min/max do not support negatives here).
  void Add(const Tuple& row, int64_t mult = 1);

  /// Current value of the aggregate (SQL semantics over the folded rows).
  Value Finish() const;

 private:
  const AggSpec* spec_;
  int64_t count_ = 0;       // multiplicity-weighted row count
  int64_t int_sum_ = 0;
  double dbl_sum_ = 0.0;
  bool saw_double_ = false;
  bool has_minmax_ = false;
  Value minmax_;
};

}  // namespace imp

#endif  // IMP_EXEC_EXECUTOR_H_
