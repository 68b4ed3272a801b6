// Sketch-annotated deltas (Sec. 4.3): the unit of work of the incremental
// engine.
//
// A delta is a bag of ⟨tuple, sketch⟩ pairs with *signed* multiplicities
// (Z-relation encoding): mult > 0 are insertions Δ+, mult < 0 deletions Δ-.
// The paper's four-case join rule and ∪• application are plain arithmetic
// under this encoding, which keeps the operator rules of Sec. 5 short and
// the correctness argument of Sec. 6 directly executable.
//
// Between operators, deltas travel as `DeltaBatch`es: either *borrowed*
// (a non-owning view over a shared AnnotatedDelta, with an optional
// selection bitmap picking the visible rows) or *owned* (materialized
// rows). Borrowed batches are what let one scan+annotate result feed N
// sketches with zero per-sketch row copies; an operator that must rewrite
// rows (project, join output, aggregate deltas) produces a fresh owned
// batch, and `Materialize` is the explicit copy-on-write escape hatch.

#ifndef IMP_IMP_DELTA_H_
#define IMP_IMP_DELTA_H_

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/bitvector.h"
#include "common/schema.h"
#include "common/tuple.h"
#include "sketch/partition.h"
#include "storage/database.h"

namespace imp {

/// One annotated delta tuple Δ±⟨t, P⟩^n.
struct AnnotatedDeltaRow {
  Tuple row;
  BitVector sketch;
  int64_t mult = 1;  ///< signed multiplicity

  std::string ToString() const;
};

/// An annotated delta relation Δℛ.
struct AnnotatedDelta {
  std::vector<AnnotatedDeltaRow> rows;

  bool empty() const { return rows.empty(); }
  size_t size() const { return rows.size(); }

  void Append(Tuple row, BitVector sketch, int64_t mult) {
    rows.push_back(AnnotatedDeltaRow{std::move(row), std::move(sketch), mult});
  }

  /// Total |Δ+| (sum of positive multiplicities).
  int64_t InsertCount() const;
  /// Total |Δ-| (absolute sum of negative multiplicities).
  int64_t DeleteCount() const;

  /// Merge rows with identical (tuple, sketch) and drop zero-multiplicity
  /// rows. Surviving rows keep first-appearance order — deterministic for
  /// a given input order, but NOT canonical across input orders (equal
  /// bags consolidated from different orders may differ element-wise).
  void Consolidate();

  std::string ToString() const;
};

/// Counters reported by the maintainer for the optimization experiments
/// (Sec. 8.4): backend round trips for delegated joins, bloom-pruned delta
/// rows, rows shipped, etc. Lives here (the bottom of the imp layer) so
/// DeltaBatch's copy accounting needs no upward dependency on operators.
struct MaintainStats {
  size_t join_round_trips = 0;       ///< delegated join evaluations
  size_t join_rows_shipped = 0;      ///< delta rows sent to the backend
  size_t bloom_pruned_rows = 0;      ///< delta rows dropped by bloom filters
  size_t delta_rows_processed = 0;   ///< base delta rows fed into the plan
  size_t recaptures = 0;             ///< full recaptures forced by truncation
  // Zero-copy pipeline accounting: batches served as borrowed views by
  // table access, borrowed batches that had to be deep-copied into owned
  // rows (copy-on-write events), and the rows those events copied. A
  // filterless scan feeding the shared annotation cache reports
  // rows_copied == 0 — the machine-checkable zero-copy claim.
  size_t deltas_borrowed = 0;        ///< borrowed views served by IncScan
  size_t deltas_materialized = 0;    ///< borrowed -> owned materializations
  size_t rows_copied = 0;            ///< rows deep-copied by materialization
  // Batch-kernel accounting (exec/vector_kernels): batches whose predicate
  // ran (at least partly) through compiled column kernels, and rows the
  // scalar Expr::Eval fallback had to inspect. vectorized_batches == 0 on
  // a filtered workload means the kernel path never engaged.
  size_t vectorized_batches = 0;
  size_t scalar_fallback_rows = 0;
  // Delegated joins that wanted the backend's point index but had to fall
  // back to a full side evaluation (no stateless chain / no key column
  // pass-through / indexed joins disabled). Feed for the cost model: a
  // high count means the O(rows) path is running every round.
  size_t index_fallback_scans = 0;

  void Reset() { *this = MaintainStats{}; }
};

/// A delta batch flowing through the incremental operator chain.
///
/// Either *owned* — the batch holds its rows — or *borrowed* — a non-owning
/// view over an `AnnotatedDelta` that lives elsewhere (the round's shared
/// annotation cache or a DeltaContext entry), optionally restricted by a
/// selection bitmap (bit i set = base row i visible). Borrowed batches are
/// cheap to copy/filter (one bitmap, no rows) and MUST NOT outlive the
/// pointed-to delta; the pointee is never mutated through the view.
///
/// Visible rows always keep the base delta's (delta-log) order, so a
/// borrowed batch with a selection bitmap is row-for-row identical to the
/// eager filtered copy it replaces.
class DeltaBatch {
 public:
  /// Empty owned batch.
  DeltaBatch() = default;

  /// Take ownership of `delta`'s rows.
  static DeltaBatch OwnedOf(AnnotatedDelta delta) {
    DeltaBatch b;
    b.owned_ = std::move(delta);
    return b;
  }

  /// Borrow every row of `*delta` (no copy). `*delta` must outlive the
  /// batch and everything derived from it.
  static DeltaBatch Borrowed(const AnnotatedDelta* delta) {
    DeltaBatch b;
    b.base_ = delta;
    b.visible_ = delta->size();
    return b;
  }

  /// Borrow the rows of `*delta` picked by `selection` (bit i set = row i
  /// visible). The bitmap must not select rows past `delta->size()`.
  static DeltaBatch BorrowedFiltered(const AnnotatedDelta* delta,
                                     BitVector selection) {
    DeltaBatch b;
    b.base_ = delta;
    b.visible_ = selection.Count();
    b.selection_ = std::move(selection);
    b.has_selection_ = true;
    return b;
  }

  bool borrowed() const { return base_ != nullptr; }
  bool filtered() const { return has_selection_; }
  bool empty() const { return size() == 0; }
  /// Number of visible rows.
  size_t size() const { return borrowed() ? visible_ : owned_.size(); }

  /// The underlying shared delta of a borrowed batch (nullptr when owned);
  /// for aliasing checks and tests.
  const AnnotatedDelta* base() const { return base_; }
  /// The rows of an owned batch. Only valid when !borrowed().
  const AnnotatedDelta& owned() const {
    IMP_DCHECK(!borrowed());
    return owned_;
  }
  AnnotatedDelta& mutable_owned() {
    IMP_DCHECK(!borrowed());
    return owned_;
  }

  /// A borrowed view aliasing this batch's rows: owned batches hand out a
  /// borrow of their own rows (so `this` must outlive the view), borrowed
  /// batches copy the (cheap) view itself. This is how IncScan serves a
  /// DeltaContext entry without copying it.
  DeltaBatch View() const {
    if (!borrowed()) return Borrowed(&owned_);
    return *this;
  }

  /// Pull-based cursor over the visible rows in base order.
  class Cursor {
   public:
    explicit Cursor(const DeltaBatch& batch) : batch_(&batch) {}

    /// Next visible row, nullptr at the end.
    const AnnotatedDeltaRow* Next() {
      const std::vector<AnnotatedDeltaRow>& rows = batch_->borrowed()
                                                       ? batch_->base_->rows
                                                       : batch_->owned_.rows;
      while (pos_ < rows.size()) {
        size_t i = pos_++;
        if (!batch_->has_selection_ || batch_->selection_.Test(i)) {
          return &rows[i];
        }
      }
      return nullptr;
    }

   private:
    const DeltaBatch* batch_;
    size_t pos_ = 0;
  };

  /// Visit every visible row in order.
  template <typename Fn>
  void ForEachRow(Fn&& fn) const {
    Cursor cursor(*this);
    while (const AnnotatedDeltaRow* row = cursor.Next()) fn(*row);
  }

  /// Restrict the batch to visible rows whose bit is set in `keep`, a
  /// bitmap over the BASE rows (borrowed) / the stored rows (owned): the
  /// kernels evaluate a predicate over all base rows into one bitmap and
  /// this intersects it with the current selection (a row is kept iff
  /// visible AND its bit is set). Borrowed stays borrowed — only the
  /// selection bitmap is refined — so filter chains (scan filter,
  /// selection operators, bloom pruning) never copy rows; owned compacts
  /// in place preserving order.
  DeltaBatch FilterWithMask(const BitVector& keep) && {
    if (borrowed()) {
      BitVector refined = keep;
      refined.Resize(base_->size());
      if (has_selection_) refined.IntersectWith(selection_);
      return BorrowedFiltered(base_, std::move(refined));
    }
    std::vector<AnnotatedDeltaRow>& rows = owned_.rows;
    size_t kept = 0;
    for (size_t i = 0; i < rows.size(); ++i) {
      if (!keep.Test(i)) continue;
      if (kept != i) rows[kept] = std::move(rows[i]);
      ++kept;
    }
    rows.resize(kept);
    return std::move(*this);
  }

  /// Deep-copy the visible rows into an owned delta — the copy-on-write
  /// escape hatch for consumers that need materialized rows. Borrowed
  /// batches copy size() rows (counted into `stats` when provided); owned
  /// batches are moved out for free.
  AnnotatedDelta Materialize(MaintainStats* stats = nullptr) &&;

 private:
  const AnnotatedDelta* base_ = nullptr;  ///< non-null iff borrowed
  BitVector selection_;                   ///< valid iff has_selection_
  bool has_selection_ = false;
  size_t visible_ = 0;  ///< cached visible-row count of a borrowed batch
  AnnotatedDelta owned_;
};

/// Per-table annotated base deltas for one maintenance batch — the Δ𝒟
/// passed to the IM (Def. 4.5).
///
/// Each table maps to one DeltaBatch: owned when the context materialized
/// the delta itself (legacy per-sketch fetch, tests), borrowed when the
/// batched maintenance pipeline hands this sketch a view into the round's
/// shared annotated delta (optionally restricted by a push-down selection
/// bitmap). LIFETIME CONTRACT: the shared deltas behind borrowed entries
/// must outlive the context AND every batch the operator chain derives
/// from it during the round (operators return borrowed views into them up
/// to the merge operator); they are never mutated through the views.
struct DeltaContext {
  std::map<std::string, DeltaBatch> batches;
  /// The round's pinned ReadView: every base-table read the operator chain
  /// performs while consuming this context (capture builds, delegated
  /// join round trips, index probes) goes through these snapshots, so the
  /// whole round observes the one frozen watermark its cut was taken at —
  /// even while the ingestion worker publishes concurrently. Null (tests,
  /// the empty fast-forward round) falls back to each table's currently
  /// published snapshot. The view must outlive the context.
  const ReadView* view = nullptr;

  const DeltaBatch* FindBatch(const std::string& table) const {
    auto it = batches.find(table);
    return it == batches.end() ? nullptr : &it->second;
  }
  /// The owned delta slot for `table`, default-constructed on first use
  /// (setup helper for tests and MakeDeltaContext). A table currently
  /// holding a borrowed batch is materialized into an owned one first, so
  /// appends are never silently shadowed by the borrowed view.
  AnnotatedDelta& OwnedFor(const std::string& table);
  bool empty() const;
  /// Total number of visible delta rows across tables.
  size_t TotalRows() const;
};

/// annotate(ΔR, Φ): tag each backend delta record with the fragment its
/// partition-attribute value belongs to (Def. 4.4).
AnnotatedDelta AnnotateTableDelta(const TableDelta& delta,
                                  const PartitionCatalog& catalog);
/// Move-in variant: steals the delta's row tuples instead of copying them
/// (the backend delta is consumed; used by the delta-fetch hot path).
AnnotatedDelta AnnotateTableDelta(TableDelta&& delta,
                                  const PartitionCatalog& catalog);

/// Build a DeltaContext of owned batches from backend deltas.
DeltaContext MakeDeltaContext(const std::vector<TableDelta>& deltas,
                              const PartitionCatalog& catalog);
/// Move-in variant for freshly fetched deltas (avoids row copies).
DeltaContext MakeDeltaContext(std::vector<TableDelta>&& deltas,
                              const PartitionCatalog& catalog);

}  // namespace imp

#endif  // IMP_IMP_DELTA_H_
