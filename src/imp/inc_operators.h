// Incremental operator interface plus the stateless operators of Sec. 5.2
// (table access, selection, projection) and the merge operator μ (Sec. 5.1).

#ifndef IMP_IMP_INC_OPERATORS_H_
#define IMP_IMP_INC_OPERATORS_H_

#include <memory>
#include <string>
#include <vector>

#include "common/serde.h"
#include "common/status.h"
#include "exec/executor.h"
#include "exec/vector_kernels.h"
#include "expr/expr.h"
#include "imp/delta.h"
#include "sketch/sketch.h"

namespace imp {

class IncScan;

/// Base class of incremental operators. Each operator mirrors one plan node;
/// Process consumes the children's deltas (driven by the operator itself)
/// and produces this operator's output delta, updating internal state.
class IncOperator {
 public:
  virtual ~IncOperator() = default;

  /// Columnar hand-off hook: the scan leaf returns itself so a parent
  /// (e.g. IncAggregate) can read typed chunk columns directly instead of
  /// consuming materialized rows. Everything else: nullptr.
  virtual const IncScan* AsIncScan() const { return nullptr; }

  /// Initialize state from the operator's current (annotated) input and
  /// return the operator's current output — used when a sketch is captured
  /// and its incremental state is built alongside (Sec. 7.1).
  virtual Result<AnnotatedRelation> Build(const DeltaContext&) = 0;

  /// Process one maintenance batch. The returned DeltaBatch may borrow
  /// rows from `ctx` (table access and filters return borrowed views), so
  /// `ctx` — and any shared deltas its entries borrow from — must stay
  /// alive until the result has been consumed.
  virtual Result<DeltaBatch> Process(const DeltaContext& ctx) = 0;

  /// Approximate bytes of operator state (Figs. 13e/f, 15, 17).
  virtual size_t StateBytes() const { return 0; }

  /// Persist this operator's own state (Sec. 2 state persistence).
  /// Stateless operators write nothing.
  virtual void SaveState(SerdeWriter*) const {}
  /// Restore this operator's own state; must mirror SaveState.
  virtual Status LoadState(SerdeReader*) { return Status::OK(); }

  /// Persist / restore the whole operator subtree (pre-order).
  void SaveTree(SerdeWriter* writer) const;
  Status LoadTree(SerdeReader* reader);

  /// Accumulate state bytes over this operator and its children.
  size_t TotalStateBytes() const;

  const std::vector<std::unique_ptr<IncOperator>>& children() const {
    return children_;
  }

 protected:
  explicit IncOperator(std::vector<std::unique_ptr<IncOperator>> children)
      : children_(std::move(children)) {}

  std::vector<std::unique_ptr<IncOperator>> children_;
};

/// Incremental table access (Sec. 5.2.1): returns the annotated delta for
/// its table unmodified (after applying any pushed-down scan filter).
class IncScan final : public IncOperator {
 public:
  IncScan(std::string table, ExprPtr filter, const Database* db,
          const PartitionCatalog* catalog, Schema schema,
          MaintainStats* stats);

  Result<AnnotatedRelation> Build(const DeltaContext&) override;
  Result<DeltaBatch> Process(const DeltaContext& ctx) override;
  const IncScan* AsIncScan() const override { return this; }

  /// Columnar hand-off for a filterless scan: pin the round's snapshot
  /// (`*pinned` keeps it alive when the context has no view) and resolve
  /// the table's annotator, so a parent can aggregate straight off the
  /// chunk columns. False when this scan has a filter or the table does
  /// not exist — callers then fall back to the row-at-a-time Build
  /// contract.
  bool ColumnarSource(const DeltaContext& ctx,
                      std::shared_ptr<const TableSnapshot>* pinned,
                      const TableSnapshot** snap,
                      TableAnnotator* annot) const;

 private:
  std::string table_;
  ExprPtr filter_;
  const Database* db_;
  const PartitionCatalog* catalog_;
  Schema schema_;
  MaintainStats* stats_;
  PredicateKernel kernel_;  ///< compiled once from filter_
};

/// Incremental selection (Sec. 5.2.3): stateless filter on delta tuples.
class IncSelect final : public IncOperator {
 public:
  IncSelect(std::unique_ptr<IncOperator> child, ExprPtr predicate,
            MaintainStats* stats = nullptr);

  Result<AnnotatedRelation> Build(const DeltaContext& ctx) override;
  Result<DeltaBatch> Process(const DeltaContext& ctx) override;

 private:
  ExprPtr predicate_;
  MaintainStats* stats_;
  PredicateKernel kernel_;  ///< compiled once from predicate_
};

/// Incremental projection (Sec. 5.2.2): stateless per-tuple mapping; the
/// sketch is propagated unmodified. When every projection is a plain
/// ColumnRef (the dominant shape), rows are rebuilt by direct cell copies
/// instead of virtual Expr::Eval per cell — ColumnRefExpr::Eval is exactly
/// row[index].
class IncProject final : public IncOperator {
 public:
  IncProject(std::unique_ptr<IncOperator> child, std::vector<ExprPtr> exprs,
             Schema output_schema);

  Result<AnnotatedRelation> Build(const DeltaContext& ctx) override;
  Result<DeltaBatch> Process(const DeltaContext& ctx) override;

 private:
  Tuple ProjectRow(const Tuple& row) const;

  std::vector<ExprPtr> exprs_;
  Schema output_schema_;
  bool proj_cols_valid_ = false;  ///< all exprs_ are ColumnRefs
  std::vector<size_t> proj_cols_;
};

/// Merge operator μ (Sec. 5.1): maintains, for every fragment ρ, the number
/// of result tuples whose sketch contains ρ, and emits a sketch delta when
/// a counter transitions between zero and non-zero.
class IncMerge {
 public:
  explicit IncMerge(size_t total_fragments)
      : counters_(total_fragments, 0) {}

  /// Initialize counters from the query's current annotated result.
  void Build(const AnnotatedRelation& result);

  /// Fold one result delta batch (owned or borrowed); returns the
  /// resulting sketch delta ΔP.
  SketchDelta Process(const DeltaBatch& batch);
  /// Convenience overload for materialized deltas.
  SketchDelta Process(const AnnotatedDelta& delta) {
    return Process(DeltaBatch::Borrowed(&delta));
  }

  /// Sketch implied by the current counters ({ρ | S[ρ] > 0}).
  BitVector CurrentSketch() const;

  int64_t CounterFor(size_t fragment) const {
    return fragment < counters_.size() ? counters_[fragment] : 0;
  }
  size_t StateBytes() const { return counters_.capacity() * sizeof(int64_t); }

  void SaveState(SerdeWriter* writer) const;
  Status LoadState(SerdeReader* reader);

 private:
  std::vector<int64_t> counters_;
};

}  // namespace imp

#endif  // IMP_IMP_INC_OPERATORS_H_
