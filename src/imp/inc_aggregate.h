// Incremental group-by aggregation (Sec. 5.2.5 / 5.2.6).
//
// Per group g the state is S[g] = (per-function accumulators, CNT, P, F_g)
// where F_g maps each fragment to the number of the group's input tuples
// whose sketch contains it; the group's sketch is {ρ | F_g[ρ] > 0}.
// sum/count/avg share numeric accumulators; min/max keep an ordered
// value -> multiplicity tree (the red-black tree of Sec. 7.1, std::map),
// optionally truncated to the best `minmax_buffer` values (Sec. 7.2
// "Optimizing Minimum, Maximum and Top-k") — when a truncated buffer runs
// dry the operator reports NeedsRecapture and the maintainer rebuilds.
//
// Per batch the operator snapshots each touched group's previous output
// lazily and emits exactly one Δ-(old) / Δ+(new) pair per changed group
// (Sec. 7.1 "To avoid producing multiple delta tuples per group ...").

#ifndef IMP_IMP_INC_AGGREGATE_H_
#define IMP_IMP_INC_AGGREGATE_H_

#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "algebra/plan.h"
#include "imp/inc_operators.h"

namespace imp {

class IncAggregate final : public IncOperator {
 public:
  struct Options {
    /// Keep only the best `minmax_buffer` distinct values per min/max
    /// state; 0 keeps everything (always exact).
    size_t minmax_buffer = 0;
  };

  IncAggregate(std::unique_ptr<IncOperator> child,
               std::vector<ExprPtr> group_exprs, std::vector<AggSpec> aggs,
               Schema output_schema, Options options, MaintainStats* stats);

  Result<AnnotatedRelation> Build(const DeltaContext& ctx) override;
  Result<DeltaBatch> Process(const DeltaContext& ctx) override;
  size_t StateBytes() const override;
  void SaveState(SerdeWriter* writer) const override;
  Status LoadState(SerdeReader* reader) override;

  size_t NumGroups() const { return groups_.size(); }

 private:
  /// Accumulator for one aggregation function within one group.
  struct AggState {
    // sum / count / avg
    int64_t nonnull_count = 0;
    int64_t int_sum = 0;
    double dbl_sum = 0.0;
    bool saw_double = false;
    // min / max: ordered multiset of values; `overflow` counts values
    // dropped by buffer truncation (they are all worse than the buffer's
    // worst retained value).
    std::map<Value, int64_t> values;
    int64_t overflow = 0;

    size_t MemoryBytes() const;
  };

  struct GroupState {
    int64_t count = 0;  // CNT: total multiplicity of the group's input rows
    std::vector<AggState> aggs;
    std::map<size_t, int64_t> frag_counts;  // F_g: fragment -> count

    BitVector SketchOf() const;
    size_t MemoryBytes() const;
  };

  using GroupMap =
      std::unordered_map<Tuple, GroupState, TupleHash, TupleEq>;

  Tuple GroupKeyOf(const Tuple& row) const;
  /// Fold one input row (signed mult) into `state`.
  Status ApplyRow(GroupState* state, const Tuple& row,
                  const BitVector& sketch, int64_t mult);
  /// The per-value half of ApplyRow: fold one non-NULL aggregate argument
  /// (shared by the row loop and the columnar Build's reboxed escape hatch).
  Status ApplyAggValue(AggState* agg, const AggSpec& spec, const Value& v,
                       int64_t mult);
  /// Columnar Build fast path: when the child is a filterless scan and
  /// every group key / aggregate argument is a plain column, aggregate
  /// straight off the chunk columns — unboxed int64/double inner loops,
  /// raw-bounds fragment counting, no per-row Tuple or sketch
  /// materialization. Group state, insertion order and output equal the
  /// row path's by construction. Returns false (with `result` untouched)
  /// when the plan shape or the source does not qualify.
  Result<bool> TryBuildColumnar(const DeltaContext& ctx,
                                AnnotatedRelation* result);
  /// Shared Build tail: the no-GROUP-BY empty group plus output emission.
  AnnotatedRelation FinalizeBuildOutput();
  Status ApplyMinMax(AggState* agg, const AggSpec& spec, const Value& v,
                     int64_t mult);
  /// Current output tuple of a group (key columns then aggregate values).
  Tuple OutputRow(const Tuple& key, const GroupState& state) const;
  bool GroupExists(const GroupState& state) const { return state.count > 0; }

  std::vector<ExprPtr> group_exprs_;
  std::vector<AggSpec> aggs_;
  Schema output_schema_;
  Options options_;
  MaintainStats* stats_;
  GroupMap groups_;
  /// Pre-resolved column access, so the per-row inner loop copies cells
  /// instead of recursing through virtual Expr::Eval (ColumnRefExpr::Eval
  /// is exactly row[index]): group-key column indices when every group
  /// expr is a plain ColumnRef, and per-aggregate argument columns (-1 =
  /// general expr / no arg, falls back to Expr::Eval).
  bool key_cols_valid_ = false;
  std::vector<size_t> key_cols_;
  std::vector<int> agg_cols_;
};

}  // namespace imp

#endif  // IMP_IMP_INC_AGGREGATE_H_
