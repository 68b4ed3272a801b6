// Incremental join / cross product (Sec. 5.2.4) with backend delegation and
// bloom-filter pruning (Sec. 7.2).
//
// Under the signed-multiplicity encoding the paper's four-case rule is the
// post-state identity
//     Δ(R ⋈ S) = ΔR ⋈ S_new  +  R_new ⋈ ΔS  −  ΔR ⋈ ΔS,
// where the ΔR ⋈ S_new / R_new ⋈ ΔS terms are delegated to the backend
// ("executed by sending Δℛ to the database and evaluating the join in the
// database"). Both sides keep bloom filters over their join keys; delta
// rows whose keys cannot have partners are pruned before the round trip,
// and an empty pruned delta skips the round trip entirely.

#ifndef IMP_IMP_INC_JOIN_H_
#define IMP_IMP_INC_JOIN_H_

#include <memory>
#include <optional>
#include <vector>

#include "algebra/chain.h"
#include "algebra/plan.h"
#include "common/bloom_filter.h"
#include "imp/inc_operators.h"

namespace imp {

class IncJoin final : public IncOperator {
 public:
  struct Options {
    bool use_bloom = true;  ///< enable the Sec. 7.2 bloom-filter pruning
  };

  IncJoin(std::unique_ptr<IncOperator> left, std::unique_ptr<IncOperator> right,
          PlanPtr left_plan, PlanPtr right_plan,
          std::vector<JoinNode::KeyPair> keys, ExprPtr residual,
          const Database* db, const PartitionCatalog* catalog, Options options,
          MaintainStats* stats);

  Result<AnnotatedRelation> Build(const DeltaContext& ctx) override;
  Result<DeltaBatch> Process(const DeltaContext& ctx) override;
  size_t StateBytes() const override;
  void SaveState(SerdeWriter* writer) const override;
  Status LoadState(SerdeReader* reader) override;

 private:
  /// Evaluate one side's subplan on the backend under annotated semantics
  /// (this is the delegated-round-trip path). Reads the round's pinned
  /// view when present, so the side is evaluated at the round's cut.
  Result<AnnotatedRelation> EvalSide(const PlanPtr& side_plan,
                                     const ReadView* view);

  /// Index fast path for the delegated join: when the probed side is a
  /// stateless chain over one scan and the (single) join key maps to a
  /// scan column, the backend answers Δ ⋈ side via a hash-index probe per
  /// delta row instead of scanning the side (the index lives on the pinned
  /// snapshot, so probes are consistent at the round's cut). Returns true
  /// when handled.
  bool TryIndexedJoin(const DeltaBatch& delta, bool delta_is_left,
                      int sign, const ReadView* view, AnnotatedDelta* out);

  /// Hash of a delta/annotated row's join key on the given side.
  uint64_t KeyHash(const Tuple& row, bool left_side) const;

  /// Drop delta rows whose key misses `filter`; counts pruned rows.
  /// Borrowed batches stay borrowed (bitmap refinement, no copies).
  DeltaBatch PruneByBloom(DeltaBatch delta, const BloomFilter& filter,
                          bool left_side);

  /// delta ⋈ side with sign from delta, annotations unioned.
  void JoinDeltaWithSide(const DeltaBatch& delta,
                         const AnnotatedRelation& side, bool delta_is_left,
                         int sign, AnnotatedDelta* out) const;

  /// dl ⋈ dr with sign = -(ml * mr).
  void JoinDeltaWithDelta(const DeltaBatch& dl, const DeltaBatch& dr,
                          AnnotatedDelta* out) const;

  void EmitJoined(const Tuple& l, const BitVector& lsk, const Tuple& r,
                  const BitVector& rsk, int64_t mult, AnnotatedDelta* out) const;

  PlanPtr left_plan_;
  PlanPtr right_plan_;
  std::vector<JoinNode::KeyPair> keys_;
  ExprPtr residual_;
  const Database* db_;
  const PartitionCatalog* catalog_;
  Options options_;
  MaintainStats* stats_;
  std::unique_ptr<BloomFilter> left_bloom_;   // keys present on the left
  std::unique_ptr<BloomFilter> right_bloom_;  // keys present on the right
  // Index fast-path metadata per side (see TryIndexedJoin).
  std::optional<StatelessChain> left_chain_;
  std::optional<StatelessChain> right_chain_;
  int left_index_col_ = -1;   // scan column backing the left join key
  int right_index_col_ = -1;  // scan column backing the right join key
};

}  // namespace imp

#endif  // IMP_IMP_INC_JOIN_H_
