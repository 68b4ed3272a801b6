// Unit tests for the incremental operators of Sec. 5, including the paper's
// worked examples (Ex. 5.1 / Fig. 5 and Ex. 5.2).

#include <gtest/gtest.h>

#include "imp/inc_aggregate.h"
#include "imp/inc_join.h"
#include "imp/inc_operators.h"
#include "imp/inc_topk.h"
#include "test_util.h"

namespace imp {
namespace {


/// Run an operator on a context and materialize its output batch so tests
/// can inspect rows; errors pass through.
template <typename Op>
Result<AnnotatedDelta> ProcessToDelta(Op& op, const DeltaContext& ctx) {
  Result<DeltaBatch> batch = op.Process(ctx);
  if (!batch.ok()) return batch.status();
  return std::move(batch).value().Materialize();
}

/// One-column table "t" with an equi-width partition on that column.
class SingleTableFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    Schema schema;
    schema.AddColumn("g", ValueType::kInt);  // group key
    schema.AddColumn("v", ValueType::kInt);  // value
    IMP_CHECK(db_.CreateTable("t", schema).ok());
    // Partition on v: 4 fragments over [0, 400).
    IMP_CHECK(catalog_
                  .Register(RangePartition(
                      "t", "v", 1,
                      {Value::Int(0), Value::Int(100), Value::Int(200),
                       Value::Int(300), Value::Int(400)}))
                  .ok());
  }

  std::unique_ptr<IncScan> NewScan(ExprPtr filter = nullptr) {
    return std::make_unique<IncScan>("t", std::move(filter), &db_, &catalog_,
                                     db_.GetTable("t")->schema(), &stats_);
  }

  /// Insert rows as a versioned statement and return the annotated context.
  DeltaContext Apply(const std::vector<Tuple>& inserts,
                     const std::vector<Tuple>& deletes = {}) {
    uint64_t from = db_.CurrentVersion();
    if (!inserts.empty()) IMP_CHECK(db_.Insert("t", inserts).ok());
    for (const Tuple& d : deletes) {
      IMP_CHECK(Delete(&db_, "t",
                       "g = " + d[0].ToString() + " AND v = " + d[1].ToString(),
                       1)
                    .ok());
    }
    TableDelta delta = db_.ScanDelta("t", from, db_.CurrentVersion());
    return MakeDeltaContext({delta}, catalog_);
  }

  static Tuple Row(int64_t g, int64_t v) {
    return Tuple{Value::Int(g), Value::Int(v)};
  }

  Database db_;
  PartitionCatalog catalog_;
  MaintainStats stats_;
};

// ---- IncScan / IncSelect / IncProject ---------------------------------------

TEST_F(SingleTableFixture, ScanPassesAnnotatedDeltaThrough) {
  auto scan = NewScan();
  DeltaContext ctx = Apply({Row(1, 150)});
  auto out = ProcessToDelta(*scan, ctx);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out.value().size(), 1u);
  EXPECT_EQ(out.value().rows[0].mult, 1);
  EXPECT_EQ(out.value().rows[0].sketch.SetBits(), std::vector<size_t>{1});
}

TEST_F(SingleTableFixture, ScanAppliesScanFilter) {
  ExprPtr filter = MakeBinary(BinaryOp::kLt, MakeColumnRef(1, "v", ValueType::kInt),
                              MakeLiteral(Value::Int(100)));
  auto scan = NewScan(filter);
  DeltaContext ctx = Apply({Row(1, 50), Row(2, 150)});
  auto out = ProcessToDelta(*scan, ctx);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out.value().size(), 1u);
  EXPECT_EQ(out.value().rows[0].row[1], Value::Int(50));
}

TEST_F(SingleTableFixture, SelectFiltersDeltas) {
  ExprPtr pred = MakeBinary(BinaryOp::kGt, MakeColumnRef(0, "g", ValueType::kInt),
                            MakeLiteral(Value::Int(3)));
  IncSelect select(NewScan(), pred);
  DeltaContext ctx = Apply({Row(5, 10), Row(1, 20)});
  auto out = ProcessToDelta(select, ctx);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out.value().size(), 1u);
  EXPECT_EQ(out.value().rows[0].row[0], Value::Int(5));
}

TEST_F(SingleTableFixture, ProjectMapsTuplesKeepsSketch) {
  std::vector<ExprPtr> exprs = {
      MakeBinary(BinaryOp::kMul, MakeColumnRef(1, "v", ValueType::kInt),
                 MakeLiteral(Value::Int(2)))};
  Schema out_schema;
  out_schema.AddColumn("v2", ValueType::kInt);
  IncProject project(NewScan(), exprs, out_schema);
  DeltaContext ctx = Apply({Row(1, 150)});
  auto out = ProcessToDelta(project, ctx);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out.value().size(), 1u);
  EXPECT_EQ(out.value().rows[0].row[0], Value::Int(300));
  EXPECT_EQ(out.value().rows[0].sketch.SetBits(), std::vector<size_t>{1});
}

// ---- IncMerge (μ, Ex. 5.2) ----------------------------------------------------

TEST(IncMergeTest, Example52DeletionDropsFragment) {
  // S[ρ1]=1, S[ρ2]=3 via: t1{ρ2}, t2{ρ2}, t3{ρ1,ρ2}.
  IncMerge merge(2);
  AnnotatedRelation rel;
  AnnotatedRow t1, t2, t3;
  t1.sketch.Resize(2);
  t1.sketch.Set(1);
  t2.sketch = t1.sketch;
  t3.sketch.Resize(2);
  t3.sketch.Set(0);
  t3.sketch.Set(1);
  rel.rows = {t1, t2, t3};
  merge.Build(rel);
  EXPECT_EQ(merge.CounterFor(0), 1);
  EXPECT_EQ(merge.CounterFor(1), 3);

  // Process Δ-⟨t3, {ρ1, ρ2}⟩: count of ρ1 drops to 0 => remove ρ1.
  AnnotatedDelta delta;
  delta.Append(Tuple{}, t3.sketch, -1);
  SketchDelta out = merge.Process(delta);
  EXPECT_TRUE(out.added.empty());
  EXPECT_EQ(out.removed, std::vector<size_t>{0});
  EXPECT_EQ(merge.CounterFor(0), 0);
  EXPECT_EQ(merge.CounterFor(1), 2);
}

TEST(IncMergeTest, TransitionsComputedPerBatch) {
  IncMerge merge(1);
  // Insert then delete the same fragment within one batch: no transition.
  AnnotatedDelta delta;
  BitVector sk(1);
  sk.Set(0);
  delta.Append(Tuple{}, sk, 1);
  delta.Append(Tuple{}, sk, -1);
  SketchDelta out = merge.Process(delta);
  EXPECT_TRUE(out.empty());
}

TEST(IncMergeTest, ZeroToNonzeroAddsFragment) {
  IncMerge merge(3);
  AnnotatedDelta delta;
  BitVector sk(3);
  sk.Set(2);
  delta.Append(Tuple{}, sk, 2);
  SketchDelta out = merge.Process(delta);
  EXPECT_EQ(out.added, std::vector<size_t>{2});
  EXPECT_TRUE(merge.CurrentSketch().Test(2));
}

// ---- IncAggregate ---------------------------------------------------------------

class AggFixture : public SingleTableFixture {
 protected:
  std::unique_ptr<IncAggregate> NewAgg(
      std::vector<AggSpec> aggs, IncAggregate::Options options = {}) {
    std::vector<ExprPtr> groups = {MakeColumnRef(0, "g", ValueType::kInt)};
    Schema out;
    out.AddColumn("g", ValueType::kInt);
    for (const AggSpec& a : aggs) out.AddColumn(a.name, a.OutputType());
    return std::make_unique<IncAggregate>(NewScan(), groups, std::move(aggs),
                                          out, options, &stats_);
  }

  static AggSpec Sum() {
    return AggSpec{AggFunc::kSum, MakeColumnRef(1, "v", ValueType::kInt), "s"};
  }
  static AggSpec Cnt() { return AggSpec{AggFunc::kCount, nullptr, "n"}; }
  static AggSpec Avg() {
    return AggSpec{AggFunc::kAvg, MakeColumnRef(1, "v", ValueType::kInt), "a"};
  }
  static AggSpec Min() {
    return AggSpec{AggFunc::kMin, MakeColumnRef(1, "v", ValueType::kInt), "m"};
  }
  static AggSpec Max() {
    return AggSpec{AggFunc::kMax, MakeColumnRef(1, "v", ValueType::kInt), "M"};
  }
};

TEST_F(AggFixture, BuildComputesInitialGroups) {
  ASSERT_TRUE(db_.BulkLoad("t", {Row(1, 10), Row(1, 30), Row(2, 50)}).ok());
  auto agg = NewAgg({Sum(), Cnt()});
  auto rel = agg->Build(DeltaContext{});
  ASSERT_TRUE(rel.ok());
  ASSERT_EQ(rel.value().size(), 2u);
  for (const AnnotatedRow& r : rel.value().rows) {
    if (r.row[0] == Value::Int(1)) {
      EXPECT_EQ(r.row[1], Value::Int(40));
      EXPECT_EQ(r.row[2], Value::Int(2));
      EXPECT_EQ(r.sketch.SetBits(), std::vector<size_t>{0});  // v=10,30 in ρ0
    }
  }
}

TEST_F(AggFixture, UpdateExistingGroupEmitsDeleteInsertPair) {
  ASSERT_TRUE(db_.BulkLoad("t", {Row(1, 10)}).ok());
  auto agg = NewAgg({Sum()});
  ASSERT_TRUE(agg->Build(DeltaContext{}).ok());
  DeltaContext ctx = Apply({Row(1, 150)});
  auto out = ProcessToDelta(*agg, ctx);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out.value().size(), 2u);
  const auto& rows = out.value().rows;
  // Δ-(1, 10) with sketch {ρ0}; Δ+(1, 160) with sketch {ρ0, ρ1}.
  EXPECT_EQ(rows[0].mult, -1);
  EXPECT_EQ(rows[0].row, (Tuple{Value::Int(1), Value::Int(10)}));
  EXPECT_EQ(rows[0].sketch.SetBits(), std::vector<size_t>{0});
  EXPECT_EQ(rows[1].mult, 1);
  EXPECT_EQ(rows[1].row, (Tuple{Value::Int(1), Value::Int(160)}));
  EXPECT_EQ(rows[1].sketch.SetBits(), (std::vector<size_t>{0, 1}));
}

TEST_F(AggFixture, NewGroupEmitsOnlyInsert) {
  auto agg = NewAgg({Sum()});
  ASSERT_TRUE(agg->Build(DeltaContext{}).ok());
  DeltaContext ctx = Apply({Row(7, 50)});
  auto out = ProcessToDelta(*agg, ctx);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out.value().size(), 1u);
  EXPECT_EQ(out.value().rows[0].mult, 1);
  EXPECT_EQ(out.value().rows[0].row, (Tuple{Value::Int(7), Value::Int(50)}));
}

TEST_F(AggFixture, DeletedGroupEmitsOnlyDelete) {
  ASSERT_TRUE(db_.BulkLoad("t", {Row(3, 20)}).ok());
  auto agg = NewAgg({Sum()});
  ASSERT_TRUE(agg->Build(DeltaContext{}).ok());
  DeltaContext ctx = Apply({}, {Row(3, 20)});
  auto out = ProcessToDelta(*agg, ctx);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out.value().size(), 1u);
  EXPECT_EQ(out.value().rows[0].mult, -1);
  EXPECT_EQ(out.value().rows[0].row, (Tuple{Value::Int(3), Value::Int(20)}));
  EXPECT_EQ(agg->NumGroups(), 0u);
}

TEST_F(AggFixture, OnePairPerGroupPerBatch) {
  ASSERT_TRUE(db_.BulkLoad("t", {Row(1, 10)}).ok());
  auto agg = NewAgg({Sum()});
  ASSERT_TRUE(agg->Build(DeltaContext{}).ok());
  // Many updates to one group within a batch: exactly one Δ-/Δ+ pair
  // (Sec. 7.1 lazy per-batch group snapshots).
  DeltaContext ctx = Apply({Row(1, 1), Row(1, 2), Row(1, 3), Row(1, 4)});
  auto out = ProcessToDelta(*agg, ctx);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value().size(), 2u);
}

TEST_F(AggFixture, NoChangeEmitsNothing) {
  ASSERT_TRUE(db_.BulkLoad("t", {Row(1, 10)}).ok());
  auto agg = NewAgg({Cnt()});
  ASSERT_TRUE(agg->Build(DeltaContext{}).ok());
  // Insert and delete the same row in one batch: group state net-unchanged.
  DeltaContext ctx = Apply({Row(1, 10)}, {Row(1, 10)});
  auto out = ProcessToDelta(*agg, ctx);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out.value().empty());
}

TEST_F(AggFixture, AvgAndCountMaintained) {
  ASSERT_TRUE(db_.BulkLoad("t", {Row(1, 10), Row(1, 20)}).ok());
  auto agg = NewAgg({Avg(), Cnt()});
  ASSERT_TRUE(agg->Build(DeltaContext{}).ok());
  DeltaContext ctx = Apply({Row(1, 60)});
  auto out = ProcessToDelta(*agg, ctx);
  ASSERT_TRUE(out.ok());
  const auto& rows = out.value().rows;
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[1].row, (Tuple{Value::Int(1), Value::Double(30.0),
                                Value::Int(3)}));
}

TEST_F(AggFixture, MinMaxMaintainedExactlyWithoutBuffer) {
  ASSERT_TRUE(db_.BulkLoad("t", {Row(1, 10), Row(1, 20), Row(1, 30)}).ok());
  auto agg = NewAgg({Min(), Max()});
  ASSERT_TRUE(agg->Build(DeltaContext{}).ok());
  // Delete the current minimum; new min must surface.
  DeltaContext ctx = Apply({}, {Row(1, 10)});
  auto out = ProcessToDelta(*agg, ctx);
  ASSERT_TRUE(out.ok());
  const auto& rows = out.value().rows;
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[1].row, (Tuple{Value::Int(1), Value::Int(20), Value::Int(30)}));
}

TEST_F(AggFixture, MinBufferTruncationTriggersRecapture) {
  // Buffer of 2 smallest values; deleting both exhausts it.
  ASSERT_TRUE(
      db_.BulkLoad("t", {Row(1, 10), Row(1, 20), Row(1, 30), Row(1, 40)}).ok());
  IncAggregate::Options opts;
  opts.minmax_buffer = 2;
  auto agg = NewAgg({Min()}, opts);
  ASSERT_TRUE(agg->Build(DeltaContext{}).ok());
  // Deleting a value beyond the buffer only adjusts the overflow count.
  auto out1 = ProcessToDelta(*agg, Apply({}, {Row(1, 40)}));
  ASSERT_TRUE(out1.ok());
  EXPECT_TRUE(out1.value().empty());  // min unchanged
  // Deleting the two retained values exhausts the buffer -> recapture.
  auto out2 = ProcessToDelta(*agg, Apply({}, {Row(1, 10), Row(1, 20)}));
  ASSERT_FALSE(out2.ok());
  EXPECT_EQ(out2.status().code(), StatusCode::kNeedsRecapture);
}

TEST_F(AggFixture, GlobalAggregateAlwaysHasOneRow) {
  std::vector<ExprPtr> no_groups;
  Schema out;
  out.AddColumn("s", ValueType::kInt);
  auto agg = std::make_unique<IncAggregate>(NewScan(), no_groups,
                                            std::vector<AggSpec>{Sum()}, out,
                                            IncAggregate::Options{}, &stats_);
  auto rel = agg->Build(DeltaContext{});
  ASSERT_TRUE(rel.ok());
  ASSERT_EQ(rel.value().size(), 1u);
  EXPECT_TRUE(rel.value().rows[0].row[0].is_null());  // SUM over empty = NULL
  auto out_delta = ProcessToDelta(*agg, Apply({Row(1, 5)}));
  ASSERT_TRUE(out_delta.ok());
  ASSERT_EQ(out_delta.value().size(), 2u);  // Δ-(NULL) Δ+(5)
}

// ---- IncTopK ---------------------------------------------------------------------

class TopKFixture : public SingleTableFixture {
 protected:
  std::unique_ptr<IncTopK> NewTopK(size_t k, IncTopK::Options options = {}) {
    // Order by v ascending.
    std::vector<SortSpec> sorts = {SortSpec{1, true}};
    return std::make_unique<IncTopK>(NewScan(), sorts, k, options, &stats_);
  }
};

TEST_F(TopKFixture, BuildReturnsTopK) {
  ASSERT_TRUE(db_.BulkLoad("t", {Row(1, 30), Row(2, 10), Row(3, 20),
                                 Row(4, 40)}).ok());
  auto topk = NewTopK(2);
  auto rel = topk->Build(DeltaContext{});
  ASSERT_TRUE(rel.ok());
  ASSERT_EQ(rel.value().size(), 2u);
  EXPECT_EQ(rel.value().rows[0].row[1], Value::Int(10));
  EXPECT_EQ(rel.value().rows[1].row[1], Value::Int(20));
}

TEST_F(TopKFixture, InsertIntoTopKReEmits) {
  ASSERT_TRUE(db_.BulkLoad("t", {Row(1, 30), Row(2, 10)}).ok());
  auto topk = NewTopK(2);
  ASSERT_TRUE(topk->Build(DeltaContext{}).ok());
  auto out = ProcessToDelta(*topk, Apply({Row(9, 5)}));
  ASSERT_TRUE(out.ok());
  // Δ- old top-2 {10, 30}, Δ+ new top-2 {5, 10}: consolidated, 30 leaves
  // and 5 enters.
  int64_t net_5 = 0, net_30 = 0;
  for (const auto& r : out.value().rows) {
    if (r.row[1] == Value::Int(5)) net_5 += r.mult;
    if (r.row[1] == Value::Int(30)) net_30 += r.mult;
  }
  EXPECT_EQ(net_5, 1);
  EXPECT_EQ(net_30, -1);
}

TEST_F(TopKFixture, IrrelevantInsertEmitsNothing) {
  ASSERT_TRUE(db_.BulkLoad("t", {Row(1, 10), Row(2, 20)}).ok());
  auto topk = NewTopK(2);
  ASSERT_TRUE(topk->Build(DeltaContext{}).ok());
  auto out = ProcessToDelta(*topk, Apply({Row(9, 300)}));
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out.value().empty());
}

TEST_F(TopKFixture, DeletionPromotesNextRow) {
  ASSERT_TRUE(db_.BulkLoad("t", {Row(1, 10), Row(2, 20), Row(3, 30)}).ok());
  auto topk = NewTopK(2);
  ASSERT_TRUE(topk->Build(DeltaContext{}).ok());
  auto out = ProcessToDelta(*topk, Apply({}, {Row(1, 10)}));
  ASSERT_TRUE(out.ok());
  int64_t net_10 = 0, net_30 = 0;
  for (const auto& r : out.value().rows) {
    if (r.row[1] == Value::Int(10)) net_10 += r.mult;
    if (r.row[1] == Value::Int(30)) net_30 += r.mult;
  }
  EXPECT_EQ(net_10, -1);
  EXPECT_EQ(net_30, 1);
}

TEST_F(TopKFixture, BufferDropsTailAndCountsDropped) {
  ASSERT_TRUE(db_.BulkLoad("t", {Row(1, 10), Row(2, 20), Row(3, 30),
                                 Row(4, 40), Row(5, 50)}).ok());
  IncTopK::Options opts;
  opts.buffer = 3;
  auto topk = NewTopK(2, opts);
  ASSERT_TRUE(topk->Build(DeltaContext{}).ok());
  EXPECT_LE(topk->StoredCount(), 3 + 1);
  EXPECT_GE(topk->DroppedCount(), 1);
}

TEST_F(TopKFixture, BufferExhaustionTriggersRecapture) {
  ASSERT_TRUE(db_.BulkLoad("t", {Row(1, 10), Row(2, 20), Row(3, 30),
                                 Row(4, 40), Row(5, 50)}).ok());
  IncTopK::Options opts;
  opts.buffer = 2;
  auto topk = NewTopK(2, opts);
  ASSERT_TRUE(topk->Build(DeltaContext{}).ok());
  // Delete the retained prefix; with dropped rows pending this must force
  // a recapture rather than returning a wrong top-k.
  auto out = ProcessToDelta(*topk, Apply({}, {Row(1, 10), Row(2, 20)}));
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kNeedsRecapture);
}

// ---- IncJoin ---------------------------------------------------------------------

class JoinFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    LoadFig5Example(&db_);
    IMP_CHECK(catalog_.Register(Fig5PartitionR()).ok());
    IMP_CHECK(catalog_.Register(Fig5PartitionS()).ok());
  }

  /// Join (σ_{a>3} r) ⋈_{b=d} s as in Fig. 5. With `computed_keys`, each
  /// side projects its key through `+ 0`, so no side maps the key to a base
  /// column and every delegated round trip evaluates the side plan instead
  /// of probing the point index.
  std::unique_ptr<IncJoin> NewJoin(bool use_bloom,
                                   bool computed_keys = false) {
    ExprPtr a_gt_3 = MakeBinary(BinaryOp::kGt,
                                MakeColumnRef(0, "a", ValueType::kInt),
                                MakeLiteral(Value::Int(3)));
    PlanPtr left_plan = MakeSelect(
        MakeScan("r", db_.GetTable("r")->schema()), a_gt_3);
    PlanPtr right_plan = MakeScan("s", db_.GetTable("s")->schema());

    auto left_scan = std::make_unique<IncScan>(
        "r", nullptr, &db_, &catalog_, db_.GetTable("r")->schema(), &stats_);
    std::unique_ptr<IncOperator> left_op =
        std::make_unique<IncSelect>(std::move(left_scan), a_gt_3);
    std::unique_ptr<IncOperator> right_op = std::make_unique<IncScan>(
        "s", nullptr, &db_, &catalog_, db_.GetTable("s")->schema(), &stats_);
    if (computed_keys) {
      auto plus_zero = [](PlanPtr plan, std::unique_ptr<IncOperator>* op,
                          const char* id, const char* key) {
        std::vector<ExprPtr> exprs = {
            MakeColumnRef(0, id, ValueType::kInt),
            MakeBinary(BinaryOp::kAdd, MakeColumnRef(1, key, ValueType::kInt),
                       MakeLiteral(Value::Int(0)))};
        PlanPtr projected = MakeProject(plan, exprs, {id, key});
        *op = std::make_unique<IncProject>(std::move(*op), exprs,
                                           projected->output_schema());
        return projected;
      };
      left_plan = plus_zero(left_plan, &left_op, "a", "b");
      right_plan = plus_zero(right_plan, &right_op, "c", "d");
    }

    IncJoin::Options opts;
    opts.use_bloom = use_bloom;
    // b (index 1 of left output) = d (index 1 of right).
    return std::make_unique<IncJoin>(
        std::move(left_op), std::move(right_op), left_plan, right_plan,
        std::vector<JoinNode::KeyPair>{{1, 1}}, nullptr, &db_, &catalog_,
        opts, &stats_);
  }

  DeltaContext InsertR(int64_t a, int64_t b) {
    uint64_t from = db_.CurrentVersion();
    IMP_CHECK(db_.Insert("r", {{Value::Int(a), Value::Int(b)}}).ok());
    return MakeDeltaContext({db_.ScanDelta("r", from, db_.CurrentVersion())},
                            catalog_);
  }

  Database db_;
  PartitionCatalog catalog_;
  MaintainStats stats_;
};

TEST_F(JoinFixture, Fig5DeltaJoin) {
  auto join = NewJoin(/*use_bloom=*/true);
  ASSERT_TRUE(join->Build(DeltaContext{}).ok());
  // Δ+(5, 8): joins s tuple (7, 8); output Δ+⟨(5,8,7,8), {f1, g2}⟩.
  auto out = ProcessToDelta(*join, InsertR(5, 8));
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out.value().size(), 1u);
  const AnnotatedDeltaRow& row = out.value().rows[0];
  EXPECT_EQ(row.mult, 1);
  EXPECT_EQ(row.row, (Tuple{Value::Int(5), Value::Int(8), Value::Int(7),
                            Value::Int(8)}));
  // f1 = global 0, g2 = global 3.
  EXPECT_EQ(row.sketch.SetBits(), (std::vector<size_t>{0, 3}));
}

TEST_F(JoinFixture, BloomSkipsRoundTripForPartnerlessDelta) {
  auto join = NewJoin(/*use_bloom=*/true);
  ASSERT_TRUE(join->Build(DeltaContext{}).ok());
  size_t trips_before = stats_.join_round_trips;
  // b=999 has no partner in s ({d=9, d=8}); the bloom filter prunes it and
  // the backend round trip is skipped entirely (Sec. 7.2).
  auto out = ProcessToDelta(*join, InsertR(5, 999));
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out.value().empty());
  EXPECT_EQ(stats_.join_round_trips, trips_before);
  EXPECT_GE(stats_.bloom_pruned_rows, 1u);
}

TEST_F(JoinFixture, WithoutBloomRoundTripHappens) {
  auto join = NewJoin(/*use_bloom=*/false);
  ASSERT_TRUE(join->Build(DeltaContext{}).ok());
  size_t trips_before = stats_.join_round_trips;
  auto out = ProcessToDelta(*join, InsertR(5, 999));
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out.value().empty());
  EXPECT_EQ(stats_.join_round_trips, trips_before + 1);
}

TEST_F(JoinFixture, DeltaDeltaTermNotDoubleCounted) {
  auto join = NewJoin(/*use_bloom=*/true);
  ASSERT_TRUE(join->Build(DeltaContext{}).ok());
  // Insert matching rows on BOTH sides in one batch. The result must count
  // the new pair exactly once (ΔR⋈S_new + R_new⋈ΔS − ΔR⋈ΔS).
  uint64_t from = db_.CurrentVersion();
  ASSERT_TRUE(db_.Insert("r", {{Value::Int(4), Value::Int(12)}}).ok());
  ASSERT_TRUE(db_.Insert("s", {{Value::Int(6), Value::Int(12)}}).ok());
  DeltaContext ctx = MakeDeltaContext(
      {db_.ScanDelta("r", from, db_.CurrentVersion()),
       db_.ScanDelta("s", from, db_.CurrentVersion())},
      catalog_);
  auto out = ProcessToDelta(*join, ctx);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out.value().size(), 1u);
  EXPECT_EQ(out.value().rows[0].mult, 1);
  EXPECT_EQ(out.value().rows[0].row,
            (Tuple{Value::Int(4), Value::Int(12), Value::Int(6),
                   Value::Int(12)}));
}

TEST_F(JoinFixture, NullKeyDeltaJoinsNothingOnEitherPath) {
  // r and s each hold a row whose join key is NULL, so the bloom filters
  // alone would pass NULL-key deltas. A NULL key equals nothing, itself
  // included: a NULL-key delta on either side, alone or with one on the
  // other side in the same batch, joins nothing, through the point index
  // (direct keys) and through side evaluation (computed keys). With bloom
  // filters it is pruned before any delegated join; without them it takes
  // the round trip, and the delegated join must still emit nothing.
  ASSERT_TRUE(db_.Insert("r", {{Value::Int(5), Value::Null()}}).ok());
  ASSERT_TRUE(db_.Insert("s", {{Value::Int(3), Value::Null()}}).ok());
  auto insert = [&](const std::vector<std::pair<std::string, Tuple>>& rows) {
    uint64_t from = db_.CurrentVersion();
    for (const auto& [table, row] : rows) {
      IMP_CHECK(db_.Insert(table, {row}).ok());
    }
    return MakeDeltaContext({db_.ScanDelta("r", from, db_.CurrentVersion()),
                             db_.ScanDelta("s", from, db_.CurrentVersion())},
                            catalog_);
  };
  for (bool use_bloom : {true, false}) {
    for (bool computed : {false, true}) {
      SCOPED_TRACE(std::string(use_bloom ? "bloom, " : "no bloom, ") +
                   (computed ? "side evaluation" : "point index"));
      stats_ = MaintainStats{};
      auto join = NewJoin(use_bloom, computed);
      ASSERT_TRUE(join->Build(DeltaContext{}).ok());
      const Tuple r_null = {Value::Int(7), Value::Null()};
      const Tuple s_null = {Value::Int(4), Value::Null()};
      for (const auto& rows :
           std::vector<std::vector<std::pair<std::string, Tuple>>>{
               {{"r", r_null}},
               {{"s", s_null}},
               {{"r", r_null}, {"s", s_null}}}) {
        auto out = ProcessToDelta(*join, insert(rows));
        ASSERT_TRUE(out.ok());
        EXPECT_TRUE(out.value().empty()) << out.value().rows.size() << " rows";
      }
      if (use_bloom) {
        EXPECT_EQ(stats_.join_round_trips, 0u);
        EXPECT_EQ(stats_.index_fallback_scans, 0u);
        EXPECT_EQ(stats_.bloom_pruned_rows, 4u);
      } else {
        EXPECT_EQ(stats_.join_round_trips, 4u);
        EXPECT_EQ(stats_.index_fallback_scans, computed ? 4u : 0u);
      }
    }
  }
}

TEST_F(JoinFixture, DeletionProducesNegativeDelta) {
  auto join = NewJoin(/*use_bloom=*/true);
  ASSERT_TRUE(join->Build(DeltaContext{}).ok());
  uint64_t from = db_.CurrentVersion();
  ASSERT_TRUE(Delete(&db_, "r", "a = 9").ok());
  DeltaContext ctx = MakeDeltaContext(
      {db_.ScanDelta("r", from, db_.CurrentVersion())}, catalog_);
  auto out = ProcessToDelta(*join, ctx);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out.value().size(), 1u);
  EXPECT_EQ(out.value().rows[0].mult, -1);
  // (9,9) joined (6,9).
  EXPECT_EQ(out.value().rows[0].row,
            (Tuple{Value::Int(9), Value::Int(9), Value::Int(6),
                   Value::Int(9)}));
}

}  // namespace
}  // namespace imp
