// Tests for the sketch module: range partitions, the global fragment
// catalog, capture, the use-rewrite, and the safety analysis.

#include <gtest/gtest.h>

#include "exec/executor.h"
#include "sketch/capture.h"
#include "sketch/safety.h"
#include "sketch/use_rewrite.h"
#include "test_util.h"

namespace imp {
namespace {

// ---- RangePartition ---------------------------------------------------------

TEST(RangePartitionTest, FragmentLookup) {
  RangePartition p = SalesPricePartition();
  EXPECT_EQ(p.num_fragments(), 4u);
  EXPECT_EQ(p.FragmentOf(Value::Int(1)), 0u);
  EXPECT_EQ(p.FragmentOf(Value::Int(600)), 0u);
  EXPECT_EQ(p.FragmentOf(Value::Int(601)), 1u);
  EXPECT_EQ(p.FragmentOf(Value::Int(1000)), 1u);
  EXPECT_EQ(p.FragmentOf(Value::Int(1199)), 2u);
  EXPECT_EQ(p.FragmentOf(Value::Int(3875)), 3u);
  EXPECT_EQ(p.FragmentOf(Value::Int(10000)), 3u);
}

TEST(RangePartitionTest, OutOfDomainClamps) {
  RangePartition p = SalesPricePartition();
  EXPECT_EQ(p.FragmentOf(Value::Int(-50)), 0u);
  EXPECT_EQ(p.FragmentOf(Value::Int(99999)), 3u);
}

TEST(RangePartitionTest, EquiWidthInt) {
  RangePartition p =
      RangePartition::EquiWidthInt("t", "a", 0, 0, 99, 10);
  EXPECT_EQ(p.num_fragments(), 10u);
  // Every value maps somewhere and boundaries are monotone.
  size_t prev = 0;
  for (int64_t v = 0; v <= 99; ++v) {
    size_t f = p.FragmentOf(Value::Int(v));
    EXPECT_GE(f, prev);
    prev = f;
  }
  EXPECT_EQ(p.FragmentOf(Value::Int(99)), 9u);
}

TEST(RangePartitionTest, EquiDepthBalances) {
  std::vector<Value> values;
  for (int64_t i = 0; i < 1000; ++i) values.push_back(Value::Int(i * i));
  RangePartition p = RangePartition::EquiDepth("t", "a", 0, values, 10);
  // Count per fragment should be near 100 for each.
  std::vector<size_t> counts(p.num_fragments(), 0);
  for (int64_t i = 0; i < 1000; ++i) {
    counts[p.FragmentOf(Value::Int(i * i))]++;
  }
  for (size_t c : counts) {
    EXPECT_GE(c, 50u);
    EXPECT_LE(c, 201u);
  }
}

TEST(RangePartitionTest, DegenerateSingleValue) {
  std::vector<Value> values(5, Value::Int(7));
  RangePartition p = RangePartition::EquiDepth("t", "a", 0, values, 4);
  EXPECT_GE(p.num_fragments(), 1u);
  EXPECT_EQ(p.FragmentOf(Value::Int(7)), 0u);
}

// ---- PartitionCatalog ---------------------------------------------------------

TEST(PartitionCatalogTest, GlobalFragmentIds) {
  PartitionCatalog catalog;
  ASSERT_TRUE(catalog.Register(Fig5PartitionR()).ok());  // 2 fragments
  ASSERT_TRUE(catalog.Register(Fig5PartitionS()).ok());  // 2 fragments
  EXPECT_EQ(catalog.total_fragments(), 4u);
  EXPECT_EQ(catalog.GlobalFragment("r", 0), 0u);
  EXPECT_EQ(catalog.GlobalFragment("r", 1), 1u);
  EXPECT_EQ(catalog.GlobalFragment("s", 0), 2u);
  EXPECT_EQ(catalog.GlobalFragment("s", 1), 3u);
}

TEST(PartitionCatalogTest, DuplicateRegistrationFails) {
  PartitionCatalog catalog;
  ASSERT_TRUE(catalog.Register(Fig5PartitionR()).ok());
  EXPECT_FALSE(catalog.Register(Fig5PartitionR()).ok());
}

TEST(PartitionCatalogTest, AnnotateRowAndLocalFragments) {
  PartitionCatalog catalog;
  ASSERT_TRUE(catalog.Register(Fig5PartitionR()).ok());
  ASSERT_TRUE(catalog.Register(Fig5PartitionS()).ok());
  BitVector sketch;
  catalog.AnnotateRow("s", {Value::Int(7), Value::Int(8)}, &sketch);
  EXPECT_EQ(sketch.SetBits(), std::vector<size_t>{3});  // g2 globally
  sketch.Set(0);
  EXPECT_EQ(catalog.LocalFragments("s", sketch), std::vector<size_t>{1});
  EXPECT_EQ(catalog.LocalFragments("r", sketch), std::vector<size_t>{0});
}

// ---- Sketch & delta -----------------------------------------------------------

TEST(SketchTest, ApplyDelta) {
  ProvenanceSketch sketch;
  sketch.fragments = BitVector(4);
  sketch.fragments.Set(2);
  SketchDelta delta;
  delta.added = {0};
  delta.removed = {2};
  ProvenanceSketch next = ApplySketchDelta(sketch, delta, 7);
  EXPECT_TRUE(next.fragments.Test(0));
  EXPECT_FALSE(next.fragments.Test(2));
  EXPECT_EQ(next.valid_version, 7u);
  // Original is unchanged (sketches are immutable values).
  EXPECT_TRUE(sketch.fragments.Test(2));
}

// ---- Capture -------------------------------------------------------------------

class CaptureTest : public ::testing::Test {
 protected:
  void SetUp() override {
    LoadSalesExample(&db_);
    IMP_CHECK(catalog_.Register(SalesPricePartition()).ok());
  }
  Database db_;
  PartitionCatalog catalog_;
};

TEST_F(CaptureTest, RunningExampleCapture) {
  CaptureEngine capture(&db_, &catalog_);
  PlanPtr plan = MustBind(db_, kSalesQTop);
  auto sketch = capture.Capture(plan);
  ASSERT_TRUE(sketch.ok());
  // Ex. 1.1: P = {ρ3, ρ4}.
  EXPECT_EQ(sketch.value().fragments.SetBits(), (std::vector<size_t>{2, 3}));
  EXPECT_EQ(sketch.value().valid_version, 0u);
}

TEST_F(CaptureTest, StaleAfterInsertS8) {
  CaptureEngine capture(&db_, &catalog_);
  PlanPtr plan = MustBind(db_, kSalesQTop);
  auto before = capture.Capture(plan);
  ASSERT_TRUE(before.ok());
  // Ex. 1.2: after inserting s8 the accurate sketch gains ρ2.
  ASSERT_TRUE(db_.Insert("sales", {{Value::Int(8), Value::String("HP"),
                                    Value::String("HP ProBook 650 G10"),
                                    Value::Int(1299), Value::Int(1)}})
                  .ok());
  auto after = capture.Capture(plan);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value().fragments.SetBits(), (std::vector<size_t>{1, 2, 3}));
  // The old sketch no longer covers the accurate one: it became stale.
  EXPECT_FALSE(before.value().Covers(after.value()));
}

// ---- Use rewrite ---------------------------------------------------------------

TEST_F(CaptureTest, UseRewriteSkipsDataAndPreservesResult) {
  CaptureEngine capture(&db_, &catalog_);
  PlanPtr plan = MustBind(db_, kSalesQTop);
  auto sketch = capture.Capture(plan);
  ASSERT_TRUE(sketch.ok());

  PlanPtr rewritten = ApplyUseRewrite(plan, catalog_, sketch.value());
  Executor exec(&db_);
  auto full = exec.Execute(plan);
  auto skipped = exec.Execute(rewritten);
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(skipped.ok());
  EXPECT_TRUE(full.value().SameBag(skipped.value()));

  // And the scan actually filters: scanning the rewritten plan's input
  // yields only the 3 tuples of fragments ρ3/ρ4 ({s3, s4, s5}, Sec. 4.1.2).
  PlanPtr scan_only;
  VisitPlan(rewritten, [&](const PlanPtr& node) {
    if (node->kind() == PlanKind::kScan) scan_only = node;
  });
  ASSERT_NE(scan_only, nullptr);
  auto scanned = exec.Execute(scan_only);
  ASSERT_TRUE(scanned.ok());
  EXPECT_EQ(scanned.value().size(), 3u);
}

TEST_F(CaptureTest, AdjacentRangesMerge) {
  // Sketch {ρ3, ρ4} merges into one interval (footnote 2): price >= 1001,
  // unbounded above because ρ4 is the last fragment.
  ProvenanceSketch sketch;
  sketch.fragments = BitVector(4);
  sketch.fragments.Set(2);
  sketch.fragments.Set(3);
  ExprPtr pred = SketchScanPredicate(catalog_, "sales", sketch);
  ASSERT_NE(pred, nullptr);
  std::string text = pred->ToString();
  // A single interval, no OR.
  EXPECT_EQ(text.find("OR"), std::string::npos) << text;
  // Check the predicate's semantics on boundary prices.
  auto matches = [&](int64_t price) {
    Tuple row{Value::Int(0), Value::String(""), Value::String(""),
              Value::Int(price), Value::Int(0)};
    return pred->Eval(row).IsTrue();
  };
  EXPECT_FALSE(matches(1000));
  EXPECT_TRUE(matches(1001));
  EXPECT_TRUE(matches(10000));
  // FragmentOf clamps prices above 10000 into ρ4.
  EXPECT_TRUE(matches(20000));

  // {ρ1, ρ2} holds the first fragment, which FragmentOf also gives prices
  // below 1: unbounded below, bounded by ρ3's start above.
  sketch.fragments = BitVector(4);
  sketch.fragments.Set(0);
  sketch.fragments.Set(1);
  pred = SketchScanPredicate(catalog_, "sales", sketch);
  ASSERT_NE(pred, nullptr);
  EXPECT_TRUE(matches(0));
  EXPECT_TRUE(matches(-5));
  EXPECT_TRUE(matches(1000));
  EXPECT_FALSE(matches(1001));
  EXPECT_FALSE(matches(20000));
}

TEST_F(CaptureTest, FullSketchMeansNoPredicate) {
  ProvenanceSketch sketch;
  sketch.fragments = BitVector(4);
  for (size_t i = 0; i < 4; ++i) sketch.fragments.Set(i);
  EXPECT_EQ(SketchScanPredicate(catalog_, "sales", sketch), nullptr);
}

TEST_F(CaptureTest, EmptySketchFiltersEverything) {
  ProvenanceSketch sketch;
  sketch.fragments = BitVector(4);
  ExprPtr pred = SketchScanPredicate(catalog_, "sales", sketch);
  ASSERT_NE(pred, nullptr);
  Tuple row{Value::Int(0), Value::String(""), Value::String(""),
            Value::Int(500), Value::Int(0)};
  EXPECT_FALSE(pred->Eval(row).IsTrue());
}

// ---- Safety analysis -------------------------------------------------------------

class SafetyTest : public ::testing::Test {
 protected:
  void SetUp() override { LoadSalesExample(&db_); }
  Database db_;
};

TEST_F(SafetyTest, MonotoneQueryIsSafeOnAnyAttribute) {
  PlanPtr plan = MustBind(db_, "SELECT sid FROM sales WHERE price > 100");
  for (size_t attr = 0; attr < 5; ++attr) {
    EXPECT_TRUE(AnalyzeSketchSafety(plan, "sales", attr).safe);
  }
}

TEST_F(SafetyTest, GroupAlignedPartitionIsSafe) {
  PlanPtr plan = MustBind(
      db_, "SELECT brand, avg(price) AS p FROM sales GROUP BY brand "
           "HAVING avg(price) < 10000");
  // brand is attr 1; group-aligned => safe even with non-monotone HAVING.
  EXPECT_TRUE(AnalyzeSketchSafety(plan, "sales", 1).safe);
  // price (attr 3) is not group-aligned and avg() is not monotone => unsafe.
  EXPECT_FALSE(AnalyzeSketchSafety(plan, "sales", 3).safe);
}

TEST_F(SafetyTest, MonotoneHavingMakesAnyAttributeSafe) {
  // The running example: partition on price, group by brand, monotone
  // SUM > c HAVING (rule R3).
  PlanPtr plan = MustBind(db_, kSalesQTop);
  EXPECT_TRUE(AnalyzeSketchSafety(plan, "sales", 3).safe);
  // With assume_nonnegative disabled, SUM is no longer provably monotone.
  SafetyOptions opts;
  opts.assume_nonnegative = false;
  EXPECT_FALSE(AnalyzeSketchSafety(plan, "sales", 3, opts).safe);
}

TEST_F(SafetyTest, AggregateWithoutHavingUnsafeUnlessAligned) {
  PlanPtr plan = MustBind(
      db_, "SELECT brand, avg(price) AS p FROM sales GROUP BY brand");
  EXPECT_TRUE(AnalyzeSketchSafety(plan, "sales", 1).safe);
  EXPECT_FALSE(AnalyzeSketchSafety(plan, "sales", 3).safe);
}

TEST_F(SafetyTest, TopKOverGroupAlignedAggregateIsSafe) {
  PlanPtr plan = MustBind(
      db_, "SELECT brand, sum(numSold) AS n FROM sales GROUP BY brand "
           "ORDER BY n DESC LIMIT 2");
  EXPECT_TRUE(AnalyzeSketchSafety(plan, "sales", 1).safe);
  EXPECT_FALSE(AnalyzeSketchSafety(plan, "sales", 0).safe);
}

TEST_F(SafetyTest, TopKOnOrderAttributeIsSafe) {
  PlanPtr plan = MustBind(
      db_, "SELECT sid, price FROM sales ORDER BY price LIMIT 3");
  EXPECT_TRUE(AnalyzeSketchSafety(plan, "sales", 3).safe);   // price
  EXPECT_FALSE(AnalyzeSketchSafety(plan, "sales", 0).safe);  // sid
}

TEST_F(SafetyTest, QueryNotReferencingTableIsUnsafe) {
  PlanPtr plan = MustBind(db_, "SELECT sid FROM sales");
  EXPECT_FALSE(AnalyzeSketchSafety(plan, "ghost", 0).safe);
}

}  // namespace
}  // namespace imp
