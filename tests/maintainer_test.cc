// Integration tests for the Maintainer: the full incremental maintenance
// procedure I of Def. 4.5 over complete query plans, including the paper's
// running examples, selection push-down, and recapture-on-truncation.

#include <gtest/gtest.h>

#include "imp/maintainer.h"
#include "sketch/capture.h"
#include "test_util.h"
#include "workload/synthetic.h"

namespace imp {
namespace {

// ---- Fig. 5 end-to-end --------------------------------------------------------

class Fig5Test : public ::testing::Test {
 protected:
  void SetUp() override {
    LoadFig5Example(&db_);
    IMP_CHECK(catalog_.Register(Fig5PartitionR()).ok());
    IMP_CHECK(catalog_.Register(Fig5PartitionS()).ok());
  }
  Database db_;
  PartitionCatalog catalog_;
};

TEST_F(Fig5Test, InitializeComputesFig5StartSketch) {
  Maintainer m(&db_, &catalog_, MustBind(db_, kFig5Query));
  auto sketch = m.Initialize();
  ASSERT_TRUE(sketch.ok());
  // Before the delta: P_R = {f2}, P_S = {g1} -> global {1, 2}.
  EXPECT_EQ(sketch.value().fragments.SetBits(), (std::vector<size_t>{1, 2}));
}

TEST_F(Fig5Test, Example51InsertProducesSketchDelta) {
  Maintainer m(&db_, &catalog_, MustBind(db_, kFig5Query));
  ASSERT_TRUE(m.Initialize().ok());
  // Δ+(5, 8) into R (Ex. 5.1).
  ASSERT_TRUE(db_.Insert("r", {{Value::Int(5), Value::Int(8)}}).ok());
  auto delta = m.MaintainFromBackend();
  ASSERT_TRUE(delta.ok());
  // ΔP = Δ+{f1, g2} = global {0, 3}.
  EXPECT_EQ(delta.value().added, (std::vector<size_t>{0, 3}));
  EXPECT_TRUE(delta.value().removed.empty());
  EXPECT_EQ(m.sketch().fragments.SetBits(),
            (std::vector<size_t>{0, 1, 2, 3}));
  EXPECT_EQ(m.maintained_version(), db_.CurrentVersion());
}

TEST_F(Fig5Test, DeletingTheInsertRestoresTheSketch) {
  Maintainer m(&db_, &catalog_, MustBind(db_, kFig5Query));
  ASSERT_TRUE(m.Initialize().ok());
  ASSERT_TRUE(db_.Insert("r", {{Value::Int(5), Value::Int(8)}}).ok());
  ASSERT_TRUE(m.MaintainFromBackend().ok());
  ASSERT_TRUE(Delete(&db_, "r", "a = 5").ok());
  auto delta = m.MaintainFromBackend();
  ASSERT_TRUE(delta.ok());
  EXPECT_EQ(delta.value().removed, (std::vector<size_t>{0, 3}));
  EXPECT_EQ(m.sketch().fragments.SetBits(), (std::vector<size_t>{1, 2}));
}

TEST_F(Fig5Test, MaintainedSketchMatchesRecapture) {
  Maintainer m(&db_, &catalog_, MustBind(db_, kFig5Query));
  ASSERT_TRUE(m.Initialize().ok());
  // A batch with inserts into both tables and a delete.
  ASSERT_TRUE(db_.Insert("r", {{Value::Int(5), Value::Int(8)},
                               {Value::Int(2), Value::Int(9)}}).ok());
  ASSERT_TRUE(db_.Insert("s", {{Value::Int(3), Value::Int(9)}}).ok());
  ASSERT_TRUE(Delete(&db_, "s", "c = 6").ok());
  ASSERT_TRUE(m.MaintainFromBackend().ok());

  CaptureEngine capture(&db_, &catalog_);
  auto accurate = capture.Capture(m.plan());
  ASSERT_TRUE(accurate.ok());
  // Def. 4.5 correctness: maintained sketch over-approximates the accurate
  // one. For this workload it is exactly accurate.
  EXPECT_TRUE(m.sketch().Covers(accurate.value()));
}

// ---- Running example (sales) ----------------------------------------------------

TEST(SalesMaintainerTest, Example12StaleSketchRepaired) {
  Database db;
  LoadSalesExample(&db);
  PartitionCatalog catalog;
  ASSERT_TRUE(catalog.Register(SalesPricePartition()).ok());
  Maintainer m(&db, &catalog, MustBind(db, kSalesQTop));
  auto initial = m.Initialize();
  ASSERT_TRUE(initial.ok());
  EXPECT_EQ(initial.value().fragments.SetBits(), (std::vector<size_t>{2, 3}));

  // Ex. 1.2: insert s8; the sketch must gain ρ2 (the HP rows' fragment).
  ASSERT_TRUE(db.Insert("sales", {{Value::Int(8), Value::String("HP"),
                                   Value::String("HP ProBook 650 G10"),
                                   Value::Int(1299), Value::Int(1)}})
                  .ok());
  auto delta = m.MaintainFromBackend();
  ASSERT_TRUE(delta.ok());
  EXPECT_EQ(delta.value().added, std::vector<size_t>{1});
  EXPECT_EQ(m.sketch().fragments.SetBits(), (std::vector<size_t>{1, 2, 3}));
}

// ---- Selection push-down ---------------------------------------------------------

class PushdownTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SyntheticSpec spec;
    spec.name = "t";
    spec.num_rows = 2000;
    spec.num_groups = 50;
    IMP_CHECK(CreateSyntheticTable(&db_, spec).ok());
    IMP_CHECK(catalog_
                  .Register(RangePartition::EquiWidthInt("t", "a", 1, 0, 49,
                                                         10))
                  .ok());
  }
  Database db_;
  PartitionCatalog catalog_;
};

TEST_F(PushdownTest, WherePredicatePushedIntoDeltaFetch) {
  PlanPtr plan = MustBind(
      db_, "SELECT a, avg(c) AS ac FROM t WHERE b < 60 GROUP BY a "
           "HAVING avg(c) > 0");
  Maintainer m(&db_, &catalog_, plan);
  ExprPtr pred = m.DeltaPredicateExpr("t");
  ASSERT_NE(pred, nullptr);
  // The predicate filters on b (column 2 of t).
  auto fn = m.DeltaPredicate("t");
  Tuple row(11, Value::Int(0));
  row[2] = Value::Int(10);
  EXPECT_TRUE(fn(row));
  row[2] = Value::Int(100);
  EXPECT_FALSE(fn(row));
}

TEST_F(PushdownTest, PushdownDisabledByOption) {
  PlanPtr plan = MustBind(
      db_, "SELECT a, avg(c) AS ac FROM t WHERE b < 60 GROUP BY a");
  MaintainerOptions opts;
  opts.selection_pushdown = false;
  Maintainer m(&db_, &catalog_, plan, opts);
  EXPECT_EQ(m.DeltaPredicateExpr("t"), nullptr);
}

TEST_F(PushdownTest, HavingConditionIsNotPushed) {
  // HAVING sits above the (stateful) aggregate: not pushable.
  PlanPtr plan = MustBind(
      db_, "SELECT a, avg(c) AS ac FROM t GROUP BY a HAVING avg(c) > 10");
  Maintainer m(&db_, &catalog_, plan);
  EXPECT_EQ(m.DeltaPredicateExpr("t"), nullptr);
}

TEST_F(PushdownTest, PushdownPreservesMaintenanceResult) {
  PlanPtr plan = MustBind(
      db_, "SELECT a, sum(c) AS sc FROM t WHERE b < 60 GROUP BY a "
           "HAVING sum(c) > 500");
  MaintainerOptions with, without;
  without.selection_pushdown = false;
  Maintainer m1(&db_, &catalog_, plan, with);
  Maintainer m2(&db_, &catalog_, plan, without);
  ASSERT_TRUE(m1.Initialize().ok());
  ASSERT_TRUE(m2.Initialize().ok());

  Rng rng(5);
  SyntheticSpec spec;
  spec.num_groups = 50;
  std::vector<Tuple> rows;
  for (int i = 0; i < 200; ++i) {
    rows.push_back(SyntheticRow(spec, 100000 + i, &rng));
  }
  ASSERT_TRUE(db_.Insert("t", rows).ok());
  ASSERT_TRUE(m1.MaintainFromBackend().ok());
  ASSERT_TRUE(m2.MaintainFromBackend().ok());
  EXPECT_EQ(m1.sketch().fragments, m2.sketch().fragments);
}

// ---- Recapture on truncation ------------------------------------------------------

TEST(RecaptureTest, TopKBufferExhaustionRecapturesTransparently) {
  Database db;
  Schema schema;
  schema.AddColumn("g", ValueType::kInt);
  schema.AddColumn("v", ValueType::kInt);
  ASSERT_TRUE(db.CreateTable("t", schema).ok());
  std::vector<Tuple> rows;
  for (int64_t i = 0; i < 100; ++i) {
    rows.push_back({Value::Int(i), Value::Int(i * 10)});
  }
  ASSERT_TRUE(db.BulkLoad("t", rows).ok());
  PartitionCatalog catalog;
  ASSERT_TRUE(
      catalog.Register(RangePartition::EquiWidthInt("t", "v", 1, 0, 990, 10))
          .ok());

  PlanPtr plan = MustBind(db, "SELECT g, v FROM t ORDER BY v LIMIT 5");
  MaintainerOptions opts;
  opts.topk_buffer = 8;
  Maintainer m(&db, &catalog, plan, opts);
  ASSERT_TRUE(m.Initialize().ok());

  // Delete the 10 smallest rows: the truncated buffer (8) cannot answer,
  // so the maintainer must transparently recapture.
  ASSERT_TRUE(Delete(&db, "t", "v < 100").ok());
  auto delta = m.MaintainFromBackend();
  ASSERT_TRUE(delta.ok());
  EXPECT_GE(m.stats().recaptures, 1u);

  // After recapture the sketch must match a fresh capture.
  CaptureEngine capture(&db, &catalog);
  auto accurate = capture.Capture(plan);
  ASSERT_TRUE(accurate.ok());
  EXPECT_EQ(m.sketch().fragments, accurate.value().fragments);
}

// ---- Maintainer vs full recapture on synthetic workloads ---------------------------

TEST(MaintainerEquivalenceTest, HavingQuerySketchTracksRecapture) {
  Database db;
  SyntheticSpec spec;
  spec.name = "t";
  spec.num_rows = 3000;
  spec.num_groups = 40;
  ASSERT_TRUE(CreateSyntheticTable(&db, spec).ok());
  PartitionCatalog catalog;
  ASSERT_TRUE(
      catalog.Register(RangePartition::EquiWidthInt("t", "a", 1, 0, 39, 8))
          .ok());
  PlanPtr plan = MustBind(
      db, "SELECT a, sum(b) AS sb FROM t GROUP BY a HAVING sum(b) > 4000");
  Maintainer m(&db, &catalog, plan);
  ASSERT_TRUE(m.Initialize().ok());

  Rng rng(17);
  CaptureEngine capture(&db, &catalog);
  for (int round = 0; round < 5; ++round) {
    // Mixed insert + delete batch.
    std::vector<Tuple> rows;
    for (int i = 0; i < 50; ++i) {
      rows.push_back(SyntheticRow(spec, 50000 + round * 100 + i, &rng));
    }
    ASSERT_TRUE(db.Insert("t", rows).ok());
    int64_t kill_group = rng.UniformInt(0, 39);
    ASSERT_TRUE(Delete(&db, "t", "a = " + std::to_string(kill_group)).ok());

    ASSERT_TRUE(m.MaintainFromBackend().ok());
    auto accurate = capture.Capture(plan);
    ASSERT_TRUE(accurate.ok());
    // Theorem 6.1: the maintained sketch over-approximates the accurate
    // sketch for the updated database.
    EXPECT_TRUE(m.sketch().Covers(accurate.value()))
        << "round " << round << ": maintained "
        << m.sketch().ToString() << " vs accurate "
        << accurate.value().ToString();
  }
}

TEST(MaintainerStateTest, StateBytesGrowWithGroups) {
  Database db;
  SyntheticSpec small, large;
  small.name = "small";
  small.num_rows = 500;
  small.num_groups = 10;
  large.name = "large";
  large.num_rows = 500;
  large.num_groups = 400;
  ASSERT_TRUE(CreateSyntheticTable(&db, small).ok());
  ASSERT_TRUE(CreateSyntheticTable(&db, large).ok());
  PartitionCatalog catalog;
  ASSERT_TRUE(catalog
                  .Register(RangePartition::EquiWidthInt("small", "a", 1, 0,
                                                         9, 4))
                  .ok());
  ASSERT_TRUE(catalog
                  .Register(RangePartition::EquiWidthInt("large", "a", 1, 0,
                                                         399, 4))
                  .ok());
  Maintainer ms(&db, &catalog,
                MustBind(db, "SELECT a, sum(b) AS s FROM small GROUP BY a"));
  Maintainer ml(&db, &catalog,
                MustBind(db, "SELECT a, sum(b) AS s FROM large GROUP BY a"));
  ASSERT_TRUE(ms.Initialize().ok());
  ASSERT_TRUE(ml.Initialize().ok());
  EXPECT_GT(ml.StateBytes(), ms.StateBytes());
}

}  // namespace
}  // namespace imp
