// Tests for the IMP middleware: capture-or-use-or-maintain dispatch,
// template-based sketch reuse, NS/FM/IMP answer equivalence, eager vs lazy
// strategies, the update path, and a bursty churn soak against the plain
// executor.

#include <gtest/gtest.h>

#include "common/random.h"
#include "exec/executor.h"
#include "middleware/imp_system.h"
#include "sketch/capture.h"
#include "test_util.h"
#include "workload/synthetic.h"

namespace imp {
namespace {

class MiddlewareTest : public ::testing::Test {
 protected:
  void SetUp() override { LoadSalesExample(&db_); }

  std::unique_ptr<ImpSystem> NewSystem(ExecutionMode mode,
                                       MaintenanceStrategy strategy =
                                           MaintenanceStrategy::kLazy) {
    ImpConfig config;
    config.mode = mode;
    config.strategy = strategy;
    auto system = std::make_unique<ImpSystem>(&db_, config);
    if (mode != ExecutionMode::kNoSketch) {
      IMP_CHECK(system->RegisterPartition(SalesPricePartition()).ok());
    }
    return system;
  }

  Database db_;
};

TEST_F(MiddlewareTest, FirstQueryCapturesSketch) {
  auto system = NewSystem(ExecutionMode::kIncremental);
  auto result = system->Query(kSalesQTop);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().size(), 1u);
  EXPECT_EQ(result.value().rows[0][0], Value::String("Apple"));
  EXPECT_EQ(system->stats().sketch_captures, 1u);
  EXPECT_EQ(system->stats().sketch_uses, 1u);
  EXPECT_EQ(system->sketches().size(), 1u);
}

TEST_F(MiddlewareTest, SecondQueryReusesSketchViaTemplate) {
  auto system = NewSystem(ExecutionMode::kIncremental);
  ASSERT_TRUE(system->Query(kSalesQTop).ok());
  // Same template, different constant: must reuse the sketch, not recapture.
  auto result = system->Query(
      "SELECT brand, sum(price * numSold) AS rev FROM sales "
      "GROUP BY brand HAVING sum(price * numSold) > 6000");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(system->stats().sketch_captures, 1u);
  EXPECT_EQ(system->stats().sketch_uses, 2u);
}

TEST_F(MiddlewareTest, StaleSketchMaintainedLazilyOnUse) {
  auto system = NewSystem(ExecutionMode::kIncremental);
  ASSERT_TRUE(system->Query(kSalesQTop).ok());
  // Ex. 1.2 insert; lazy strategy: no maintenance until the next query.
  ASSERT_TRUE(system
                  ->Update("INSERT INTO sales VALUES "
                           "(8, 'HP', 'HP ProBook 650 G10', 1299, 1)")
                  .ok());
  EXPECT_EQ(system->stats().maintenances, 0u);
  auto result = system->Query(kSalesQTop);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(system->stats().maintenances, 1u);
  // The refreshed sketch answers correctly: HP now passes.
  ASSERT_EQ(result.value().size(), 2u);
}

TEST_F(MiddlewareTest, EagerStrategyMaintainsOnUpdate) {
  auto system =
      NewSystem(ExecutionMode::kIncremental, MaintenanceStrategy::kEager);
  ASSERT_TRUE(system->Query(kSalesQTop).ok());
  ASSERT_TRUE(system
                  ->Update("INSERT INTO sales VALUES "
                           "(8, 'HP', 'HP ProBook 650 G10', 1299, 1)")
                  .ok());
  // Eager with batch size 1: maintenance already happened.
  EXPECT_EQ(system->stats().maintenances, 1u);
}

TEST_F(MiddlewareTest, EagerBatchingDelaysMaintenance) {
  ImpConfig config;
  config.mode = ExecutionMode::kIncremental;
  config.strategy = MaintenanceStrategy::kEager;
  config.eager_batch_size = 3;
  ImpSystem system(&db_, config);
  ASSERT_TRUE(system.RegisterPartition(SalesPricePartition()).ok());
  ASSERT_TRUE(system.Query(kSalesQTop).ok());
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(system
                    .Update("INSERT INTO sales VALUES (" +
                            std::to_string(10 + i) +
                            ", 'Dell', 'XPS', 700, 1)")
                    .ok());
    EXPECT_EQ(system.stats().maintenances, 0u);
  }
  ASSERT_TRUE(
      system.Update("INSERT INTO sales VALUES (12, 'Dell', 'XPS', 700, 1)")
          .ok());
  EXPECT_EQ(system.stats().maintenances, 1u);  // batch of 3 flushed
}

TEST_F(MiddlewareTest, AllThreeModesAgreeOnAnswers) {
  // Run the same mixed sequence under NS / FM / IMP; answers must agree.
  std::vector<std::string> queries = {
      kSalesQTop,
      "SELECT brand, sum(price * numSold) AS rev FROM sales "
      "GROUP BY brand HAVING sum(price * numSold) > 1000",
  };
  std::vector<std::string> updates = {
      "INSERT INTO sales VALUES (8, 'HP', 'HP ProBook 650 G10', 1299, 1)",
      "DELETE FROM sales WHERE sid = 3",
      "INSERT INTO sales VALUES (9, 'Apple', 'MacBook Air 15', 1399, 2)",
  };

  auto run = [&](ExecutionMode mode) {
    Database db;
    LoadSalesExample(&db);
    ImpConfig config;
    config.mode = mode;
    ImpSystem system(&db, config);
    if (mode != ExecutionMode::kNoSketch) {
      IMP_CHECK(system.RegisterPartition(SalesPricePartition()).ok());
    }
    std::vector<Relation> answers;
    for (size_t step = 0; step < updates.size(); ++step) {
      for (const std::string& q : queries) {
        auto result = system.Query(q);
        IMP_CHECK_MSG(result.ok(), result.status().ToString().c_str());
        answers.push_back(std::move(result).value());
      }
      IMP_CHECK(system.Update(updates[step]).ok());
    }
    for (const std::string& q : queries) {
      auto result = system.Query(q);
      IMP_CHECK(result.ok());
      answers.push_back(std::move(result).value());
    }
    return answers;
  };

  auto ns = run(ExecutionMode::kNoSketch);
  auto fm = run(ExecutionMode::kFullMaintenance);
  auto imp = run(ExecutionMode::kIncremental);
  ASSERT_EQ(ns.size(), fm.size());
  ASSERT_EQ(ns.size(), imp.size());
  for (size_t i = 0; i < ns.size(); ++i) {
    EXPECT_TRUE(ns[i].SameBag(fm[i])) << "FM diverged at answer " << i;
    EXPECT_TRUE(ns[i].SameBag(imp[i])) << "IMP diverged at answer " << i;
  }
}

TEST_F(MiddlewareTest, UnsafeQueryFallsBackToPlainExecution) {
  auto system = NewSystem(ExecutionMode::kIncremental);
  // avg() HAVING with non-group-aligned price partition: unsafe => no
  // sketch is created, but the query still answers correctly.
  auto result = system->Query(
      "SELECT brand, avg(price) AS p FROM sales GROUP BY brand "
      "HAVING avg(price) < 2000");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(system->stats().sketch_captures, 0u);
  EXPECT_EQ(system->sketches().size(), 0u);
  EXPECT_EQ(result.value().size(), 3u);  // Lenovo, Dell, HP
}

TEST_F(MiddlewareTest, UpdateStatementRewritesRows) {
  auto system = NewSystem(ExecutionMode::kNoSketch);
  ASSERT_TRUE(
      system->Update("UPDATE sales SET numSold = numSold + 10 "
                     "WHERE brand = 'HP'")
          .ok());
  auto result = system->Query(
      "SELECT sum(numSold) AS n FROM sales WHERE brand = 'HP'");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().rows[0][0], Value::Int(25));  // (4+10) + (1+10)
}

TEST_F(MiddlewareTest, QueryOnUpdatedDataAfterDeleteIsCorrect) {
  auto system = NewSystem(ExecutionMode::kIncremental);
  ASSERT_TRUE(system->Query(kSalesQTop).ok());
  // Deleting s4 drops Apple below the threshold: result becomes empty.
  ASSERT_TRUE(system->Update("DELETE FROM sales WHERE sid = 4").ok());
  auto result = system->Query(kSalesQTop);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().size(), 0u);
}

TEST_F(MiddlewareTest, PartitionTableHelperBuildsEquiDepth) {
  ImpConfig config;
  ImpSystem system(&db_, config);
  ASSERT_TRUE(system.PartitionTable("sales", "price", 4).ok());
  const RangePartition* part = system.catalog().Find("sales");
  ASSERT_NE(part, nullptr);
  EXPECT_GE(part->num_fragments(), 2u);
  EXPECT_FALSE(system.PartitionTable("sales", "price", 4).ok());  // dup
  EXPECT_FALSE(system.PartitionTable("ghost", "x", 4).ok());
}

// ---- Sketch-use invariant at the partition's edges -------------------------

std::vector<Tuple> SalesRows(const Database& db) {
  std::vector<Tuple> rows;
  db.GetTable("sales")->Snapshot()->ForEachRow(
      [&](const Tuple& r) { rows.push_back(r); });
  return rows;
}

TEST_F(MiddlewareTest, ValuesOutsideThePartitionStayInSketchAnswers) {
  // FragmentOf clamps prices outside [1, 10000] into the edge fragments;
  // the use-rewrite must not bound those fragments' runs at the partition
  // bounds, or the sketch-filtered answer loses the outlying Zed row.
  const char* kQuery =
      "SELECT brand, sum(numSold) AS n FROM sales GROUP BY brand "
      "HAVING sum(numSold) > 50";
  for (int64_t outlier : {20000, 0}) {
    Database db;
    LoadSalesExample(&db);
    ImpSystem system(&db, ImpConfig{});
    ASSERT_TRUE(system.RegisterPartition(SalesPricePartition()).ok());
    const int64_t in_domain = outlier > 0 ? 5000 : 300;  // same fragment
    ASSERT_TRUE(system
                    .Update("INSERT INTO sales VALUES (9, 'Zed', 'Z', " +
                            std::to_string(outlier) + ", 100), (10, 'Zed', "
                            "'Z', " + std::to_string(in_domain) + ", 1)")
                    .ok());
    auto sketched = system.Query(kQuery);
    auto plain = Executor(&db).Execute(MustBind(db, kQuery));
    ASSERT_TRUE(sketched.ok() && plain.ok()) << "price " << outlier;
    EXPECT_EQ(system.stats().sketch_uses, 1u) << "price " << outlier;
    ASSERT_EQ(plain.value().size(), 1u) << "price " << outlier;
    EXPECT_TRUE(sketched.value().SameBag(plain.value())) << "price " << outlier;
  }
}

TEST_F(MiddlewareTest, NullPartitionValueIsRejected) {
  // A range predicate cannot admit NULL, so partition attributes are NOT
  // NULL: the write path rejects a NULL price, and partitioning a column
  // that already holds one fails.
  auto system = NewSystem(ExecutionMode::kIncremental);
  const std::vector<Tuple> before = SalesRows(db_);
  EXPECT_EQ(system->Update("INSERT INTO sales VALUES (9, 'Zed', 'Z', NULL, 1)")
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(system->Update("UPDATE sales SET price = NULL WHERE sid = 1")
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(SalesRows(db_), before);
  EXPECT_EQ(db_.PendingDeltaCount("sales", 0), 0u);

  ASSERT_TRUE(db_.Insert("sales", {{Value::Int(9), Value::String("Zed"),
                                    Value::String("Z"), Value::Null(),
                                    Value::Int(1)}})
                  .ok());
  ImpSystem fresh(&db_, ImpConfig{});
  EXPECT_EQ(fresh.RegisterPartition(SalesPricePartition()).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(fresh.PartitionTable("sales", "price", 4).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(system->RepartitionTable("sales", "price", 4).code(),
            StatusCode::kInvalidArgument);
}

// ---- Write boundary ---------------------------------------------------------

TEST_F(MiddlewareTest, MistypedWritesChangeNothing) {
  Database db;
  LoadSalesExample(&db);
  ImpSystem system(&db, ImpConfig{});
  ASSERT_TRUE(system.RegisterPartition(SalesPricePartition()).ok());
  const std::vector<Tuple> before = SalesRows(db);

  // The binder rejects the mistyped literal...
  EXPECT_EQ(
      system.Update("INSERT INTO sales VALUES (9, 'Zed', 'Z', 'oops', 1)")
          .status()
          .code(),
      StatusCode::kBindError);
  // ...and the same row bound by hand fails at the storage boundary.
  BoundUpdate insert;
  insert.kind = BoundUpdate::Kind::kInsert;
  insert.table = "sales";
  insert.rows = {{Value::Int(9), Value::String("Zed"), Value::String("Z"),
                  Value::String("oops"), Value::Int(1)}};
  EXPECT_EQ(system.UpdateBound(insert).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(db.Insert("sales", insert.rows).status().code(),
            StatusCode::kInvalidArgument);

  // A hand-bound UPDATE writing a string into price fails before its
  // delete half is staged.
  BoundUpdate update;
  update.kind = BoundUpdate::Kind::kUpdate;
  update.table = "sales";
  update.sets = {{3, MakeLiteral(Value::String("oops"))}};
  EXPECT_EQ(system.UpdateBound(update).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(SalesRows(db), before);
  EXPECT_EQ(db.PendingDeltaCount("sales", 0), 0u);
  // A rejected statement that had already allocated its version still
  // retired it: the watermark does not stall behind it.
  EXPECT_EQ(db.StableVersion(), db.CurrentVersion());
}

// ---- Reuse by provenance containment ----------------------------------------
// t(g, v) is partitioned on g into three equal-width fragments over [0, 29],
// so groups 5 and 15 lie in different fragments. Each case captures a
// sketch for the first query, then asks a same-template query with a
// stricter constant whose provenance the sketch does not cover: IMP must
// not reuse it, and answers as the plain executor does.

Relation ReuseCaseAnswer(const std::vector<Tuple>& rows,
                         const std::string& captured,
                         const std::string& query) {
  Database db;
  Schema schema;
  schema.AddColumn("g", ValueType::kInt);
  schema.AddColumn("v", ValueType::kInt);
  IMP_CHECK(db.CreateTable("t", schema).ok());
  IMP_CHECK(db.BulkLoad("t", rows).ok());
  ImpConfig config;
  config.mode = ExecutionMode::kIncremental;
  ImpSystem system(&db, config);
  IMP_CHECK(system
                .RegisterPartition(
                    RangePartition::EquiWidthInt("t", "g", 0, 0, 29, 3))
                .ok());
  IMP_CHECK(system.Query(captured).ok());
  auto answer = system.Query(query);
  IMP_CHECK_MSG(answer.ok(), answer.status().ToString());
  auto plain = Executor(&db).Execute(MustBind(db, query));
  IMP_CHECK_MSG(plain.ok(), plain.status().ToString());
  EXPECT_TRUE(answer.value().SameBag(plain.value()))
      << query << "\nIMP: " << answer.value().ToString()
      << "plain: " << plain.value().ToString();
  return std::move(answer).value();
}

Tuple GV(int64_t g, int64_t v) { return {Value::Int(g), Value::Int(v)}; }

TEST(ReuseContainmentTest, StricterWhereUnderNonMonotoneHaving) {
  Relation r = ReuseCaseAnswer(
      {GV(5, 1), GV(5, 5), GV(15, 1)},
      "SELECT g, count(*) AS n FROM t WHERE v >= 1 GROUP BY g "
      "HAVING count(*) < 2",
      "SELECT g, count(*) AS n FROM t WHERE v >= 3 GROUP BY g "
      "HAVING count(*) < 2");
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r.rows[0], GV(5, 1));
}

TEST(ReuseContainmentTest, StricterWhereUnderTopK) {
  Relation r = ReuseCaseAnswer(
      {GV(5, 1), GV(5, 1), GV(5, 1), GV(5, 1), GV(5, 1), GV(5, 3),
       GV(15, 4)},
      "SELECT g, sum(v) AS s FROM t WHERE v >= 1 GROUP BY g "
      "ORDER BY s DESC LIMIT 1",
      "SELECT g, sum(v) AS s FROM t WHERE v >= 3 GROUP BY g "
      "ORDER BY s DESC LIMIT 1");
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r.rows[0], GV(15, 4));
}

TEST(ReuseContainmentTest, StricterHavingUnderTopK) {
  Relation r = ReuseCaseAnswer(
      {GV(5, 1), GV(5, 2), GV(15, 4), GV(15, 6)},
      "SELECT g, sum(v) AS s FROM t GROUP BY g HAVING sum(v) > 0 "
      "ORDER BY s ASC LIMIT 1",
      "SELECT g, sum(v) AS s FROM t GROUP BY g HAVING sum(v) > 5 "
      "ORDER BY s ASC LIMIT 1");
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r.rows[0], GV(15, 10));
}

// ---- Equi-join keys never match NULL ---------------------------------------
//
// t(a, k) is partitioned on a into [0, 9], [10, 19] and [20, 29], and h(k2,
// w) holds a row whose key is NULL. The captured sketch is {0}. A t row with
// a NULL key joins nothing, so inserting one into fragment 2 leaves the
// answer and the sketch as they were, whether h's side of the join is
// probed through the point index (the key is a base column of h) or
// evaluated (the key is computed). The bloom filter drops the NULL-key
// delta before either delegated join runs, so no side is evaluated.

void ExpectNullKeyInsertJoinsNothing(const std::string& sql) {
  Database db;
  Schema t, h;
  t.AddColumn("a", ValueType::kInt);
  t.AddColumn("k", ValueType::kInt);
  h.AddColumn("k2", ValueType::kInt);
  h.AddColumn("w", ValueType::kInt);
  ASSERT_TRUE(db.CreateTable("t", t).ok());
  ASSERT_TRUE(db.CreateTable("h", h).ok());
  ASSERT_TRUE(db.BulkLoad("t", {GV(5, 1), GV(15, 2)}).ok());
  ASSERT_TRUE(
      db.BulkLoad("h", {GV(1, 10), {Value::Null(), Value::Int(20)}}).ok());
  ImpConfig config;
  config.mode = ExecutionMode::kIncremental;
  ImpSystem system(&db, config);
  ASSERT_TRUE(system
                  .RegisterPartition(
                      RangePartition::EquiWidthInt("t", "a", 0, 0, 29, 3))
                  .ok());
  ASSERT_TRUE(system.Query(sql).ok());
  ASSERT_TRUE(system.Update("INSERT INTO t VALUES (25, NULL)").ok());

  auto answer = system.Query(sql);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  auto plain = Executor(&db).Execute(MustBind(db, sql));
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  EXPECT_TRUE(answer.value().SameBag(plain.value()))
      << "IMP: " << answer.value().ToString()
      << "plain: " << plain.value().ToString();
  EXPECT_TRUE(answer.value().SameBag(Relation{plain.value().schema, {GV(5, 1)}}))
      << answer.value().ToString();
  auto entries = system.sketches().AllEntries();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0]->Snapshot()->sketch.fragments.SetBits(),
            std::vector<size_t>{0});
  EXPECT_EQ(system.stats().maintenances, 1u);
  EXPECT_EQ(system.stats().index_fallback_scans, 0u);
}

TEST(NullJoinKeyTest, PointIndexPathJoinsNothing) {
  ExpectNullKeyInsertJoinsNothing(
      "SELECT a, count(*) AS n FROM t JOIN h ON (k = k2) "
      "GROUP BY a HAVING count(*) > 0");
}

TEST(NullJoinKeyTest, SideEvaluationPathJoinsNothing) {
  ExpectNullKeyInsertJoinsNothing(
      "SELECT a, count(*) AS n "
      "FROM t JOIN (SELECT k2 + 0 AS k2, w FROM h) hh ON (k = k2) "
      "GROUP BY a HAVING count(*) > 0");
}

// ---- Bursty churn soak -----------------------------------------------------
//
// A seeded workload over a 400-row table: bursts of 150-250 inserted rows
// (a delta window the size of the table), range DELETEs and trickle
// inserts, with a lazy MaintainAll every 4 steps and four HAVING
// templates. Every answer equals the plain Executor's, and after the last
// MaintainAll each maintained sketch covers a fresh capture (Thm 6.1).

/// The thresholds keep each sketch a strict subset of the 10 fragments,
/// one that grows and shrinks while the table grows several-fold. Were
/// every group to pass, each sketch would hold every fragment, and a
/// missed repair could change no answer.
std::vector<std::string> SoakQueries() {
  return {
      "SELECT a, sum(b) AS s FROM edb GROUP BY a HAVING sum(b) > 1000",
      "SELECT a, sum(b) AS s FROM edb WHERE b < 100 GROUP BY a "
      "HAVING sum(b) > 1000",
      "SELECT a, sum(c) AS s FROM edb GROUP BY a HAVING sum(c) > 800",
      "SELECT a, sum(c) AS s FROM edb WHERE c < 60 GROUP BY a "
      "HAVING sum(c) > 600",
  };
}

BoundUpdate SoakInsert(const SyntheticSpec& spec, size_t n, int64_t* next_id,
                       Rng* rng) {
  BoundUpdate update;
  update.kind = BoundUpdate::Kind::kInsert;
  update.table = spec.name;
  for (size_t r = 0; r < n; ++r) {
    update.rows.push_back(SyntheticRow(spec, (*next_id)++, rng));
  }
  return update;
}

void ExpectPlainAnswer(ImpSystem* system, const Database& db,
                       const std::string& sql) {
  auto answer = system->Query(sql);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  auto plain = Executor(&db).Execute(MustBind(db, sql));
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  EXPECT_TRUE(answer.value().SameBag(plain.value()))
      << sql << "\nIMP: " << answer.value().ToString()
      << "plain: " << plain.value().ToString();
}

void RunBurstyChurnSoak(uint64_t seed) {
  Database db;
  SyntheticSpec spec;
  spec.name = "edb";
  spec.num_rows = 400;
  spec.num_groups = 50;
  spec.seed = 7;
  ASSERT_TRUE(CreateSyntheticTable(&db, spec).ok());
  ImpConfig config;
  config.mode = ExecutionMode::kIncremental;
  config.strategy = MaintenanceStrategy::kLazy;
  ImpSystem system(&db, config);
  ASSERT_TRUE(system
                  .RegisterPartition(
                      RangePartition::EquiWidthInt("edb", "a", 1, 0, 49, 10))
                  .ok());
  const std::vector<std::string> queries = SoakQueries();
  for (const std::string& q : queries) ExpectPlainAnswer(&system, db, q);
  ASSERT_EQ(system.sketches().size(), queries.size());

  Rng rng(seed);
  int64_t next_id = static_cast<int64_t>(spec.num_rows);
  for (size_t step = 0; step < 40; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    if (rng.Chance(0.15)) {
      size_t n = static_cast<size_t>(rng.UniformInt(150, 250));
      ASSERT_TRUE(system.UpdateBound(SoakInsert(spec, n, &next_id, &rng)).ok());
    } else if (rng.Chance(0.35)) {
      int64_t lo = rng.UniformInt(0, next_id - 1);
      int64_t hi = lo + rng.UniformInt(0, 20);
      ASSERT_TRUE(system
                      .Update("DELETE FROM edb WHERE id >= " +
                              std::to_string(lo) + " AND id <= " +
                              std::to_string(hi))
                      .ok());
    } else {
      size_t n = static_cast<size_t>(rng.UniformInt(1, 5));
      ASSERT_TRUE(system.UpdateBound(SoakInsert(spec, n, &next_id, &rng)).ok());
    }
    if ((step + 1) % 4 == 0) {
      ASSERT_TRUE(system.MaintainAll().ok());
    }
    if ((step + 1) % 7 == 0) ExpectPlainAnswer(&system, db, queries[0]);
  }
  ASSERT_TRUE(system.MaintainAll().ok());

  CaptureEngine capture(&db, &system.catalog());
  for (SketchEntry* entry : system.sketches().AllEntries()) {
    std::shared_ptr<const SketchSnapshot> snap = entry->Snapshot();
    EXPECT_EQ(snap->valid_version(), db.StableVersion());
    auto accurate = capture.Capture(entry->plan);
    ASSERT_TRUE(accurate.ok()) << accurate.status().ToString();
    EXPECT_TRUE(snap->sketch.Covers(accurate.value()))
        << "maintained " << snap->sketch.ToString()
        << " does not cover accurate " << accurate.value().ToString();
  }
  for (const std::string& q : queries) ExpectPlainAnswer(&system, db, q);
  EXPECT_EQ(system.stats().sketch_uses, system.stats().queries);
  EXPECT_EQ(system.stats().degraded_queries, 0u);
}

TEST(MaintenanceSoakTest, BurstyChurnMatchesPlainExecutor) {
  for (uint64_t seed : {13u, 59u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    RunBurstyChurnSoak(seed);
  }
}

}  // namespace
}  // namespace imp
