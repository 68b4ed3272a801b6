// Tests for the workload substrate: generators produce the documented
// shapes and the mixed-workload driver runs all three system modes.

#include <gtest/gtest.h>

#include <map>

#include "exec/executor.h"
#include "test_util.h"
#include "workload/crimes.h"
#include "workload/driver.h"
#include "workload/synthetic.h"
#include "workload/tpch.h"

namespace imp {
namespace {

TEST(SyntheticTest, TableShape) {
  Database db;
  SyntheticSpec spec;
  spec.name = "t";
  spec.num_rows = 5000;
  spec.num_groups = 50;
  ASSERT_TRUE(CreateSyntheticTable(&db, spec).ok());
  const Table* t = db.GetTable("t");
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->NumRows(), 5000u);
  EXPECT_EQ(t->schema().size(), 11u);  // id + a + 9 correlated attributes

  // `a` stays in [0, num_groups) and all groups are hit.
  std::map<int64_t, size_t> groups;
  t->Snapshot()->ForEachRow([&](const Tuple& row) {
    int64_t a = row[1].AsInt();
    ASSERT_GE(a, 0);
    ASSERT_LT(a, 50);
    groups[a]++;
  });
  EXPECT_EQ(groups.size(), 50u);

  // b is correlated with a: group means must increase with a overall.
  Executor exec(&db);
  auto means = exec.Execute(MustBind(db, "SELECT a, avg(b) AS m FROM t GROUP BY a"));
  ASSERT_TRUE(means.ok());
  double lo_mean = 0, hi_mean = 0;
  for (const Tuple& row : means.value().rows) {
    if (row[0].AsInt() < 10) lo_mean += row[1].ToDouble();
    if (row[0].AsInt() >= 40) hi_mean += row[1].ToDouble();
  }
  EXPECT_LT(lo_mean, hi_mean);
}

TEST(SyntheticTest, ValuesAreNonNegative) {
  // Non-negativity underpins safety rule R3 for SUM-HAVING queries.
  Database db;
  SyntheticSpec spec;
  spec.name = "t";
  spec.num_rows = 2000;
  spec.noise = 500.0;  // large noise would go negative without clamping
  ASSERT_TRUE(CreateSyntheticTable(&db, spec).ok());
  db.GetTable("t")->Snapshot()->ForEachRow([](const Tuple& row) {
    for (size_t c = 2; c < row.size(); ++c) {
      EXPECT_GE(row[c].AsInt(), 0);
    }
  });
}

TEST(SyntheticTest, JoinPairMultiplicities) {
  Database db;
  JoinPairSpec spec;
  spec.distinct_keys = 100;
  spec.left_per_key = 3;
  spec.right_per_key = 2;
  ASSERT_TRUE(CreateJoinPair(&db, spec).ok());
  EXPECT_EQ(db.GetTable(spec.left_name)->NumRows(), 300u);
  EXPECT_EQ(db.GetTable(spec.right_name)->NumRows(), 200u);
  // Full selectivity: every left row joins right_per_key rows.
  Executor exec(&db);
  auto joined = exec.Execute(MustBind(
      db, "SELECT id FROM t1gbjoin JOIN tjoinhelp ON (a = ttid)"));
  ASSERT_TRUE(joined.ok());
  EXPECT_EQ(joined.value().size(), 600u);
}

TEST(SyntheticTest, JoinSelectivityControlsPartners) {
  Database db;
  JoinPairSpec spec;
  spec.distinct_keys = 1000;
  spec.selectivity = 0.1;
  spec.left_name = "l";
  spec.right_name = "r";
  ASSERT_TRUE(CreateJoinPair(&db, spec).ok());
  Executor exec(&db);
  auto joined =
      exec.Execute(MustBind(db, "SELECT id FROM l JOIN r ON (a = ttid)"));
  ASSERT_TRUE(joined.ok());
  // ~10% of 1000 keys join; allow sampling slack.
  EXPECT_GT(joined.value().size(), 40u);
  EXPECT_LT(joined.value().size(), 250u);
}

TEST(TpchTest, TablesAndQueries) {
  Database db;
  TpchSpec spec;
  spec.scale_factor = 0.002;
  ASSERT_TRUE(CreateTpchTables(&db, spec).ok());
  EXPECT_EQ(db.GetTable("nation")->NumRows(), 25u);
  EXPECT_EQ(db.GetTable("customer")->NumRows(), 300u);
  EXPECT_EQ(db.GetTable("orders")->NumRows(), 3000u);
  EXPECT_GT(db.GetTable("lineitem")->NumRows(), 3000u);

  Executor exec(&db);
  auto q10 = exec.Execute(MustBind(db, TpchQ10Sql()));
  ASSERT_TRUE(q10.ok());
  EXPECT_LE(q10.value().size(), 20u);
  EXPECT_GT(q10.value().size(), 0u);
  // Returned revenues are sorted descending.
  auto rev_at = [&](size_t i) { return q10.value().rows[i][2].ToDouble(); };
  for (size_t i = 1; i < q10.value().size(); ++i) {
    EXPECT_GE(rev_at(i - 1), rev_at(i));
  }

  auto q18 = exec.Execute(MustBind(db, TpchQ18Sql(150)));
  ASSERT_TRUE(q18.ok());
  auto q5 = exec.Execute(MustBind(db, TpchQ5Sql(100000)));
  ASSERT_TRUE(q5.ok());
  EXPECT_LE(q5.value().size(), 25u);
}

TEST(CrimesTest, TableAndQueries) {
  Database db;
  CrimesSpec spec;
  spec.num_rows = 20000;
  ASSERT_TRUE(CreateCrimesTable(&db, spec).ok());
  Executor exec(&db);
  auto cq1 = exec.Execute(MustBind(db, CrimesCq1Sql()));
  ASSERT_TRUE(cq1.ok());
  EXPECT_GT(cq1.value().size(), 300u);  // beats x years
  auto cq2 = exec.Execute(MustBind(db, CrimesCq2Sql(80)));
  ASSERT_TRUE(cq2.ok());
  EXPECT_GT(cq2.value().size(), 0u);
  EXPECT_LT(cq2.value().size(), 305u);
}

TEST(DriverTest, MixedWorkloadRunsAndCounts) {
  Database db;
  SyntheticSpec spec;
  spec.name = "t";
  spec.num_rows = 500;
  spec.num_groups = 20;
  ASSERT_TRUE(CreateSyntheticTable(&db, spec).ok());
  ImpConfig config;
  config.mode = ExecutionMode::kIncremental;
  ImpSystem system(&db, config);
  ASSERT_TRUE(system
                  .RegisterPartition(
                      RangePartition::EquiWidthInt("t", "b", 2, 0, 100, 5))
                  .ok());

  MixedWorkloadSpec wl;
  wl.total_ops = 60;
  wl.queries_per_round = 5;
  wl.updates_per_round = 1;  // 1U5Q
  Rng rng(3);
  auto query_gen = [](Rng& r) {
    return "SELECT a, sum(b) AS sb FROM t GROUP BY a HAVING sum(b) > " +
           std::to_string(500 + r.UniformInt(0, 20) * 10);
  };
  auto result = RunMixedWorkload(&system, query_gen,
                                 SyntheticInsertGen("t", 5, 20, 10000), wl);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().queries_run + result.value().updates_run, 60u);
  EXPECT_EQ(result.value().updates_run, 10u);  // 1 update per 5 queries
  EXPECT_EQ(result.value().queries_run, 50u);
  EXPECT_GT(result.value().stats.sketch_uses, 0u);
  EXPECT_GT(result.value().total_seconds, 0.0);
}

TEST(DriverTest, SyntheticInsertGenProducesFreshIds) {
  auto gen = SyntheticInsertGen("t", 3, 10, 555);
  Rng rng(1);
  BoundUpdate u1 = gen(rng);
  BoundUpdate u2 = gen(rng);
  ASSERT_EQ(u1.rows.size(), 3u);
  EXPECT_EQ(u1.rows[0][0], Value::Int(555));
  EXPECT_EQ(u2.rows[0][0], Value::Int(558));  // ids continue across calls
}

}  // namespace
}  // namespace imp
