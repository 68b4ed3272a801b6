// Property-based tests (parameterized sweeps) checking the paper's two
// correctness pillars on randomized databases and update streams:
//
//  P1 (Theorem 6.1, over-approximation): after any update sequence, the
//     incrementally maintained sketch covers the accurate sketch obtained
//     by re-capturing on the updated database.
//  P2 (safety / fragment correctness): evaluating the query over the data
//     selected by the maintained sketch produces exactly the same bag of
//     results as evaluating over the full database.
//  P3 (middleware end-to-end): under random mixed workloads, IMP answers
//     match the no-sketch baseline.
//  P4 (concurrent front end): under random THREADED interleavings of
//     update / query / maintain / repartition (seeded RNG schedules), each
//     entry's published valid_version and snapshot epoch are monotone, and
//     the superset-safety of (possibly stale) sketches holds at every
//     observation point: the maintained sketch covers the accurate
//     recapture and the sketch-filtered answer equals the full scan.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "exec/executor.h"
#include "imp/maintainer.h"
#include "middleware/imp_system.h"
#include "sketch/capture.h"
#include "sketch/use_rewrite.h"
#include "test_util.h"
#include "workload/synthetic.h"

namespace imp {
namespace {

/// One randomized scenario: query family x seed.
struct Scenario {
  enum class Query {
    kSumHaving,     // group-by sum HAVING (monotone)
    kCountHaving,   // group-by count HAVING
    kMinMax,        // group-by min/max (group-aligned partition)
    kTopK,          // order-by limit over aggregation
    kJoinHaving,    // join + group-by sum HAVING
  };
  Query query;
  uint64_t seed;
};

std::string ScenarioName(const ::testing::TestParamInfo<Scenario>& info) {
  const char* names[] = {"SumHaving", "CountHaving", "MinMax", "TopK",
                         "JoinHaving"};
  return std::string(names[static_cast<int>(info.param.query)]) + "_seed" +
         std::to_string(info.param.seed);
}

class MaintenanceProperty : public ::testing::TestWithParam<Scenario> {
 protected:
  static constexpr size_t kGroups = 30;

  void SetUp() override {
    const Scenario& s = GetParam();
    rng_ = std::make_unique<Rng>(s.seed);
    spec_.name = "t";
    spec_.num_rows = 1500;
    spec_.num_groups = kGroups;
    spec_.seed = s.seed * 31 + 7;
    IMP_CHECK(CreateSyntheticTable(&db_, spec_).ok());
    if (s.query == Scenario::Query::kJoinHaving) {
      JoinPairSpec jp;
      jp.left_name = "jl";
      jp.right_name = "jr";
      jp.distinct_keys = kGroups;
      jp.left_per_key = 10;
      jp.right_per_key = 2;
      jp.seed = s.seed;
      IMP_CHECK(CreateJoinPair(&db_, jp).ok());
    }
    // Partition choice: group-aligned on `a` for the non-monotone
    // families; on the noise column for the monotone ones (to exercise
    // non-aligned fragments).
    switch (s.query) {
      case Scenario::Query::kSumHaving:
      case Scenario::Query::kCountHaving:
        IMP_CHECK(catalog_
                      .Register(RangePartition::EquiWidthInt(
                          "t", "b", 2, 0, 200, 7))
                      .ok());
        break;
      case Scenario::Query::kMinMax:
      case Scenario::Query::kTopK:
        IMP_CHECK(catalog_
                      .Register(RangePartition::EquiWidthInt(
                          "t", "a", 1, 0, kGroups - 1, 6))
                      .ok());
        break;
      case Scenario::Query::kJoinHaving:
        IMP_CHECK(catalog_
                      .Register(RangePartition::EquiWidthInt(
                          "jl", "a", 1, 0, kGroups - 1, 6))
                      .ok());
        break;
    }
  }

  std::string QuerySql() const {
    switch (GetParam().query) {
      case Scenario::Query::kSumHaving:
        return "SELECT a, sum(b) AS sb FROM t GROUP BY a "
               "HAVING sum(b) > 2000";
      case Scenario::Query::kCountHaving:
        return "SELECT a, count(*) AS n FROM t GROUP BY a "
               "HAVING count(*) > 45";
      case Scenario::Query::kMinMax:
        return "SELECT a, min(b) AS lo, max(c) AS hi FROM t GROUP BY a "
               "HAVING min(b) < 20";
      case Scenario::Query::kTopK:
        return "SELECT a, sum(c) AS sc FROM t GROUP BY a "
               "ORDER BY sc DESC LIMIT 5";
      case Scenario::Query::kJoinHaving:
        return "SELECT a, sum(w) AS sw FROM jl JOIN jr ON (a = ttid) "
               "WHERE b < 100 GROUP BY a HAVING sum(w) > 500";
    }
    return "";
  }

  std::string TableName() const {
    return GetParam().query == Scenario::Query::kJoinHaving ? "jl" : "t";
  }

  /// A random update statement: insert a few rows or delete a small slice.
  void RandomUpdate(int64_t* next_id) {
    const std::string table = TableName();
    if (rng_->Chance(0.6)) {
      std::vector<Tuple> rows;
      size_t n = static_cast<size_t>(rng_->UniformInt(1, 10));
      for (size_t i = 0; i < n; ++i) {
        if (table == "jl") {
          JoinPairSpec jp;
          rows.push_back(JoinLeftRow(jp, (*next_id)++,
                                     rng_->UniformInt(0, kGroups - 1),
                                     rng_.get()));
        } else {
          rows.push_back(SyntheticRow(spec_, (*next_id)++, rng_.get()));
        }
      }
      IMP_CHECK(db_.Insert(table, rows).ok());
    } else {
      int64_t group = rng_->UniformInt(0, kGroups - 1);
      size_t limit = static_cast<size_t>(rng_->UniformInt(1, 20));
      IMP_CHECK(
          Delete(&db_, table, "a = " + std::to_string(group), limit).ok());
    }
  }

  Database db_;
  PartitionCatalog catalog_;
  SyntheticSpec spec_;
  std::unique_ptr<Rng> rng_;
};

TEST_P(MaintenanceProperty, SketchOverApproximatesAndStaysSafe) {
  PlanPtr plan = MustBind(db_, QuerySql());
  Maintainer maintainer(&db_, &catalog_, plan);
  ASSERT_TRUE(maintainer.Initialize().ok());
  CaptureEngine capture(&db_, &catalog_);
  Executor exec(&db_);

  int64_t next_id = 1000000;
  for (int round = 0; round < 8; ++round) {
    int updates = static_cast<int>(rng_->UniformInt(1, 3));
    for (int u = 0; u < updates; ++u) RandomUpdate(&next_id);

    ASSERT_TRUE(maintainer.MaintainFromBackend().ok()) << "round " << round;

    // P1: over-approximation of the accurate sketch (Theorem 6.1).
    auto accurate = capture.Capture(plan);
    ASSERT_TRUE(accurate.ok());
    ASSERT_TRUE(maintainer.sketch().Covers(accurate.value()))
        << "round " << round << ": maintained "
        << maintainer.sketch().ToString() << " does not cover accurate "
        << accurate.value().ToString();

    // P2: evaluating over the sketch-selected data yields the same result.
    PlanPtr rewritten = ApplyUseRewrite(plan, catalog_, maintainer.sketch());
    auto full = exec.Execute(plan);
    auto skipped = exec.Execute(rewritten);
    ASSERT_TRUE(full.ok());
    ASSERT_TRUE(skipped.ok());
    ASSERT_TRUE(full.value().SameBag(skipped.value()))
        << "round " << round << ": sketch-filtered result diverged.\nfull:\n"
        << full.value().ToString() << "\nskipped:\n"
        << skipped.value().ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllQueryFamilies, MaintenanceProperty,
    ::testing::Values(
        Scenario{Scenario::Query::kSumHaving, 1},
        Scenario{Scenario::Query::kSumHaving, 2},
        Scenario{Scenario::Query::kSumHaving, 3},
        Scenario{Scenario::Query::kCountHaving, 1},
        Scenario{Scenario::Query::kCountHaving, 2},
        Scenario{Scenario::Query::kMinMax, 1},
        Scenario{Scenario::Query::kMinMax, 2},
        Scenario{Scenario::Query::kMinMax, 3},
        Scenario{Scenario::Query::kTopK, 1},
        Scenario{Scenario::Query::kTopK, 2},
        Scenario{Scenario::Query::kTopK, 3},
        Scenario{Scenario::Query::kJoinHaving, 1},
        Scenario{Scenario::Query::kJoinHaving, 2},
        Scenario{Scenario::Query::kJoinHaving, 3}),
    ScenarioName);

// ---- Truncated-buffer sweep: recapture must keep everything correct ---------

class BufferProperty : public ::testing::TestWithParam<size_t> {};

TEST_P(BufferProperty, TruncatedMinMaxStaysCorrectUnderDeletions) {
  Database db;
  SyntheticSpec spec;
  spec.name = "t";
  spec.num_rows = 800;
  spec.num_groups = 10;
  ASSERT_TRUE(CreateSyntheticTable(&db, spec).ok());
  PartitionCatalog catalog;
  ASSERT_TRUE(
      catalog.Register(RangePartition::EquiWidthInt("t", "a", 1, 0, 9, 5))
          .ok());
  PlanPtr plan = MustBind(
      db, "SELECT a, min(b) AS lo FROM t GROUP BY a HAVING min(b) < 50");
  MaintainerOptions opts;
  opts.minmax_buffer = GetParam();
  Maintainer m(&db, &catalog, plan, opts);
  ASSERT_TRUE(m.Initialize().ok());
  CaptureEngine capture(&db, &catalog);

  Rng rng(GetParam() * 13 + 1);
  for (int round = 0; round < 6; ++round) {
    // Delete aggressively to stress the buffer.
    int64_t group = rng.UniformInt(0, 9);
    ASSERT_TRUE(Delete(&db, "t", "a = " + std::to_string(group), 30).ok());
    ASSERT_TRUE(m.MaintainFromBackend().ok());
    auto accurate = capture.Capture(plan);
    ASSERT_TRUE(accurate.ok());
    EXPECT_TRUE(m.sketch().Covers(accurate.value()))
        << "buffer=" << GetParam() << " round=" << round;
  }
}

INSTANTIATE_TEST_SUITE_P(BufferSizes, BufferProperty,
                         ::testing::Values(0, 1, 2, 5, 20, 1000));

// ---- Middleware equivalence under random mixed workloads ----------------------

class MixedWorkloadProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MixedWorkloadProperty, ImpMatchesNoSketchBaseline) {
  const uint64_t seed = GetParam();
  auto make_db = [&](Database* db) {
    SyntheticSpec spec;
    spec.name = "t";
    spec.num_rows = 1000;
    spec.num_groups = 25;
    spec.seed = seed;
    IMP_CHECK(CreateSyntheticTable(db, spec).ok());
  };

  Database db_ns, db_imp;
  make_db(&db_ns);
  make_db(&db_imp);
  ImpConfig ns_config;
  ns_config.mode = ExecutionMode::kNoSketch;
  ImpSystem ns(&db_ns, ns_config);
  ImpConfig imp_config;
  imp_config.mode = ExecutionMode::kIncremental;
  imp_config.strategy =
      seed % 2 == 0 ? MaintenanceStrategy::kLazy : MaintenanceStrategy::kEager;
  ImpSystem imp(&db_imp, imp_config);
  ASSERT_TRUE(
      imp.RegisterPartition(
             RangePartition::EquiWidthInt("t", "b", 2, 0, 200, 8))
          .ok());

  Rng rng(seed);
  SyntheticSpec row_spec;
  row_spec.num_groups = 25;
  int64_t next_id = 500000;
  for (int op = 0; op < 40; ++op) {
    if (rng.Chance(0.5)) {
      int64_t threshold = 2000 + rng.UniformInt(0, 50) * 20;
      std::string sql = "SELECT a, sum(b) AS sb FROM t GROUP BY a "
                        "HAVING sum(b) > " + std::to_string(threshold);
      auto r_ns = ns.Query(sql);
      auto r_imp = imp.Query(sql);
      ASSERT_TRUE(r_ns.ok());
      ASSERT_TRUE(r_imp.ok()) << r_imp.status().ToString();
      ASSERT_TRUE(r_ns.value().SameBag(r_imp.value()))
          << "op " << op << " sql: " << sql << "\nNS:\n"
          << r_ns.value().ToString() << "IMP:\n"
          << r_imp.value().ToString();
    } else if (rng.Chance(0.7)) {
      BoundUpdate update;
      update.kind = BoundUpdate::Kind::kInsert;
      update.table = "t";
      size_t n = static_cast<size_t>(rng.UniformInt(1, 8));
      Rng row_rng(seed * 1000 + op);
      for (size_t i = 0; i < n; ++i) {
        update.rows.push_back(SyntheticRow(row_spec, next_id++, &row_rng));
      }
      ASSERT_TRUE(ns.UpdateBound(update).ok());
      ASSERT_TRUE(imp.UpdateBound(update).ok());
    } else {
      int64_t group = rng.UniformInt(0, 24);
      std::string sql =
          "DELETE FROM t WHERE a = " + std::to_string(group);
      ASSERT_TRUE(ns.Update(sql).ok());
      ASSERT_TRUE(imp.Update(sql).ok());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MixedWorkloadProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

// ---- Concurrent interleavings: monotone snapshots + superset safety ---------

class InterleavingProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(InterleavingProperty, SnapshotsStayMonotoneAndSupersetSafe) {
  const uint64_t seed = GetParam();
  Database db;
  SyntheticSpec spec;
  spec.name = "t";
  spec.num_rows = 700;
  spec.num_groups = 20;
  spec.seed = seed;
  ASSERT_TRUE(CreateSyntheticTable(&db, spec).ok());

  ImpConfig config;
  config.mode = ExecutionMode::kIncremental;
  config.strategy =
      seed % 2 == 0 ? MaintenanceStrategy::kLazy : MaintenanceStrategy::kEager;
  config.eager_batch_size = 3;
  config.async_ingestion = seed % 3 == 0;
  ImpSystem system(&db, config);
  ASSERT_TRUE(system
                  .RegisterPartition(
                      RangePartition::EquiWidthInt("t", "a", 1, 0, 19, 6))
                  .ok());
  const std::string sql_sum =
      "SELECT a, sum(b) AS sb FROM t GROUP BY a HAVING sum(b) > 2000";
  const std::string sql_count =
      "SELECT a, count(*) AS n FROM t GROUP BY a HAVING count(*) > 30";
  ASSERT_TRUE(system.Query(sql_sum).ok());
  ASSERT_TRUE(system.Query(sql_count).ok());

  SyntheticSpec row_spec;
  row_spec.num_groups = 20;
  std::atomic<int64_t> next_id{700000};

  // Previously observed (epoch, valid_version) per entry; both must only
  // ever grow across observation points.
  struct Watermarks {
    uint64_t epoch = 0;
    uint64_t valid = 0;
  };
  std::map<SketchEntry*, Watermarks> seen;

  for (int phase = 0; phase < 3; ++phase) {
    // One seeded schedule: three threads draw ops from independent RNGs.
    // The interleaving itself is nondeterministic; the STREAM each thread
    // draws is reproducible from the seed.
    std::vector<std::thread> workers;
    for (int tid = 0; tid < 3; ++tid) {
      workers.emplace_back([&, tid] {
        Rng rng(seed * 131 + static_cast<uint64_t>(phase) * 17 +
                static_cast<uint64_t>(tid));
        for (int op = 0; op < 12; ++op) {
          double roll = rng.UniformDouble(0.0, 1.0);
          if (roll < 0.4) {
            BoundUpdate update;
            update.kind = BoundUpdate::Kind::kInsert;
            update.table = "t";
            size_t n = static_cast<size_t>(rng.UniformInt(1, 4));
            for (size_t i = 0; i < n; ++i) {
              update.rows.push_back(SyntheticRow(
                  row_spec, next_id.fetch_add(1, std::memory_order_relaxed),
                  &rng));
            }
            ASSERT_TRUE(system.UpdateBound(update).ok());
          } else if (roll < 0.8) {
            auto result =
                system.Query(rng.Chance(0.5) ? sql_sum : sql_count);
            ASSERT_TRUE(result.ok()) << result.status().ToString();
          } else {
            ASSERT_TRUE(system.MaintainAll().ok());
          }
        }
      });
    }
    // The main thread throws a repartition into odd phases — stop-the-world
    // racing the workers' queries and rounds.
    if (phase % 2 == 1) {
      ASSERT_TRUE(system.RepartitionTable("t", "a", 5 + phase).ok());
    }
    for (std::thread& w : workers) w.join();
    ASSERT_TRUE(system.WaitForIngest().ok());

    // ---- Observation point (quiescent) ----
    // First observe the possibly-stale mid-race snapshots: monotone, and
    // self-consistent. Then repair to the watermark (the lazy path would
    // do the same before any use) and check the incremental-safety pillar:
    // the maintained sketch covers the accurate recapture and answering
    // through it equals the full scan.
    for (SketchEntry* entry : system.sketches().AllEntries()) {
      std::shared_ptr<const SketchSnapshot> snap = entry->Snapshot();
      Watermarks& last = seen[entry];
      EXPECT_GE(snap->epoch, last.epoch) << "phase " << phase;
      EXPECT_GE(snap->valid_version(), last.valid) << "phase " << phase;
      last.epoch = snap->epoch;
      last.valid = snap->valid_version();
    }
    ASSERT_TRUE(system.MaintainAll().ok());
    CaptureEngine capture(&db, &system.catalog());
    Executor exec(&db);
    for (SketchEntry* entry : system.sketches().AllEntries()) {
      std::shared_ptr<const SketchSnapshot> snap = entry->Snapshot();
      Watermarks& last = seen[entry];
      EXPECT_GE(snap->epoch, last.epoch) << "phase " << phase;
      EXPECT_GE(snap->valid_version(), last.valid) << "phase " << phase;
      last.epoch = snap->epoch;
      last.valid = snap->valid_version();

      auto accurate = capture.Capture(entry->plan);
      ASSERT_TRUE(accurate.ok());
      EXPECT_TRUE(snap->sketch.Covers(accurate.value()))
          << "phase " << phase << ": maintained " << snap->sketch.ToString()
          << " does not cover accurate " << accurate.value().ToString();

      PlanPtr rewritten = ApplyUseRewrite(entry->plan, system.catalog(),
                                          *snap, &entry->filter_tables);
      auto full = exec.Execute(entry->plan);
      auto skipped = exec.Execute(rewritten);
      ASSERT_TRUE(full.ok());
      ASSERT_TRUE(skipped.ok());
      EXPECT_TRUE(full.value().SameBag(skipped.value()))
          << "phase " << phase << ": sketch-filtered result diverged";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Schedules, InterleavingProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

}  // namespace
}  // namespace imp
