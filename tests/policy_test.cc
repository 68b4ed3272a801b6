// Tests for the self-tuning maintenance policies (middleware/policy.h):
//
//  * the pure decision function and the cost ledger's EWMA bookkeeping;
//  * the outgrown-window rules (structural and measured) switching a
//    sketch from incremental repair to FM recapture — and back;
//  * eviction of idle sketches, their exclusion from delta-log pinning,
//    and query-driven readmission through a recapture;
//  * eager-round deferral under ingest-queue pressure, its starvation
//    bound, and adaptive apply-batch sizing;
//  * composition with the PR 6 health ladder: backoff governs a failing
//    recapture (no storm), quarantined entries are invisible to the cost
//    model;
//  * a randomized soak: the cost-based system's query results and sketches
//    are bit-identical to an always-incremental (kFixed) twin over the
//    same watermarks.

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/random.h"
#include "middleware/imp_system.h"
#include "middleware/policy.h"
#include "test_util.h"
#include "workload/synthetic.h"

namespace imp {
namespace {

// ---- Helpers ---------------------------------------------------------------

FailpointRegistry& Registry() { return FailpointRegistry::Instance(); }

/// Isolation fixture for the cases that arm failpoints.
class PolicyFaultTest : public ::testing::Test {
 protected:
  void SetUp() override { Registry().Reset(); }
  void TearDown() override { Registry().Reset(); }
};

Relation RefResult(const Database& db, const std::string& sql) {
  PlanPtr plan = MustBind(db, sql);
  Executor exec(&db);
  auto result = exec.Execute(plan);
  IMP_CHECK(result.ok());
  return std::move(result).value();
}

Relation MustQuery(ImpSystem* system, const std::string& sql) {
  auto result = system->Query(sql);
  IMP_CHECK_MSG(result.ok(), result.status().ToString());
  return std::move(result).value();
}

/// Incremental sales system with the cost-based engine on.
ImpConfig TunedSalesConfig() {
  ImpConfig config;
  config.mode = ExecutionMode::kIncremental;
  config.strategy = MaintenanceStrategy::kLazy;
  config.policy.mode = PolicyMode::kCostBased;
  return config;
}

Tuple SalesRow(int64_t sid, int64_t price) {
  return Tuple{Value::Int(sid), Value::String("HP"),
               Value::String("HP EliteBook 860 G9"), Value::Int(price),
               Value::Int(2)};
}

/// One multi-row INSERT of `n` rows starting at `first_sid`.
BoundUpdate SalesBurst(int64_t first_sid, size_t n) {
  BoundUpdate update;
  update.kind = BoundUpdate::Kind::kInsert;
  update.table = "sales";
  for (size_t i = 0; i < n; ++i) {
    update.rows.push_back(SalesRow(first_sid + static_cast<int64_t>(i), 1299));
  }
  return update;
}

// ---- DecideMaintenance: the pure decision function -------------------------

TEST(PolicyDecisionTest, NonStaleSketchOnlyFastForwards) {
  PolicyConfig config;
  config.mode = PolicyMode::kCostBased;
  SketchCostLedger ledger;
  ledger.idle_rounds = 1000;  // even a hopelessly idle sketch: nothing to do
  PolicyInputs inputs;
  inputs.stale = false;
  EXPECT_EQ(DecideMaintenance(config, &ledger, inputs),
            SketchPolicy::kIncremental);
}

TEST(PolicyDecisionTest, QueryUseClosesTheIdleWindow) {
  PolicyConfig config;
  config.evict_after_idle_rounds = 4;
  SketchCostLedger ledger;
  ledger.idle_rounds = 4;  // at the eviction threshold...
  ledger.uses_seen = 2;
  PolicyInputs inputs;
  inputs.stale = true;
  inputs.current_uses = 3;  // ...but a query used the sketch since
  inputs.pending_delta_rows = 1;
  inputs.table_rows = 1000;
  EXPECT_EQ(DecideMaintenance(config, &ledger, inputs),
            SketchPolicy::kIncremental);
  EXPECT_EQ(ledger.idle_rounds, 0u);
  EXPECT_EQ(ledger.uses_seen, 3u);

  // No further use: the same idle count now evicts.
  ledger.idle_rounds = 4;
  EXPECT_EQ(DecideMaintenance(config, &ledger, inputs),
            SketchPolicy::kEvicted);
}

TEST(PolicyDecisionTest, InvalidatedWindowAlwaysRecaptures) {
  PolicyConfig config;
  config.evict_after_idle_rounds = 1;
  SketchCostLedger ledger;
  ledger.needs_recapture = true;
  ledger.idle_rounds = 50;  // would evict — but the window is unsound first
  PolicyInputs inputs;
  inputs.stale = true;
  inputs.pending_delta_rows = 1;
  inputs.table_rows = 1000;
  EXPECT_EQ(DecideMaintenance(config, &ledger, inputs),
            SketchPolicy::kRecapture);
}

TEST(PolicyDecisionTest, StructuralOutgrownRule) {
  PolicyConfig config;
  config.outgrown_delta_ratio = 0.5;
  SketchCostLedger ledger;  // cold EWMAs: the structural rule fires anyway
  PolicyInputs inputs;
  inputs.stale = true;
  inputs.table_rows = 100;
  inputs.pending_delta_rows = 49;
  EXPECT_EQ(DecideMaintenance(config, &ledger, inputs),
            SketchPolicy::kIncremental);
  inputs.pending_delta_rows = 50;
  EXPECT_EQ(DecideMaintenance(config, &ledger, inputs),
            SketchPolicy::kRecapture);
  // Empty-table clamp: the threshold never divides by zero.
  inputs.table_rows = 0;
  inputs.pending_delta_rows = 1;
  EXPECT_EQ(DecideMaintenance(config, &ledger, inputs),
            SketchPolicy::kRecapture);
}

TEST(PolicyDecisionTest, MeasuredCostRuleNeedsBothEwmasWarm) {
  PolicyConfig config;
  config.outgrown_delta_ratio = 0.9;  // keep the structural rule out
  SketchCostLedger ledger;
  PolicyInputs inputs;
  inputs.stale = true;
  inputs.pending_delta_rows = 200;
  inputs.table_rows = 1000;

  // Repair is measured 100x costlier per row — but capture is unwarmed,
  // so no verdict may be fabricated.
  ledger.repair_s_per_row = 1e-3;
  ledger.has_repair = true;
  EXPECT_EQ(DecideMaintenance(config, &ledger, inputs),
            SketchPolicy::kIncremental);

  // Both warm: est_repair = 0.2s > est_capture = 0.01s -> recapture.
  ledger.capture_s_per_row = 1e-5;
  ledger.has_capture = true;
  EXPECT_EQ(DecideMaintenance(config, &ledger, inputs),
            SketchPolicy::kRecapture);

  // A strong bias toward repair flips the same numbers back.
  config.recapture_bias = 100.0;
  EXPECT_EQ(DecideMaintenance(config, &ledger, inputs),
            SketchPolicy::kIncremental);
}

TEST(PolicyDecisionTest, EvictionDisabledByZeroThreshold) {
  PolicyConfig config;
  config.evict_after_idle_rounds = 0;
  SketchCostLedger ledger;
  ledger.idle_rounds = 100000;
  PolicyInputs inputs;
  inputs.stale = true;
  inputs.pending_delta_rows = 1;
  inputs.table_rows = 1000;
  EXPECT_EQ(DecideMaintenance(config, &ledger, inputs),
            SketchPolicy::kIncremental);
}

// ---- The cost ledger's EWMA bookkeeping ------------------------------------

TEST(PolicyLedgerTest, EwmaSeedsWithFirstSampleThenBlends) {
  SketchCostLedger ledger;
  ledger.ObserveRepair(/*seconds=*/0.1, /*rows=*/100);
  EXPECT_DOUBLE_EQ(ledger.repair_s_per_row, 0.001);  // seeded, not averaged
  EXPECT_TRUE(ledger.has_repair);
  ledger.ObserveRepair(0.3, 100);
  EXPECT_DOUBLE_EQ(ledger.repair_s_per_row,
                   kCostEwmaAlpha * 0.003 + (1 - kCostEwmaAlpha) * 0.001);
  EXPECT_EQ(ledger.upkeep_rounds, 2u);
  EXPECT_DOUBLE_EQ(ledger.upkeep_seconds, 0.4);
  EXPECT_EQ(ledger.idle_rounds, 2u);
}

TEST(PolicyLedgerTest, CaptureObservationClearsNeedsRecapture) {
  SketchCostLedger ledger;
  ledger.needs_recapture = true;
  ledger.ObserveCapture(0.2, 1000);
  EXPECT_FALSE(ledger.needs_recapture);
  EXPECT_DOUBLE_EQ(ledger.capture_s_per_row, 0.0002);
  EXPECT_TRUE(ledger.has_capture);
}

TEST(PolicyLedgerTest, ZeroRowObservationsClampTheDenominator) {
  SketchCostLedger ledger;
  ledger.ObserveRepair(0.5, 0);  // 0 rows must not divide by zero
  EXPECT_DOUBLE_EQ(ledger.repair_s_per_row, 0.5);
  ledger.ObserveAnnotationHitRate(0.75);
  EXPECT_DOUBLE_EQ(ledger.annotation_hit_rate, 0.75);
}

TEST(PolicyLedgerTest, PolicyNamesAreStable) {
  EXPECT_STREQ(SketchPolicyName(SketchPolicy::kIncremental), "incremental");
  EXPECT_STREQ(SketchPolicyName(SketchPolicy::kRecapture), "recapture");
  EXPECT_STREQ(SketchPolicyName(SketchPolicy::kEvicted), "evicted");
}

// ---- Outgrown window: incremental -> recapture -> incremental --------------

TEST(PolicySystemTest, OutgrownWindowSwitchesToRecaptureAndBack) {
  Database db;
  LoadSalesExample(&db);  // 7 rows
  ImpConfig config = TunedSalesConfig();
  ImpSystem system(&db, config);
  ASSERT_TRUE(system.RegisterPartition(SalesPricePartition()).ok());
  Relation expected = RefResult(db, kSalesQTop);
  EXPECT_TRUE(MustQuery(&system, kSalesQTop).SameBag(expected));
  ASSERT_EQ(system.stats().sketch_captures, 1u);

  // 8 pending rows against 15 rows at the cut: past the 0.5 default ratio,
  // so the round must rebuild instead of replaying the larger-than-the-
  // table delta window.
  ASSERT_TRUE(system.UpdateBound(SalesBurst(100, 8)).ok());
  ASSERT_TRUE(system.MaintainAll().ok());
  EXPECT_EQ(system.stats().policy_recaptures, 1u);
  EXPECT_EQ(system.stats().sketch_captures, 2u);  // initial + cost-model
  EXPECT_GE(system.stats().policy_switches, 1u);

  // The recaptured sketch answers bit-identically and is current.
  expected = RefResult(db, kSalesQTop);
  size_t uses_before = system.stats().sketch_uses;
  EXPECT_TRUE(MustQuery(&system, kSalesQTop).SameBag(expected));
  EXPECT_GT(system.stats().sketch_uses, uses_before);
  EXPECT_EQ(system.Health().sketches_fresh, 1u);

  // A small delta flips the entry back to incremental repair.
  ASSERT_TRUE(system.Update(
      "INSERT INTO sales VALUES (200,'HP','HP ProBook',999,1)").ok());
  size_t maintenances_before = system.stats().maintenances;
  ASSERT_TRUE(system.MaintainAll().ok());
  EXPECT_EQ(system.stats().policy_recaptures, 1u);  // no further recapture
  EXPECT_EQ(system.stats().sketch_captures, 2u);
  EXPECT_GT(system.stats().maintenances, maintenances_before);
  expected = RefResult(db, kSalesQTop);
  EXPECT_TRUE(MustQuery(&system, kSalesQTop).SameBag(expected));

  // The ledger is visible through Health(): the capture EWMA was seeded at
  // the initial capture and refreshed by the cost-model recapture.
  SystemHealth health = system.Health();
  ASSERT_EQ(health.policies.size(), 1u);
  EXPECT_GT(health.policies[0].capture_s_per_row, 0.0);
  EXPECT_GE(health.policies[0].upkeep_rounds, 2u);
}

// ---- Eviction of idle sketches and query-driven readmission ----------------

TEST(PolicySystemTest, IdleSketchIsEvictedAndReadmittedByAQuery) {
  Database db;
  LoadSalesExample(&db);
  ImpConfig config = TunedSalesConfig();
  config.policy.evict_after_idle_rounds = 3;
  ImpSystem system(&db, config);
  ASSERT_TRUE(system.RegisterPartition(SalesPricePartition()).ok());
  MustQuery(&system, kSalesQTop);  // capture; the only query use

  // Four maintained-but-unqueried rounds: idle_rounds reaches the
  // threshold after round 3, round 4 declines the upkeep.
  for (int64_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(system.UpdateBound(SalesBurst(300 + i, 1)).ok());
    ASSERT_TRUE(system.MaintainAll().ok());
  }
  EXPECT_EQ(system.stats().sketches_evicted, 1u);
  SystemHealth health = system.Health();
  ASSERT_EQ(health.policies.size(), 1u);
  EXPECT_EQ(health.policies[0].policy, SketchPolicy::kEvicted);
  // An evicted entry no longer pins the delta log.
  EXPECT_EQ(system.sketches().MinValidVersion(), UINT64_MAX);

  // Further rounds skip it entirely.
  size_t maintenances_before = system.stats().maintenances;
  ASSERT_TRUE(system.UpdateBound(SalesBurst(310, 1)).ok());
  ASSERT_TRUE(system.MaintainAll().ok());
  EXPECT_EQ(system.stats().maintenances, maintenances_before);

  // A query IS the benefit signal: it readmits the entry, and because the
  // log may have truncated past the evicted version, the repair must be a
  // rebuild from base tables — then the answer is bit-identical and the
  // sketch accelerates again.
  Relation expected = RefResult(db, kSalesQTop);
  EXPECT_TRUE(MustQuery(&system, kSalesQTop).SameBag(expected));
  EXPECT_EQ(system.stats().sketch_captures, 2u);  // initial + readmission
  EXPECT_EQ(system.stats().policy_recaptures, 1u);
  EXPECT_GE(system.stats().policy_switches, 3u);  // evict, readmit, recapture
  health = system.Health();
  ASSERT_EQ(health.policies.size(), 1u);
  EXPECT_NE(health.policies[0].policy, SketchPolicy::kEvicted);
  // The use reset the idle window; only the readmitting recapture itself
  // has been counted since.
  EXPECT_LE(health.policies[0].idle_rounds, 1u);
  // ...and it pins the log again.
  EXPECT_NE(system.sketches().MinValidVersion(), UINT64_MAX);

  // Back in service: the next round maintains it.
  ASSERT_TRUE(system.UpdateBound(SalesBurst(320, 1)).ok());
  maintenances_before = system.stats().maintenances;
  ASSERT_TRUE(system.MaintainAll().ok());
  EXPECT_GT(system.stats().maintenances, maintenances_before);
}

// ---- Pressure deferral of eager rounds -------------------------------------

TEST(PolicySystemTest, QueuePressureDefersEagerRounds) {
  Database db;
  LoadSalesExample(&db);
  ImpConfig config = TunedSalesConfig();
  config.strategy = MaintenanceStrategy::kEager;
  config.eager_batch_size = 1;
  config.async_ingestion = true;
  config.ingest_queue_capacity = 8;
  config.policy.defer_queue_fraction = 0.25;  // threshold: 2 of 8
  // Keep the worker at one statement per cycle so every NoteUpdate
  // observes a deterministic backlog depth (adaptive sizing would drain
  // the whole burst in one cycle and leave nothing to defer on).
  config.policy.adaptive_ingest_batch = false;
  ImpSystem system(&db, config);
  ASSERT_TRUE(system.RegisterPartition(SalesPricePartition()).ok());
  MustQuery(&system, kSalesQTop);

  // Wedge the worker on the sales write stripe mid-apply, then pile six
  // statements behind it: on release the worker applies one per cycle and
  // sees backlogs 6,5,4,3,2,1,0 — the first four are above the threshold
  // (and under the starvation bound), so exactly four flushes defer.
  auto stripe = db.WriteSession("sales");
  ASSERT_TRUE(system.UpdateBound(SalesBurst(400, 1)).ok());
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (system.Health().ingest_queue_depth != 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(system.Health().ingest_queue_depth, 0u);
  for (int64_t i = 1; i <= 6; ++i) {
    ASSERT_TRUE(system.UpdateBound(SalesBurst(400 + i, 1)).ok());
  }
  stripe.unlock();
  ASSERT_TRUE(system.WaitForIngest().ok());

  EXPECT_EQ(system.stats().rounds_deferred, 4u);
  // The deferred statements were NOT lost: once the queue drained under
  // the threshold the flush covered them, and the system is current.
  EXPECT_GE(system.stats().batch_rounds, 3u);
  ASSERT_TRUE(system.MaintainAll().ok());
  Relation expected = RefResult(db, kSalesQTop);
  EXPECT_TRUE(MustQuery(&system, kSalesQTop).SameBag(expected));
  EXPECT_EQ(system.Health().sketches_fresh, 1u);
}

TEST(PolicySystemTest, StarvationBoundForcesAFlushUnderPressure) {
  Database db;
  LoadSalesExample(&db);
  ImpConfig config = TunedSalesConfig();
  config.strategy = MaintenanceStrategy::kEager;
  config.eager_batch_size = 1;
  config.async_ingestion = true;
  config.ingest_queue_capacity = 8;
  config.policy.defer_queue_fraction = 0.25;
  config.policy.max_consecutive_deferrals = 2;
  config.policy.adaptive_ingest_batch = false;
  ImpSystem system(&db, config);
  ASSERT_TRUE(system.RegisterPartition(SalesPricePartition()).ok());
  MustQuery(&system, kSalesQTop);

  // Same six-deep backlog, but the bound trips after two deferrals: the
  // flush at depth 4 proceeds DESPITE the pressure (maintenance is
  // delayed, never starved), then depth 3 defers once more and depth 2
  // flushes normally — three deferrals in total.
  auto stripe = db.WriteSession("sales");
  ASSERT_TRUE(system.UpdateBound(SalesBurst(500, 1)).ok());
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (system.Health().ingest_queue_depth != 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(system.Health().ingest_queue_depth, 0u);
  for (int64_t i = 1; i <= 6; ++i) {
    ASSERT_TRUE(system.UpdateBound(SalesBurst(500 + i, 1)).ok());
  }
  stripe.unlock();
  ASSERT_TRUE(system.WaitForIngest().ok());

  EXPECT_EQ(system.stats().rounds_deferred, 3u);
  Relation expected = RefResult(db, kSalesQTop);
  EXPECT_TRUE(MustQuery(&system, kSalesQTop).SameBag(expected));
}

TEST(PolicySystemTest, AdaptiveBatchSizingDrainsTheBacklogInOneCycle) {
  Database db;
  LoadSalesExample(&db);
  ImpConfig config = TunedSalesConfig();  // adaptive_ingest_batch on
  config.async_ingestion = true;
  config.ingest_queue_capacity = 64;
  ImpSystem system(&db, config);
  ASSERT_TRUE(system.RegisterPartition(SalesPricePartition()).ok());
  MustQuery(&system, kSalesQTop);

  // One statement wedges the worker; twenty pile up behind it. The next
  // cycle sizes itself from the backlog and drains all twenty at once
  // (the fixed ingest_apply_batch is 1).
  auto stripe = db.WriteSession("sales");
  ASSERT_TRUE(system.UpdateBound(SalesBurst(600, 1)).ok());
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (system.Health().ingest_queue_depth != 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(system.Health().ingest_queue_depth, 0u);
  for (int64_t i = 1; i <= 20; ++i) {
    ASSERT_TRUE(system.UpdateBound(SalesBurst(600 + i, 1)).ok());
  }
  stripe.unlock();
  ASSERT_TRUE(system.WaitForIngest().ok());

  EXPECT_EQ(system.stats().ingest_applied, 21u);
  EXPECT_EQ(system.stats().ingest_batch_max, 20u);
  // Adaptive draining only moves throughput, never results.
  ASSERT_TRUE(system.MaintainAll().ok());
  Relation expected = RefResult(db, kSalesQTop);
  EXPECT_TRUE(MustQuery(&system, kSalesQTop).SameBag(expected));
  EXPECT_EQ(db.GetTable("sales")->NumRows(), 28u);
}

// ---- Composition with the health ladder ------------------------------------

TEST_F(PolicyFaultTest, BackoffGovernsAFailingRecaptureNoStorm) {
  uint64_t now = 1000;  // outlives the system (declared first)
  Database db;
  LoadSalesExample(&db);
  ImpConfig config = TunedSalesConfig();
  config.clock_ms = [&now] { return now; };
  config.maintenance_backoff_ms = 100;
  config.maintenance_backoff_cap_ms = 1000;
  config.recapture_after_failures = 100;  // keep ladder escalation out
  config.quarantine_after_failures = 200;
  ImpSystem system(&db, config);
  ASSERT_TRUE(system.RegisterPartition(SalesPricePartition()).ok());
  MustQuery(&system, kSalesQTop);
  // Outgrown window: the cost model WANTS a recapture...
  ASSERT_TRUE(system.UpdateBound(SalesBurst(700, 8)).ok());

  // ...but the capture path is faulty. The failure lands in the health
  // ladder exactly like an incremental failure would.
  ASSERT_TRUE(Registry().ArmFromSpec("capture=always").ok());
  Failpoint& fp = Registry().GetOrCreate(kFpCapture);
  EXPECT_FALSE(system.MaintainAll().ok());
  EXPECT_EQ(fp.fire_count(), 1u);

  // The backoff deadline outranks the cost model: the still-wanted
  // recapture is NOT retried until it passes — no recapture storm.
  EXPECT_TRUE(system.MaintainAll().ok());
  EXPECT_TRUE(system.MaintainAll().ok());
  EXPECT_EQ(fp.fire_count(), 1u);

  now = 1100;  // deadline reached: one (failing) retry, backoff doubles
  EXPECT_FALSE(system.MaintainAll().ok());
  EXPECT_EQ(fp.fire_count(), 2u);

  // Fault clears; the next due round performs the deferred recapture.
  Registry().DisarmAll();
  now = 1300;
  ASSERT_TRUE(system.MaintainAll().ok());
  EXPECT_EQ(system.stats().policy_recaptures, 1u);
  EXPECT_EQ(system.Health().sketches_fresh, 1u);
  Relation expected = RefResult(db, kSalesQTop);
  EXPECT_TRUE(MustQuery(&system, kSalesQTop).SameBag(expected));
}

TEST_F(PolicyFaultTest, QuarantinedEntriesAreInvisibleToTheCostModel) {
  Database db;
  LoadSalesExample(&db);
  ImpConfig config = TunedSalesConfig();
  config.maintenance_backoff_ms = 0;
  config.recapture_after_failures = 1;
  config.quarantine_after_failures = 2;
  ImpSystem system(&db, config);
  ASSERT_TRUE(system.RegisterPartition(SalesPricePartition()).ok());
  MustQuery(&system, kSalesQTop);
  ASSERT_TRUE(system.UpdateBound(SalesBurst(8, 1)).ok());

  // Drive the entry down the whole ladder: repair and capture both fault.
  ASSERT_TRUE(
      Registry().ArmFromSpec("maintain.round=always;capture=always").ok());
  EXPECT_FALSE(system.MaintainAll().ok());  // failure 1, escalation fails too
  EXPECT_FALSE(system.MaintainAll().ok());  // failure 2 -> quarantined
  ASSERT_EQ(system.Health().sketches_quarantined, 1u);
  Registry().DisarmAll();

  // An outgrown window would normally force a recapture — but quarantine
  // outranks the cost model: the entry sits rounds out untouched until
  // the explicit repair step, and is never "deferred" or evicted either.
  ASSERT_TRUE(system.UpdateBound(SalesBurst(800, 10)).ok());
  ASSERT_TRUE(system.MaintainAll().ok());
  EXPECT_EQ(system.stats().policy_recaptures, 0u);
  EXPECT_EQ(system.stats().sketches_evicted, 0u);
  EXPECT_EQ(system.Health().sketches_quarantined, 1u);

  // Queries stay correct (degraded to plain scans) meanwhile.
  Relation expected = RefResult(db, kSalesQTop);
  EXPECT_TRUE(MustQuery(&system, kSalesQTop).SameBag(expected));
  EXPECT_GE(system.stats().degraded_queries, 1u);

  // The explicit repair returns it to service; policy decisions resume.
  ASSERT_TRUE(system.RepairQuarantined().ok());
  EXPECT_EQ(system.Health().sketches_quarantined, 0u);
  EXPECT_TRUE(MustQuery(&system, kSalesQTop).SameBag(expected));
}

// ---- Randomized soak: bit-identical to an always-incremental twin ----------

std::vector<std::string> SoakQueries() {
  std::vector<std::string> queries;
  for (const char* col : {"b", "c"}) {
    queries.push_back("SELECT a, sum(" + std::string(col) +
                      ") AS s FROM edb GROUP BY a HAVING sum(" + col +
                      ") > 100");
    queries.push_back("SELECT a, sum(" + std::string(col) +
                      ") AS s FROM edb WHERE " + col +
                      " < 400 GROUP BY a HAVING sum(" + col + ") > 50");
  }
  return queries;
}

struct SoakSnapshot {
  std::vector<std::vector<size_t>> sketch_bits;
  std::vector<uint64_t> versions;
  std::vector<std::string> mid_results;    ///< queries asked during the run
  std::vector<std::string> final_results;  ///< all queries at the end
  uint64_t stable_version = 0;
  size_t policy_recaptures = 0;  ///< tuned run only; not compared
  size_t sketches_evicted = 0;
  size_t policy_switches = 0;
};

/// One deterministic bursty workload (synchronous ingestion, so both twins
/// observe identical watermarks at every query and maintenance round).
SoakSnapshot RunSoak(PolicyMode mode, uint64_t seed) {
  Database db;
  SyntheticSpec spec;
  spec.name = "edb";
  spec.num_rows = 400;
  spec.num_groups = 50;
  spec.seed = 7;
  IMP_CHECK(CreateSyntheticTable(&db, spec).ok());

  ImpConfig config;
  config.mode = ExecutionMode::kIncremental;
  config.strategy = MaintenanceStrategy::kLazy;
  config.policy.mode = mode;
  // Aggressive knobs so the soak actually exercises every transition:
  // bursts outgrow the window, unqueried sketches evict quickly.
  config.policy.outgrown_delta_ratio = 0.25;
  config.policy.evict_after_idle_rounds = 3;
  ImpSystem system(&db, config);
  IMP_CHECK(system
                .RegisterPartition(
                    RangePartition::EquiWidthInt("edb", "a", 1, 0, 49, 10))
                .ok());
  const std::vector<std::string> queries = SoakQueries();
  for (const std::string& q : queries) {
    auto result = system.Query(q);
    IMP_CHECK_MSG(result.ok(), result.status().ToString().c_str());
  }

  SoakSnapshot snap;
  Rng rng(seed);
  int64_t next_id = static_cast<int64_t>(spec.num_rows);
  for (size_t step = 0; step < 40; ++step) {
    if (rng.Chance(0.15)) {
      // Burst: a delta window in the order of the table itself.
      BoundUpdate update;
      update.kind = BoundUpdate::Kind::kInsert;
      update.table = "edb";
      size_t n = static_cast<size_t>(rng.UniformInt(150, 250));
      for (size_t r = 0; r < n; ++r) {
        update.rows.push_back(SyntheticRow(spec, next_id++, &rng));
      }
      IMP_CHECK(system.UpdateBound(update).ok());
    } else if (rng.Chance(0.35)) {
      int64_t lo = rng.UniformInt(0, next_id - 1);
      int64_t hi = lo + rng.UniformInt(0, 20);
      IMP_CHECK(system
                    .Update("DELETE FROM edb WHERE id >= " +
                            std::to_string(lo) + " AND id <= " +
                            std::to_string(hi))
                    .ok());
    } else {
      BoundUpdate update;
      update.kind = BoundUpdate::Kind::kInsert;
      update.table = "edb";
      size_t n = static_cast<size_t>(rng.UniformInt(1, 5));
      for (size_t r = 0; r < n; ++r) {
        update.rows.push_back(SyntheticRow(spec, next_id++, &rng));
      }
      IMP_CHECK(system.UpdateBound(update).ok());
    }
    if ((step + 1) % 4 == 0) IMP_CHECK(system.MaintainAll().ok());
    if ((step + 1) % 7 == 0) {
      // Keep ONE query hot so its sketch is never idle; the others only
      // run at the end — in the tuned system they are evicted meanwhile
      // and must come back bit-identically through readmission.
      auto result = system.Query(queries[0]);
      IMP_CHECK(result.ok());
      EXPECT_TRUE(result.value().SameBag(RefResult(db, queries[0])))
          << "step " << step;
      snap.mid_results.push_back(result.value().ToString());
    }
  }
  IMP_CHECK(system.MaintainAll().ok());

  for (const std::string& q : queries) {
    auto result = system.Query(q);
    IMP_CHECK(result.ok());
    EXPECT_TRUE(result.value().SameBag(RefResult(db, q)))
        << q;
    snap.final_results.push_back(result.value().ToString());
  }
  // After the final readmitting queries, one more round brings every
  // sketch to the same watermark in both twins.
  IMP_CHECK(system.MaintainAll().ok());
  for (SketchEntry* entry : system.sketches().AllEntries()) {
    snap.sketch_bits.push_back(entry->sketch.fragments.SetBits());
    snap.versions.push_back(entry->sketch.valid_version);
  }
  snap.stable_version = db.StableVersion();
  snap.policy_recaptures = system.stats().policy_recaptures;
  snap.sketches_evicted = system.stats().sketches_evicted;
  snap.policy_switches = system.stats().policy_switches;
  return snap;
}

TEST(PolicySoakTest, CostBasedMatchesAlwaysIncrementalTwin) {
  for (uint64_t seed : {13u, 59u}) {
    SoakSnapshot fixed = RunSoak(PolicyMode::kFixed, seed);
    SoakSnapshot tuned = RunSoak(PolicyMode::kCostBased, seed);
    const std::string label = "seed " + std::to_string(seed);

    // The hard gate: every query result and every sketch is bit-identical
    // over the same watermarks, whatever the tuned run decided (and RunSoak
    // checks each answer against the plain executor's).
    EXPECT_EQ(fixed.mid_results, tuned.mid_results) << label;
    EXPECT_EQ(fixed.final_results, tuned.final_results) << label;
    ASSERT_EQ(fixed.sketch_bits.size(), tuned.sketch_bits.size()) << label;
    for (size_t i = 0; i < fixed.sketch_bits.size(); ++i) {
      EXPECT_EQ(fixed.sketch_bits[i], tuned.sketch_bits[i])
          << label << ": sketch " << i << " diverged";
      EXPECT_EQ(fixed.versions[i], tuned.versions[i])
          << label << ": version " << i << " diverged";
    }
    EXPECT_EQ(fixed.stable_version, tuned.stable_version) << label;

    // The tuned run genuinely exercised the policies it claims to have.
    EXPECT_GE(tuned.policy_recaptures, 1u) << label;
    EXPECT_GE(tuned.sketches_evicted, 1u) << label;
    EXPECT_GE(tuned.policy_switches, 2u) << label;
    // ...and the fixed twin stayed on the escape hatch.
    EXPECT_EQ(fixed.policy_recaptures, 0u) << label;
    EXPECT_EQ(fixed.sketches_evicted, 0u) << label;
    EXPECT_EQ(fixed.policy_switches, 0u) << label;
  }
}

}  // namespace
}  // namespace imp
