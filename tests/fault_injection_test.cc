// Fault-injection tests: failpoints (common/failpoint.h) and the graceful
// degradation they force out of the write / maintenance / query pipeline.
// The invariant under test everywhere: a sketch only ever PRUNES work, so
// with ANY single failpoint active, queries still return results
// bit-identical to the fault-free run (degraded to plain scans at worst),
// nothing deadlocks or aborts, and clearing the fault restores accelerated
// service without a restart.
//
// The CI fault suite runs this file under ASan/UBSan and TSan, plus an
// environment-activation smoke: IMP_FAILPOINTS="maintain.round=once"
// ./fault_injection_test --gtest_filter='*EnvActivation*'.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "common/thread_pool.h"
#include "exec/executor.h"
#include "middleware/imp_system.h"
#include "test_util.h"

namespace imp {
namespace {

// ---- Environment activation (must be FIRST: the fixture below resets the
// process-global registry, which would disarm env-armed points) -------------

// The CI smoke sets IMP_FAILPOINTS and runs exactly this test: the spec's
// first point must have been armed by the registry's lazy env parse. With
// the variable unset (the normal suite run) the test is skipped.
TEST(FailpointEnvTest, EnvActivation) {
  const char* spec = std::getenv("IMP_FAILPOINTS");
  if (spec == nullptr || *spec == '\0') {
    GTEST_SKIP() << "IMP_FAILPOINTS not set";
  }
  std::string first(spec);
  first = first.substr(0, first.find(';'));
  auto eq = first.find('=');
  ASSERT_NE(eq, std::string::npos) << "malformed IMP_FAILPOINTS: " << spec;
  std::string name = first.substr(0, eq);
  std::string trigger = first.substr(eq + 1);
  Failpoint& point = FailpointRegistry::Instance().GetOrCreate(name);
  EXPECT_EQ(point.armed(), trigger != "off")
      << "env spec did not arm '" << name << "'";
}

// ---- Helpers ---------------------------------------------------------------

FailpointRegistry& Registry() { return FailpointRegistry::Instance(); }

/// Isolation fixture: every case starts and ends with the process-global
/// registry disarmed and its fire counts zeroed.
class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override { Registry().Reset(); }
  void TearDown() override { Registry().Reset(); }
};

/// Fault-free reference: `sql` evaluated by the plain executor over `db`'s
/// published state. Every degradation assertion compares against this.
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

/// Incremental-mode sales system with the paper's price partition.
ImpConfig SalesConfig() {
  ImpConfig config;
  config.mode = ExecutionMode::kIncremental;
  config.strategy = MaintenanceStrategy::kLazy;
  return config;
}

constexpr const char* kNewRow8 = "INSERT INTO sales VALUES (8,'HP',"
                                 "'HP EliteBook 860 G9',1299,6)";

// ---- Failpoint trigger modes ----------------------------------------------

TEST_F(FaultInjectionTest, TriggerModes) {
  Failpoint& fp = Registry().GetOrCreate("test.modes");

  fp.Arm(Failpoint::Mode::kOnce);
  EXPECT_TRUE(fp.ShouldFire());
  EXPECT_FALSE(fp.ShouldFire());  // self-disarmed after the one shot
  EXPECT_FALSE(fp.armed());
  EXPECT_EQ(fp.fire_count(), 1u);

  fp.Arm(Failpoint::Mode::kAlways);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(fp.ShouldFire());
  EXPECT_EQ(fp.fire_count(), 5u);  // Arm resets the counter

  fp.Arm(Failpoint::Mode::kTimes, 3);
  int fired = 0;
  for (int i = 0; i < 10; ++i) fired += fp.ShouldFire() ? 1 : 0;
  EXPECT_EQ(fired, 3);
  EXPECT_FALSE(fp.armed());  // exhausted -> disarmed fast path again

  fp.Arm(Failpoint::Mode::kNth, 3);  // every 3rd evaluation
  std::vector<bool> pattern;
  for (int i = 0; i < 9; ++i) pattern.push_back(fp.ShouldFire());
  EXPECT_EQ(pattern, (std::vector<bool>{false, false, true, false, false,
                                        true, false, false, true}));

  fp.Disarm();
  EXPECT_FALSE(fp.ShouldFire());
}

TEST_F(FaultInjectionTest, ProbTriggerIsSeededAndDeterministic) {
  // Identical seeds -> identical fire sequences (what makes prob-mode CI
  // runs reproducible); p=1 and p=0 are the degenerate anchors.
  Failpoint& a = Registry().GetOrCreate("test.prob.a");
  Failpoint& b = Registry().GetOrCreate("test.prob.b");
  a.Arm(Failpoint::Mode::kProb, 1, 0.5, 1234);
  b.Arm(Failpoint::Mode::kProb, 1, 0.5, 1234);
  for (int i = 0; i < 200; ++i) EXPECT_EQ(a.ShouldFire(), b.ShouldFire());

  a.Arm(Failpoint::Mode::kProb, 1, 1.0, 7);
  b.Arm(Failpoint::Mode::kProb, 1, 0.0, 7);
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(a.ShouldFire());
    EXPECT_FALSE(b.ShouldFire());
  }
}

TEST_F(FaultInjectionTest, ArmFromSpecParsesAndRejects) {
  ASSERT_TRUE(Registry().ArmFromSpec("").ok());  // empty spec = no-op
  ASSERT_TRUE(
      Registry().ArmFromSpec("test.spec.a=once;test.spec.b=nth:4").ok());
  EXPECT_TRUE(Registry().GetOrCreate("test.spec.a").armed());
  EXPECT_TRUE(Registry().GetOrCreate("test.spec.b").armed());
  ASSERT_TRUE(Registry().ArmFromSpec("test.spec.a=off").ok());
  EXPECT_FALSE(Registry().GetOrCreate("test.spec.a").armed());

  EXPECT_FALSE(Registry().ArmFromSpec("test.spec.c").ok());  // no '='
  EXPECT_FALSE(Registry().ArmFromSpec("test.spec.c=bogus").ok());
  EXPECT_FALSE(Registry().ArmFromSpec("test.spec.c=times:x").ok());
  EXPECT_FALSE(Registry().GetOrCreate("test.spec.c").armed());

  // A malformed tail must not leave the head armed silently inconsistent:
  // the head arms, the call still reports the failure.
  EXPECT_FALSE(Registry().ArmFromSpec("test.spec.d=always;=oops").ok());

  Registry().GetOrCreate("test.spec.b").ShouldFire();  // evaluations 1..
  Registry().Reset();
  EXPECT_FALSE(Registry().GetOrCreate("test.spec.b").armed());
  EXPECT_EQ(Registry().TotalFired(), 0u);
}

TEST_F(FaultInjectionTest, RegistryCountersTrackFires) {
  ASSERT_TRUE(Registry().ArmFromSpec("test.cnt.a=times:2;test.cnt.b=once").ok());
  Failpoint& a = Registry().GetOrCreate("test.cnt.a");
  Failpoint& b = Registry().GetOrCreate("test.cnt.b");
  while (a.ShouldFire()) {
  }
  while (b.ShouldFire()) {
  }
  EXPECT_EQ(a.fire_count(), 2u);
  EXPECT_EQ(b.fire_count(), 1u);
  EXPECT_EQ(Registry().TotalFired(), 3u);
  Registry().DisarmAll();
  EXPECT_EQ(Registry().TotalFired(), 3u);  // DisarmAll keeps counts
  bool found = false;
  for (const auto& [name, count] : Registry().Counters()) {
    if (name == "test.cnt.a") {
      found = true;
      EXPECT_EQ(count, 2u);
    }
  }
  EXPECT_TRUE(found);
}

// ---- ThreadPool hardening --------------------------------------------------

TEST_F(FaultInjectionTest, ParallelForCapturesEscapedExceptions) {
  ThreadPool pool(4);
  Status st = pool.ParallelFor(16, [](size_t i) {
    if (i == 5) throw std::runtime_error("boom at 5");
  });
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("boom at 5"), std::string::npos);
  // The pool survives: later rounds run normally.
  std::atomic<size_t> ran{0};
  EXPECT_TRUE(pool.ParallelFor(8, [&](size_t) { ++ran; }).ok());
  EXPECT_EQ(ran.load(), 8u);
}

// ---- Capture failpoint: degraded capture heals on the next query -----------

TEST_F(FaultInjectionTest, CaptureFaultDegradesQueryThenHeals) {
  Database db;
  LoadSalesExample(&db);
  Relation expected = RefResult(db, kSalesQTop);

  ImpConfig config = SalesConfig();
  config.failpoints = "capture=once";  // armed through the config plumbing
  ImpSystem system(&db, config);
  ASSERT_TRUE(system.RegisterPartition(SalesPricePartition()).ok());

  // Faulted capture: the query degrades to a plain scan — bit-identical
  // answer, and the unsketchable verdict is NOT cached (transient fault).
  EXPECT_TRUE(MustQuery(&system, kSalesQTop).SameBag(expected));
  EXPECT_EQ(system.stats().degraded_queries, 1u);
  EXPECT_EQ(system.stats().sketch_captures, 0u);
  EXPECT_GE(system.Health().faults_injected, 1u);

  // The failpoint burned itself out: the very next query recaptures and
  // accelerates — recovery without restart.
  EXPECT_TRUE(MustQuery(&system, kSalesQTop).SameBag(expected));
  EXPECT_EQ(system.stats().sketch_captures, 1u);
  EXPECT_TRUE(MustQuery(&system, kSalesQTop).SameBag(expected));
  EXPECT_GE(system.stats().sketch_uses, 1u);
  EXPECT_EQ(system.stats().degraded_queries, 1u);  // no further degradation
}

// ---- Maintenance failpoint: lazy repair degrades, then re-accelerates ------

TEST_F(FaultInjectionTest, MaintainFaultDegradesQueriesBitIdentical) {
  Database db;
  LoadSalesExample(&db);
  ImpConfig config = SalesConfig();
  config.maintenance_backoff_ms = 0;  // retry on every round (real clock)
  ImpSystem system(&db, config);
  ASSERT_TRUE(system.RegisterPartition(SalesPricePartition()).ok());
  MustQuery(&system, kSalesQTop);  // capture
  ASSERT_TRUE(system.Update(kNewRow8).ok());  // sketch now stale

  ASSERT_TRUE(Registry().ArmFromSpec("maintain.round=always").ok());
  Relation expected = RefResult(db, kSalesQTop);
  // Lazy repair fails -> the query runs as a plain scan over the same
  // pinned view. Answer identical, never an error.
  EXPECT_TRUE(MustQuery(&system, kSalesQTop).SameBag(expected));
  EXPECT_GE(system.stats().degraded_queries, 1u);
  EXPECT_EQ(system.Health().sketches_stale, 1u);

  // Fault clears -> the next query repairs and re-accelerates in place.
  Registry().DisarmAll();
  size_t uses_before = system.stats().sketch_uses;
  EXPECT_TRUE(MustQuery(&system, kSalesQTop).SameBag(expected));
  EXPECT_GT(system.stats().sketch_uses, uses_before);
  EXPECT_EQ(system.Health().sketches_fresh, 1u);
  EXPECT_EQ(system.Health().sketches_stale, 0u);
}

// ---- Backoff on the injectable clock ---------------------------------------

TEST_F(FaultInjectionTest, BackoffDefersRetriesExponentiallyWithCap) {
  uint64_t now = 1000;  // outlives the system (declared first)
  Database db;
  LoadSalesExample(&db);
  ImpConfig config = SalesConfig();
  config.clock_ms = [&now] { return now; };
  config.maintenance_backoff_ms = 100;
  config.maintenance_backoff_cap_ms = 300;
  config.recapture_after_failures = 100;  // keep escalation out of this test
  config.quarantine_after_failures = 200;
  ImpSystem system(&db, config);
  ASSERT_TRUE(system.RegisterPartition(SalesPricePartition()).ok());
  MustQuery(&system, kSalesQTop);
  ASSERT_TRUE(system.Update(kNewRow8).ok());

  ASSERT_TRUE(Registry().ArmFromSpec("maintain.round=always").ok());
  Failpoint& fp = Registry().GetOrCreate(kFpMaintainRound);

  // Failure 1 at t=1000 -> next retry not before t+100.
  EXPECT_FALSE(system.MaintainAll().ok());
  EXPECT_EQ(fp.fire_count(), 1u);
  EXPECT_TRUE(system.MaintainAll().ok());  // still t=1000: deferred, silent
  EXPECT_EQ(fp.fire_count(), 1u);          // the entry was never attempted

  now = 1100;  // deadline reached -> failure 2, backoff doubles to 200.
  EXPECT_FALSE(system.MaintainAll().ok());
  EXPECT_EQ(fp.fire_count(), 2u);
  now = 1200;  // 100ms later: NOT enough any more (exponential growth).
  EXPECT_TRUE(system.MaintainAll().ok());
  EXPECT_EQ(fp.fire_count(), 2u);
  now = 1300;  // failure 3; raw backoff 400 is clamped to the 300 cap.
  EXPECT_FALSE(system.MaintainAll().ok());
  EXPECT_EQ(fp.fire_count(), 3u);
  now = 1599;
  EXPECT_TRUE(system.MaintainAll().ok());
  EXPECT_EQ(fp.fire_count(), 3u);
  now = 1600;  // capped deadline reached
  EXPECT_FALSE(system.MaintainAll().ok());
  EXPECT_EQ(fp.fire_count(), 4u);
  EXPECT_GE(system.stats().maintenance_retries, 3u);

  // Fault clears: the next due round repairs and resets the entry.
  Registry().DisarmAll();
  now = 2000;
  EXPECT_TRUE(system.MaintainAll().ok());
  EXPECT_EQ(system.Health().sketches_fresh, 1u);
  Relation expected = RefResult(db, kSalesQTop);
  size_t uses_before = system.stats().sketch_uses;
  EXPECT_TRUE(MustQuery(&system, kSalesQTop).SameBag(expected));
  EXPECT_GT(system.stats().sketch_uses, uses_before);
}

// The shift in min(cap, base << (k - 1)) must saturate, not wrap: whether
// it overflows depends on the BASE's magnitude, so a large configured base
// used to wrap uint64 after a handful of failures and produce a TINY retry
// deadline — immediate hammering exactly when a sketch is failing hard.
TEST_F(FaultInjectionTest, BackoffSaturatesInsteadOfWrappingOnLargeBase) {
  uint64_t now = 1000;
  Database db;
  LoadSalesExample(&db);
  ImpConfig config = SalesConfig();
  config.clock_ms = [&now] { return now; };
  config.maintenance_backoff_ms = uint64_t{1} << 60;  // extreme but legal
  config.maintenance_backoff_cap_ms = 500;
  config.recapture_after_failures = 100;  // keep escalation out of this test
  config.quarantine_after_failures = 200;
  ImpSystem system(&db, config);
  ASSERT_TRUE(system.RegisterPartition(SalesPricePartition()).ok());
  MustQuery(&system, kSalesQTop);
  ASSERT_TRUE(system.Update(kNewRow8).ok());

  ASSERT_TRUE(Registry().ArmFromSpec("maintain.round=always").ok());
  Failpoint& fp = Registry().GetOrCreate(kFpMaintainRound);

  // Five consecutive failures. At failure 5 the raw backoff is
  // 2^60 << 4 = 2^64 — the wrap-to-zero case before the fix; every raw
  // value is clamped to the 500ms cap, so each deadline is exactly +500.
  for (size_t failure = 1; failure <= 5; ++failure) {
    EXPECT_FALSE(system.MaintainAll().ok());
    EXPECT_EQ(fp.fire_count(), failure);
    now += 499;  // one tick short of the capped deadline: still deferred
    EXPECT_TRUE(system.MaintainAll().ok());
    EXPECT_EQ(fp.fire_count(), failure);
    now += 1;  // deadline reached
  }

  // Fault clears: the entry recovers at the next due round as usual.
  Registry().DisarmAll();
  EXPECT_TRUE(system.MaintainAll().ok());
  EXPECT_EQ(system.Health().sketches_fresh, 1u);
  Relation expected = RefResult(db, kSalesQTop);
  EXPECT_TRUE(MustQuery(&system, kSalesQTop).SameBag(expected));
}

// With an uncapped configuration the saturated backoff pins the deadline
// at UINT64_MAX — "never", not "now" — and now + backoff saturates too.
TEST_F(FaultInjectionTest, BackoffSaturatesAtUint64WithUncappedConfig) {
  uint64_t now = 1000;
  Database db;
  LoadSalesExample(&db);
  ImpConfig config = SalesConfig();
  config.clock_ms = [&now] { return now; };
  config.maintenance_backoff_ms = uint64_t{1} << 63;
  config.maintenance_backoff_cap_ms = UINT64_MAX;
  config.recapture_after_failures = 100;
  config.quarantine_after_failures = 200;
  ImpSystem system(&db, config);
  ASSERT_TRUE(system.RegisterPartition(SalesPricePartition()).ok());
  MustQuery(&system, kSalesQTop);
  ASSERT_TRUE(system.Update(kNewRow8).ok());

  ASSERT_TRUE(Registry().ArmFromSpec("maintain.round=always").ok());
  Failpoint& fp = Registry().GetOrCreate(kFpMaintainRound);

  EXPECT_FALSE(system.MaintainAll().ok());  // failure 1: deadline now + 2^63
  EXPECT_EQ(fp.fire_count(), 1u);
  now = (uint64_t{1} << 63) + 1000;  // exactly the deadline -> failure 2
  EXPECT_FALSE(system.MaintainAll().ok());
  EXPECT_EQ(fp.fire_count(), 2u);
  // Failure 2's raw backoff is 2^64: saturated to UINT64_MAX, and
  // now + UINT64_MAX saturates again instead of wrapping to "due now".
  now = UINT64_MAX - 1;
  EXPECT_TRUE(system.MaintainAll().ok());
  EXPECT_EQ(fp.fire_count(), 2u);
}

// Shift counts past 63 (more failures than the word has bits) are equally
// saturating — the old expression was undefined behaviour there and on
// x86 would alias to a small shift, shrinking the deadline below the cap.
TEST_F(FaultInjectionTest, BackoffSaturatesBeyondSixtyFourFailures) {
  uint64_t now = 1000;
  Database db;
  LoadSalesExample(&db);
  ImpConfig config = SalesConfig();
  config.clock_ms = [&now] { return now; };
  config.maintenance_backoff_ms = 1;
  config.maintenance_backoff_cap_ms = 100;
  config.recapture_after_failures = 1000;
  config.quarantine_after_failures = 2000;
  ImpSystem system(&db, config);
  ASSERT_TRUE(system.RegisterPartition(SalesPricePartition()).ok());
  MustQuery(&system, kSalesQTop);
  ASSERT_TRUE(system.Update(kNewRow8).ok());

  ASSERT_TRUE(Registry().ArmFromSpec("maintain.round=always").ok());
  Failpoint& fp = Registry().GetOrCreate(kFpMaintainRound);

  // 70 consecutive failures; from failure 8 on the cap pins every
  // deadline at +100, including the shift >= 64 region (failures 65+).
  for (size_t failure = 1; failure <= 70; ++failure) {
    EXPECT_FALSE(system.MaintainAll().ok());
    ASSERT_EQ(fp.fire_count(), failure);
    now += 100;
  }
  // Failure 70's shift is 69: the aliased-shift bug would have set a
  // 32ms deadline here; the saturating fix keeps the full 100ms cap.
  now -= 100;
  now += 99;
  EXPECT_TRUE(system.MaintainAll().ok());
  ASSERT_EQ(fp.fire_count(), 70u);
  now += 1;
  EXPECT_FALSE(system.MaintainAll().ok());
  EXPECT_EQ(fp.fire_count(), 71u);
}

// base == 0 keeps its documented meaning: retry immediately, no deferral.
TEST_F(FaultInjectionTest, ZeroBackoffBaseStillRetriesImmediately) {
  uint64_t now = 1000;
  Database db;
  LoadSalesExample(&db);
  ImpConfig config = SalesConfig();
  config.clock_ms = [&now] { return now; };
  config.maintenance_backoff_ms = 0;
  config.recapture_after_failures = 100;
  config.quarantine_after_failures = 200;
  ImpSystem system(&db, config);
  ASSERT_TRUE(system.RegisterPartition(SalesPricePartition()).ok());
  MustQuery(&system, kSalesQTop);
  ASSERT_TRUE(system.Update(kNewRow8).ok());

  ASSERT_TRUE(Registry().ArmFromSpec("maintain.round=always").ok());
  Failpoint& fp = Registry().GetOrCreate(kFpMaintainRound);
  // Same clock tick, three rounds, three attempts: nothing defers.
  EXPECT_FALSE(system.MaintainAll().ok());
  EXPECT_FALSE(system.MaintainAll().ok());
  EXPECT_FALSE(system.MaintainAll().ok());
  EXPECT_EQ(fp.fire_count(), 3u);
}

// ---- Escalation: repeated incremental failures recapture from base ---------

TEST_F(FaultInjectionTest, EscalationRecapturesAfterRepeatedFailures) {
  Database db;
  LoadSalesExample(&db);
  ImpConfig config = SalesConfig();
  config.maintenance_backoff_ms = 0;
  config.recapture_after_failures = 2;
  config.quarantine_after_failures = 10;
  ImpSystem system(&db, config);
  ASSERT_TRUE(system.RegisterPartition(SalesPricePartition()).ok());
  MustQuery(&system, kSalesQTop);
  ASSERT_TRUE(system.Update(kNewRow8).ok());

  // Only the incremental round faults; the capture path is healthy, so the
  // escalation's rebuild-from-base succeeds.
  ASSERT_TRUE(Registry().ArmFromSpec("maintain.round=always").ok());
  EXPECT_FALSE(system.MaintainAll().ok());  // failure 1
  EXPECT_EQ(system.Health().sketches_stale, 1u);
  // Failure 2 reaches recapture_after_failures: the round still reports
  // the failure, but the escalation rebuilt the entry on the spot.
  EXPECT_FALSE(system.MaintainAll().ok());
  EXPECT_EQ(system.Health().sketches_fresh, 1u);
  EXPECT_EQ(system.Health().sketches_stale, 0u);
  EXPECT_EQ(system.stats().sketch_captures, 2u);  // initial + escalation

  // The rebuilt sketch serves queries (fast path, no maintenance, so the
  // still-armed round failpoint is never reached).
  Relation expected = RefResult(db, kSalesQTop);
  size_t uses_before = system.stats().sketch_uses;
  EXPECT_TRUE(MustQuery(&system, kSalesQTop).SameBag(expected));
  EXPECT_GT(system.stats().sketch_uses, uses_before);
}

// ---- Quarantine + explicit repair ------------------------------------------

TEST_F(FaultInjectionTest, QuarantineExcludesEntryUntilRepaired) {
  Database db;
  LoadSalesExample(&db);
  ImpConfig config = SalesConfig();
  config.maintenance_backoff_ms = 0;
  config.recapture_after_failures = 2;
  config.quarantine_after_failures = 3;
  ImpSystem system(&db, config);
  ASSERT_TRUE(system.RegisterPartition(SalesPricePartition()).ok());
  MustQuery(&system, kSalesQTop);
  ASSERT_TRUE(system.Update(kNewRow8).ok());

  // Both the incremental round AND the capture path fault: escalation
  // cannot save the entry, so it descends the whole ladder.
  ASSERT_TRUE(
      Registry().ArmFromSpec("maintain.round=always;capture=always").ok());
  EXPECT_FALSE(system.MaintainAll().ok());  // failure 1 -> stale
  EXPECT_FALSE(system.MaintainAll().ok());  // failure 2 -> escalation fails
  EXPECT_FALSE(system.MaintainAll().ok());  // failure 3 -> quarantined
  EXPECT_EQ(system.Health().sketches_quarantined, 1u);
  EXPECT_EQ(system.stats().sketches_quarantined, 1u);

  // Quarantined entries sit rounds out (no further failpoint evaluations)
  // and do not pin the delta log.
  size_t fired = Registry().GetOrCreate(kFpMaintainRound).fire_count();
  EXPECT_TRUE(system.MaintainAll().ok());
  EXPECT_EQ(Registry().GetOrCreate(kFpMaintainRound).fire_count(), fired);
  EXPECT_EQ(system.sketches().MinValidVersion(), UINT64_MAX);

  // Queries degrade to plain scans — bit-identical, never an error.
  Relation expected = RefResult(db, kSalesQTop);
  size_t degraded_before = system.stats().degraded_queries;
  EXPECT_TRUE(MustQuery(&system, kSalesQTop).SameBag(expected));
  EXPECT_GT(system.stats().degraded_queries, degraded_before);

  // Fault clears -> the explicit repair recaptures and restores service
  // in the same process.
  Registry().Reset();
  ASSERT_TRUE(system.RepairQuarantined().ok());
  EXPECT_EQ(system.Health().sketches_quarantined, 0u);
  EXPECT_EQ(system.Health().sketches_fresh, 1u);
  size_t uses_before = system.stats().sketch_uses;
  EXPECT_TRUE(MustQuery(&system, kSalesQTop).SameBag(expected));
  EXPECT_GT(system.stats().sketch_uses, uses_before);
}

// ---- Snapshot publication: retried, ultimately forced ----------------------

TEST_F(FaultInjectionTest, PublishFaultIsRetriedThenForced) {
  // Once on the bare write path, once with a live sketch that lazy repair
  // must carry across the forced publication. Each leg's answers must
  // equal a fault-free reference database's.
  const std::vector<Tuple> row8 = {{Value::Int(8), Value::String("HP"),
                                    Value::String("HP EliteBook 860 G9"),
                                    Value::Int(1299), Value::Int(6)}};
  const std::vector<Tuple> row9 = {{Value::Int(9), Value::String("HP"),
                                    Value::String("HP ZBook Fury"),
                                    Value::Int(2499), Value::Int(3)}};
  for (ExecutionMode mode :
       {ExecutionMode::kNoSketch, ExecutionMode::kIncremental}) {
    SCOPED_TRACE(mode == ExecutionMode::kNoSketch ? "no sketch" : "sketch");
    Registry().Reset();
    Database db, ref;
    LoadSalesExample(&db);
    LoadSalesExample(&ref);
    ImpConfig config = SalesConfig();
    config.mode = mode;
    ImpSystem system(&db, config);
    ASSERT_TRUE(system.RegisterPartition(SalesPricePartition()).ok());
    EXPECT_TRUE(
        MustQuery(&system, kSalesQTop).SameBag(RefResult(ref, kSalesQTop)));

    // Transient: the single shot is absorbed by the retry loop.
    ASSERT_TRUE(Registry().ArmFromSpec("snapshot.publish=once").ok());
    ASSERT_TRUE(system.Update(kNewRow8).ok());
    EXPECT_EQ(db.publish_faults(), 1u);
    EXPECT_EQ(db.forced_publishes(), 0u);
    ASSERT_TRUE(ref.Insert("sales", row8).ok());
    EXPECT_TRUE(
        MustQuery(&system, kSalesQTop).SameBag(RefResult(ref, kSalesQTop)));

    // Persistent: publication is the one fault that may never win (a
    // skipped publication under a retired version breaks superset
    // safety), so after the retry budget it is forced through — the row is
    // visible.
    ASSERT_TRUE(Registry().ArmFromSpec("snapshot.publish=always").ok());
    ASSERT_TRUE(system
                    .Update("INSERT INTO sales VALUES (9,'HP',"
                            "'HP ZBook Fury',2499,3)")
                    .ok());
    EXPECT_GE(db.forced_publishes(), 1u);
    Registry().DisarmAll();
    EXPECT_EQ(db.GetTable("sales")->Snapshot()->num_rows(), 9u);
    ASSERT_TRUE(ref.Insert("sales", row9).ok());
    EXPECT_TRUE(
        MustQuery(&system, kSalesQTop).SameBag(RefResult(ref, kSalesQTop)));
    if (mode == ExecutionMode::kIncremental) {
      // Every answer came through the repaired sketch, none through the
      // plain-scan fallback.
      EXPECT_EQ(system.stats().sketch_uses, system.stats().queries);
      EXPECT_EQ(system.stats().degraded_queries, 0u);
    }
  }
}

}  // namespace
}  // namespace imp
