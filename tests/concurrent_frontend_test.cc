// Concurrency stress tests for the sharded, snapshot-isolated sketch front
// end (run under the TSan CI job, repeated until-fail):
//
//  * linearizability of Query against the stable watermark: reader threads
//    racing the ingestion worker and a MaintainAll thread must each return
//    a result bit-identical to the fully serialized run at SOME watermark
//    within the query's [before, after] window;
//  * readers on one table proceeding while another table's shard is being
//    maintained (cross-table results stay correct under the same racing
//    load);
//  * a reader-held SketchSnapshot staying self-consistent across a
//    concurrent RepartitionTable, while queries racing the repartition
//    keep returning correct results;
//  * the delta-log truncation driven after MaintainAll: the boundary is
//    the minimum valid_version across shards, a failed-restore entry holds
//    the boundary back (its repair window must survive), and repairing it
//    releases the boundary.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "exec/executor.h"
#include "middleware/imp_system.h"
#include "test_util.h"
#include "workload/synthetic.h"

namespace imp {
namespace {

constexpr size_t kGroups = 20;

/// A deterministic single-row insert statement stream for `table`:
/// statement k inserts the same row in every run.
BoundUpdate InsertStatement(const std::string& table, size_t k,
                            int64_t start_id) {
  SyntheticSpec spec;
  spec.num_groups = kGroups;
  Rng rng(k * 977 + 13);
  BoundUpdate update;
  update.kind = BoundUpdate::Kind::kInsert;
  update.table = table;
  update.rows.push_back(
      SyntheticRow(spec, start_id + static_cast<int64_t>(k), &rng));
  return update;
}

/// The serialized expectation: apply the statement stream one statement at
/// a time to a reference database and record the query result after each
/// prefix. expected[v] is the result of `sql` at watermark v.
std::vector<Relation> SerialResultsPerVersion(
    const std::string& table, const std::string& sql, size_t num_statements,
    int64_t start_id, const SyntheticSpec& spec) {
  Database ref;
  IMP_CHECK(CreateSyntheticTable(&ref, spec).ok());
  PlanPtr plan = MustBind(ref, sql);
  Executor exec(&ref);
  std::vector<Relation> expected;
  expected.reserve(num_statements + 1);
  auto at_version = exec.Execute(plan);
  IMP_CHECK(at_version.ok());
  expected.push_back(std::move(at_version).value());
  for (size_t k = 0; k < num_statements; ++k) {
    BoundUpdate update = InsertStatement(table, k, start_id);
    IMP_CHECK(ref.Insert(table, update.rows).ok());
    auto result = exec.Execute(plan);
    IMP_CHECK(result.ok());
    expected.push_back(std::move(result).value());
  }
  return expected;
}

/// One observed query: the result plus the watermark window it ran in.
struct Observation {
  uint64_t before = 0;
  uint64_t after = 0;
  Relation result;
};

/// True iff `obs.result` matches the serialized result at some watermark
/// within its window.
bool MatchesSomeWatermark(const Observation& obs,
                          const std::vector<Relation>& expected) {
  for (uint64_t v = obs.before; v <= obs.after && v < expected.size(); ++v) {
    if (obs.result.SameBag(expected[v])) return true;
  }
  return false;
}

TEST(ConcurrentFrontendTest, QueriesMatchSerialRunAtTheirWatermark) {
  SyntheticSpec spec;
  spec.name = "t";
  spec.num_rows = 400;
  spec.num_groups = kGroups;
  const size_t kStatements = 48;
  const int64_t kStartId = 100000;
  const std::string sql =
      "SELECT a, sum(b) AS sb FROM t GROUP BY a HAVING sum(b) > 1500";
  std::vector<Relation> expected =
      SerialResultsPerVersion("t", sql, kStatements, kStartId, spec);

  Database db;
  ASSERT_TRUE(CreateSyntheticTable(&db, spec).ok());
  ImpConfig config;
  config.mode = ExecutionMode::kIncremental;
  config.strategy = MaintenanceStrategy::kEager;
  config.eager_batch_size = 4;
  config.async_ingestion = true;
  config.ingest_queue_capacity = kStatements + 1;
  ImpSystem system(&db, config);
  ASSERT_TRUE(system
                  .RegisterPartition(RangePartition::EquiWidthInt(
                      "t", "a", 1, 0, kGroups - 1, 6))
                  .ok());
  // Seed the sketch before the race so every reader goes through it.
  ASSERT_TRUE(system.Query(sql).ok());

  std::atomic<bool> stop{false};
  std::atomic<size_t> completed{0};
  const size_t kReaders = 4;
  std::vector<std::vector<Observation>> observations(kReaders);
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      while (!stop.load(std::memory_order_acquire)) {
        Observation obs;
        obs.before = db.StableVersion();
        auto result = system.Query(sql);
        obs.after = db.StableVersion();
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        obs.result = std::move(result).value();
        observations[r].push_back(std::move(obs));
        completed.fetch_add(1, std::memory_order_release);
      }
    });
  }
  std::thread maintainer([&] {
    while (!stop.load(std::memory_order_acquire)) {
      ASSERT_TRUE(system.MaintainAll().ok());
    }
  });

  // Writer (this thread): enqueue the deterministic statement stream while
  // readers and the maintainer race it.
  for (size_t k = 0; k < kStatements; ++k) {
    ASSERT_TRUE(system.UpdateBound(InsertStatement("t", k, kStartId)).ok());
  }
  ASSERT_TRUE(system.WaitForIngest().ok());
  // The lock-free worker no longer waits behind readers, so on a loaded
  // single-CPU box the drain can outrun them entirely; keep the window
  // open until enough queries completed for the assertions below to mean
  // something (post-drain queries still observe valid windows at the
  // final watermark).
  while (completed.load(std::memory_order_acquire) < kReaders) {
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  maintainer.join();

  size_t total = 0;
  for (size_t r = 0; r < kReaders; ++r) {
    for (const Observation& obs : observations[r]) {
      ASSERT_TRUE(MatchesSomeWatermark(obs, expected))
          << "reader " << r << " window [" << obs.before << ", " << obs.after
          << "] returned a result matching no serialized watermark:\n"
          << obs.result.ToString();
      ++total;
    }
  }
  ASSERT_GT(total, 0u);

  // Quiesced: the final answer equals the full serialized run's.
  ASSERT_TRUE(system.MaintainAll().ok());
  auto final_result = system.Query(sql);
  ASSERT_TRUE(final_result.ok());
  EXPECT_TRUE(final_result.value().SameBag(expected.back()));
  // The race must actually have exercised the lock-free snapshot path.
  EXPECT_GT(system.stats().snapshot_reads, 0u);
}

TEST(ConcurrentFrontendTest, ReadViewsStayConsistentUnderBatchedIngestLoad) {
  // Storage-level counterpart of the linearizability test: while the
  // ingestion worker (with batched apply: several statements per
  // publication cycle), eager maintenance rounds and delta-log truncation
  // sweeps all race, every ReadView opened mid-flight must still pin the
  // serialized database at its watermark — single-row inserts make that
  // checkable as rows(t) == initial + watermark — with per-table version
  // stamps at or below the watermark and publication epochs that never
  // run backwards for any observer.
  SyntheticSpec spec;
  spec.name = "t";
  spec.num_rows = 300;
  spec.num_groups = kGroups;
  const size_t kStatements = 64;
  const int64_t kStartId = 200000;
  const std::string sql =
      "SELECT a, sum(b) AS sb FROM t GROUP BY a HAVING sum(b) > 1500";

  Database db;
  ASSERT_TRUE(CreateSyntheticTable(&db, spec).ok());
  ImpConfig config;
  config.mode = ExecutionMode::kIncremental;
  config.strategy = MaintenanceStrategy::kEager;
  config.eager_batch_size = 4;
  config.async_ingestion = true;
  config.ingest_queue_capacity = kStatements + 1;
  config.ingest_apply_batch = 8;  // several statements per publication
  ImpSystem system(&db, config);
  ASSERT_TRUE(system
                  .RegisterPartition(RangePartition::EquiWidthInt(
                      "t", "a", 1, 0, kGroups - 1, 6))
                  .ok());
  ASSERT_TRUE(system.Query(sql).ok());

  std::atomic<bool> stop{false};
  std::vector<std::thread> pollers;
  for (int r = 0; r < 2; ++r) {
    pollers.emplace_back([&] {
      uint64_t last_watermark = 0;
      uint64_t last_epoch = 0;
      while (!stop.load(std::memory_order_acquire)) {
        ReadView view = db.OpenReadView();
        uint64_t w = view.watermark();
        ASSERT_GE(w, last_watermark);
        last_watermark = w;
        const TableSnapshot* snap = view.Find("t");
        ASSERT_NE(snap, nullptr);
        ASSERT_EQ(snap->num_rows(), spec.num_rows + w);
        ASSERT_LE(snap->version(), w);
        ASSERT_GE(snap->epoch(), last_epoch);
        last_epoch = snap->epoch();
      }
    });
  }
  std::thread querier([&] {
    while (!stop.load(std::memory_order_acquire)) {
      auto result = system.Query(sql);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
    }
  });
  std::thread truncator([&] {
    while (!stop.load(std::memory_order_acquire)) {
      ASSERT_TRUE(system.MaintainAll().ok());  // drives the truncation sweep
      std::this_thread::yield();
    }
  });

  for (size_t k = 0; k < kStatements; ++k) {
    ASSERT_TRUE(system.UpdateBound(InsertStatement("t", k, kStartId)).ok());
  }
  ASSERT_TRUE(system.WaitForIngest().ok());
  stop.store(true, std::memory_order_release);
  for (std::thread& t : pollers) t.join();
  querier.join();
  truncator.join();

  // Drained: the watermark caught up, the published snapshot holds every
  // row, and the worker really did collapse statements into batches.
  ReadView final_view = db.OpenReadView();
  EXPECT_EQ(final_view.watermark(), kStatements);
  EXPECT_EQ(final_view.Find("t")->num_rows(), spec.num_rows + kStatements);
  EXPECT_GE(system.stats().ingest_batches, 1u);
  EXPECT_LE(system.stats().ingest_batch_max, 8u);
}

TEST(ConcurrentFrontendTest, ReadersAcrossTablesRaceMaintenanceCorrectly) {
  // Two tables, one sketch each — updates and maintenance on `u` must not
  // corrupt (or serialize away the correctness of) reads on `t` and vice
  // versa. Both query streams are validated against their serialized
  // expectation; the interleaving of the two tables' statements is fixed
  // by ticket order (a single writer thread alternates tables), so each
  // table sees its own deterministic prefix at every watermark.
  SyntheticSpec spec_t;
  spec_t.name = "t";
  spec_t.num_rows = 300;
  spec_t.num_groups = kGroups;
  SyntheticSpec spec_u = spec_t;
  spec_u.name = "u";
  spec_u.seed = 43;

  // Statement k in the run targets t when k is even, u when odd; the
  // per-table sub-stream is deterministic, and a watermark w corresponds
  // to ceil(w/2) statements on t and floor(w/2) on u.
  const size_t kStatements = 40;
  const int64_t kStartId = 200000;
  const std::string sql_t =
      "SELECT a, sum(b) AS sb FROM t GROUP BY a HAVING sum(b) > 1200";
  const std::string sql_u =
      "SELECT a, count(*) AS n FROM u GROUP BY a HAVING count(*) > 10";

  // Per-table serialized expectations, indexed by the table's OWN
  // statement count.
  std::vector<Relation> expected_t = SerialResultsPerVersion(
      "t", sql_t, (kStatements + 1) / 2, kStartId, spec_t);
  std::vector<Relation> expected_u = SerialResultsPerVersion(
      "u", sql_u, kStatements / 2, kStartId, spec_u);

  Database db;
  ASSERT_TRUE(CreateSyntheticTable(&db, spec_t).ok());
  ASSERT_TRUE(CreateSyntheticTable(&db, spec_u).ok());
  ImpConfig config;
  config.mode = ExecutionMode::kIncremental;
  config.strategy = MaintenanceStrategy::kEager;
  config.eager_batch_size = 4;
  config.async_ingestion = true;
  config.ingest_queue_capacity = kStatements + 1;
  ImpSystem system(&db, config);
  ASSERT_TRUE(system
                  .RegisterPartition(RangePartition::EquiWidthInt(
                      "t", "a", 1, 0, kGroups - 1, 6))
                  .ok());
  ASSERT_TRUE(system
                  .RegisterPartition(RangePartition::EquiWidthInt(
                      "u", "a", 1, 0, kGroups - 1, 5))
                  .ok());
  ASSERT_TRUE(system.Query(sql_t).ok());
  ASSERT_TRUE(system.Query(sql_u).ok());

  auto statements_on_t = [](uint64_t watermark) {
    return (watermark + 1) / 2;  // t owns odd tickets 1, 3, 5, ...
  };
  auto statements_on_u = [](uint64_t watermark) { return watermark / 2; };

  std::atomic<bool> stop{false};
  struct TableReader {
    const std::string* sql;
    const std::vector<Relation>* expected;
    std::function<size_t(uint64_t)> own_statements;
    std::vector<Observation> observations;
  };
  std::vector<TableReader> tracks(2);
  tracks[0] = {&sql_t, &expected_t, statements_on_t, {}};
  tracks[1] = {&sql_u, &expected_u, statements_on_u, {}};

  std::vector<std::thread> readers;
  for (TableReader& track : tracks) {
    readers.emplace_back([&, track_ptr = &track] {
      while (!stop.load(std::memory_order_acquire)) {
        Observation obs;
        obs.before = db.StableVersion();
        auto result = system.Query(*track_ptr->sql);
        obs.after = db.StableVersion();
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        obs.result = std::move(result).value();
        track_ptr->observations.push_back(std::move(obs));
      }
    });
  }
  std::thread maintainer([&] {
    while (!stop.load(std::memory_order_acquire)) {
      ASSERT_TRUE(system.MaintainAll().ok());
    }
  });

  for (size_t k = 0; k < kStatements; ++k) {
    const std::string table = (k % 2 == 0) ? "t" : "u";
    ASSERT_TRUE(
        system.UpdateBound(InsertStatement(table, k / 2, kStartId)).ok());
  }
  ASSERT_TRUE(system.WaitForIngest().ok());
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  maintainer.join();

  for (const TableReader& track : tracks) {
    for (const Observation& obs : track.observations) {
      // Map the global watermark window onto the table's own statement
      // counts; the result must match one of those serialized prefixes.
      size_t lo = track.own_statements(obs.before);
      size_t hi = track.own_statements(obs.after);
      bool matched = false;
      for (size_t v = lo; v <= hi && v < track.expected->size(); ++v) {
        if (obs.result.SameBag((*track.expected)[v])) {
          matched = true;
          break;
        }
      }
      ASSERT_TRUE(matched)
          << *track.sql << " window [" << obs.before << ", " << obs.after
          << "] matched no serialized prefix:\n"
          << obs.result.ToString();
    }
  }
}

TEST(ConcurrentFrontendTest, PinnedSnapshotSurvivesRepartition) {
  Database db;
  SyntheticSpec spec;
  spec.name = "t";
  spec.num_rows = 500;
  spec.num_groups = kGroups;
  ASSERT_TRUE(CreateSyntheticTable(&db, spec).ok());
  ImpConfig config;
  config.mode = ExecutionMode::kIncremental;
  ImpSystem system(&db, config);
  ASSERT_TRUE(system.PartitionTable("t", "a", 6).ok());
  const std::string sql =
      "SELECT a, sum(b) AS sb FROM t GROUP BY a HAVING sum(b) > 1500";
  auto baseline = system.Query(sql);
  ASSERT_TRUE(baseline.ok());

  auto entries = system.sketches().AllEntries();
  ASSERT_EQ(entries.size(), 1u);
  // Pin the pre-repartition snapshot like a reader would.
  std::shared_ptr<const SketchSnapshot> pinned = entries[0]->Snapshot();
  const std::vector<size_t> pinned_bits = pinned->sketch.fragments.SetBits();
  const uint64_t pinned_version = pinned->valid_version();
  const uint64_t pinned_epoch = pinned->epoch;

  // Readers race a repartition loop. The data never changes, so every
  // query result must equal the baseline regardless of which catalog
  // epoch it executed under.
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (size_t r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        auto result = system.Query(sql);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        ASSERT_TRUE(result.value().SameBag(baseline.value()));
      }
    });
  }
  for (size_t fragments = 4; fragments <= 8; ++fragments) {
    ASSERT_TRUE(system.RepartitionTable("t", "a", fragments).ok());
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  // The pinned snapshot is untouched by every publication that happened
  // behind it: same fragments, same version, same epoch.
  EXPECT_EQ(pinned->sketch.fragments.SetBits(), pinned_bits);
  EXPECT_EQ(pinned->valid_version(), pinned_version);
  EXPECT_EQ(pinned->epoch, pinned_epoch);
  // The entry itself moved on (recaptures republished), and the system
  // still answers correctly on the final catalog.
  EXPECT_GT(entries[0]->Snapshot()->epoch, pinned_epoch);
  auto after = system.Query(sql);
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after.value().SameBag(baseline.value()));
}

TEST(ConcurrentFrontendTest, UnsketchableCacheInvalidatedByNewPartition) {
  Database db;
  SyntheticSpec spec_t;
  spec_t.name = "t";
  spec_t.num_rows = 200;
  spec_t.num_groups = 10;
  SyntheticSpec spec_u = spec_t;
  spec_u.name = "u";
  ASSERT_TRUE(CreateSyntheticTable(&db, spec_t).ok());
  ASSERT_TRUE(CreateSyntheticTable(&db, spec_u).ok());
  ImpSystem system(&db, ImpConfig{});
  // Only `t` is partitioned: queries over `u` are unsketchable and must
  // fall back to plain execution (cached negatively after the first try).
  ASSERT_TRUE(system.PartitionTable("t", "a", 5).ok());
  const std::string sql =
      "SELECT a, sum(b) AS sb FROM u GROUP BY a HAVING sum(b) > 500";
  auto plain = system.Query(sql);
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(system.Query(sql).ok());  // steady state: negative-cache hit
  EXPECT_EQ(system.sketches().size(), 0u);

  // Registering a partition for `u` invalidates the verdict: the next
  // query captures a sketch and still answers identically.
  ASSERT_TRUE(system.PartitionTable("u", "a", 5).ok());
  auto sketched = system.Query(sql);
  ASSERT_TRUE(sketched.ok());
  EXPECT_EQ(system.sketches().size(), 1u);
  EXPECT_TRUE(sketched.value().SameBag(plain.value()));
}

TEST(ConcurrentFrontendTest, FailedRepartitionLeavesCatalogAndAnswersIntact) {
  Database db;
  SyntheticSpec spec;
  spec.name = "t";
  spec.num_rows = 300;
  spec.num_groups = 10;
  ASSERT_TRUE(CreateSyntheticTable(&db, spec).ok());
  ImpSystem system(&db, ImpConfig{});
  ASSERT_TRUE(system.PartitionTable("t", "a", 5).ok());
  const std::string sql =
      "SELECT a, sum(b) AS sb FROM t GROUP BY a HAVING sum(b) > 500";
  auto baseline = system.Query(sql);
  ASSERT_TRUE(baseline.ok());

  // A repartition that fails VALIDATION must not have touched the catalog
  // (the fragment-id space only changes after validation passes), so the
  // published snapshots keep answering correctly.
  ASSERT_FALSE(system.RepartitionTable("t", "no_such_column", 4).ok());
  ASSERT_FALSE(system.RepartitionTable("no_such_table", "a", 4).ok());
  auto after = system.Query(sql);
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after.value().SameBag(baseline.value()));
}

TEST(ConcurrentFrontendTest, FailedRepartitionSkipsSketchBookkeeping) {
  // Regression: the failure path used to grab the exclusive front-end
  // lock, clear every shard's unsketchable cache and walk the entries
  // BEFORE validating the request — a repartition doomed by a bad column
  // serialized all readers and re-enabled capture attempts for templates
  // known to be unsketchable. Validation now fails fast, before any lock
  // or bookkeeping: the negative cache, the entries' filter sets and the
  // published sketch snapshots must all come through untouched.
  Database db;
  SyntheticSpec spec_t;
  spec_t.name = "t";
  spec_t.num_rows = 200;
  spec_t.num_groups = 10;
  SyntheticSpec spec_u = spec_t;
  spec_u.name = "u";
  ASSERT_TRUE(CreateSyntheticTable(&db, spec_t).ok());
  ASSERT_TRUE(CreateSyntheticTable(&db, spec_u).ok());
  ImpSystem system(&db, ImpConfig{});
  ASSERT_TRUE(system.PartitionTable("t", "a", 5).ok());

  // One sketched template on `t`, one unsketchable template on `u`.
  ASSERT_TRUE(
      system.Query("SELECT a, sum(b) AS sb FROM t GROUP BY a "
                   "HAVING sum(b) > 500")
          .ok());
  ASSERT_TRUE(
      system.Query("SELECT a, sum(b) AS sb FROM u GROUP BY a "
                   "HAVING sum(b) > 500")
          .ok());
  ASSERT_EQ(system.sketches().size(), 1u);
  SketchManager::Shard* u_shard = system.sketches().FindShard("u");
  ASSERT_NE(u_shard, nullptr);
  ASSERT_EQ(u_shard->unsketchable.size(), 1u);
  SketchEntry* entry = system.sketches().AllEntries()[0];
  ASSERT_FALSE(entry->filter_tables.empty());
  uint64_t epoch_before = entry->Snapshot()->epoch;

  ASSERT_FALSE(system.RepartitionTable("t", "no_such_column", 4).ok());
  ASSERT_FALSE(system.RepartitionTable("ghost", "a", 4).ok());
  // PartitionTable shares the contract: validation failures are
  // side-effect-free too.
  ASSERT_FALSE(system.PartitionTable("t", "no_such_column", 4).ok());
  ASSERT_FALSE(system.PartitionTable("ghost", "a", 4).ok());

  // No re-enable bookkeeping ran: the negative-cache verdict survives
  // (old behaviour wiped it), sketch filtering stays enabled, and no
  // snapshot was republished.
  EXPECT_EQ(u_shard->unsketchable.size(), 1u);
  EXPECT_FALSE(entry->filter_tables.empty());
  EXPECT_EQ(entry->Snapshot()->epoch, epoch_before);
}

// ---- Delta-log truncation driven by MaintainAll ----------------------------

TEST(ConcurrentFrontendTest, MaintainAllTruncatesUpToMinShardVersion) {
  Database db;
  SyntheticSpec spec;
  spec.name = "t";
  spec.num_rows = 200;
  spec.num_groups = 10;
  ASSERT_TRUE(CreateSyntheticTable(&db, spec).ok());
  ImpConfig config;
  config.mode = ExecutionMode::kIncremental;
  ImpSystem system(&db, config);
  ASSERT_TRUE(system
                  .RegisterPartition(
                      RangePartition::EquiWidthInt("t", "a", 1, 0, 9, 5))
                  .ok());
  const std::string sql_a =
      "SELECT a, sum(b) AS sb FROM t GROUP BY a HAVING sum(b) > 500";
  const std::string sql_b =
      "SELECT a, count(*) AS n FROM t GROUP BY a HAVING count(*) > 15";
  ASSERT_TRUE(system.Query(sql_a).ok());
  ASSERT_TRUE(system.Query(sql_b).ok());

  SyntheticSpec row_spec;
  row_spec.num_groups = 10;
  Rng rng(5);
  auto insert_rows = [&](size_t n, int64_t base) {
    for (size_t i = 0; i < n; ++i) {
      BoundUpdate update;
      update.kind = BoundUpdate::Kind::kInsert;
      update.table = "t";
      update.rows.push_back(
          SyntheticRow(row_spec, base + static_cast<int64_t>(i), &rng));
      ASSERT_TRUE(system.UpdateBound(update).ok());
    }
  };

  insert_rows(6, 300000);
  ASSERT_EQ(db.PendingDeltaCount("t", 0), 6u);
  // Every entry reaches the watermark -> the whole published log is
  // droppable (boundary: records AT the min version are dropped too).
  ASSERT_TRUE(system.MaintainAll().ok());
  EXPECT_EQ(db.PendingDeltaCount("t", 0), 0u);
  EXPECT_GE(system.stats().log_truncations, 1u);

  // Hold the boundary back: evict both entries and destroy entry0's
  // persisted state, so the next round cannot restore (and hence cannot
  // advance) it while entry1 is maintained to the cut.
  auto entries = system.sketches().AllEntries();
  ASSERT_EQ(entries.size(), 2u);
  ASSERT_TRUE(system.EvictSketchStates().ok());
  db.EraseStateBlob(entries[0]->state_key);
  const uint64_t held_version = entries[0]->valid_version();

  insert_rows(5, 310000);
  const size_t pending_behind_held = db.PendingDeltaCount("t", held_version);
  ASSERT_EQ(pending_behind_held, 5u);
  // The round reports the restore failure but must still truncate only up
  // to the held-back entry's version: its repair window survives.
  ASSERT_FALSE(system.MaintainAll().ok());
  EXPECT_EQ(db.PendingDeltaCount("t", held_version), pending_behind_held);
  EXPECT_LT(entries[0]->valid_version(), entries[1]->valid_version());

  // Repair the held entry: RepartitionTable recaptures every entry from
  // scratch (fresh maintainer, blob erased) — the system's recovery path
  // for lost state.
  ASSERT_TRUE(system.RepartitionTable("t", "a", 5).ok());
  ASSERT_TRUE(system.MaintainAll().ok());
  // Boundary released: the log is truncated to the (now shared) watermark.
  EXPECT_EQ(db.PendingDeltaCount("t", 0), 0u);
  auto result = system.Query(sql_a);
  ASSERT_TRUE(result.ok());

  // And the truncated system still answers exactly like a no-sketch run.
  Database ref;
  ASSERT_TRUE(CreateSyntheticTable(&ref, spec).ok());
  ImpConfig ns_config;
  ns_config.mode = ExecutionMode::kNoSketch;
  ImpSystem ns(&ref, ns_config);
  Rng ref_rng(5);
  auto ref_insert = [&](size_t n, int64_t base) {
    for (size_t i = 0; i < n; ++i) {
      BoundUpdate update;
      update.kind = BoundUpdate::Kind::kInsert;
      update.table = "t";
      update.rows.push_back(
          SyntheticRow(row_spec, base + static_cast<int64_t>(i), &ref_rng));
      ASSERT_TRUE(ns.UpdateBound(update).ok());
    }
  };
  ref_insert(6, 300000);
  ref_insert(5, 310000);
  auto ns_result = ns.Query(sql_a);
  ASSERT_TRUE(ns_result.ok());
  EXPECT_TRUE(result.value().SameBag(ns_result.value()));
}

TEST(ConcurrentFrontendTest, TruncationSkipsEmptyStoreAndUnsketchedRuns) {
  Database db;
  SyntheticSpec spec;
  spec.name = "t";
  spec.num_rows = 50;
  spec.num_groups = 5;
  ASSERT_TRUE(CreateSyntheticTable(&db, spec).ok());
  ImpConfig config;
  config.mode = ExecutionMode::kIncremental;
  ImpSystem system(&db, config);
  ASSERT_TRUE(system
                  .RegisterPartition(
                      RangePartition::EquiWidthInt("t", "a", 1, 0, 4, 3))
                  .ok());
  BoundUpdate update;
  update.kind = BoundUpdate::Kind::kInsert;
  update.table = "t";
  SyntheticSpec row_spec;
  row_spec.num_groups = 5;
  Rng rng(3);
  update.rows.push_back(SyntheticRow(row_spec, 400000, &rng));
  ASSERT_TRUE(system.UpdateBound(update).ok());
  // No sketches exist: MaintainAll must leave the log alone (conservative
  // empty-store rule).
  ASSERT_TRUE(system.MaintainAll().ok());
  EXPECT_EQ(db.PendingDeltaCount("t", 0), 1u);
  EXPECT_EQ(system.stats().log_truncations, 0u);
}

}  // namespace
}  // namespace imp
