// Concurrency stress tests for the sharded, snapshot-isolated sketch front
// end (run under the TSan CI job, repeated until-fail):
//
//  * linearizability of Query against the stable watermark: reader threads
//    racing a synchronous writer (which also runs the eager rounds) and a
//    MaintainAll thread must each return a result bit-identical to the
//    fully serialized run at SOME watermark within the query's
//    [before, after] window;
//  * ReadViews opened while writers, eager rounds, queries and truncation
//    sweeps race each pin the serialized database at their watermark;
//  * readers on one table proceeding while another table's shard is being
//    maintained, with one writer thread per table so versions retire out
//    of order (cross-table results stay correct under the same racing
//    load);
//  * racing producers on one table against lock-free staleness probes and
//    window scans: the final sketches and answers equal a single-threaded
//    run's;
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

  // Writer (this thread): apply the deterministic statement stream, and
  // every fourth statement an eager round, while readers and the
  // maintainer race it.
  for (size_t k = 0; k < kStatements; ++k) {
    ASSERT_TRUE(system.UpdateBound(InsertStatement("t", k, kStartId)).ok());
  }
  // The writer never waits behind readers, so on a loaded single-CPU box
  // it can finish before any reader does; keep the window open until
  // enough queries completed for the assertions below to mean something
  // (later queries still observe valid windows at the final watermark).
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

TEST(ConcurrentFrontendTest, ReadViewsStayConsistentUnderWriteLoad) {
  // Storage-level counterpart of the linearizability test: while two
  // writer threads (each also running the eager rounds its statements
  // complete), queries and delta-log truncation sweeps all race, every
  // ReadView opened mid-flight must still pin the serialized database at
  // its watermark — single-row inserts make that checkable as
  // rows(t) == initial + watermark — with per-table version stamps at or
  // below the watermark and publication epochs that never run backwards
  // for any observer.
  SyntheticSpec spec;
  spec.name = "t";
  spec.num_rows = 300;
  spec.num_groups = kGroups;
  const size_t kStatements = 64;
  const size_t kWriters = 2;
  const int64_t kStartId = 200000;
  const std::string sql =
      "SELECT a, sum(b) AS sb FROM t GROUP BY a HAVING sum(b) > 1500";

  Database db;
  ASSERT_TRUE(CreateSyntheticTable(&db, spec).ok());
  ImpConfig config;
  config.mode = ExecutionMode::kIncremental;
  config.strategy = MaintenanceStrategy::kEager;
  config.eager_batch_size = 4;
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

  std::vector<std::thread> writers;
  for (size_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (size_t k = w; k < kStatements; k += kWriters) {
        ASSERT_TRUE(
            system.UpdateBound(InsertStatement("t", k, kStartId)).ok());
      }
    });
  }
  for (std::thread& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  for (std::thread& t : pollers) t.join();
  querier.join();
  truncator.join();

  // The watermark caught up and the published snapshot holds every row.
  ReadView final_view = db.OpenReadView();
  EXPECT_EQ(final_view.watermark(), kStatements);
  EXPECT_EQ(final_view.Find("t")->num_rows(), spec.num_rows + kStatements);
}

TEST(ConcurrentFrontendTest, ReadersAcrossTablesRaceMaintenanceCorrectly) {
  // Two tables, one sketch each — updates and maintenance on `u` must not
  // corrupt (or serialize away the correctness of) reads on `t` and vice
  // versa. Each table has its own writer thread, so the two statement
  // streams interleave freely and their versions retire out of order.
  // Each table's own stream is deterministic, so both query streams are
  // validated against their serialized expectation, indexed by the
  // table's own statement count: single-row inserts make that count the
  // table's row growth in ReadViews opened before and after the query.
  SyntheticSpec spec_t;
  spec_t.name = "t";
  spec_t.num_rows = 300;
  spec_t.num_groups = kGroups;
  SyntheticSpec spec_u = spec_t;
  spec_u.name = "u";
  spec_u.seed = 43;

  const size_t kPerTable = 20;
  const int64_t kStartId = 200000;
  const std::string sql_t =
      "SELECT a, sum(b) AS sb FROM t GROUP BY a HAVING sum(b) > 1200";
  const std::string sql_u =
      "SELECT a, count(*) AS n FROM u GROUP BY a HAVING count(*) > 10";

  // Per-table serialized expectations, indexed by the table's OWN
  // statement count.
  std::vector<Relation> expected_t =
      SerialResultsPerVersion("t", sql_t, kPerTable, kStartId, spec_t);
  std::vector<Relation> expected_u =
      SerialResultsPerVersion("u", sql_u, kPerTable, kStartId, spec_u);

  Database db;
  ASSERT_TRUE(CreateSyntheticTable(&db, spec_t).ok());
  ASSERT_TRUE(CreateSyntheticTable(&db, spec_u).ok());
  ImpConfig config;
  config.mode = ExecutionMode::kIncremental;
  config.strategy = MaintenanceStrategy::kEager;
  config.eager_batch_size = 4;
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

  std::atomic<bool> stop{false};
  struct TableReader {
    std::string table;
    const std::string* sql;
    const std::vector<Relation>* expected;
    size_t initial_rows;
    std::vector<Observation> observations;
  };
  std::vector<TableReader> tracks(2);
  tracks[0] = {"t", &sql_t, &expected_t, spec_t.num_rows, {}};
  tracks[1] = {"u", &sql_u, &expected_u, spec_u.num_rows, {}};
  // The table's own statement count as of a freshly opened view. A query
  // opens its views after `before` and before `after`, and watermarks
  // only grow, so it ran at a count inside [before, after].
  auto own_statements = [&db](const TableReader& track) {
    return db.OpenReadView().Find(track.table)->num_rows() -
           track.initial_rows;
  };

  std::vector<std::thread> readers;
  for (TableReader& track : tracks) {
    readers.emplace_back([&, track_ptr = &track] {
      while (!stop.load(std::memory_order_acquire)) {
        Observation obs;
        obs.before = own_statements(*track_ptr);
        auto result = system.Query(*track_ptr->sql);
        obs.after = own_statements(*track_ptr);
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

  std::vector<std::thread> writers;
  for (const TableReader& track : tracks) {
    writers.emplace_back([&, table = track.table] {
      for (size_t k = 0; k < kPerTable; ++k) {
        ASSERT_TRUE(
            system.UpdateBound(InsertStatement(table, k, kStartId)).ok());
      }
    });
  }
  for (std::thread& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  maintainer.join();

  EXPECT_EQ(db.StableVersion(), 2 * kPerTable);
  for (const TableReader& track : tracks) {
    for (const Observation& obs : track.observations) {
      ASSERT_TRUE(MatchesSomeWatermark(obs, *track.expected))
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

// ---- Racing producers against lock-free scanners ---------------------------

TEST(ConcurrentFrontendTest, ProducersAndScannersRace) {
  constexpr size_t kProducers = 4;
  constexpr size_t kPerProducer = 50;
  const std::vector<std::string> queries = {
      "SELECT a, sum(b) AS s FROM edb GROUP BY a HAVING sum(b) > 10",
      "SELECT a, sum(c) AS s FROM edb GROUP BY a HAVING sum(c) > 10"};
  SyntheticSpec spec;
  spec.name = "edb";
  spec.num_rows = 500;
  spec.num_groups = 20;
  spec.seed = 3;
  auto make_system = [&](Database* db) {
    IMP_CHECK(CreateSyntheticTable(db, spec).ok());
    auto system = std::make_unique<ImpSystem>(db, ImpConfig{});
    IMP_CHECK(system
                  ->RegisterPartition(
                      RangePartition::EquiWidthInt("edb", "a", 1, 0, 19, 5))
                  .ok());
    for (const std::string& q : queries) IMP_CHECK(system->Query(q).ok());
    return system;
  };
  // Producer p's statements: deterministic single-row bags (their union
  // is order-independent).
  auto apply_stream = [&](ImpSystem* system, size_t p) {
    Rng rng(100 + p);
    for (size_t i = 0; i < kPerProducer; ++i) {
      BoundUpdate update;
      update.kind = BoundUpdate::Kind::kInsert;
      update.table = "edb";
      update.rows.push_back(SyntheticRow(
          spec, static_cast<int64_t>(10000 + p * kPerProducer + i), &rng));
      ASSERT_TRUE(system->UpdateBound(update).ok());
    }
  };

  Database db;
  std::unique_ptr<ImpSystem> system = make_system(&db);
  // Racing producers write the same table while a poller exercises the
  // lock-free staleness probe and the shared-side window scan against the
  // in-flight writer.
  std::atomic<bool> done{false};
  std::vector<std::thread> producers;
  for (size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] { apply_stream(system.get(), p); });
  }
  std::thread poller([&] {
    while (!done.load(std::memory_order_acquire)) {
      uint64_t stable = db.StableVersion();
      if (db.HasPendingDelta("edb", 0)) {
        ASSERT_LE(db.PendingDeltaCount("edb", 0), db.CurrentVersion());
      }
      TableDelta window = db.ScanDelta("edb", 0, stable);
      // Every record a scan returns is published: its version is at or
      // below the watermark read before the scan... or slightly newer if
      // a writer published meanwhile — but never unpublished garbage.
      for (const DeltaRecord& rec : window.records) {
        ASSERT_GE(rec.row.size(), 1u);
        ASSERT_LE(rec.version, db.CurrentVersion());
      }
      std::this_thread::yield();
    }
  });
  for (std::thread& t : producers) t.join();
  done.store(true, std::memory_order_release);
  poller.join();

  const uint64_t total = kProducers * kPerProducer;
  EXPECT_EQ(db.StableVersion(), total);
  EXPECT_EQ(db.CurrentVersion(), total);
  EXPECT_EQ(db.PendingDeltaCount("edb", 0), total);
  ASSERT_TRUE(system->MaintainAll().ok());

  // Reference: the same row bags applied by one thread. Insertion order
  // differs, but the final aggregates — and therefore the sketches and
  // query results — are order-independent.
  Database ref_db;
  std::unique_ptr<ImpSystem> ref = make_system(&ref_db);
  for (size_t p = 0; p < kProducers; ++p) apply_stream(ref.get(), p);
  ASSERT_TRUE(ref->MaintainAll().ok());

  auto entries = system->sketches().AllEntries();
  auto ref_entries = ref->sketches().AllEntries();
  ASSERT_EQ(entries.size(), ref_entries.size());
  for (size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(entries[i]->sketch.fragments.SetBits(),
              ref_entries[i]->sketch.fragments.SetBits())
        << "sketch " << i;
  }
  for (const std::string& q : queries) {
    auto got = system->Query(q);
    auto want = ref->Query(q);
    ASSERT_TRUE(got.ok());
    ASSERT_TRUE(want.ok());
    EXPECT_TRUE(got.value().SameBag(want.value())) << q;
  }
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
