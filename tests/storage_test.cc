// Unit tests for the storage backend: chunked tables, versioned updates,
// delta scans with push-down predicates, and the lock-free read path —
// immutable epoch-stamped TableSnapshots (copy-on-write chunk sharing),
// ReadViews pinning a consistent watermark across tables, the segmented
// wait-free delta log under truncation, and the write-boundary type check.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <thread>

#include "storage/database.h"
#include "test_util.h"

namespace imp {
namespace {

Schema TwoColSchema() {
  Schema s;
  s.AddColumn("id", ValueType::kInt);
  s.AddColumn("v", ValueType::kInt);
  return s;
}

Tuple Row(int64_t id, int64_t v) { return Tuple{Value::Int(id), Value::Int(v)}; }

TEST(DataChunkTest, AppendAndRead) {
  DataChunk chunk(TwoColSchema());
  chunk.AppendRow(Row(1, 10));
  chunk.AppendRow(Row(2, 20));
  EXPECT_EQ(chunk.num_rows(), 2u);
  EXPECT_EQ(chunk.At(1, 1), Value::Int(20));
  EXPECT_EQ(chunk.GetRow(0), Row(1, 10));
}

TEST(TableTest, AppendAcrossChunks) {
  Table t("t", TwoColSchema());
  const size_t n = DataChunk::kDefaultCapacity * 2 + 17;
  for (size_t i = 0; i < n; ++i) t.AppendRow(Row(static_cast<int64_t>(i), 0));
  EXPECT_EQ(t.NumRows(), n);
  EXPECT_GE(t.chunks().size(), 3u);
  t.PublishSnapshot();
  size_t seen = 0;
  t.Snapshot()->ForEachRow([&](const Tuple& row) {
    EXPECT_EQ(row[0], Value::Int(static_cast<int64_t>(seen)));
    ++seen;
  });
  EXPECT_EQ(seen, n);
}

// ---- DELETE: per-chunk rewrite vs a row-at-a-time oracle -------------------

/// Every column type: INT, NULL-heavy INT, DOUBLE with NaN / ±0.0 / NULL,
/// a dictionary string column, a string column with more distinct values
/// per chunk than a dictionary holds (flat), and an all-NULL column.
Schema AllTypesSchema() {
  Schema s;
  s.AddColumn("id", ValueType::kInt);
  s.AddColumn("i", ValueType::kInt);
  s.AddColumn("d", ValueType::kDouble);
  s.AddColumn("s", ValueType::kString);
  s.AddColumn("f", ValueType::kString);
  s.AddColumn("n", ValueType::kInt);
  return s;
}

Tuple AllTypesRow(int64_t id, std::mt19937_64* rng) {
  auto pick = [&](uint64_t k) { return static_cast<int64_t>((*rng)() % k); };
  static const double kSpecial[] = {0.0, -0.0,
                                    std::numeric_limits<double>::quiet_NaN(),
                                    1.5, -2.25};
  Value i = pick(3) == 0 ? Value::Int(pick(100) - 50) : Value::Null();
  Value d = pick(8) == 0   ? Value::Null()
            : pick(2) == 0 ? Value::Double(kSpecial[pick(5)])
                           : Value::Double(static_cast<double>(pick(2000)) / 8 - 125);
  Value s = pick(10) == 0 ? Value::Null()
                          : Value::String("k" + std::to_string(pick(20)));
  Value f = pick(16) == 0 ? Value::Null()
                          : Value::String("f" + std::to_string(pick(100000)));
  return {Value::Int(id), i, d, s, f, Value::Null()};
}

/// Cell identity, stricter than Value::operator== (under which NaN equals
/// everything and -0.0 equals 0.0): same type and the same bits.
bool SameCell(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  if (!a.is_double()) return a.is_null() || a == b;
  double x = a.AsDouble(), y = b.AsDouble();
  return std::memcmp(&x, &y, sizeof(double)) == 0;
}

bool SameRow(const Tuple& a, const Tuple& b) {
  if (a.size() != b.size()) return false;
  for (size_t c = 0; c < a.size(); ++c) {
    if (!SameCell(a[c], b[c])) return false;
  }
  return true;
}

TEST(TableTest, DeleteMatchesRowAtATimeOracle) {
  // A sequence of DELETEs over one table spanning several chunks, with an
  // insert before each so appends land in rewritten tails. Before every
  // statement a row-at-a-time oracle (GetRow + Expr::Eval, survivors
  // appended into a fresh DataChunk per chunk) predicts the removed rows
  // and each chunk's survivors; the statement must remove exactly those
  // rows in scan order, share every chunk that loses nothing, drop every
  // chunk that loses everything, and leave each rewritten chunk with the
  // oracle's rows, zone entries and null bitmaps.
  struct Case {
    std::string where;  // empty: every row
    size_t limit;
  };
  const std::vector<Case> cases = {
      {"", 7},                                 // first 7 rows in scan order
      {"id % 10 = 3", SIZE_MAX},               // all scalar remainder
      {"id >= 100 AND id < 110", SIZE_MAX},    // a few rows of one chunk
      {"id < 5000", SIZE_MAX},                 // drops chunk 0, cuts chunk 1
      {"d = 0.0", SIZE_MAX},                   // ±0.0 (and NaN, per Eval)
      {"d < 1.0 AND s = 'k3'", SIZE_MAX},
      {"i > 10 AND id + 0 < 7000", 50},        // conjunct left to the remainder
      {"s >= 'k5' OR f < 'f5'", SIZE_MAX},
      {"d BETWEEN -1.0 AND 1.0", 300},
      {"i < 0", SIZE_MAX},                     // NULL-heavy: NULLs never match
      {"n = 1", SIZE_MAX},                     // all-NULL: nothing goes
      {"f > 'f99'", SIZE_MAX},                 // flat strings
      {"id >= 0", SIZE_MAX},                   // every chunk dropped
  };
  std::mt19937_64 rng(20260519);
  Database db;
  ASSERT_TRUE(db.CreateTable("t", AllTypesSchema()).ok());
  int64_t next_id = 0;
  std::vector<Tuple> load;
  for (size_t r = 0; r < 2 * DataChunk::kDefaultCapacity + 1500; ++r) {
    load.push_back(AllTypesRow(next_id++, &rng));
  }
  ASSERT_TRUE(db.BulkLoad("t", load).ok());
  const Table* table = db.GetTable("t");
  Binder binder(&db);

  for (const Case& c : cases) {
    SCOPED_TRACE("WHERE " + c.where + " limit " + std::to_string(c.limit));
    std::vector<Tuple> fresh;
    for (int r = 0; r < 300; ++r) fresh.push_back(AllTypesRow(next_id++, &rng));
    ASSERT_TRUE(db.Insert("t", fresh).ok());
    auto bound = binder.BindSql("DELETE FROM t" +
                                (c.where.empty() ? "" : " WHERE " + c.where));
    ASSERT_TRUE(bound.ok()) << bound.status().ToString();
    const ExprPtr& where = bound.value().update.where;

    // The oracle, over the writer state the statement will see.
    std::vector<const DataChunk*> before;
    std::vector<Tuple> removed;
    std::vector<DataChunk> survivors;
    std::vector<bool> lost_rows;
    for (const auto& chunk : table->chunks()) {
      before.push_back(chunk.get());
      survivors.emplace_back(table->schema());
      lost_rows.push_back(false);
      for (size_t r = 0; r < chunk->num_rows(); ++r) {
        Tuple row = chunk->GetRow(r);
        if (removed.size() < c.limit &&
            (where == nullptr || where->Eval(row).IsTrue())) {
          removed.push_back(std::move(row));
          lost_rows.back() = true;
        } else {
          survivors.back().AppendRow(row);
        }
      }
    }

    auto v = DeleteWhere(&db, "t", where, c.limit);
    ASSERT_TRUE(v.ok()) << v.status().ToString();
    TableDelta delta = db.ScanDelta("t", v.value() - 1, v.value());
    ASSERT_EQ(delta.size(), removed.size());
    for (size_t k = 0; k < removed.size(); ++k) {
      EXPECT_EQ(delta.records[k].mult, -1);
      EXPECT_TRUE(SameRow(delta.records[k].row, removed[k]))
          << "removed row " << k << ": " << TupleToString(delta.records[k].row)
          << " vs " << TupleToString(removed[k]);
    }

    const auto& after = table->chunks();
    size_t j = 0, rows = 0;
    for (size_t i = 0; i < before.size(); ++i) {
      const DataChunk& want = survivors[i];
      if (want.num_rows() == 0) continue;  // emptied: dropped
      ASSERT_LT(j, after.size());
      const DataChunk& got = *after[j++];
      rows += got.num_rows();
      EXPECT_EQ(&got == before[i], !lost_rows[i]) << "chunk " << i;
      ASSERT_EQ(got.num_rows(), want.num_rows()) << "chunk " << i;
      for (size_t r = 0; r < want.num_rows(); ++r) {
        ASSERT_TRUE(SameRow(got.GetRow(r), want.GetRow(r)))
            << "chunk " << i << " row " << r;
      }
      for (size_t col = 0; col < want.num_columns(); ++col) {
        DataChunk::ZoneEntry gz = got.zone(col), wz = want.zone(col);
        EXPECT_EQ(gz.valid, wz.valid) << "chunk " << i << " col " << col;
        EXPECT_TRUE(SameCell(gz.min, wz.min) && SameCell(gz.max, wz.max))
            << "chunk " << i << " col " << col << ": [" << gz.min.ToString()
            << ", " << gz.max.ToString() << "] vs [" << wz.min.ToString()
            << ", " << wz.max.ToString() << "]";
        EXPECT_EQ(got.column(col).has_nulls(), want.column(col).has_nulls());
        EXPECT_EQ(got.column(col).nulls(), want.column(col).nulls())
            << "chunk " << i << " col " << col;
      }
    }
    EXPECT_EQ(j, after.size());
    EXPECT_EQ(rows, table->NumRows());
    EXPECT_EQ(table->Snapshot()->num_rows(), table->NumRows());
  }
  EXPECT_EQ(table->NumRows(), 0u);
  EXPECT_TRUE(table->chunks().empty());
}

TEST(TableTest, ColumnMinMax) {
  Table t("t", TwoColSchema());
  for (int64_t i = 0; i < 50; ++i) t.AppendRow(Row(i, 100 - i));
  t.PublishSnapshot();
  auto [min, max] = t.Snapshot()->ColumnMinMax(1);
  EXPECT_EQ(min, Value::Int(51));
  EXPECT_EQ(max, Value::Int(100));
}

TEST(DatabaseTest, CreateAndDuplicateTable) {
  Database db;
  EXPECT_TRUE(db.CreateTable("t", TwoColSchema()).ok());
  EXPECT_TRUE(db.HasTable("t"));
  EXPECT_FALSE(db.CreateTable("t", TwoColSchema()).ok());
  EXPECT_EQ(db.GetTable("nope"), nullptr);
}

TEST(DatabaseTest, BulkLoadDoesNotBumpVersionOrLogDeltas) {
  Database db;
  ASSERT_TRUE(db.CreateTable("t", TwoColSchema()).ok());
  ASSERT_TRUE(db.BulkLoad("t", {Row(1, 1), Row(2, 2)}).ok());
  EXPECT_EQ(db.CurrentVersion(), 0u);
  EXPECT_EQ(db.GetTable("t")->delta_log().size(), 0u);
  EXPECT_EQ(db.GetTable("t")->NumRows(), 2u);
}

TEST(DatabaseTest, InsertBumpsVersionAndLogsDelta) {
  Database db;
  ASSERT_TRUE(db.CreateTable("t", TwoColSchema()).ok());
  auto v1 = db.Insert("t", {Row(1, 1)});
  ASSERT_TRUE(v1.ok());
  EXPECT_EQ(v1.value(), 1u);
  auto v2 = db.Insert("t", {Row(2, 2), Row(3, 3)});
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(v2.value(), 2u);
  EXPECT_EQ(db.GetTable("t")->delta_log().size(), 3u);
  EXPECT_EQ(db.GetTable("t")->NumRows(), 3u);
}

TEST(DatabaseTest, DeleteLogsNegativeDelta) {
  Database db;
  ASSERT_TRUE(db.CreateTable("t", TwoColSchema()).ok());
  ASSERT_TRUE(db.BulkLoad("t", {Row(1, 1), Row(2, 2), Row(3, 3)}).ok());
  auto v = Delete(&db, "t", "id >= 2");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(db.GetTable("t")->NumRows(), 1u);
  const DeltaLog& log = db.GetTable("t")->delta_log();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log.At(0).mult, -1);
  EXPECT_EQ(log.At(1).mult, -1);
}

TEST(DatabaseTest, ScanDeltaVersionWindow) {
  Database db;
  ASSERT_TRUE(db.CreateTable("t", TwoColSchema()).ok());
  ASSERT_TRUE(db.Insert("t", {Row(1, 1)}).ok());   // v1
  ASSERT_TRUE(db.Insert("t", {Row(2, 2)}).ok());   // v2
  ASSERT_TRUE(db.Insert("t", {Row(3, 3)}).ok());   // v3
  TableDelta d = db.ScanDelta("t", 1, 2);
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d.records[0].row, Row(2, 2));
  // Full window.
  EXPECT_EQ(db.ScanDelta("t", 0, 3).size(), 3u);
  // Empty window.
  EXPECT_EQ(db.ScanDelta("t", 3, 3).size(), 0u);
  // A window strictly beyond the log is empty too.
  EXPECT_TRUE(db.ScanDelta("t", 8, 12).empty());
}

TEST(DatabaseTest, ScanDeltaWithPushdownPredicate) {
  Database db;
  ASSERT_TRUE(db.CreateTable("t", TwoColSchema()).ok());
  ASSERT_TRUE(db.Insert("t", {Row(1, 5), Row(2, 50), Row(3, 500)}).ok());
  TableDelta d = db.ScanDelta("t", 0, 1, [](const Tuple& row) {
    return row[1].AsInt() < 100;  // the Sec. 7.2 delta pre-filter
  });
  EXPECT_EQ(d.size(), 2u);
}

TEST(DatabaseTest, PendingDeltaCount) {
  Database db;
  ASSERT_TRUE(db.CreateTable("t", TwoColSchema()).ok());
  EXPECT_EQ(db.PendingDeltaCount("t", 0), 0u);
  ASSERT_TRUE(db.Insert("t", {Row(1, 1), Row(2, 2)}).ok());
  EXPECT_EQ(db.PendingDeltaCount("t", 0), 2u);
  EXPECT_EQ(db.PendingDeltaCount("t", db.CurrentVersion()), 0u);
}

TEST(DatabaseTest, HasPendingDeltaMatchesCount) {
  // The O(1) staleness check must agree with the full count everywhere.
  Database db;
  ASSERT_TRUE(db.CreateTable("t", TwoColSchema()).ok());
  EXPECT_FALSE(db.HasPendingDelta("t", 0));
  EXPECT_FALSE(db.HasPendingDelta("ghost", 0));
  ASSERT_TRUE(db.Insert("t", {Row(1, 1)}).ok());  // v1
  ASSERT_TRUE(db.Insert("t", {Row(2, 2)}).ok());  // v2
  for (uint64_t v = 0; v <= db.CurrentVersion(); ++v) {
    EXPECT_EQ(db.HasPendingDelta("t", v), db.PendingDeltaCount("t", v) > 0)
        << "from_version " << v;
  }
}

TEST(DatabaseTest, DeltaLogTruncation) {
  Database db;
  ASSERT_TRUE(db.CreateTable("t", TwoColSchema()).ok());
  ASSERT_TRUE(db.Insert("t", {Row(1, 1)}).ok());  // v1
  ASSERT_TRUE(db.Insert("t", {Row(2, 2)}).ok());  // v2
  db.GetMutableTable("t")->TruncateDeltaLog(1);
  EXPECT_EQ(db.GetTable("t")->delta_log().size(), 1u);
  EXPECT_EQ(db.GetTable("t")->delta_log().At(0).version, 2u);
}

TEST(DatabaseTest, InsertIntoMissingTableFails) {
  Database db;
  EXPECT_FALSE(db.Insert("nope", {Row(1, 1)}).ok());
  EXPECT_FALSE(DeleteWhere(&db, "nope", nullptr).ok());
}

// ---- TableSnapshot: immutability, COW sharing, epoch monotonicity ----------

TEST(TableSnapshotTest, PinnedSnapshotImmutableAcrossAppends) {
  Database db;
  ASSERT_TRUE(db.CreateTable("t", TwoColSchema()).ok());
  ASSERT_TRUE(db.BulkLoad("t", {Row(1, 10), Row(2, 20)}).ok());
  auto pinned = db.GetTable("t")->Snapshot();
  ASSERT_EQ(pinned->num_rows(), 2u);

  // The insert lands in the same (shared) tail chunk: the writer must
  // clone it (copy-on-write), leaving the pinned snapshot bit-identical.
  ASSERT_TRUE(db.Insert("t", {Row(3, 30)}).ok());
  EXPECT_EQ(pinned->num_rows(), 2u);
  ASSERT_EQ(pinned->chunks().size(), 1u);
  EXPECT_EQ(pinned->chunks()[0]->num_rows(), 2u);
  EXPECT_EQ(pinned->chunks()[0]->At(1, 1), Value::Int(20));
  // The pinned zone map is frozen too (the clone got the update).
  EXPECT_EQ(pinned->chunks()[0]->zone(0).max, Value::Int(2));

  auto fresh = db.GetTable("t")->Snapshot();
  EXPECT_EQ(fresh->num_rows(), 3u);
  EXPECT_EQ(fresh->chunks()[0]->At(2, 0), Value::Int(3));
  EXPECT_EQ(fresh->chunks()[0]->zone(0).max, Value::Int(3));
  // Distinct physical tail chunks: the clone, not the original, grew.
  EXPECT_NE(fresh->chunks()[0].get(), pinned->chunks()[0].get());
}

TEST(TableSnapshotTest, DeleteRebuildsWhilePinnedSnapshotKeepsOldRows) {
  Database db;
  ASSERT_TRUE(db.CreateTable("t", TwoColSchema()).ok());
  ASSERT_TRUE(db.BulkLoad("t", {Row(1, 1), Row(2, 2), Row(3, 3)}).ok());
  auto pinned = db.GetTable("t")->Snapshot();
  ASSERT_TRUE(Delete(&db, "t", "id >= 2").ok());
  EXPECT_EQ(pinned->num_rows(), 3u);  // epoch-based reclamation: still alive
  EXPECT_EQ(db.GetTable("t")->Snapshot()->num_rows(), 1u);
}

TEST(TableSnapshotTest, EpochStrictlyIncreasesPerPublication) {
  Database db;
  ASSERT_TRUE(db.CreateTable("t", TwoColSchema()).ok());
  uint64_t e0 = db.GetTable("t")->SnapshotEpoch();
  ASSERT_TRUE(db.BulkLoad("t", {Row(1, 1)}).ok());
  uint64_t e1 = db.GetTable("t")->SnapshotEpoch();
  ASSERT_TRUE(db.Insert("t", {Row(2, 2)}).ok());
  uint64_t e2 = db.GetTable("t")->SnapshotEpoch();
  ASSERT_TRUE(Delete(&db, "t", "", 1).ok());
  uint64_t e3 = db.GetTable("t")->SnapshotEpoch();
  EXPECT_LT(e0, e1);
  EXPECT_LT(e1, e2);
  EXPECT_LT(e2, e3);
}

TEST(TableSnapshotTest, VersionStampIsLastModifyingStatement) {
  Database db;
  ASSERT_TRUE(db.CreateTable("a", TwoColSchema()).ok());
  ASSERT_TRUE(db.CreateTable("b", TwoColSchema()).ok());
  EXPECT_EQ(db.GetTable("a")->Snapshot()->version(), 0u);
  ASSERT_TRUE(db.Insert("a", {Row(1, 1)}).ok());  // v1
  ASSERT_TRUE(db.Insert("b", {Row(2, 2)}).ok());  // v2
  ASSERT_TRUE(db.Insert("a", {Row(3, 3)}).ok());  // v3
  EXPECT_EQ(db.GetTable("a")->Snapshot()->version(), 3u);
  EXPECT_EQ(db.GetTable("b")->Snapshot()->version(), 2u);
}

// ---- ReadView: consistent watermark pinning --------------------------------

TEST(ReadViewTest, PinsConsistentWatermarkAcrossTables) {
  Database db;
  ASSERT_TRUE(db.CreateTable("a", TwoColSchema()).ok());
  ASSERT_TRUE(db.CreateTable("b", TwoColSchema()).ok());
  ASSERT_TRUE(db.Insert("a", {Row(1, 1)}).ok());  // v1
  ASSERT_TRUE(db.Insert("b", {Row(2, 2)}).ok());  // v2
  ReadView view = db.OpenReadView();
  EXPECT_EQ(view.watermark(), 2u);
  EXPECT_EQ(view.NumTables(), 2u);
  EXPECT_EQ(view.TableVersion("a"), 1u);
  EXPECT_EQ(view.TableVersion("b"), 2u);
  ASSERT_NE(view.Find("a"), nullptr);
  EXPECT_EQ(view.Find("a")->num_rows(), 1u);
  EXPECT_EQ(view.Find("ghost"), nullptr);
  EXPECT_EQ(view.TableVersion("ghost"), 0u);
}

TEST(ReadViewTest, PinnedViewUnaffectedByLaterPublishes) {
  Database db;
  ASSERT_TRUE(db.CreateTable("t", TwoColSchema()).ok());
  ASSERT_TRUE(db.Insert("t", {Row(1, 1)}).ok());
  ReadView view = db.OpenReadView();
  ASSERT_TRUE(db.Insert("t", {Row(2, 2)}).ok());
  ASSERT_TRUE(db.Insert("t", {Row(3, 3)}).ok());
  // The pinned view stays at its watermark; a fresh view advances.
  EXPECT_EQ(view.watermark(), 1u);
  EXPECT_EQ(view.Find("t")->num_rows(), 1u);
  EXPECT_EQ(view.TableVersion("t"), 1u);
  ReadView fresh = db.OpenReadView();
  EXPECT_EQ(fresh.watermark(), 3u);
  EXPECT_EQ(fresh.Find("t")->num_rows(), 3u);
}

TEST(ReadViewTest, StalenessStampSurvivesDeltaLogTruncation) {
  // The old delta-log staleness probe could be fooled by a truncation
  // sweep dropping exactly the records that proved a sketch stale; the
  // snapshot version stamp a ReadView serves cannot.
  Database db;
  ASSERT_TRUE(db.CreateTable("t", TwoColSchema()).ok());
  ASSERT_TRUE(db.Insert("t", {Row(1, 1)}).ok());  // v1
  ASSERT_TRUE(db.Insert("t", {Row(2, 2)}).ok());  // v2
  db.TruncateDeltaLogs(2);
  EXPECT_FALSE(db.HasPendingDelta("t", 1));  // vacuous: records are gone
  ReadView view = db.OpenReadView();
  EXPECT_GT(view.TableVersion("t"), 1u);  // ...but the stamp still says stale
  EXPECT_EQ(view.TableVersion("t"), 2u);
}

TEST(ReadViewTest, BoundaryVersionsAroundStagedUnpublishedTail) {
  // A staged-but-unpublished statement is invisible: the view opens at the
  // watermark below it and its rows/stamps are absent until publication.
  Database db;
  ASSERT_TRUE(db.CreateTable("t", TwoColSchema()).ok());
  ASSERT_TRUE(db.Insert("t", {Row(1, 1)}).ok());  // v1
  uint64_t v2 = db.AllocateVersion();
  {
    auto session = db.WriteSession("t");
    ASSERT_TRUE(db.StageInsert("t", {Row(2, 2)}, v2).ok());
  }
  ReadView before = db.OpenReadView();
  EXPECT_EQ(before.watermark(), 1u);
  EXPECT_EQ(before.Find("t")->num_rows(), 1u);
  EXPECT_EQ(before.TableVersion("t"), 1u);
  {
    auto session = db.WriteSession("t");
    db.PublishTable("t");
  }
  db.RetireVersion(v2);
  ReadView after = db.OpenReadView();
  EXPECT_EQ(after.watermark(), 2u);
  EXPECT_EQ(after.Find("t")->num_rows(), 2u);
  EXPECT_EQ(after.TableVersion("t"), 2u);
}

// ---- Watermark boundaries of the staged append path ------------------------

TEST(WatermarkTest, StagedTailInvisibleUntilPublish) {
  Database db;
  ASSERT_TRUE(db.CreateTable("t", TwoColSchema()).ok());
  ASSERT_TRUE(db.Insert("t", {Row(1, 1)}).ok());  // v1, published
  ASSERT_EQ(db.StableVersion(), 1u);

  // Stage a statement the way a writer does, but do not publish: the
  // delta window (1, 2] lies entirely in the unpublished tail.
  uint64_t v = db.AllocateVersion();
  ASSERT_EQ(v, 2u);
  ASSERT_TRUE(db.StageInsert("t", {Row(2, 2), Row(3, 3)}, v).ok());
  EXPECT_EQ(db.CurrentVersion(), 2u);
  EXPECT_EQ(db.StableVersion(), 1u);
  EXPECT_FALSE(db.HasPendingDelta("t", 1));
  EXPECT_EQ(db.PendingDeltaCount("t", 1), 0u);
  EXPECT_TRUE(db.ScanDelta("t", 1, 2).empty());
  EXPECT_EQ(db.GetTable("t")->delta_log().unpublished(), 2u);

  db.PublishVersion("t", v);
  EXPECT_EQ(db.StableVersion(), 2u);
  EXPECT_TRUE(db.HasPendingDelta("t", 1));
  EXPECT_EQ(db.PendingDeltaCount("t", 1), 2u);
  EXPECT_EQ(db.ScanDelta("t", 1, 2).size(), 2u);
  EXPECT_EQ(db.GetTable("t")->delta_log().unpublished(), 0u);
}

TEST(WatermarkTest, OutOfOrderPublishHoldsWatermarkBack) {
  // Writers on different tables hold different stripes, so a later
  // version can retire first.
  Database db;
  ASSERT_TRUE(db.CreateTable("a", TwoColSchema()).ok());
  ASSERT_TRUE(db.CreateTable("b", TwoColSchema()).ok());
  uint64_t v1 = db.AllocateVersion();
  uint64_t v2 = db.AllocateVersion();
  ASSERT_TRUE(db.StageInsert("a", {Row(1, 1)}, v1).ok());
  ASSERT_TRUE(db.StageInsert("b", {Row(2, 2)}, v2).ok());

  // v2 publishes first: its table log becomes visible, but the epoch cut
  // cannot pass the still-unpublished v1.
  db.PublishVersion("b", v2);
  EXPECT_EQ(db.StableVersion(), 0u);
  EXPECT_TRUE(db.HasPendingDelta("b", 0));
  // A maintenance round cutting at the watermark sees neither statement.
  EXPECT_TRUE(db.ScanDelta("b", 0, db.StableVersion()).empty());

  db.PublishVersion("a", v1);
  EXPECT_EQ(db.StableVersion(), 2u);
  EXPECT_EQ(db.ScanDelta("a", 0, db.StableVersion()).size(), 1u);
  EXPECT_EQ(db.ScanDelta("b", 0, db.StableVersion()).size(), 1u);
}

// ---- Segmented wait-free delta log -----------------------------------------

TEST(DeltaLogTest, WindowScansAcrossSegmentBoundaries) {
  // Three statements of 600 records each span multiple fixed-capacity
  // segments; window scans and counts must be exact at every boundary.
  Database db;
  ASSERT_TRUE(db.CreateTable("t", TwoColSchema()).ok());
  std::vector<Tuple> rows;
  for (int64_t i = 0; i < 600; ++i) rows.push_back(Row(i, i));
  ASSERT_TRUE(db.Insert("t", rows).ok());  // v1
  ASSERT_TRUE(db.Insert("t", rows).ok());  // v2
  ASSERT_TRUE(db.Insert("t", rows).ok());  // v3
  const DeltaLog& log = db.GetTable("t")->delta_log();
  ASSERT_EQ(log.size(), 1800u);
  EXPECT_EQ(log.At(0).version, 1u);
  EXPECT_EQ(log.At(1799).version, 3u);
  EXPECT_EQ(db.ScanDelta("t", 0, 3).size(), 1800u);
  EXPECT_EQ(db.ScanDelta("t", 1, 2).size(), 600u);
  EXPECT_EQ(db.PendingDeltaCount("t", 2), 600u);
  EXPECT_EQ(db.PendingDeltaCount("t", 3), 0u);
}

TEST(DeltaLogTest, TruncationAtSegmentAndVersionBoundaries) {
  Database db;
  ASSERT_TRUE(db.CreateTable("t", TwoColSchema()).ok());
  std::vector<Tuple> rows;
  for (int64_t i = 0; i < 700; ++i) rows.push_back(Row(i, i));
  ASSERT_TRUE(db.Insert("t", rows).ok());  // v1: records 0..699
  ASSERT_TRUE(db.Insert("t", rows).ok());  // v2: records 700..1399
  ASSERT_TRUE(db.Insert("t", {Row(9, 9)}).ok());  // v3
  const DeltaLog& log = db.GetTable("t")->delta_log();
  // Truncating below the oldest version is a no-op.
  db.TruncateDeltaLogs(0);
  EXPECT_EQ(log.size(), 1401u);
  // Drop v1: the cut lands mid-segment (700 is not a segment multiple).
  db.TruncateDeltaLogs(1);
  EXPECT_EQ(log.size(), 701u);
  EXPECT_EQ(log.At(0).version, 2u);
  EXPECT_EQ(db.ScanDelta("t", 0, 3).size(), 701u);
  EXPECT_EQ(db.ScanDelta("t", 2, 3).size(), 1u);
  EXPECT_TRUE(log.HasRecordAfter(2));
  // Drop everything; the wait-free probe goes quiet.
  db.TruncateDeltaLogs(3);
  EXPECT_EQ(log.size(), 0u);
  EXPECT_FALSE(log.HasRecordAfter(0));
  EXPECT_EQ(db.ScanDelta("t", 0, 3).size(), 0u);
  // The log keeps working after a full truncation.
  ASSERT_TRUE(db.Insert("t", {Row(4, 4)}).ok());  // v4
  EXPECT_EQ(log.size(), 1u);
  EXPECT_EQ(log.At(0).version, 4u);
}

// ---- Concurrent publication vs. ReadView opening ---------------------------

TEST(ReadViewTest, ConcurrentPublishesYieldConsistentViews) {
  // Writers insert single rows into two tables while readers keep opening
  // views: every view must satisfy the serialized invariant
  // rows(a) + rows(b) == watermark (each statement adds exactly one row),
  // per-table stamps never exceed the watermark, and snapshot
  // epochs/watermarks observed by one reader never go backwards. A
  // truncator races the delta logs underneath the scans. Two inputs with
  // the same statements: one writer alternating the tables, and one
  // writer per table, whose versions retire out of order.
  for (size_t num_writers : {1u, 2u}) {
    SCOPED_TRACE(std::to_string(num_writers) + " writer(s)");
    Database db;
    ASSERT_TRUE(db.CreateTable("a", TwoColSchema()).ok());
    ASSERT_TRUE(db.CreateTable("b", TwoColSchema()).ok());
    constexpr size_t kStatements = 4000;
    std::atomic<bool> done{false};

    // Statement k goes to `a` when k is even, to `b` when odd; with two
    // writers each owns one table.
    std::vector<std::thread> writers;
    for (size_t w = 0; w < num_writers; ++w) {
      writers.emplace_back([&, w] {
        for (size_t k = w; k < kStatements; k += num_writers) {
          const char* table = (k % 2 == 0) ? "a" : "b";
          ASSERT_TRUE(
              db.Insert(table, {Row(static_cast<int64_t>(k), 1)}).ok());
        }
      });
    }
    std::thread truncator([&] {
      while (!done.load(std::memory_order_acquire)) {
        db.TruncateDeltaLogs(db.StableVersion() / 2);
        std::this_thread::yield();
      }
    });

    std::vector<std::thread> readers;
    for (int r = 0; r < 2; ++r) {
      readers.emplace_back([&] {
        uint64_t last_watermark = 0;
        uint64_t last_epoch_a = 0;
        bool running = true;
        while (running) {
          running = !done.load(std::memory_order_acquire);
          ReadView view = db.OpenReadView();
          uint64_t w = view.watermark();
          ASSERT_GE(w, last_watermark);  // watermarks only move forward
          last_watermark = w;
          const TableSnapshot* a = view.Find("a");
          const TableSnapshot* b = view.Find("b");
          ASSERT_NE(a, nullptr);
          ASSERT_NE(b, nullptr);
          // The pinned set IS the serialized database at watermark w.
          ASSERT_EQ(a->num_rows() + b->num_rows(), w);
          ASSERT_LE(a->version(), w);
          ASSERT_LE(b->version(), w);
          ASSERT_GE(a->epoch(), last_epoch_a);  // monotone publication epochs
          last_epoch_a = a->epoch();
          // Wait-free window scans race the writers and the truncator; the
          // returned records must stay within the window with
          // non-decreasing versions regardless of what was truncated.
          TableDelta delta = db.ScanDelta("a", w / 2, w);
          uint64_t prev = 0;
          for (const DeltaRecord& rec : delta.records) {
            ASSERT_GT(rec.version, w / 2);
            ASSERT_LE(rec.version, w);
            ASSERT_GE(rec.version, prev);
            prev = rec.version;
          }
        }
      });
    }
    for (std::thread& t : writers) t.join();
    done.store(true, std::memory_order_release);
    truncator.join();
    for (std::thread& t : readers) t.join();

    ReadView final_view = db.OpenReadView();
    EXPECT_EQ(final_view.watermark(), kStatements);
    EXPECT_EQ(
        final_view.Find("a")->num_rows() + final_view.Find("b")->num_rows(),
        kStatements);
  }
}

// ---- Snapshot index shards: equivalence and concurrency --------------------

namespace {

using RowLoc = TableSnapshot::RowLoc;

/// Reference point lookup: full scan of the snapshot in emission order.
std::vector<RowLoc> ScanPoint(const TableSnapshot& snap, size_t col,
                              const Value& key) {
  std::vector<RowLoc> out;
  for (uint32_t c = 0; c < snap.chunks().size(); ++c) {
    const DataChunk& chunk = *snap.chunks()[c];
    for (uint32_t r = 0; r < chunk.num_rows(); ++r) {
      if (chunk.At(r, col) == key) out.push_back({c, r});
    }
  }
  return out;
}

/// Reference range lookup: lo <= v <= hi under Value::Compare, NULLs out.
std::vector<RowLoc> ScanRange(const TableSnapshot& snap, size_t col,
                              const Value& lo, const Value& hi) {
  std::vector<RowLoc> out;
  for (uint32_t c = 0; c < snap.chunks().size(); ++c) {
    const DataChunk& chunk = *snap.chunks()[c];
    for (uint32_t r = 0; r < chunk.num_rows(); ++r) {
      const Value& v = chunk.At(r, col);
      if (v.is_null()) continue;
      if (lo.Compare(v) <= 0 && v.Compare(hi) <= 0) out.push_back({c, r});
    }
  }
  return out;
}

bool SameLocs(const std::vector<RowLoc>& a, const std::vector<RowLoc>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].chunk != b[i].chunk || a[i].row != b[i].row) return false;
  }
  return true;
}

}  // namespace

TEST(SnapshotIndexTest, RandomizedIndexedVsScanEquivalence) {
  // Drive a publication chain with a random mix of appends, deletes and
  // seal-crossing batches while probing every generation's index (point
  // and range) against a brute-force scan of the same snapshot. Old
  // generations stay pinned so carried-forward shards are exercised on
  // both the snapshot that built them and its successors.
  std::mt19937 rng(20260808);
  Database db;
  ASSERT_TRUE(db.CreateTable("t", TwoColSchema()).ok());
  std::vector<std::shared_ptr<const TableSnapshot>> pinned;
  int64_t next = 0;
  auto key_of = [](int64_t i) { return i % 64; };

  for (int step = 0; step < 60; ++step) {
    int action = static_cast<int>(rng() % 10);
    if (action < 6) {
      // Append a batch; occasionally large enough to seal / cross chunks.
      size_t n = 1 + rng() % (action == 0 ? DataChunk::kSealThreshold * 2 : 8);
      std::vector<Tuple> rows;
      for (size_t i = 0; i < n; ++i, ++next) {
        rows.push_back(rng() % 16 == 0
                           ? Tuple{Value::Null(), Value::Int(next)}
                           : Row(key_of(next), next));
      }
      ASSERT_TRUE(db.Insert("t", rows).ok());
    } else if (action < 8) {
      int64_t victim = static_cast<int64_t>(rng() % 64);
      ASSERT_TRUE(Delete(&db, "t", "id = " + std::to_string(victim)).ok());
    }
    auto snap = db.GetTable("t")->Snapshot();
    if (rng() % 3 == 0) pinned.push_back(snap);

    int64_t key = static_cast<int64_t>(rng() % 64);
    EXPECT_TRUE(SameLocs(snap->IndexProbe(0, Value::Int(key)),
                         ScanPoint(*snap, 0, Value::Int(key))))
        << "step " << step;
    int64_t lo = static_cast<int64_t>(rng() % 64);
    int64_t hi = lo + static_cast<int64_t>(rng() % 16);
    EXPECT_TRUE(SameLocs(snap->IndexRangeProbe(0, Value::Int(lo),
                                               Value::Int(hi)),
                         ScanRange(*snap, 0, Value::Int(lo), Value::Int(hi))))
        << "step " << step;
  }
  // Every pinned generation still answers exactly for its own rows.
  for (const auto& snap : pinned) {
    EXPECT_TRUE(SameLocs(snap->IndexProbe(0, Value::Int(7)),
                         ScanPoint(*snap, 0, Value::Int(7))));
    EXPECT_TRUE(SameLocs(snap->IndexRangeProbe(0, Value::Int(10),
                                               Value::Int(30)),
                         ScanRange(*snap, 0, Value::Int(10), Value::Int(30))));
  }
  // Carry-forward really happened: strictly fewer shards built than probed
  // (chunk, generation) pairs would rebuild without sharing.
  EXPECT_GT(db.GetTable("t")->index_stats().shards_reused.load(), 0u);
}

TEST(SnapshotIndexTest, ConcurrentLazyBuildsRacingPublications) {
  // Readers race each other on the lazy shard assembly (first probe wins,
  // losers must reuse) while a writer keeps publishing new generations.
  // Every probe must agree with a scan of the SAME pinned snapshot; TSan
  // runs this under --repeat to hunt assembly/publication races.
  Database db;
  ASSERT_TRUE(db.CreateTable("t", TwoColSchema()).ok());
  std::vector<Tuple> seed;
  for (int64_t i = 0; i < static_cast<int64_t>(DataChunk::kDefaultCapacity); ++i)
    seed.push_back(Row(i % 32, i));
  ASSERT_TRUE(db.BulkLoad("t", seed).ok());
  std::atomic<bool> done{false};

  std::thread writer([&] {
    for (int64_t k = 0; k < 200; ++k) {
      ASSERT_TRUE(db.Insert("t", {Row(k % 32, -k)}).ok());
    }
    done.store(true, std::memory_order_release);
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&, r] {
      std::mt19937 rng(1000 + r);
      // Keep probing for a minimum number of iterations even if the
      // writer drains first, so probes overlap many publications.
      for (int it = 0; it < 40 || !done.load(std::memory_order_acquire);
           ++it) {
        auto snap = db.GetTable("t")->Snapshot();
        int64_t key = static_cast<int64_t>(rng() % 32);
        ASSERT_TRUE(SameLocs(snap->IndexProbe(0, Value::Int(key)),
                             ScanPoint(*snap, 0, Value::Int(key))));
        int64_t lo = static_cast<int64_t>(rng() % 32);
        ASSERT_TRUE(SameLocs(
            snap->IndexRangeProbe(0, Value::Int(lo), Value::Int(lo + 4)),
            ScanRange(*snap, 0, Value::Int(lo), Value::Int(lo + 4))));
      }
    });
  }
  writer.join();
  for (std::thread& t : readers) t.join();

  const TableIndexStats& istats = db.GetTable("t")->index_stats();
  EXPECT_GT(istats.point_probes.load(), 0u);
  EXPECT_GT(istats.range_probes.load(), 0u);

  // Deterministic carry-forward coda: the race above can degenerate to a
  // single generation on a slow machine, so force one probe → publish →
  // probe sequence and demand the sealed chunk's shards were reused.
  auto s1 = db.GetTable("t")->Snapshot();
  ASSERT_FALSE(s1->IndexProbe(0, Value::Int(3)).empty());
  ASSERT_FALSE(s1->IndexRangeProbe(0, Value::Int(3), Value::Int(5)).empty());
  uint64_t reused_before = istats.shards_reused.load();
  ASSERT_TRUE(db.Insert("t", {Row(3, -999)}).ok());
  auto s2 = db.GetTable("t")->Snapshot();
  ASSERT_FALSE(s2->IndexProbe(0, Value::Int(3)).empty());
  ASSERT_FALSE(s2->IndexRangeProbe(0, Value::Int(3), Value::Int(5)).empty());
  EXPECT_GT(istats.shards_reused.load(), reused_before);
}

// ---- Write boundary: column types are storage types -------------------------

Schema PriceSchema() {
  Schema s;
  s.AddColumn("id", ValueType::kInt);
  s.AddColumn("price", ValueType::kDouble);
  return s;
}

std::vector<Tuple> TableRows(const Database& db, const std::string& table) {
  std::vector<Tuple> rows;
  db.GetTable(table)->Snapshot()->ForEachRow(
      [&](const Tuple& r) { rows.push_back(r); });
  return rows;
}

TEST(WriteBoundaryTest, CreateTableRejectsUntypedColumn) {
  Database db;
  Schema schema = TwoColSchema();
  schema.AddColumn("untyped", ValueType::kNull);
  Status st = db.CreateTable("t", schema);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
  EXPECT_FALSE(db.HasTable("t"));
}

TEST(WriteBoundaryTest, MistypedRowChangesNothing) {
  Database db;
  ASSERT_TRUE(db.CreateTable("t", PriceSchema()).ok());
  ASSERT_TRUE(db.BulkLoad("t", {{Value::Int(1), Value::Double(2.5)}}).ok());
  ASSERT_TRUE(db.Insert("t", {{Value::Int(2), Value::Double(3.5)}}).ok());
  const std::vector<Tuple> before = TableRows(db, "t");
  const size_t deltas_before = db.PendingDeltaCount("t", 0);

  // The bad row comes last, so a row-at-a-time append would have stored
  // the good ones already.
  const std::vector<std::vector<Tuple>> bad_batches = {
      {{Value::Int(3), Value::Double(1.0)},
       {Value::Int(4), Value::String("oops")}},
      {{Value::Int(3), Value::Double(1.0)},
       {Value::Double(4.0), Value::Null()}},
      {{Value::Int(3), Value::Double(1.0)}, {Value::Int(4)}},  // arity
  };
  for (const std::vector<Tuple>& bad : bad_batches) {
    EXPECT_EQ(db.BulkLoad("t", bad).code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(db.Insert("t", bad).status().code(),
              StatusCode::kInvalidArgument);
  }
  EXPECT_EQ(TableRows(db, "t"), before);
  EXPECT_EQ(db.PendingDeltaCount("t", 0), deltas_before);
}

TEST(WriteBoundaryTest, IntWidensIntoDoubleColumn) {
  Database db;
  ASSERT_TRUE(db.CreateTable("t", PriceSchema()).ok());
  ASSERT_TRUE(db.BulkLoad("t", {{Value::Int(1), Value::Int(7)}}).ok());
  ASSERT_TRUE(db.Insert("t", {{Value::Int(2), Value::Int(-3)}}).ok());
  std::vector<Tuple> rows = TableRows(db, "t");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_TRUE(rows[0][1].is_double());
  EXPECT_EQ(rows[0][1].AsDouble(), 7.0);
  EXPECT_TRUE(rows[1][1].is_double());
  EXPECT_EQ(rows[1][1].AsDouble(), -3.0);
  // The delta log records the stored (widened) row, not the written one.
  TableDelta delta = db.ScanDelta("t", 0, db.CurrentVersion());
  ASSERT_EQ(delta.size(), 1u);
  EXPECT_TRUE(delta.records[0].row[1].is_double());
}

TEST(TableSnapshotTest, TypedCowTailAppendDuringConcurrentReads) {
  // Writer keeps appending (COW-tail republications, dict growth, a
  // dict->flat conversion on the way) while readers pin snapshots and walk
  // typed chunks. Pinned chunks are immutable, so every read must be
  // consistent; TSan hunts layout/publication races under --repeat.
  Database db;
  Schema schema;
  schema.AddColumn("id", ValueType::kInt);
  schema.AddColumn("s", ValueType::kString);
  ASSERT_TRUE(db.CreateTable("t", schema).ok());
  ASSERT_TRUE(db.BulkLoad("t", {Tuple{Value::Int(0), Value::String("w0")}})
                  .ok());
  std::atomic<bool> done{false};

  std::thread writer([&] {
    for (int64_t k = 1; k <= 600; ++k) {
      // ~350 distinct strings: the tail chunk's dictionary overflows into
      // the flat layout mid-stream.
      Tuple row{Value::Int(k), Value::String("w" + std::to_string(k % 350))};
      ASSERT_TRUE(db.Insert("t", {row}).ok());
    }
    done.store(true, std::memory_order_release);
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      for (int it = 0; it < 50 || !done.load(std::memory_order_acquire);
           ++it) {
        auto snap = db.GetTable("t")->Snapshot();
        size_t seen = 0;
        for (const auto& chunk : snap->chunks()) {
          DataChunk::ZoneEntry z = chunk->zone(0);
          ASSERT_TRUE(z.valid);
          for (size_t i = 0; i < chunk->num_rows(); ++i) {
            Tuple row = chunk->GetRow(i);
            ASSERT_EQ(row.size(), 2u);
            ASSERT_TRUE(row[0].is_int());
            ASSERT_GE(row[0].Compare(z.min), 0);
            ASSERT_LE(row[0].Compare(z.max), 0);
            ASSERT_TRUE(row[1].is_string());
            ASSERT_EQ(row[1].AsString(),
                      "w" + std::to_string(row[0].AsInt() % 350));
            ++seen;
          }
        }
        ASSERT_EQ(seen, snap->num_rows());
      }
    });
  }
  writer.join();
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(db.GetTable("t")->NumRows(), 601u);
}

}  // namespace
}  // namespace imp
