// Tests for the backend's physical-design features: zone maps (chunk
// skipping for range predicates — the mechanism PBDS data skipping rides
// on) and lazily built hash indexes (the delegated-join access path).

#include <gtest/gtest.h>

#include "exec/executor.h"
#include "exec/zone_filter.h"
#include "middleware/imp_system.h"
#include "sketch/capture.h"
#include "sketch/use_rewrite.h"
#include "test_util.h"
#include "workload/synthetic.h"

namespace imp {
namespace {

Schema TwoColSchema() {
  Schema s;
  s.AddColumn("k", ValueType::kInt);
  s.AddColumn("v", ValueType::kInt);
  return s;
}

Tuple Row(int64_t k, int64_t v) { return Tuple{Value::Int(k), Value::Int(v)}; }

// ---- Zone map bookkeeping ----------------------------------------------------

TEST(ZoneMapTest, MinMaxTrackedPerColumn) {
  DataChunk chunk(TwoColSchema());
  EXPECT_FALSE(chunk.zone(0).valid);
  chunk.AppendRow(Row(5, 100));
  chunk.AppendRow(Row(2, 300));
  chunk.AppendRow(Row(9, 200));
  EXPECT_TRUE(chunk.zone(0).valid);
  EXPECT_EQ(chunk.zone(0).min, Value::Int(2));
  EXPECT_EQ(chunk.zone(0).max, Value::Int(9));
  EXPECT_EQ(chunk.zone(1).min, Value::Int(100));
  EXPECT_EQ(chunk.zone(1).max, Value::Int(300));
}

TEST(ZoneMapTest, NullsIgnored) {
  Schema schema;
  schema.AddColumn("k", ValueType::kInt);
  DataChunk chunk(schema);
  chunk.AppendRow({Value::Null()});
  EXPECT_FALSE(chunk.zone(0).valid);
  chunk.AppendRow({Value::Int(7)});
  EXPECT_TRUE(chunk.zone(0).valid);
  EXPECT_EQ(chunk.zone(0).min, Value::Int(7));
}

// ---- ChunkMayMatch -------------------------------------------------------------

class ZoneFilterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    chunk_ = std::make_unique<DataChunk>(TwoColSchema());
    // k in [10, 20], v in [100, 200].
    for (int64_t i = 10; i <= 20; ++i) chunk_->AppendRow(Row(i, i * 10));
  }
  ExprPtr K() { return MakeColumnRef(0, "k", ValueType::kInt); }
  ExprPtr Lit(int64_t v) { return MakeLiteral(Value::Int(v)); }
  std::unique_ptr<DataChunk> chunk_;
};

TEST_F(ZoneFilterTest, Comparisons) {
  EXPECT_TRUE(ChunkMayMatch(*MakeBinary(BinaryOp::kLt, K(), Lit(11)), *chunk_));
  EXPECT_FALSE(ChunkMayMatch(*MakeBinary(BinaryOp::kLt, K(), Lit(10)), *chunk_));
  EXPECT_TRUE(ChunkMayMatch(*MakeBinary(BinaryOp::kLe, K(), Lit(10)), *chunk_));
  EXPECT_TRUE(ChunkMayMatch(*MakeBinary(BinaryOp::kGt, K(), Lit(19)), *chunk_));
  EXPECT_FALSE(ChunkMayMatch(*MakeBinary(BinaryOp::kGt, K(), Lit(20)), *chunk_));
  EXPECT_TRUE(ChunkMayMatch(*MakeBinary(BinaryOp::kGe, K(), Lit(20)), *chunk_));
  EXPECT_TRUE(ChunkMayMatch(*MakeBinary(BinaryOp::kEq, K(), Lit(15)), *chunk_));
  EXPECT_FALSE(ChunkMayMatch(*MakeBinary(BinaryOp::kEq, K(), Lit(25)), *chunk_));
}

TEST_F(ZoneFilterTest, MirroredLiteralOnLeft) {
  // 25 < k  is k > 25: impossible for k <= 20.
  EXPECT_FALSE(ChunkMayMatch(*MakeBinary(BinaryOp::kLt, Lit(25), K()), *chunk_));
  EXPECT_TRUE(ChunkMayMatch(*MakeBinary(BinaryOp::kLt, Lit(15), K()), *chunk_));
}

TEST_F(ZoneFilterTest, BooleanCombinations) {
  ExprPtr impossible = MakeBinary(BinaryOp::kGt, K(), Lit(100));
  ExprPtr possible = MakeBinary(BinaryOp::kGt, K(), Lit(15));
  EXPECT_FALSE(
      ChunkMayMatch(*MakeBinary(BinaryOp::kAnd, possible, impossible), *chunk_));
  EXPECT_TRUE(
      ChunkMayMatch(*MakeBinary(BinaryOp::kOr, possible, impossible), *chunk_));
  EXPECT_FALSE(ChunkMayMatch(
      *MakeBinary(BinaryOp::kOr, impossible, impossible), *chunk_));
}

TEST_F(ZoneFilterTest, BetweenAndUnknownShapes) {
  EXPECT_TRUE(ChunkMayMatch(*MakeBetween(K(), Lit(18), Lit(30)), *chunk_));
  EXPECT_FALSE(ChunkMayMatch(*MakeBetween(K(), Lit(30), Lit(40)), *chunk_));
  EXPECT_FALSE(ChunkMayMatch(*MakeBetween(K(), Lit(1), Lit(9)), *chunk_));
  // Column-to-column comparisons are unknown => may match.
  ExprPtr v = MakeColumnRef(1, "v", ValueType::kInt);
  EXPECT_TRUE(ChunkMayMatch(*MakeBinary(BinaryOp::kLt, K(), v), *chunk_));
  // NOT is conservative.
  EXPECT_TRUE(ChunkMayMatch(
      *MakeUnary(UnaryOp::kNot, MakeBinary(BinaryOp::kLt, K(), Lit(5))),
      *chunk_));
}

// ---- End-to-end chunk skipping ---------------------------------------------------

TEST(ChunkSkippingTest, ScanSkipsNonMatchingChunks) {
  Database db;
  ASSERT_TRUE(db.CreateTable("t", TwoColSchema()).ok());
  // 4 full chunks, clustered by k.
  std::vector<Tuple> rows;
  const int64_t n = static_cast<int64_t>(DataChunk::kDefaultCapacity) * 4;
  for (int64_t i = 0; i < n; ++i) rows.push_back(Row(i, i % 97));
  ASSERT_TRUE(db.BulkLoad("t", rows).ok());

  Binder binder(&db);
  auto plan = binder.BindQuery("SELECT k FROM t WHERE k < 100");
  ASSERT_TRUE(plan.ok());
  // The binder builds Select over Scan; push the filter into the scan to
  // model the use-rewrite's instrumented scan.
  ExprPtr pred = MakeBinary(BinaryOp::kLt,
                            MakeColumnRef(0, "k", ValueType::kInt),
                            MakeLiteral(Value::Int(100)));
  PlanPtr scan = MakeScan("t", db.GetTable("t")->schema(), pred);

  Executor exec(&db);
  auto result = exec.Execute(scan);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().size(), 100u);
  EXPECT_EQ(exec.scan_stats().chunks_scanned, 1u);
  EXPECT_EQ(exec.scan_stats().chunks_skipped, 3u);
}

TEST(ChunkSkippingTest, UseRewriteActuallySkipsChunks) {
  // End-to-end: a sketch-filtered query must scan fewer chunks than the
  // plain query when the data is clustered on the partition attribute.
  Database db;
  SyntheticSpec spec;
  spec.name = "t";
  spec.num_rows = DataChunk::kDefaultCapacity * 8;
  spec.num_groups = 512;
  ASSERT_TRUE(CreateSyntheticTable(&db, spec).ok());
  PartitionCatalog catalog;
  ASSERT_TRUE(
      catalog.Register(RangePartition::EquiWidthInt("t", "a", 1, 0, 511, 64))
          .ok());
  // HAVING keeps only the largest groups => selective sketch.
  int64_t rows_per_group =
      static_cast<int64_t>(spec.num_rows / spec.num_groups);
  int64_t threshold = rows_per_group * 3 * 450;  // sum(b) ~ 3a per row
  Binder binder(&db);
  auto plan = binder.BindQuery(
      "SELECT a, sum(b) AS sb FROM t GROUP BY a HAVING sum(b) > " +
      std::to_string(threshold));
  ASSERT_TRUE(plan.ok());

  CaptureEngine capture(&db, &catalog);
  auto sketch = capture.Capture(plan.value());
  ASSERT_TRUE(sketch.ok());
  ASSERT_GT(sketch.value().NumFragments(), 0u);
  ASSERT_LT(sketch.value().NumFragments(), 16u);  // selective

  PlanPtr rewritten = ApplyUseRewrite(plan.value(), catalog, sketch.value());
  Executor plain_exec(&db), skip_exec(&db);
  auto full = plain_exec.Execute(plan.value());
  auto skipped = skip_exec.Execute(rewritten);
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(skipped.ok());
  EXPECT_TRUE(full.value().SameBag(skipped.value()));
  EXPECT_GT(skip_exec.scan_stats().chunks_skipped, 4u);
  EXPECT_LT(skip_exec.scan_stats().rows_scanned,
            plain_exec.scan_stats().rows_scanned / 2);
}

// ---- Snapshot index shards -----------------------------------------------------

TEST(HashIndexTest, ProbeFindsAllMatches) {
  Database db;
  ASSERT_TRUE(db.CreateTable("t", TwoColSchema()).ok());
  std::vector<Tuple> rows;
  for (int64_t i = 0; i < 10000; ++i) rows.push_back(Row(i % 100, i));
  ASSERT_TRUE(db.BulkLoad("t", rows).ok());
  // Indexes live on the immutable published snapshot (assembled lazily per
  // snapshot, so they can never point into rows the snapshot lacks).
  auto t = db.GetTable("t")->Snapshot();
  EXPECT_FALSE(t->HasIndex(0));
  std::vector<TableSnapshot::RowLoc> locs = t->IndexProbe(0, Value::Int(42));
  EXPECT_TRUE(t->HasIndex(0));
  EXPECT_EQ(locs.size(), 100u);
  for (const auto& loc : locs) {
    EXPECT_EQ(t->chunks()[loc.chunk]->At(loc.row, 0), Value::Int(42));
  }
  // Postings arrive in scan order: chunk-ascending, row-ascending.
  for (size_t i = 1; i < locs.size(); ++i) {
    EXPECT_TRUE(locs[i - 1].chunk < locs[i].chunk ||
                (locs[i - 1].chunk == locs[i].chunk &&
                 locs[i - 1].row < locs[i].row));
  }
  EXPECT_TRUE(t->IndexProbe(0, Value::Int(12345)).empty());
}

TEST(HashIndexTest, FreshSnapshotIndexSeesInsertedRows) {
  Database db;
  ASSERT_TRUE(db.CreateTable("t", TwoColSchema()).ok());
  ASSERT_TRUE(db.BulkLoad("t", {Row(1, 1)}).ok());
  auto before = db.GetTable("t")->Snapshot();
  EXPECT_EQ(before->IndexProbe(0, Value::Int(1)).size(), 1u);  // build index
  ASSERT_TRUE(db.Insert("t", {Row(1, 2), Row(7, 3)}).ok());
  // The old pinned snapshot (and its shards) is immutable — it still sees
  // exactly the pre-insert rows; the freshly published snapshot's lazily
  // assembled index covers the new ones.
  EXPECT_EQ(before->IndexProbe(0, Value::Int(1)).size(), 1u);
  EXPECT_TRUE(before->IndexProbe(0, Value::Int(7)).empty());
  auto after = db.GetTable("t")->Snapshot();
  // Availability carried forward from the probed predecessor.
  EXPECT_TRUE(after->HasIndex(0));
  EXPECT_EQ(after->IndexProbe(0, Value::Int(1)).size(), 2u);
  EXPECT_EQ(after->IndexProbe(0, Value::Int(7)).size(), 1u);
}

TEST(HashIndexTest, IndexCarriedAcrossDelete) {
  Database db;
  ASSERT_TRUE(db.CreateTable("t", TwoColSchema()).ok());
  std::vector<Tuple> rows;
  for (int64_t i = 0; i < 100; ++i) rows.push_back(Row(i % 10, i));
  ASSERT_TRUE(db.BulkLoad("t", rows).ok());
  ASSERT_EQ(db.GetTable("t")->Snapshot()->IndexProbe(0, Value::Int(3)).size(),
            10u);
  ASSERT_TRUE(Delete(&db, "t", "k = 3").ok());
  // The delete published a fresh snapshot whose rewritten chunk carries no
  // shard yet; index availability carries forward and the reassembled
  // shards reflect the post-delete rows.
  auto t = db.GetTable("t")->Snapshot();
  EXPECT_TRUE(t->HasIndex(0));
  EXPECT_TRUE(t->IndexProbe(0, Value::Int(3)).empty());  // rebuilt, empty
  EXPECT_EQ(t->IndexProbe(0, Value::Int(4)).size(), 10u);
}

TEST(HashIndexTest, NumericKeyEquivalenceIntDouble) {
  // The index must find Int(2) when probed with Double(2.0) (Value
  // equality treats them as equal, so ValueHash must too).
  Database db;
  ASSERT_TRUE(db.CreateTable("t", TwoColSchema()).ok());
  ASSERT_TRUE(db.BulkLoad("t", {Row(2, 1)}).ok());
  EXPECT_EQ(db.GetTable("t")->Snapshot()->IndexProbe(0, Value::Double(2.0))
                .size(),
            1u);
}

TEST(ShardCarryForwardTest, AppendRebuildOnlyTouchesTheTail) {
  // The tentpole O(delta) property, observed through TableIndexStats: after
  // a small append, the next point and range probes reuse every sealed
  // chunk's cached point and ordered shards and build at most the COW-tail
  // shards.
  Database db;
  ASSERT_TRUE(db.CreateTable("t", TwoColSchema()).ok());
  std::vector<Tuple> rows;
  const int64_t n = static_cast<int64_t>(DataChunk::kDefaultCapacity) * 4;
  for (int64_t i = 0; i < n; ++i) rows.push_back(Row(i % 128, i));
  ASSERT_TRUE(db.BulkLoad("t", rows).ok());
  const Table* table = db.GetTable("t");
  auto& istats = table->index_stats();

  auto s1 = table->Snapshot();
  const size_t num_chunks = s1->chunks().size();
  ASSERT_GE(num_chunks, 4u);
  ASSERT_FALSE(s1->IndexProbe(0, Value::Int(7)).empty());
  EXPECT_EQ(istats.shards_built.load(), num_chunks);
  ASSERT_FALSE(s1->IndexRangeProbe(0, Value::Int(3), Value::Int(9)).empty());
  EXPECT_EQ(istats.shards_built.load(), 2 * num_chunks);
  EXPECT_EQ(istats.shards_reused.load(), 0u);

  ASSERT_TRUE(db.Insert("t", {Row(7, -1)}).ok());
  auto s2 = table->Snapshot();
  ASSERT_NE(s1.get(), s2.get());
  EXPECT_TRUE(s2->HasIndex(0));  // warm from s1
  uint64_t built_before = istats.shards_built.load();
  ASSERT_FALSE(s2->IndexProbe(0, Value::Int(7)).empty());
  ASSERT_FALSE(s2->IndexRangeProbe(0, Value::Int(3), Value::Int(9)).empty());
  // Every chunk s1 and s2 share contributes a reused shard of each kind;
  // only the tail region (COW clone or fresh chunk) needs new ones.
  EXPECT_LE(istats.shards_built.load() - built_before, 2u);
  EXPECT_GE(istats.shards_reused.load(), 2 * (num_chunks - 1));
}

TEST(ShardCarryForwardTest, DeleteRewritesOnlyTheChunkThatLosesRows) {
  // A 1-row DELETE on the column the chunks are ordered by: only the chunk
  // holding the row is rewritten, every other chunk — zone map and cached
  // shards included — is shared into the next snapshot, so the re-probe
  // builds at most two shards and reuses the rest. A snapshot pinned
  // before the DELETE keeps the old rows, and an UPDATE rejected at the
  // write boundary leaves every chunk pointer as it was.
  Database db;
  ASSERT_TRUE(db.CreateTable("t", TwoColSchema()).ok());
  std::vector<Tuple> rows;
  const int64_t n = static_cast<int64_t>(DataChunk::kDefaultCapacity) * 4;
  for (int64_t i = 0; i < n; ++i) rows.push_back(Row(i, i % 128));
  ASSERT_TRUE(db.BulkLoad("t", rows).ok());
  const Table* table = db.GetTable("t");
  auto& istats = table->index_stats();
  auto s1 = table->Snapshot();
  const size_t num_chunks = s1->chunks().size();
  ASSERT_GE(num_chunks, 4u);
  ASSERT_FALSE(s1->IndexProbe(1, Value::Int(7)).empty());

  const int64_t victim = static_cast<int64_t>(DataChunk::kDefaultCapacity) + 17;
  ASSERT_TRUE(Delete(&db, "t", "k = " + std::to_string(victim)).ok());
  auto s2 = table->Snapshot();
  ASSERT_EQ(s2->chunks().size(), num_chunks);
  size_t changed = 0;
  for (size_t i = 0; i < num_chunks; ++i) {
    changed += s1->chunks()[i] != s2->chunks()[i];
  }
  EXPECT_EQ(changed, 1u);
  EXPECT_NE(s1->chunks()[1], s2->chunks()[1]);
  EXPECT_TRUE(s2->HasIndex(1));  // warm from s1
  uint64_t built_before = istats.shards_built.load();
  uint64_t reused_before = istats.shards_reused.load();
  ASSERT_FALSE(s2->IndexProbe(1, Value::Int(7)).empty());
  uint64_t built = istats.shards_built.load() - built_before;
  uint64_t reused = istats.shards_reused.load() - reused_before;
  EXPECT_LE(built, 2u);
  EXPECT_EQ(built + reused, num_chunks);
  EXPECT_EQ(s2->num_rows(), static_cast<size_t>(n) - 1);
  EXPECT_TRUE(s2->IndexProbe(0, Value::Int(victim)).empty());

  // The pinned predecessor still holds every old row, the victim included.
  EXPECT_EQ(s1->num_rows(), static_cast<size_t>(n));
  int64_t expect = 0;
  s1->ForEachRow([&](const Tuple& row) {
    EXPECT_EQ(row, Row(expect, expect % 128));
    ++expect;
  });
  EXPECT_EQ(expect, n);
  EXPECT_EQ(s1->IndexProbe(0, Value::Int(victim)).size(), 1u);

  // k is a partition attribute (NOT NULL): the UPDATE's new rows fail the
  // write boundary, after its rows were selected but before any erase.
  ImpSystem system(&db);
  ASSERT_TRUE(system
                  .RegisterPartition(RangePartition::EquiWidthInt(
                      "t", "k", 0, 0, n - 1, 8))
                  .ok());
  std::vector<const DataChunk*> held;
  for (const auto& chunk : table->chunks()) held.push_back(chunk.get());
  const uint64_t epoch = table->SnapshotEpoch();
  Result<uint64_t> rejected =
      system.Update("UPDATE t SET k = NULL WHERE k >= 10 AND k < 20");
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument)
      << rejected.status().ToString();
  ASSERT_EQ(table->chunks().size(), held.size());
  for (size_t i = 0; i < held.size(); ++i) {
    EXPECT_EQ(table->chunks()[i].get(), held[i]) << "chunk " << i;
  }
  EXPECT_EQ(table->SnapshotEpoch(), epoch);
  EXPECT_EQ(table->NumRows(), static_cast<size_t>(n) - 1);
}

TEST(RangeIndexTest, RangeProbeMatchesPredicateSemantics) {
  Database db;
  ASSERT_TRUE(db.CreateTable("t", TwoColSchema()).ok());
  std::vector<Tuple> rows;
  for (int64_t i = 0; i < 1000; ++i) rows.push_back(Row(i % 50, i));
  rows.push_back({Value::Null(), Value::Int(-1)});  // NULL never in a range
  ASSERT_TRUE(db.BulkLoad("t", rows).ok());
  auto t = db.GetTable("t")->Snapshot();
  EXPECT_FALSE(t->HasRangeIndex(0));
  std::vector<TableSnapshot::RowLoc> locs =
      t->IndexRangeProbe(0, Value::Int(10), Value::Int(12));
  EXPECT_TRUE(t->HasRangeIndex(0));
  EXPECT_EQ(locs.size(), 60u);  // 3 keys x 20 rows each
  for (const auto& loc : locs) {
    const Value& v = t->chunks()[loc.chunk]->At(loc.row, 0);
    EXPECT_FALSE(v.is_null());
    EXPECT_GE(v.AsInt(), 10);
    EXPECT_LE(v.AsInt(), 12);
  }
  // Emission order is scan order.
  for (size_t i = 1; i < locs.size(); ++i) {
    EXPECT_TRUE(locs[i - 1].chunk < locs[i].chunk ||
                (locs[i - 1].chunk == locs[i].chunk &&
                 locs[i - 1].row < locs[i].row));
  }
  // Exclusive bounds via the general form: 10 < k < 12 leaves one key.
  size_t hits = 0;
  Value lo = Value::Int(10), hi = Value::Int(12);
  t->ForEachIndexRangeMatch(0, &lo, false, &hi, false,
                            [&](const TableSnapshot::RowLoc&) { ++hits; });
  EXPECT_EQ(hits, 20u);
  // Unbounded sides.
  hits = 0;
  t->ForEachIndexRangeMatch(0, &lo, false, nullptr, false,
                            [&](const TableSnapshot::RowLoc&) { ++hits; });
  EXPECT_EQ(hits, 39u * 20u);  // keys 11..49, NULL excluded
  hits = 0;
  t->ForEachIndexRangeMatch(0, nullptr, false, nullptr, false,
                            [&](const TableSnapshot::RowLoc&) { ++hits; });
  EXPECT_EQ(hits, 1000u);  // everything but the NULL row
}

TEST(RangeIndexTest, ExtractColumnRangesShapes) {
  auto k = [] { return MakeColumnRef(0, "k", ValueType::kInt); };
  auto lit = [](int64_t v) { return MakeLiteral(Value::Int(v)); };

  // Simple comparison.
  auto r = ExtractColumnRanges(*MakeBinary(BinaryOp::kLt, k(), lit(10)));
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->col, 0u);
  ASSERT_EQ(r->ranges.size(), 1u);
  EXPECT_FALSE(r->ranges[0].lo.has);
  EXPECT_TRUE(r->ranges[0].hi.has);
  EXPECT_EQ(r->ranges[0].hi.v, Value::Int(10));
  EXPECT_FALSE(r->ranges[0].hi.inclusive);

  // Mirrored literal: 10 < k is k > 10.
  r = ExtractColumnRanges(*MakeBinary(BinaryOp::kLt, lit(10), k()));
  ASSERT_TRUE(r.has_value());
  ASSERT_EQ(r->ranges.size(), 1u);
  EXPECT_TRUE(r->ranges[0].lo.has);
  EXPECT_FALSE(r->ranges[0].lo.inclusive);

  // AND intersects: 5 <= k AND k < 9.
  r = ExtractColumnRanges(*MakeBinary(
      BinaryOp::kAnd, MakeBinary(BinaryOp::kGe, k(), lit(5)),
      MakeBinary(BinaryOp::kLt, k(), lit(9))));
  ASSERT_TRUE(r.has_value());
  ASSERT_EQ(r->ranges.size(), 1u);
  EXPECT_EQ(r->ranges[0].lo.v, Value::Int(5));
  EXPECT_EQ(r->ranges[0].hi.v, Value::Int(9));

  // Contradiction: k < 3 AND k > 7 is unsatisfiable (empty, not nullopt).
  r = ExtractColumnRanges(*MakeBinary(
      BinaryOp::kAnd, MakeBinary(BinaryOp::kLt, k(), lit(3)),
      MakeBinary(BinaryOp::kGt, k(), lit(7))));
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(r->ranges.empty());

  // OR unions and merges touching intervals: k <= 5 OR k = 6 OR k > 6.
  r = ExtractColumnRanges(*MakeBinary(
      BinaryOp::kOr, MakeBinary(BinaryOp::kLe, k(), lit(5)),
      MakeBinary(BinaryOp::kOr, MakeBinary(BinaryOp::kEq, k(), lit(6)),
                 MakeBinary(BinaryOp::kGt, k(), lit(6)))));
  ASSERT_TRUE(r.has_value());
  ASSERT_EQ(r->ranges.size(), 2u);  // (-inf,5] and [6,+inf)

  // != is two open intervals.
  r = ExtractColumnRanges(*MakeBinary(BinaryOp::kNe, k(), lit(4)));
  ASSERT_TRUE(r.has_value());
  ASSERT_EQ(r->ranges.size(), 2u);

  // BETWEEN.
  r = ExtractColumnRanges(*MakeBetween(k(), lit(2), lit(8)));
  ASSERT_TRUE(r.has_value());
  ASSERT_EQ(r->ranges.size(), 1u);
  EXPECT_TRUE(r->ranges[0].lo.inclusive);
  EXPECT_TRUE(r->ranges[0].hi.inclusive);

  // NULL literal comparison matches nothing.
  r = ExtractColumnRanges(
      *MakeBinary(BinaryOp::kEq, k(), MakeLiteral(Value::Null())));
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(r->ranges.empty());

  // Not single-column reducible.
  ExprPtr v = MakeColumnRef(1, "v", ValueType::kInt);
  EXPECT_FALSE(ExtractColumnRanges(*MakeBinary(BinaryOp::kLt, k(), v))
                   .has_value());
  EXPECT_FALSE(ExtractColumnRanges(*MakeBinary(
                   BinaryOp::kAnd, MakeBinary(BinaryOp::kLt, k(), lit(9)),
                   MakeBinary(BinaryOp::kGt, v, lit(1))))
                   .has_value());
}

TEST(RangeIndexTest, ChunkMayMatchRangesRefinesWithSortedShard) {
  DataChunk chunk(TwoColSchema());
  for (int64_t i = 10; i <= 20; i += 2) chunk.AppendRow(Row(i, i));  // evens
  ColumnRanges gap;
  gap.col = 0;
  ValueRange r;
  r.lo = {true, Value::Int(13), true};
  r.hi = {true, Value::Int(13), true};
  gap.ranges.push_back(r);
  // Zone map [10,20] alone cannot rule out k=13.
  EXPECT_TRUE(ChunkMayMatchRanges(gap, chunk));
  // Once a probe materialized the ordered shard, the check is exact.
  bool built = false;
  chunk.SortedShardFor(0, &built);
  EXPECT_TRUE(built);
  EXPECT_FALSE(ChunkMayMatchRanges(gap, chunk));
  gap.ranges[0].lo.v = gap.ranges[0].hi.v = Value::Int(14);
  EXPECT_TRUE(ChunkMayMatchRanges(gap, chunk));
}

TEST(RangeIndexTest, ExecutorRangeScanBitIdenticalToFullScan) {
  Database db;
  ASSERT_TRUE(db.CreateTable("t", TwoColSchema()).ok());
  std::vector<Tuple> rows;
  const int64_t n = static_cast<int64_t>(DataChunk::kDefaultCapacity) * 3;
  for (int64_t i = 0; i < n; ++i) rows.push_back(Row(i % 301, i));
  ASSERT_TRUE(db.BulkLoad("t", rows).ok());
  ExprPtr pred = MakeBetween(MakeColumnRef(0, "k", ValueType::kInt),
                             MakeLiteral(Value::Int(40)),
                             MakeLiteral(Value::Int(60)));
  PlanPtr scan = MakeScan("t", db.GetTable("t")->schema(), pred);

  Executor scan_exec(&db), index_exec(&db);
  scan_exec.set_range_index_mode(RangeIndexMode::kOff);
  index_exec.set_range_index_mode(RangeIndexMode::kBuild);
  auto scanned = scan_exec.Execute(scan);
  auto indexed = index_exec.Execute(scan);
  ASSERT_TRUE(scanned.ok());
  ASSERT_TRUE(indexed.ok());
  EXPECT_EQ(scan_exec.scan_stats().index_range_scans, 0u);
  EXPECT_EQ(index_exec.scan_stats().index_range_scans, 1u);
  // Bit-identical: same rows in the same order.
  ASSERT_EQ(scanned.value().size(), indexed.value().size());
  for (size_t i = 0; i < scanned.value().size(); ++i) {
    EXPECT_EQ(scanned.value().rows[i], indexed.value().rows[i]);
  }
  // Default mode never builds for a one-off query; once the index exists
  // it is used.
  Executor avail_exec(&db);
  ASSERT_TRUE(avail_exec.Execute(scan).ok());
  EXPECT_EQ(avail_exec.scan_stats().index_range_scans, 1u);
}

}  // namespace
}  // namespace imp
