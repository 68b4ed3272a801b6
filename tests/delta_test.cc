// Tests for annotated Z-deltas (imp/delta.h): signed multiplicities,
// consolidation, annotation from backend deltas.

#include <gtest/gtest.h>

#include "imp/delta.h"
#include "imp/inc_operators.h"
#include "test_util.h"

namespace imp {
namespace {

BitVector Bits(std::initializer_list<size_t> bits, size_t n = 8) {
  BitVector bv(n);
  for (size_t b : bits) bv.Set(b);
  return bv;
}

/// FilterWithMask's input: one bit per row of `delta` satisfying `pred`.
template <typename Pred>
BitVector MaskOf(const AnnotatedDelta& delta, Pred pred) {
  BitVector mask(delta.size());
  for (size_t i = 0; i < delta.size(); ++i) {
    if (pred(delta.rows[i])) mask.Set(i);
  }
  return mask;
}

TEST(AnnotatedDeltaTest, InsertDeleteCounts) {
  AnnotatedDelta d;
  d.Append({Value::Int(1)}, Bits({0}), 3);
  d.Append({Value::Int(2)}, Bits({1}), -2);
  d.Append({Value::Int(3)}, Bits({1}), 1);
  EXPECT_EQ(d.InsertCount(), 4);
  EXPECT_EQ(d.DeleteCount(), 2);
}

TEST(AnnotatedDeltaTest, ConsolidateMergesEqualPairs) {
  AnnotatedDelta d;
  d.Append({Value::Int(1)}, Bits({0}), 1);
  d.Append({Value::Int(1)}, Bits({0}), 2);
  d.Append({Value::Int(1)}, Bits({1}), 1);  // same tuple, different sketch
  d.Consolidate();
  ASSERT_EQ(d.size(), 2u);
  int64_t total = 0;
  for (const auto& r : d.rows) total += r.mult;
  EXPECT_EQ(total, 4);
}

TEST(AnnotatedDeltaTest, ConsolidateDropsZeroNet) {
  AnnotatedDelta d;
  d.Append({Value::Int(1)}, Bits({0}), 1);
  d.Append({Value::Int(1)}, Bits({0}), -1);
  d.Append({Value::Int(2)}, Bits({0}), 1);
  d.Consolidate();
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d.rows[0].row, (Tuple{Value::Int(2)}));
}

TEST(AnnotatedDeltaTest, ToStringTagsDirection) {
  AnnotatedDeltaRow ins{{Value::Int(5)}, Bits({2}), 1};
  AnnotatedDeltaRow del{{Value::Int(5)}, Bits({2}), -3};
  EXPECT_EQ(ins.ToString().substr(0, 3), "Δ+");  // UTF-8 Δ is 2 bytes
  EXPECT_EQ(del.ToString().substr(0, 3), "Δ-");
  EXPECT_NE(del.ToString().find("^3"), std::string::npos);
}

TEST(DeltaContextTest, FindAndTotals) {
  DeltaContext ctx;
  ctx.OwnedFor("r").Append({Value::Int(1)}, Bits({0}), 1);
  ctx.OwnedFor("s").Append({Value::Int(2)}, Bits({1}), -1);
  EXPECT_FALSE(ctx.empty());
  EXPECT_EQ(ctx.TotalRows(), 2u);
  ASSERT_NE(ctx.FindBatch("r"), nullptr);
  EXPECT_EQ(ctx.FindBatch("r")->size(), 1u);
  EXPECT_EQ(ctx.FindBatch("zzz"), nullptr);
  DeltaContext empty;
  EXPECT_TRUE(empty.empty());
}

// ---- DeltaBatch: owned / borrowed semantics ---------------------------------

AnnotatedDelta ThreeRowDelta() {
  AnnotatedDelta d;
  d.Append({Value::Int(1)}, Bits({0}), 1);
  d.Append({Value::Int(2)}, Bits({1}), -1);
  d.Append({Value::Int(3)}, Bits({2}), 2);
  return d;
}

std::vector<int64_t> VisibleFirstColumns(const DeltaBatch& batch) {
  std::vector<int64_t> out;
  batch.ForEachRow(
      [&](const AnnotatedDeltaRow& r) { out.push_back(r.row[0].AsInt()); });
  return out;
}

TEST(DeltaBatchTest, BorrowedViewSharesRowsWithoutCopying) {
  AnnotatedDelta shared = ThreeRowDelta();
  DeltaBatch batch = DeltaBatch::Borrowed(&shared);
  EXPECT_TRUE(batch.borrowed());
  EXPECT_FALSE(batch.filtered());
  EXPECT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch.base(), &shared);
  // The cursor hands out pointers into the shared delta itself.
  DeltaBatch::Cursor cursor(batch);
  EXPECT_EQ(cursor.Next(), &shared.rows[0]);
  EXPECT_EQ(cursor.Next(), &shared.rows[1]);
  EXPECT_EQ(cursor.Next(), &shared.rows[2]);
  EXPECT_EQ(cursor.Next(), nullptr);
}

TEST(DeltaBatchTest, SelectionBitmapMatchesEagerFilteredCopy) {
  AnnotatedDelta shared = ThreeRowDelta();
  auto keep_positive = [](const AnnotatedDeltaRow& r) { return r.mult > 0; };
  // Borrowed path: refine a selection bitmap over the shared delta.
  DeltaBatch borrowed = DeltaBatch::Borrowed(&shared).FilterWithMask(
      MaskOf(shared, keep_positive));
  EXPECT_TRUE(borrowed.borrowed());
  EXPECT_TRUE(borrowed.filtered());
  EXPECT_EQ(borrowed.base(), &shared);
  // Eager path: the filtered copy the bitmap replaces.
  AnnotatedDelta eager;
  for (const AnnotatedDeltaRow& r : shared.rows) {
    if (keep_positive(r)) eager.rows.push_back(r);
  }
  EXPECT_EQ(borrowed.size(), eager.size());
  EXPECT_EQ(VisibleFirstColumns(borrowed),
            VisibleFirstColumns(DeltaBatch::Borrowed(&eager)));
}

TEST(DeltaBatchTest, FilterChainsRefineTheSameBitmap) {
  AnnotatedDelta shared = ThreeRowDelta();
  DeltaBatch batch = DeltaBatch::Borrowed(&shared)
                         .FilterWithMask(MaskOf(shared, [](const auto& r) {
                           return r.mult > 0;  // rows 1, 3
                         }))
                         .FilterWithMask(MaskOf(shared, [](const auto& r) {
                           return r.row[0].AsInt() >= 2;  // rows 2, 3
                         }));
  EXPECT_TRUE(batch.borrowed());
  EXPECT_EQ(VisibleFirstColumns(batch), std::vector<int64_t>{3});
}

TEST(DeltaBatchTest, OwnedFilterKeepsOrderInPlace) {
  AnnotatedDelta owned = ThreeRowDelta();
  BitVector mask = MaskOf(
      owned, [](const auto& r) { return r.row[0].AsInt() != 2; });
  DeltaBatch batch =
      DeltaBatch::OwnedOf(std::move(owned)).FilterWithMask(mask);
  EXPECT_FALSE(batch.borrowed());
  EXPECT_EQ(VisibleFirstColumns(batch), (std::vector<int64_t>{1, 3}));
}

TEST(DeltaBatchTest, MaterializeCountsCopiedRowsOnlyWhenBorrowed) {
  AnnotatedDelta shared = ThreeRowDelta();
  MaintainStats stats;
  AnnotatedDelta copied =
      DeltaBatch::Borrowed(&shared).Materialize(&stats);
  EXPECT_EQ(copied.size(), 3u);
  EXPECT_EQ(stats.deltas_materialized, 1u);
  EXPECT_EQ(stats.rows_copied, 3u);
  EXPECT_EQ(shared.size(), 3u);  // source untouched

  // Owned batches move their rows out for free.
  AnnotatedDelta moved =
      DeltaBatch::OwnedOf(ThreeRowDelta()).Materialize(&stats);
  EXPECT_EQ(moved.size(), 3u);
  EXPECT_EQ(stats.deltas_materialized, 1u);
  EXPECT_EQ(stats.rows_copied, 3u);
}

TEST(DeltaBatchTest, ViewOfOwnedBorrowsWithoutCopy) {
  DeltaBatch owned = DeltaBatch::OwnedOf(ThreeRowDelta());
  DeltaBatch view = owned.View();
  EXPECT_TRUE(view.borrowed());
  EXPECT_EQ(view.base(), &owned.owned());
  EXPECT_EQ(view.size(), 3u);
}

TEST(AnnotateDeltaTest, Example42AnnotatesS8) {
  // Ex. 4.2: Δ+s8 annotated with ρ3 (price 1299 in [1001, 1500]).
  Database db;
  LoadSalesExample(&db);
  PartitionCatalog catalog;
  ASSERT_TRUE(catalog.Register(SalesPricePartition()).ok());
  uint64_t from = db.CurrentVersion();
  ASSERT_TRUE(db.Insert("sales", {{Value::Int(8), Value::String("HP"),
                                   Value::String("HP ProBook 650 G10"),
                                   Value::Int(1299), Value::Int(1)}})
                  .ok());
  TableDelta raw = db.ScanDelta("sales", from, db.CurrentVersion());
  AnnotatedDelta annotated = AnnotateTableDelta(raw, catalog);
  ASSERT_EQ(annotated.size(), 1u);
  EXPECT_EQ(annotated.rows[0].mult, 1);
  EXPECT_EQ(annotated.rows[0].sketch.SetBits(), std::vector<size_t>{2});
}

TEST(AnnotateDeltaTest, DeletionsKeepNegativeMult) {
  Database db;
  LoadSalesExample(&db);
  PartitionCatalog catalog;
  ASSERT_TRUE(catalog.Register(SalesPricePartition()).ok());
  uint64_t from = db.CurrentVersion();
  ASSERT_TRUE(Delete(&db, "sales", "sid = 4").ok());
  AnnotatedDelta annotated = AnnotateTableDelta(
      db.ScanDelta("sales", from, db.CurrentVersion()), catalog);
  ASSERT_EQ(annotated.size(), 1u);
  EXPECT_EQ(annotated.rows[0].mult, -1);
  EXPECT_EQ(annotated.rows[0].sketch.SetBits(), std::vector<size_t>{3});
}

TEST(AnnotateDeltaTest, MultipleTablesIntoContext) {
  Database db;
  LoadFig5Example(&db);
  PartitionCatalog catalog;
  ASSERT_TRUE(catalog.Register(Fig5PartitionR()).ok());
  ASSERT_TRUE(catalog.Register(Fig5PartitionS()).ok());
  uint64_t from = db.CurrentVersion();
  ASSERT_TRUE(db.Insert("r", {{Value::Int(5), Value::Int(8)}}).ok());
  ASSERT_TRUE(db.Insert("s", {{Value::Int(10), Value::Int(1)}}).ok());
  DeltaContext ctx = MakeDeltaContext(
      {db.ScanDelta("r", from, db.CurrentVersion()),
       db.ScanDelta("s", from, db.CurrentVersion())},
      catalog);
  ASSERT_NE(ctx.FindBatch("r"), nullptr);
  ASSERT_NE(ctx.FindBatch("s"), nullptr);
  // r value 5 -> f1 (global 0); s value 10 -> g2 (global 3).
  EXPECT_EQ(ctx.FindBatch("r")->owned().rows[0].sketch.SetBits(),
            std::vector<size_t>{0});
  EXPECT_EQ(ctx.FindBatch("s")->owned().rows[0].sketch.SetBits(),
            std::vector<size_t>{3});
}

}  // namespace
}  // namespace imp
