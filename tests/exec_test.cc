// Tests for the backend executor (bag semantics), plain and annotated
// (capture), including the paper's worked examples.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "exec/executor.h"
#include "sketch/partition.h"
#include "test_util.h"

namespace imp {
namespace {

// l(x, u) and r(y, v), NULLs in every key column. Each pair of join
// conditions is one key equality written twice: as hash-join keys, and as a
// residual the binder cannot turn into keys (`+ 0`), which Expr::Eval
// evaluates with SQL's NULL semantics. The pairs must give the same bag.
void LoadNullKeyPair(Database* db) {
  Schema l, r;
  l.AddColumn("x", ValueType::kInt);
  l.AddColumn("u", ValueType::kInt);
  r.AddColumn("y", ValueType::kInt);
  r.AddColumn("v", ValueType::kInt);
  IMP_CHECK(db->CreateTable("l", l).ok());
  IMP_CHECK(db->CreateTable("r", r).ok());
  const std::vector<Tuple> rows = {{Value::Null(), Value::Int(1)},
                                   {Value::Int(1), Value::Int(1)},
                                   {Value::Int(1), Value::Null()},
                                   {Value::Null(), Value::Null()},
                                   {Value::Int(2), Value::Int(2)}};
  IMP_CHECK(db->BulkLoad("l", rows).ok());
  IMP_CHECK(db->BulkLoad("r", rows).ok());
}

struct NullKeyCase {
  const char* keys;
  const char* residual;
  size_t rows;  // matches with no NULL in a key
};
const NullKeyCase kNullKeyCases[] = {
    {"x = y", "x = y + 0", 5},  // x = 1: 2 x 2 rows, x = 2: 1 x 1
    {"x = y AND u = v", "x = y + 0 AND u = v + 0", 2},
};

std::string NullKeyJoin(const char* on) {
  return std::string("SELECT x, u, y, v FROM l JOIN r ON (") + on + ")";
}

class ExecTest : public ::testing::Test {
 protected:
  void SetUp() override { LoadSalesExample(&db_); }

  Relation Run(const std::string& sql) {
    PlanPtr plan = MustBind(db_, sql);
    Executor exec(&db_);
    auto result = exec.Execute(plan);
    IMP_CHECK_MSG(result.ok(), result.status().ToString().c_str());
    return std::move(result).value();
  }

  Database db_;
};

TEST_F(ExecTest, ScanAll) {
  Relation r = Run("SELECT * FROM sales");
  EXPECT_EQ(r.size(), 7u);
}

TEST_F(ExecTest, FilterAndProject) {
  Relation r = Run("SELECT sid FROM sales WHERE price BETWEEN 1001 AND 1500");
  ASSERT_EQ(r.size(), 2u);  // s3 (1199) and s5 (1345)
  std::set<int64_t> sids;
  for (const Tuple& row : r.rows) sids.insert(row[0].AsInt());
  EXPECT_TRUE(sids.count(3));
  EXPECT_TRUE(sids.count(5));
}

TEST_F(ExecTest, RunningExampleResult) {
  // Ex. 1.1: only (Apple, 5074) passes the HAVING threshold.
  Relation r = Run(kSalesQTop);
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r.rows[0][0], Value::String("Apple"));
  EXPECT_EQ(r.rows[0][1], Value::Int(5074));
}

TEST_F(ExecTest, RunningExampleAfterInsertS8) {
  // Ex. 1.2: inserting s8 makes HP pass with revenue 6194.
  ASSERT_TRUE(db_.Insert("sales", {{Value::Int(8), Value::String("HP"),
                                    Value::String("HP ProBook 650 G10"),
                                    Value::Int(1299), Value::Int(1)}})
                  .ok());
  Relation r = Run(kSalesQTop);
  ASSERT_EQ(r.size(), 2u);
  int64_t hp_rev = -1;
  for (const Tuple& row : r.rows) {
    if (row[0] == Value::String("HP")) hp_rev = row[1].AsInt();
  }
  EXPECT_EQ(hp_rev, 6194);
}

TEST_F(ExecTest, GroupByCountAvgMinMax) {
  Relation r = Run(
      "SELECT brand, count(*) AS n, min(price) AS lo, max(price) AS hi, "
      "avg(numSold) AS av FROM sales GROUP BY brand");
  ASSERT_EQ(r.size(), 4u);
  for (const Tuple& row : r.rows) {
    if (row[0] == Value::String("HP")) {
      EXPECT_EQ(row[1], Value::Int(2));
      EXPECT_EQ(row[2], Value::Int(899));
      EXPECT_EQ(row[3], Value::Int(999));
      EXPECT_EQ(row[4], Value::Double(2.5));
    }
  }
}

TEST_F(ExecTest, GlobalAggregateOnEmptyInput) {
  Relation r = Run("SELECT count(*) AS n, sum(price) AS s FROM sales "
                   "WHERE price > 99999");
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r.rows[0][0], Value::Int(0));
  EXPECT_TRUE(r.rows[0][1].is_null());
}

TEST_F(ExecTest, TopKOrdering) {
  Relation r = Run("SELECT sid, price FROM sales ORDER BY price DESC LIMIT 3");
  ASSERT_EQ(r.size(), 3u);
  EXPECT_EQ(r.rows[0][1], Value::Int(3875));
  EXPECT_EQ(r.rows[1][1], Value::Int(1345));
  EXPECT_EQ(r.rows[2][1], Value::Int(1199));
}

TEST_F(ExecTest, Distinct) {
  Relation r = Run("SELECT DISTINCT brand FROM sales");
  EXPECT_EQ(r.size(), 4u);
}

TEST_F(ExecTest, JoinProducesBagSemantics) {
  // Self-explanatory two-table join on a fresh pair of tables.
  Schema ls;
  ls.AddColumn("x", ValueType::kInt);
  ASSERT_TRUE(db_.CreateTable("l", ls).ok());
  ASSERT_TRUE(db_.BulkLoad("l", {{Value::Int(1)}, {Value::Int(1)},
                                 {Value::Int(2)}})
                  .ok());
  Schema rs;
  rs.AddColumn("y", ValueType::kInt);
  rs.AddColumn("p", ValueType::kString);
  ASSERT_TRUE(db_.CreateTable("rr", rs).ok());
  ASSERT_TRUE(db_.BulkLoad("rr", {{Value::Int(1), Value::String("a")},
                                  {Value::Int(1), Value::String("b")},
                                  {Value::Int(3), Value::String("c")}})
                  .ok());
  Relation r = Run("SELECT x, p FROM l JOIN rr ON (x = y)");
  EXPECT_EQ(r.size(), 4u);  // 2 copies of x=1 times 2 matches
}

TEST_F(ExecTest, EquiJoinKeysNeverMatchNull) {
  LoadNullKeyPair(&db_);
  for (const NullKeyCase& c : kNullKeyCases) {
    Relation by_keys = Run(NullKeyJoin(c.keys));
    Relation by_residual = Run(NullKeyJoin(c.residual));
    EXPECT_EQ(by_keys.size(), c.rows) << c.keys;
    EXPECT_TRUE(by_keys.SameBag(by_residual))
        << c.keys << "\nkeys: " << by_keys.ToString()
        << "residual: " << by_residual.ToString();
  }
}

TEST_F(ExecTest, RelationSameBag) {
  Relation a = Run("SELECT sid FROM sales");
  Relation b = Run("SELECT sid FROM sales");
  EXPECT_TRUE(a.SameBag(b));
  Relation c = Run("SELECT sid FROM sales WHERE sid < 7");
  EXPECT_FALSE(a.SameBag(c));
}

TEST_F(ExecTest, MissingTableError) {
  Schema s;
  s.AddColumn("x", ValueType::kInt);
  PlanPtr plan = MakeScan("ghost", s);
  Executor exec(&db_);
  EXPECT_EQ(exec.Execute(plan).status().code(), StatusCode::kNotFound);
}

// ---- Annotated execution ----------------------------------------------------

class AnnotatedExecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    LoadSalesExample(&db_);
    IMP_CHECK(catalog_.Register(SalesPricePartition()).ok());
  }

  AnnotatedRelation RunAnnotated(const std::string& sql) {
    return RunAnnotated(MustBind(db_, sql));
  }

  /// Runs `plan` annotated, then plain on the same executor, and checks
  /// that the annotated rows with their sketches dropped are the plain
  /// rows, in the same order.
  AnnotatedRelation RunAnnotated(
      const PlanPtr& plan,
      RangeIndexMode mode = RangeIndexMode::kIfAvailable) {
    Executor exec(&db_);
    exec.set_range_index_mode(mode);
    auto annotated = exec.ExecuteAnnotated(
        plan, [this](const std::string& t, const Tuple& row, BitVector* out) {
          catalog_.AnnotateRow(t, row, out);
        });
    IMP_CHECK_MSG(annotated.ok(), annotated.status().ToString());
    auto plain = exec.Execute(plan);
    IMP_CHECK_MSG(plain.ok(), plain.status().ToString());
    EXPECT_EQ(annotated.value().ToRelation().rows, plain.value().rows)
        << plan->ToString();
    last_stats_ = exec.scan_stats();
    return std::move(annotated).value();
  }

  /// Each row's first column (an int id) mapped to its sketch's fragments.
  static std::map<int64_t, std::vector<size_t>> SketchById(
      const AnnotatedRelation& rel) {
    std::map<int64_t, std::vector<size_t>> out;
    for (const AnnotatedRow& r : rel.rows) {
      out[r.row[0].AsInt()] = r.sketch.SetBits();
    }
    return out;
  }

  Database db_;
  PartitionCatalog catalog_;
  ScanStats last_stats_;
};

TEST_F(AnnotatedExecTest, ScanAnnotatesByFragment) {
  AnnotatedRelation rel = RunAnnotated("SELECT * FROM sales");
  ASSERT_EQ(rel.size(), 7u);
  for (const AnnotatedRow& r : rel.rows) {
    EXPECT_EQ(r.sketch.Count(), 1u);
    size_t frag = r.sketch.SetBits()[0];
    int64_t price = r.row[3].AsInt();
    // φ_price: ρ1=[1,600], ρ2=[601,1000], ρ3=[1001,1500], ρ4=[1501,10000]
    size_t expected = price <= 600 ? 0 : price <= 1000 ? 1 : price <= 1500 ? 2 : 3;
    EXPECT_EQ(frag, expected) << "price=" << price;
  }
}

TEST_F(AnnotatedExecTest, RunningExampleAccurateSketch) {
  // Ex. 1.1: the accurate sketch for Q_top is {ρ3, ρ4}.
  AnnotatedRelation rel = RunAnnotated(kSalesQTop);
  ASSERT_EQ(rel.size(), 1u);
  BitVector sketch = rel.SketchUnion();
  EXPECT_FALSE(sketch.Test(0));
  EXPECT_FALSE(sketch.Test(1));
  EXPECT_TRUE(sketch.Test(2));
  EXPECT_TRUE(sketch.Test(3));
}

TEST_F(AnnotatedExecTest, GroupSketchIsUnionOfInputs) {
  AnnotatedRelation rel =
      RunAnnotated("SELECT brand, sum(price) AS s FROM sales GROUP BY brand");
  for (const AnnotatedRow& r : rel.rows) {
    if (r.row[0] == Value::String("Lenovo")) {
      // Lenovo rows (349, 449) are both in ρ1.
      EXPECT_EQ(r.sketch.SetBits(), std::vector<size_t>{0});
    }
    if (r.row[0] == Value::String("Apple")) {
      // Apple rows in ρ3 and ρ4.
      EXPECT_EQ(r.sketch.SetBits(), (std::vector<size_t>{2, 3}));
    }
  }
}

TEST_F(AnnotatedExecTest, UnpartitionedTableGetsEmptyAnnotation) {
  Schema s;
  s.AddColumn("x", ValueType::kInt);
  ASSERT_TRUE(db_.CreateTable("plain", s).ok());
  ASSERT_TRUE(db_.BulkLoad("plain", {{Value::Int(1)}}).ok());
  AnnotatedRelation rel = RunAnnotated("SELECT x FROM plain");
  ASSERT_EQ(rel.size(), 1u);
  EXPECT_TRUE(rel.rows[0].sketch.None());
}

// Fragments of φ_price for the Fig. 1 rows: s1, s2 → ρ1 (0); s6, s7 → ρ2
// (1); s3, s5 → ρ3 (2); s4 → ρ4 (3).

TEST_F(AnnotatedExecTest, JoinWithResidualUnionsBothSides) {
  // Same brand, cheaper on the left: (s1, s2), (s3, s4) and (s7, s6).
  AnnotatedRelation rel = RunAnnotated(
      "SELECT a.sid AS x, b.sid AS y FROM sales a JOIN sales b "
      "ON (a.brand = b.brand AND a.price < b.price)");
  ASSERT_EQ(rel.size(), 3u);
  std::map<int64_t, std::vector<size_t>> expected = {
      {1, {0}}, {3, {2, 3}}, {7, {1}}};
  EXPECT_EQ(SketchById(rel), expected);
}

TEST_F(AnnotatedExecTest, EquiJoinKeysNeverMatchNull) {
  LoadNullKeyPair(&db_);
  for (const NullKeyCase& c : kNullKeyCases) {
    Relation by_keys = RunAnnotated(NullKeyJoin(c.keys)).ToRelation();
    Relation by_residual = RunAnnotated(NullKeyJoin(c.residual)).ToRelation();
    EXPECT_EQ(by_keys.size(), c.rows) << c.keys;
    EXPECT_TRUE(by_keys.SameBag(by_residual)) << c.keys;
  }
}

TEST_F(AnnotatedExecTest, CrossProductUnionsBothSides) {
  // {s4, s5} × {s1, s2}: no join key, so the executor takes the
  // cross-product path.
  AnnotatedRelation rel = RunAnnotated(
      "SELECT a.sid AS x, b.sid AS y FROM sales a, sales b "
      "WHERE a.price > 1300 AND b.price < 500");
  ASSERT_EQ(rel.size(), 4u);
  for (const AnnotatedRow& r : rel.rows) {
    std::vector<size_t> expected = r.row[0] == Value::Int(4)
                                       ? std::vector<size_t>{0, 3}
                                       : std::vector<size_t>{0, 2};
    EXPECT_EQ(r.sketch.SetBits(), expected) << TupleToString(r.row);
  }
}

TEST_F(AnnotatedExecTest, TopKRowsKeepTheirOwnSketch) {
  AnnotatedRelation rel =
      RunAnnotated("SELECT sid, price FROM sales ORDER BY price DESC LIMIT 3");
  ASSERT_EQ(rel.size(), 3u);
  // s4 (3875), s5 (1345), s3 (1199), in that order.
  EXPECT_EQ(rel.rows[0].row[0], Value::Int(4));
  EXPECT_EQ(rel.rows[0].sketch.SetBits(), std::vector<size_t>{3});
  EXPECT_EQ(rel.rows[1].row[0], Value::Int(5));
  EXPECT_EQ(rel.rows[1].sketch.SetBits(), std::vector<size_t>{2});
  EXPECT_EQ(rel.rows[2].row[0], Value::Int(3));
  EXPECT_EQ(rel.rows[2].sketch.SetBits(), std::vector<size_t>{2});
}

TEST_F(AnnotatedExecTest, DistinctUnionsDuplicateSketches) {
  AnnotatedRelation rel = RunAnnotated("SELECT DISTINCT brand FROM sales");
  ASSERT_EQ(rel.size(), 4u);
  std::map<std::string, std::vector<size_t>> sketches;
  for (const AnnotatedRow& r : rel.rows) {
    sketches[r.row[0].AsString()] = r.sketch.SetBits();
  }
  std::map<std::string, std::vector<size_t>> expected = {
      {"Apple", {2, 3}}, {"Dell", {2}}, {"HP", {1}}, {"Lenovo", {0}}};
  EXPECT_EQ(sketches, expected);
}

TEST_F(AnnotatedExecTest, GlobalAggregateOnEmptyInputHasEmptySketch) {
  AnnotatedRelation rel = RunAnnotated(
      "SELECT count(*) AS n, sum(price) AS s FROM sales WHERE price > 99999");
  ASSERT_EQ(rel.size(), 1u);
  EXPECT_EQ(rel.rows[0].row[0], Value::Int(0));
  EXPECT_TRUE(rel.rows[0].row[1].is_null());
  EXPECT_TRUE(rel.rows[0].sketch.None());
}

TEST_F(AnnotatedExecTest, RangeScanAnnotatesOnIndexAndChunkPaths) {
  // A scan filtered on price BETWEEN 600 AND 1200: s3 (1199) in ρ3, s6
  // (999) and s7 (899) in ρ2.
  PlanPtr plan = MakeScan(
      "sales", db_.GetTable("sales")->schema(),
      MakeBetween(MakeColumnRef(3, "price", ValueType::kInt),
                  MakeLiteral(Value::Int(600)), MakeLiteral(Value::Int(1200))));
  std::map<int64_t, std::vector<size_t>> expected = {
      {3, {2}}, {6, {1}}, {7, {1}}};
  AnnotatedRelation indexed = RunAnnotated(plan, RangeIndexMode::kBuild);
  EXPECT_GT(last_stats_.index_range_scans, 0u);
  EXPECT_EQ(SketchById(indexed), expected);
  AnnotatedRelation filtered = RunAnnotated(plan, RangeIndexMode::kOff);
  EXPECT_EQ(last_stats_.index_range_scans, 0u);
  EXPECT_EQ(SketchById(filtered), expected);
}

}  // namespace
}  // namespace imp
