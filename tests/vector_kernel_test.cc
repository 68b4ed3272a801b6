// Randomized equivalence suite for the batch predicate kernels
// (exec/vector_kernels): for any predicate the compiler sees — compilable,
// partially compilable, or fully scalar — the kernel's selection bitmap
// must be bit-for-bit identical to row-at-a-time Expr::Eval, over both
// columnar chunks and row-major blocks. Also checks end-to-end that
// queries, captures and maintenance match row-at-a-time oracles, and that
// the column storage matches the Values appended to it.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "exec/executor.h"
#include "exec/vector_kernels.h"
#include "imp/inc_aggregate.h"
#include "imp/inc_operators.h"
#include "imp/maintainer.h"
#include "sketch/capture.h"
#include "sketch/partition.h"
#include "sketch/use_rewrite.h"
#include "test_util.h"

namespace imp {
namespace {

// ---- Random data + predicate generators ------------------------------------

// Columns: a int, b int, c double, d string (with NULLs sprinkled in every
// column so three-valued comparison semantics are exercised).
Schema MixedSchema() {
  Schema s;
  s.AddColumn("a", ValueType::kInt);
  s.AddColumn("b", ValueType::kInt);
  s.AddColumn("c", ValueType::kDouble);
  s.AddColumn("d", ValueType::kString);
  return s;
}

Value RandomCell(Rng* rng, size_t col) {
  if (rng->Chance(0.1)) return Value::Null();
  switch (col) {
    case 0:
      return Value::Int(rng->UniformInt(0, 100));
    case 1:
      return Value::Int(rng->UniformInt(-50, 50));
    case 2:
      return Value::Double(rng->UniformDouble(-10.0, 10.0));
    default:
      return Value::String(std::string("s") +
                           std::to_string(rng->UniformInt(0, 9)));
  }
}

std::vector<Tuple> RandomRows(Rng* rng, size_t n) {
  std::vector<Tuple> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    rows.push_back(Tuple{RandomCell(rng, 0), RandomCell(rng, 1),
                         RandomCell(rng, 2), RandomCell(rng, 3)});
  }
  return rows;
}

ExprPtr RandomColumn(Rng* rng) {
  static const ValueType kTypes[] = {ValueType::kInt, ValueType::kInt,
                                     ValueType::kDouble, ValueType::kString};
  static const char* kNames[] = {"a", "b", "c", "d"};
  size_t col = static_cast<size_t>(rng->UniformInt(0, 3));
  return MakeColumnRef(col, kNames[col], kTypes[col]);
}

ExprPtr RandomLiteral(Rng* rng, size_t col_hint) {
  if (rng->Chance(0.05)) return MakeLiteral(Value::Null());
  return MakeLiteral(RandomCell(rng, col_hint));
}

BinaryOp RandomCmp(Rng* rng) {
  static const BinaryOp kOps[] = {BinaryOp::kEq, BinaryOp::kNe, BinaryOp::kLt,
                                  BinaryOp::kLe, BinaryOp::kGt, BinaryOp::kGe};
  return kOps[rng->UniformInt(0, 5)];
}

/// A random predicate mixing every shape the compiler handles (col-vs-lit
/// in both orders, BETWEEN, AND/OR/NOT, OR-of-ranges) with shapes it must
/// fall back on (col-vs-col, arithmetic).
ExprPtr RandomPredicate(Rng* rng, int depth) {
  if (depth > 0 && rng->Chance(0.6)) {
    switch (rng->UniformInt(0, 2)) {
      case 0:
        return MakeBinary(BinaryOp::kAnd, RandomPredicate(rng, depth - 1),
                          RandomPredicate(rng, depth - 1));
      case 1:
        return MakeBinary(BinaryOp::kOr, RandomPredicate(rng, depth - 1),
                          RandomPredicate(rng, depth - 1));
      default:
        return MakeUnary(UnaryOp::kNot, RandomPredicate(rng, depth - 1));
    }
  }
  size_t col = static_cast<size_t>(rng->UniformInt(0, 3));
  switch (rng->UniformInt(0, 5)) {
    case 0:  // col cmp lit
      return MakeBinary(RandomCmp(rng), RandomColumn(rng),
                        RandomLiteral(rng, col));
    case 1:  // lit cmp col (compiled through the mirrored op)
      return MakeBinary(RandomCmp(rng), RandomLiteral(rng, col),
                        RandomColumn(rng));
    case 2:  // BETWEEN
      return MakeBetween(RandomColumn(rng), RandomLiteral(rng, col),
                         RandomLiteral(rng, col));
    case 3:  // col cmp col — NOT compilable, exercises the scalar remainder
      return MakeBinary(RandomCmp(rng), RandomColumn(rng), RandomColumn(rng));
    case 4: {  // arithmetic (numeric columns only) — NOT compilable
      size_t num_col = static_cast<size_t>(rng->UniformInt(0, 1));
      return MakeBinary(
          RandomCmp(rng),
          MakeBinary(BinaryOp::kAdd,
                     MakeColumnRef(num_col, num_col == 0 ? "a" : "b",
                                   ValueType::kInt),
                     MakeLiteral(Value::Int(1))),
          RandomLiteral(rng, 0));
    }
    default:  // constant
      return MakeLiteral(rng->Chance(0.5) ? Value::Int(1) : Value::Int(0));
  }
}

/// Reference bit: the scalar semantics the kernel must reproduce exactly.
bool ScalarBit(const ExprPtr& expr, const Tuple& row) {
  return expr->Eval(row).IsTrue();
}

void ExpectBitIdentical(const PredicateKernel& kernel, const ExprPtr& expr,
                        const RowBlock& block,
                        const std::vector<Tuple>& rows_for_reference,
                        const std::string& context) {
  BitVector sel;
  size_t batches = 0, fallback_rows = 0;
  kernel.Eval(block, &sel, &batches, &fallback_rows);
  ASSERT_EQ(block.num_rows(), rows_for_reference.size());
  for (size_t i = 0; i < rows_for_reference.size(); ++i) {
    ASSERT_EQ(sel.Test(i), ScalarBit(expr, rows_for_reference[i]))
        << context << " row " << i << " expr " << expr->ToString();
  }
}

// ---- Randomized kernel-vs-scalar over columnar chunks -----------------------

TEST(VectorKernelTest, RandomizedEquivalenceOnChunks) {
  Rng rng(42);
  Database db;
  ASSERT_TRUE(db.CreateTable("t", MixedSchema()).ok());
  std::vector<Tuple> rows = RandomRows(&rng, 9000);  // spans several chunks
  ASSERT_TRUE(db.BulkLoad("t", rows).ok());
  auto snap = db.GetTable("t")->Snapshot();

  for (int trial = 0; trial < 60; ++trial) {
    ExprPtr expr = RandomPredicate(&rng, 3);
    PredicateKernel kernel = PredicateKernel::Compile(expr);
    size_t row_base = 0;
    for (const auto& chunk : snap->chunks()) {
      std::vector<Tuple> chunk_rows;
      chunk_rows.reserve(chunk->num_rows());
      for (size_t r = 0; r < chunk->num_rows(); ++r) {
        chunk_rows.push_back(chunk->GetRow(r));
      }
      ExpectBitIdentical(kernel, expr, RowBlock::FromChunk(*chunk), chunk_rows,
                         "chunk@" + std::to_string(row_base));
      row_base += chunk->num_rows();
    }
  }
}

// ---- Randomized kernel-vs-scalar over row-major blocks ----------------------

TEST(VectorKernelTest, RandomizedEquivalenceOnTupleArrays) {
  Rng rng(43);
  std::vector<Tuple> rows = RandomRows(&rng, 700);
  for (int trial = 0; trial < 60; ++trial) {
    ExprPtr expr = RandomPredicate(&rng, 3);
    PredicateKernel kernel = PredicateKernel::Compile(expr);
    ExpectBitIdentical(kernel, expr,
                       RowBlock::FromTuples(rows.data(), rows.size()), rows,
                       "tuple-array");
  }
}

TEST(VectorKernelTest, RandomizedEquivalenceOnStridedMembers) {
  // The layout the maintenance pipeline uses: tuples embedded in a larger
  // struct, accessed at a stride via FromMember.
  struct Wrapper {
    int64_t pad0 = 7;
    Tuple row;
    std::string pad1 = "x";
  };
  Rng rng(44);
  std::vector<Tuple> plain = RandomRows(&rng, 500);
  std::vector<Wrapper> wrapped(plain.size());
  for (size_t i = 0; i < plain.size(); ++i) wrapped[i].row = plain[i];
  for (int trial = 0; trial < 40; ++trial) {
    ExprPtr expr = RandomPredicate(&rng, 3);
    PredicateKernel kernel = PredicateKernel::Compile(expr);
    ExpectBitIdentical(kernel, expr,
                       RowBlock::FromMember(wrapped, &Wrapper::row), plain,
                       "strided");
  }
}

// ---- Targeted shapes --------------------------------------------------------

TEST(VectorKernelTest, RangeSetFusionIsFullyVectorized) {
  // The IN-partition-bucket shape the use-rewrite emits: OR of ranges and
  // equalities over ONE column fuses into a sorted range-set probe.
  ExprPtr col = MakeColumnRef(0, "a", ValueType::kInt);
  auto ref = [&] { return MakeColumnRef(0, "a", ValueType::kInt); };
  ExprPtr expr = MakeDisjunction([&] {
    std::vector<ExprPtr> terms;
    terms.push_back(MakeBetween(ref(), MakeLiteral(Value::Int(1)),
                                MakeLiteral(Value::Int(10))));
    terms.push_back(MakeBetween(ref(), MakeLiteral(Value::Int(8)),
                                MakeLiteral(Value::Int(20))));  // overlaps
    terms.push_back(MakeBinary(BinaryOp::kEq, ref(),
                               MakeLiteral(Value::Int(50))));
    return terms;
  }());
  PredicateKernel kernel = PredicateKernel::Compile(expr);
  EXPECT_TRUE(kernel.fully_vectorized());

  std::vector<Tuple> rows;
  for (int v = -5; v < 60; ++v) rows.push_back(Tuple{Value::Int(v)});
  rows.push_back(Tuple{Value::Null()});
  BitVector sel;
  kernel.Eval(RowBlock::FromTuples(rows.data(), rows.size()), &sel, nullptr,
              nullptr);
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(sel.Test(i), ScalarBit(expr, rows[i])) << "row " << i;
  }
}

TEST(VectorKernelTest, ScalarRemainderOnlyTestsSurvivors) {
  // (a <= 10) AND (a < b): the comparison compiles, the col-vs-col
  // remainder must run only on rows that pass the compiled part.
  ExprPtr expr = MakeBinary(
      BinaryOp::kAnd,
      MakeBinary(BinaryOp::kLe, MakeColumnRef(0, "a", ValueType::kInt),
                 MakeLiteral(Value::Int(10))),
      MakeBinary(BinaryOp::kLt, MakeColumnRef(0, "a", ValueType::kInt),
                 MakeColumnRef(1, "b", ValueType::kInt)));
  PredicateKernel kernel = PredicateKernel::Compile(expr);
  EXPECT_TRUE(kernel.vectorized());
  EXPECT_FALSE(kernel.fully_vectorized());
  ASSERT_NE(kernel.scalar_remainder(), nullptr);

  std::vector<Tuple> rows;
  for (int v = 0; v < 100; ++v) {
    rows.push_back(Tuple{Value::Int(v), Value::Int(50)});
  }
  BitVector sel;
  size_t batches = 0, fallback_rows = 0;
  kernel.Eval(RowBlock::FromTuples(rows.data(), rows.size()), &sel, &batches,
              &fallback_rows);
  EXPECT_EQ(batches, 1u);
  EXPECT_EQ(fallback_rows, 11u);  // rows 0..10 survive a <= 10
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(sel.Test(i), ScalarBit(expr, rows[i])) << "row " << i;
  }
}

TEST(VectorKernelTest, NullPredicateSelectsEverything) {
  PredicateKernel kernel = PredicateKernel::Compile(nullptr);
  EXPECT_FALSE(kernel.has_predicate());
  std::vector<Tuple> rows = {{Value::Int(1)}, {Value::Null()}};
  BitVector sel;
  kernel.Eval(RowBlock::FromTuples(rows.data(), rows.size()), &sel, nullptr,
              nullptr);
  EXPECT_EQ(sel.Count(), rows.size());
}

// ---- End-to-end: one execution path against row-at-a-time oracles ---------

/// Test-side oracle for scan / select / project plans: filter and project
/// `base` one row at a time with Expr::Eval.
std::vector<Tuple> RowAtATime(const PlanPtr& plan,
                              const std::vector<Tuple>& base) {
  std::vector<Tuple> out;
  switch (plan->kind()) {
    case PlanKind::kScan: {
      const ExprPtr& filter = static_cast<const ScanNode&>(*plan).filter();
      for (const Tuple& row : base) {
        if (!filter || ScalarBit(filter, row)) out.push_back(row);
      }
      return out;
    }
    case PlanKind::kSelect: {
      const auto& node = static_cast<const SelectNode&>(*plan);
      for (Tuple& row : RowAtATime(node.child(), base)) {
        if (ScalarBit(node.predicate(), row)) out.push_back(std::move(row));
      }
      return out;
    }
    case PlanKind::kProject: {
      const auto& node = static_cast<const ProjectNode&>(*plan);
      for (const Tuple& row : RowAtATime(node.child(), base)) {
        Tuple projected;
        for (const ExprPtr& e : node.exprs()) projected.push_back(e->Eval(row));
        out.push_back(std::move(projected));
      }
      return out;
    }
    default:
      ADD_FAILURE() << "the oracle covers scan, select and project only";
      return out;
  }
}

TEST(VectorKernelTest, ExecutorMatchesRowAtATimeOracle) {
  Rng rng(45);
  Database db;
  ASSERT_TRUE(db.CreateTable("t", MixedSchema()).ok());
  std::vector<Tuple> rows = RandomRows(&rng, 6000);
  ASSERT_TRUE(db.BulkLoad("t", rows).ok());
  struct Case {
    const char* sql;
    bool expect_kernel_batches;  // false: fully scalar-fallback shape
  };
  const Case queries[] = {
      {"SELECT * FROM t WHERE a BETWEEN 10 AND 60", true},
      {"SELECT a, b FROM t WHERE a < 30 AND b >= 0", true},
      {"SELECT * FROM t WHERE a = 5 OR a = 9 OR a BETWEEN 90 AND 95", true},
      {"SELECT * FROM t WHERE d = 's3' AND c > 0.0", true},
      {"SELECT * FROM t WHERE a < b", false},
  };
  for (const Case& c : queries) {
    PlanPtr plan = MustBind(db, c.sql);
    Executor exec(&db);
    auto result = exec.Execute(plan);
    ASSERT_TRUE(result.ok()) << c.sql;
    Relation expected{plan->output_schema(), RowAtATime(plan, rows)};
    EXPECT_TRUE(result.value().SameBag(expected)) << c.sql;
    if (c.expect_kernel_batches) {
      EXPECT_GT(exec.scan_stats().vectorized_batches, 0u) << c.sql;
    } else {
      EXPECT_GT(exec.scan_stats().scalar_fallback_rows, 0u) << c.sql;
    }
  }
}

TEST(VectorKernelTest, CaptureMatchesHandAnnotatedRows) {
  // Both capture paths: the executor's annotated scan (FM capture) and the
  // maintainer's IncScan::Build (IMP capture, with its typed fragment
  // lookup over integer partition bounds).
  Database db;
  LoadSalesExample(&db);
  PartitionCatalog catalog;
  ASSERT_TRUE(catalog.Register(SalesPricePartition()).ok());
  PlanPtr plan =
      MustBind(db, "SELECT sid FROM sales WHERE price BETWEEN 1001 AND 1500");
  Executor exec(&db);
  auto result = exec.ExecuteAnnotated(
      plan, [&](const std::string& table, const Tuple& row, BitVector* out) {
        catalog.AnnotateRow(table, row, out);
      });
  ASSERT_TRUE(result.ok());
  // s3 (price 1199) and s5 (1345), both in ρ3 = [1001, 1500].
  Relation expected{plan->output_schema(), {{Value::Int(3)}, {Value::Int(5)}}};
  EXPECT_TRUE(result.value().ToRelation().SameBag(expected));
  EXPECT_EQ(result.value().SketchUnion().SetBits(), std::vector<size_t>{2});
  EXPECT_GT(exec.scan_stats().vectorized_batches, 0u);

  const Schema& schema = db.GetTable("sales")->schema();
  MaintainStats stats;
  IncScan scan("sales",
               MakeBetween(MakeColumnRef(3, "price", ValueType::kInt),
                           MakeLiteral(Value::Int(1001)),
                           MakeLiteral(Value::Int(1500))),
               &db, &catalog, schema, &stats);
  auto built = scan.Build(DeltaContext{});
  ASSERT_TRUE(built.ok());
  ASSERT_EQ(built.value().rows.size(), 2u);
  for (const AnnotatedRow& r : built.value().rows) {
    EXPECT_TRUE(r.row[0] == Value::Int(3) || r.row[0] == Value::Int(5))
        << TupleToString(r.row);
    EXPECT_EQ(r.sketch.SetBits(), std::vector<size_t>{2})
        << TupleToString(r.row);
  }
  EXPECT_GT(stats.vectorized_batches, 0u);
}

TEST(VectorKernelTest, MaintenanceMatchesFreshCaptureAndPlainExecutor) {
  // One maintainer per join shape over the Fig. 5 example under random
  // inserts (some with NULL join keys) and deletes: after every round its
  // sketch equals a fresh capture's, and the plain executor answers the
  // sketch-filtered plan as it answers the full one — across filters, joins
  // (bloom pruning) and deletes. The direct shape answers every delegated
  // round trip through the point index; the second shape computes s's key,
  // so its ΔR ⋈ S round trips evaluate the side plan instead.
  struct Shape {
    const char* sql;
    bool side_evaluated;
  };
  const Shape shapes[] = {
      {kFig5Query, false},
      {"SELECT a, sum(c) AS sc "
       "FROM (SELECT a, b FROM r WHERE a > 3) tt "
       "JOIN (SELECT c, d + 0 AS d FROM s) ss ON (b = d) "
       "GROUP BY a HAVING sum(c) > 5",
       true},
  };
  for (const Shape& shape : shapes) {
    SCOPED_TRACE(shape.sql);
    Database db;
    LoadFig5Example(&db);
    PartitionCatalog catalog;
    ASSERT_TRUE(catalog.Register(Fig5PartitionR()).ok());
    ASSERT_TRUE(catalog.Register(Fig5PartitionS()).ok());
    PlanPtr plan = MustBind(db, shape.sql);
    Maintainer maintainer(&db, &catalog, plan);
    ASSERT_TRUE(maintainer.Initialize().ok());

    Rng rng(46);
    auto join_key = [&rng] {
      return rng.Chance(0.1) ? Value::Null()
                             : Value::Int(rng.UniformInt(1, 10));
    };
    for (int round = 0; round < 8; ++round) {
      std::vector<Tuple> r_rows, s_rows;
      for (int i = 0; i < 5; ++i) {
        r_rows.push_back(Tuple{Value::Int(rng.UniformInt(1, 10)), join_key()});
        s_rows.push_back(Tuple{Value::Int(rng.UniformInt(1, 15)), join_key()});
      }
      ASSERT_TRUE(db.Insert("r", r_rows).ok());
      ASSERT_TRUE(db.Insert("s", s_rows).ok());
      if (round % 3 == 2) {
        int64_t doomed = rng.UniformInt(1, 10);
        ASSERT_TRUE(Delete(&db, "r", "a = " + std::to_string(doomed)).ok());
      }
      ASSERT_TRUE(maintainer.MaintainFromBackend().ok()) << "round " << round;
      Maintainer fresh(&db, &catalog, plan);
      auto captured = fresh.Initialize();
      ASSERT_TRUE(captured.ok()) << "round " << round;
      EXPECT_EQ(maintainer.sketch().fragments.SetBits(),
                captured.value().fragments.SetBits())
          << "round " << round;
      Executor exec(&db);
      auto full = exec.Execute(plan);
      auto filtered =
          exec.Execute(ApplyUseRewrite(plan, catalog, maintainer.sketch()));
      ASSERT_TRUE(full.ok() && filtered.ok()) << "round " << round;
      EXPECT_TRUE(full.value().SameBag(filtered.value())) << "round " << round;
    }
    EXPECT_GT(maintainer.stats().vectorized_batches, 0u);
    EXPECT_GT(maintainer.stats().join_round_trips, 0u);
    if (shape.side_evaluated) {
      EXPECT_GT(maintainer.stats().index_fallback_scans, 0u);
    } else {
      EXPECT_EQ(maintainer.stats().index_fallback_scans, 0u);
    }
  }
}

// ---- Column storage oracle --------------------------------------------------
//
// One layout, checked against the Values appended to it: every column type
// — NULL-heavy ints, doubles with NaN and ±0.0, dictionary strings, strings
// with more than 256 distinct values (forcing the dictionary-to-flat
// switch) and an all-NULL column — must read back, min/max, gather and
// filter exactly as the appended Values do.

// Columns: ti int, td double (NaN, ±0.0, integral, fractional), ds dict
// string (12 distinct), fs flat string (~4000 distinct), nh NULL-heavy int,
// zn all-NULL int.
Schema StorageOracleSchema() {
  Schema s;
  s.AddColumn("ti", ValueType::kInt);
  s.AddColumn("td", ValueType::kDouble);
  s.AddColumn("ds", ValueType::kString);
  s.AddColumn("fs", ValueType::kString);
  s.AddColumn("nh", ValueType::kInt);
  s.AddColumn("zn", ValueType::kInt);
  return s;
}

Value StorageOracleCell(Rng* rng, size_t col) {
  if (col == 5 || rng->Chance(col == 4 ? 0.5 : 0.1)) return Value::Null();
  switch (col) {
    case 0:
      return Value::Int(rng->UniformInt(-100, 100));
    case 1:
      switch (rng->UniformInt(0, 9)) {
        case 0:
          return Value::Double(std::numeric_limits<double>::quiet_NaN());
        case 1:
          return Value::Double(0.0);
        case 2:
          return Value::Double(-0.0);
        case 3:
        case 4:
          return Value::Double(static_cast<double>(rng->UniformInt(-40, 40)));
        default:
          return Value::Double(rng->UniformDouble(-40.0, 40.0));
      }
    case 2:
      return Value::String("d" + std::to_string(rng->UniformInt(0, 11)));
    case 3:
      return Value::String("f" + std::to_string(rng->UniformInt(0, 4000)));
    default:
      return Value::Int(rng->UniformInt(0, 20));
  }
}

std::vector<Tuple> StorageOracleRows(Rng* rng, size_t n) {
  std::vector<Tuple> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Tuple row;
    for (size_t c = 0; c < 6; ++c) row.push_back(StorageOracleCell(rng, c));
    rows.push_back(std::move(row));
  }
  return rows;
}

const char* kOracleNames[] = {"ti", "td", "ds", "fs", "nh", "zn"};
const ValueType kOracleTypes[] = {ValueType::kInt,    ValueType::kDouble,
                                  ValueType::kString, ValueType::kString,
                                  ValueType::kInt,    ValueType::kInt};

ExprPtr StorageOraclePredicate(Rng* rng, int depth) {
  if (depth > 0 && rng->Chance(0.55)) {
    switch (rng->UniformInt(0, 2)) {
      case 0:
        return MakeBinary(BinaryOp::kAnd,
                          StorageOraclePredicate(rng, depth - 1),
                          StorageOraclePredicate(rng, depth - 1));
      case 1:
        return MakeBinary(BinaryOp::kOr,
                          StorageOraclePredicate(rng, depth - 1),
                          StorageOraclePredicate(rng, depth - 1));
      default:
        return MakeUnary(UnaryOp::kNot,
                         StorageOraclePredicate(rng, depth - 1));
    }
  }
  size_t col = static_cast<size_t>(rng->UniformInt(0, 5));
  auto ref = [&] {
    return MakeColumnRef(col, kOracleNames[col], kOracleTypes[col]);
  };
  // 20% of literals come from a DIFFERENT column's domain, so cross-type-
  // class comparisons (string literal on an int column, numeric literal on
  // a string column, int-vs-double promotion) run on every encoding.
  auto lit = [&] {
    size_t lit_col =
        rng->Chance(0.2) ? static_cast<size_t>(rng->UniformInt(0, 4)) : col;
    if (lit_col == 5 || rng->Chance(0.05)) return MakeLiteral(Value::Null());
    Value v;
    while (v.is_null()) v = StorageOracleCell(rng, lit_col);
    return MakeLiteral(std::move(v));
  };
  switch (rng->UniformInt(0, 3)) {
    case 0:
      return MakeBinary(RandomCmp(rng), ref(), lit());
    case 1:
      return MakeBinary(RandomCmp(rng), lit(), ref());
    case 2:
      return MakeBetween(ref(), lit(), lit());
    default:  // col cmp col — the scalar remainder over gathered rows
      return MakeBinary(RandomCmp(rng), ref(),
                        MakeColumnRef(0, "ti", ValueType::kInt));
  }
}

/// Exact equality down to a double's bits (NaN and -0.0 included).
bool SameValue(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  if (!a.is_double()) return a.Compare(b) == 0;
  double x = a.AsDouble(), y = b.AsDouble();
  return std::memcmp(&x, &y, sizeof(x)) == 0;
}

TEST(ColumnStorageOracleTest, EveryTypeMatchesAppendedValues) {
  Rng rng(47);
  DataChunk chunk(StorageOracleSchema());
  std::vector<Tuple> rows = StorageOracleRows(&rng, 3000);
  for (const Tuple& row : rows) chunk.AppendRow(row);
  const ColumnVector::Encoding kExpected[] = {
      ColumnVector::Encoding::kInt64,      ColumnVector::Encoding::kDouble,
      ColumnVector::Encoding::kDictString, ColumnVector::Encoding::kFlatString,
      ColumnVector::Encoding::kInt64,      ColumnVector::Encoding::kInt64};

  for (size_t c = 0; c < 6; ++c) {
    const ColumnVector& cv = chunk.column(c);
    EXPECT_EQ(cv.encoding(), kExpected[c]) << "col " << c;
    // Oracle min/max: Value::Compare folded in append order.
    Value min, max;
    bool any = false;
    for (size_t r = 0; r < rows.size(); ++r) {
      const Value& v = rows[r][c];
      ASSERT_TRUE(SameValue(cv.GetValue(r), v)) << "col " << c << " row " << r;
      ASSERT_EQ(cv.IsNull(r), v.is_null()) << "col " << c << " row " << r;
      if (v.is_null()) continue;
      if (!any) {
        min = max = v;
        any = true;
      }
      if (v.Compare(min) < 0) min = v;
      if (max.Compare(v) < 0) max = v;
    }
    Value got_min, got_max;
    ASSERT_EQ(cv.MinMax(&got_min, &got_max), any) << "col " << c;
    if (any) {
      EXPECT_TRUE(SameValue(got_min, min)) << "col " << c;
      EXPECT_TRUE(SameValue(got_max, max)) << "col " << c;
    }
  }

  BitVector sel(rows.size());
  for (size_t r = 0; r < rows.size(); ++r) {
    if (rng.Chance(0.3)) sel.Set(r);
  }
  std::vector<Tuple> gathered = chunk.GatherRows(sel);
  ASSERT_EQ(gathered.size(), sel.Count());
  size_t k = 0;
  sel.ForEachSetBit([&](size_t r) {
    for (size_t c = 0; c < 6; ++c) {
      EXPECT_TRUE(SameValue(gathered[k][c], rows[r][c]))
          << "row " << r << " col " << c;
    }
    ++k;
  });

  for (int trial = 0; trial < 60; ++trial) {
    ExprPtr expr = StorageOraclePredicate(&rng, 3);
    PredicateKernel kernel = PredicateKernel::Compile(expr);
    BitVector out;
    kernel.Eval(RowBlock::FromChunk(chunk), &out, nullptr, nullptr);
    for (size_t r = 0; r < rows.size(); ++r) {
      ASSERT_EQ(out.Test(r), ScalarBit(expr, rows[r]))
          << "trial " << trial << " row " << r << " expr " << expr->ToString();
    }
  }
}

TEST(ColumnStorageOracleTest,
     ColumnarAggregateBuildMatchesExecuteAnnotated) {
  // IncAggregate::Build aggregates straight off the chunk columns when its
  // child is a filterless scan (TryBuildColumnar). The row-at-a-time
  // Executor::ExecuteAnnotated over the same plan is its oracle — across an int
  // group key with NULLs (raw-int64 side map mixed with the tuple path), a
  // dictionary-string key, and no GROUP BY.
  Rng rng(71);
  Database db;
  ASSERT_TRUE(db.CreateTable("t", StorageOracleSchema()).ok());
  ASSERT_TRUE(db.BulkLoad("t", StorageOracleRows(&rng, 6000)).ok());
  ASSERT_TRUE(db.Insert("t", StorageOracleRows(&rng, 77)).ok());
  const Schema& schema = db.GetTable("t")->schema();
  PartitionCatalog catalog;
  ASSERT_TRUE(
      catalog.Register(RangePartition::EquiWidthInt("t", "ti", 0, -100, 100, 8))
          .ok());

  auto signature = [](const AnnotatedRelation& rel) {
    std::vector<std::pair<Tuple, std::vector<size_t>>> out;
    for (const AnnotatedRow& ar : rel.rows) {
      out.emplace_back(ar.row, ar.sketch.SetBits());
    }
    std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
      return TupleLess()(a.first, b.first);
    });
    return out;
  };
  std::vector<AggSpec> aggs = {
      {AggFunc::kSum, MakeColumnRef(1, "td", ValueType::kDouble), "sum_td"},
      {AggFunc::kSum, MakeColumnRef(0, "ti", ValueType::kInt), "sum_ti"},
      {AggFunc::kCount, nullptr, "cnt"},
      {AggFunc::kCount, MakeColumnRef(3, "fs", ValueType::kString), "cnt_fs"},
      {AggFunc::kMin, MakeColumnRef(0, "ti", ValueType::kInt), "min_ti"},
      {AggFunc::kMax, MakeColumnRef(1, "td", ValueType::kDouble), "max_td"}};

  for (int gc : {4, 2, -1}) {
    std::vector<ExprPtr> groups;
    std::vector<std::string> names;
    if (gc >= 0) {
      groups.push_back(
          MakeColumnRef(static_cast<size_t>(gc), kOracleNames[gc],
                        kOracleTypes[gc]));
      names.push_back(kOracleNames[gc]);
    }
    PlanPtr plan = MakeAggregate(MakeScan("t", schema), groups, names, aggs);
    MaintainStats stats;
    IncAggregate agg(std::make_unique<IncScan>("t", nullptr, &db, &catalog,
                                               schema, &stats),
                     groups, aggs, plan->output_schema(),
                     IncAggregate::Options{}, &stats);
    Result<AnnotatedRelation> built = agg.Build(DeltaContext{});
    ASSERT_TRUE(built.ok()) << "group col " << gc;
    Result<AnnotatedRelation> expected = Executor(&db).ExecuteAnnotated(
        plan, [&](const std::string& table, const Tuple& row, BitVector* out) {
          catalog.AnnotateRow(table, row, out);
        });
    ASSERT_TRUE(expected.ok()) << "group col " << gc;
    EXPECT_GT(expected.value().rows.size(), 0u) << "group col " << gc;
    EXPECT_EQ(agg.NumGroups(), expected.value().rows.size())
        << "group col " << gc;
    EXPECT_TRUE(signature(built.value()) == signature(expected.value()))
        << "group col " << gc;
  }
}

}  // namespace
}  // namespace imp
