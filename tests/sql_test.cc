// Tests for the SQL front end: lexer, parser, binder. Exercises every query
// template from the paper's Appendix A.

#include <gtest/gtest.h>

#include "sql/binder.h"
#include "sql/lexer.h"
#include "sql/parser.h"
#include "test_util.h"
#include "workload/crimes.h"
#include "workload/synthetic.h"
#include "workload/tpch.h"

namespace imp {
namespace {

// ---- Lexer -----------------------------------------------------------------

TEST(LexerTest, BasicTokens) {
  auto tokens = Tokenize("SELECT a, b2 FROM t WHERE a >= 3.5 AND b <> 'x''y'");
  ASSERT_TRUE(tokens.ok());
  const auto& ts = tokens.value();
  EXPECT_TRUE(ts[0].IsKeyword("SELECT"));
  EXPECT_EQ(ts[1].text, "a");
  EXPECT_TRUE(ts[2].IsSymbol(","));
  EXPECT_EQ(ts[3].text, "b2");
  // ... WHERE a >= 3.5 ...
  size_t i = 0;
  while (!ts[i].IsKeyword("WHERE")) ++i;
  EXPECT_EQ(ts[i + 1].text, "a");
  EXPECT_TRUE(ts[i + 2].IsSymbol(">="));
  EXPECT_EQ(ts[i + 3].type, TokenType::kDouble);
  EXPECT_DOUBLE_EQ(ts[i + 3].dbl_val, 3.5);
  // escaped quote in string
  EXPECT_EQ(ts.back().type, TokenType::kEnd);
  bool found = false;
  for (const Token& t : ts) {
    if (t.type == TokenType::kString) {
      EXPECT_EQ(t.text, "x'y");
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(LexerTest, CommentsSkipped) {
  auto tokens = Tokenize("SELECT a -- trailing comment\nFROM t");
  ASSERT_TRUE(tokens.ok());
  size_t idents = 0;
  for (const Token& t : tokens.value()) {
    if (t.type == TokenType::kIdent) ++idents;
  }
  EXPECT_EQ(idents, 4u);  // SELECT a FROM t
}

TEST(LexerTest, Errors) {
  EXPECT_FALSE(Tokenize("SELECT 'unterminated").ok());
  EXPECT_FALSE(Tokenize("SELECT @").ok());
}

// ---- Parser ----------------------------------------------------------------

TEST(ParserTest, SimpleSelect) {
  auto stmt = ParseSelect("SELECT a, b AS bee FROM t WHERE a > 3");
  ASSERT_TRUE(stmt.ok());
  const SelectStmt& s = *stmt.value();
  ASSERT_EQ(s.items.size(), 2u);
  EXPECT_EQ(s.items[1].alias, "bee");
  ASSERT_EQ(s.from.size(), 1u);
  EXPECT_EQ(s.from[0]->table, "t");
  ASSERT_NE(s.where, nullptr);
  EXPECT_EQ(s.where->kind, ParsedExpr::Kind::kBinary);
  EXPECT_EQ(s.where->bin_op, BinaryOp::kGt);
}

TEST(ParserTest, GroupByHavingOrderLimit) {
  auto stmt = ParseSelect(
      "SELECT a, avg(b) AS ab FROM t GROUP BY a "
      "HAVING avg(c) < 1000 AND avg(d) < 1200 "
      "ORDER BY ab DESC LIMIT 10");
  ASSERT_TRUE(stmt.ok());
  const SelectStmt& s = *stmt.value();
  EXPECT_EQ(s.group_by.size(), 1u);
  ASSERT_NE(s.having, nullptr);
  ASSERT_EQ(s.order_by.size(), 1u);
  EXPECT_FALSE(s.order_by[0].ascending);
  EXPECT_EQ(s.limit, 10u);
}

TEST(ParserTest, JoinWithOnAndSubquery) {
  auto stmt = ParseSelect(
      "SELECT a, avg(b) AS ab "
      "FROM (SELECT a, b, c FROM t WHERE b < 10) tt "
      "JOIN tjoinhelp ON (a = ttid) "
      "GROUP BY a HAVING avg(c) < 10");
  ASSERT_TRUE(stmt.ok());
  const SelectStmt& s = *stmt.value();
  ASSERT_EQ(s.from.size(), 1u);
  EXPECT_EQ(s.from[0]->kind, TableRef::Kind::kJoin);
  EXPECT_EQ(s.from[0]->left->kind, TableRef::Kind::kSubquery);
  EXPECT_EQ(s.from[0]->left->alias, "tt");
  EXPECT_EQ(s.from[0]->right->table, "tjoinhelp");
}

TEST(ParserTest, CommaJoinList) {
  auto stmt = ParseSelect(
      "SELECT c_custkey FROM customer, orders, lineitem, nation "
      "WHERE c_custkey = o_custkey");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt.value()->from.size(), 4u);
}

TEST(ParserTest, CountStarAndQualifiedNames) {
  auto stmt = ParseSelect("SELECT t.a, count(*) FROM t GROUP BY t.a");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt.value()->items[0].expr->name, "t.a");
  EXPECT_EQ(stmt.value()->items[1].expr->kind, ParsedExpr::Kind::kFunc);
  EXPECT_EQ(stmt.value()->items[1].expr->args[0]->kind,
            ParsedExpr::Kind::kStar);
}

TEST(ParserTest, InsertDeleteUpdate) {
  auto ins = ParseStatement("INSERT INTO t VALUES (1, 'x'), (2, 'y')");
  ASSERT_TRUE(ins.ok());
  EXPECT_EQ(ins.value().kind, Statement::Kind::kInsert);
  EXPECT_EQ(ins.value().insert->rows.size(), 2u);

  auto del = ParseStatement("DELETE FROM t WHERE id < 5;");
  ASSERT_TRUE(del.ok());
  EXPECT_EQ(del.value().kind, Statement::Kind::kDelete);

  auto upd = ParseStatement("UPDATE t SET v = v + 1 WHERE id = 3");
  ASSERT_TRUE(upd.ok());
  EXPECT_EQ(upd.value().kind, Statement::Kind::kUpdate);
  EXPECT_EQ(upd.value().update->sets.size(), 1u);
}

TEST(ParserTest, Errors) {
  EXPECT_FALSE(ParseStatement("SELECT FROM t").ok());
  EXPECT_FALSE(ParseStatement("SELECT a t").ok());
  EXPECT_FALSE(ParseStatement("FOO BAR").ok());
  EXPECT_FALSE(ParseStatement("SELECT a FROM t LIMIT x").ok());
  EXPECT_FALSE(ParseStatement("SELECT a FROM t; extra").ok());
}

TEST(ParserTest, OperatorPrecedence) {
  // a + b * c parses as a + (b * c)
  auto stmt = ParseSelect("SELECT a + b * c FROM t");
  ASSERT_TRUE(stmt.ok());
  const ParsedExprPtr& e = stmt.value()->items[0].expr;
  ASSERT_EQ(e->bin_op, BinaryOp::kAdd);
  EXPECT_EQ(e->args[1]->bin_op, BinaryOp::kMul);
  // x OR y AND z parses as x OR (y AND z)
  auto stmt2 = ParseSelect("SELECT a FROM t WHERE a=1 OR b=2 AND c=3");
  ASSERT_TRUE(stmt2.ok());
  EXPECT_EQ(stmt2.value()->where->bin_op, BinaryOp::kOr);
}

// ---- Binder ----------------------------------------------------------------

class BinderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    LoadSalesExample(&db_);
    SyntheticSpec spec;
    spec.name = "r500";
    spec.num_rows = 500;
    spec.num_groups = 20;
    IMP_CHECK(CreateSyntheticTable(&db_, spec).ok());
  }
  Database db_;
};

TEST_F(BinderTest, SimpleProjectionAndFilter) {
  PlanPtr plan = MustBind(db_, "SELECT sid, price FROM sales WHERE price > 1000");
  EXPECT_EQ(plan->output_schema().size(), 2u);
  EXPECT_EQ(plan->output_schema().column(0).name, "sid");
  EXPECT_EQ(plan->output_schema().column(1).type, ValueType::kInt);
}

TEST_F(BinderTest, RunningExampleQTop) {
  PlanPtr plan = MustBind(db_, kSalesQTop);
  // Project <- Select(HAVING) <- Aggregate <- Scan
  EXPECT_EQ(plan->kind(), PlanKind::kProject);
  EXPECT_EQ(plan->children()[0]->kind(), PlanKind::kSelect);
  EXPECT_EQ(plan->children()[0]->children()[0]->kind(), PlanKind::kAggregate);
  EXPECT_EQ(plan->output_schema().column(0).name, "brand");
  EXPECT_EQ(plan->output_schema().column(1).name, "rev");
}

TEST_F(BinderTest, HavingAggregateDedupedWithSelect) {
  PlanPtr plan = MustBind(db_, kSalesQTop);
  const PlanNode* agg = plan->children()[0]->children()[0].get();
  const auto& aggregate = static_cast<const AggregateNode&>(*agg);
  // sum(price * numSold) appears in SELECT and HAVING but is computed once.
  EXPECT_EQ(aggregate.aggs().size(), 1u);
}

TEST_F(BinderTest, TemplateKeySharedAcrossConstants) {
  PlanPtr p1 = MustBind(db_, "SELECT a, avg(b) AS ab FROM r500 GROUP BY a "
                             "HAVING avg(c) < 100");
  PlanPtr p2 = MustBind(db_, "SELECT a, avg(b) AS ab FROM r500 GROUP BY a "
                             "HAVING avg(c) < 99999");
  EXPECT_EQ(p1->TemplateKey(), p2->TemplateKey());
  PlanPtr p3 = MustBind(db_, "SELECT a, avg(b) AS ab FROM r500 GROUP BY a "
                             "HAVING avg(d) < 100");
  EXPECT_NE(p1->TemplateKey(), p3->TemplateKey());
}

TEST_F(BinderTest, UnknownTableAndColumnErrors) {
  Binder binder(&db_);
  EXPECT_FALSE(binder.BindQuery("SELECT a FROM nope").ok());
  EXPECT_FALSE(binder.BindQuery("SELECT zzz FROM sales").ok());
  EXPECT_FALSE(binder.BindQuery("SELECT brand FROM sales GROUP BY sid").ok());
}

TEST_F(BinderTest, StarExpansion) {
  PlanPtr plan = MustBind(db_, "SELECT * FROM sales WHERE sid = 1");
  EXPECT_EQ(plan->output_schema().size(), 5u);
}

TEST_F(BinderTest, InsertBinding) {
  Binder binder(&db_);
  auto bound = binder.BindSql(
      "INSERT INTO sales VALUES (8, 'HP', 'HP ProBook 650 G10', 1299, 1)");
  ASSERT_TRUE(bound.ok());
  EXPECT_EQ(bound.value().update.kind, BoundUpdate::Kind::kInsert);
  ASSERT_EQ(bound.value().update.rows.size(), 1u);
  EXPECT_EQ(bound.value().update.rows[0][3], Value::Int(1299));
  // Arity mismatch rejected.
  EXPECT_FALSE(binder.BindSql("INSERT INTO sales VALUES (8, 'HP')").ok());
}

TEST_F(BinderTest, DeleteAndUpdateBinding) {
  Binder binder(&db_);
  auto del = binder.BindSql("DELETE FROM sales WHERE price > 2000");
  ASSERT_TRUE(del.ok());
  EXPECT_EQ(del.value().update.kind, BoundUpdate::Kind::kDelete);
  ASSERT_NE(del.value().update.where, nullptr);

  auto upd = binder.BindSql("UPDATE sales SET numSold = numSold + 1 "
                            "WHERE brand = 'HP'");
  ASSERT_TRUE(upd.ok());
  EXPECT_EQ(upd.value().update.kind, BoundUpdate::Kind::kUpdate);
  ASSERT_EQ(upd.value().update.sets.size(), 1u);
  EXPECT_EQ(upd.value().update.sets[0].first, 4u);
}

TEST_F(BinderTest, TypeErrorsAreBindErrors) {
  Binder binder(&db_);
  // Arithmetic and negation need numbers, % needs integers, SUM and AVG a
  // numeric argument; an INSERT value or SET expression must fit its
  // column. Each of these used to abort the process at evaluation.
  const char* bad[] = {
      "SELECT sid, brand - 1 AS x FROM sales",
      "SELECT sid, -brand AS x FROM sales",
      "SELECT sid, 5.5 % 2 AS m FROM sales",
      "SELECT sum(brand) AS s FROM sales",
      "SELECT avg(brand) AS s FROM sales",
      "INSERT INTO sales VALUES (9, 'Zed', 'Z', 'oops', 1)",
      "UPDATE sales SET price = 'cheap' WHERE sid = 1",
      "UPDATE sales SET numSold = price * 1.5",
  };
  for (const char* sql : bad) {
    EXPECT_EQ(binder.BindSql(sql).status().code(), StatusCode::kBindError)
        << sql;
  }
  // A NULL fits anywhere; + also concatenates two strings.
  const char* good[] = {
      "SELECT sid, brand + productName AS s FROM sales",
      "SELECT sid, price % 7 AS m, -price AS n FROM sales",
      "SELECT sum(price + NULL) AS s FROM sales",
      "INSERT INTO sales VALUES (9, NULL, 'Z', NULL, NULL)",
      "UPDATE sales SET brand = NULL, numSold = numSold / 2",
  };
  for (const char* sql : good) {
    EXPECT_TRUE(binder.BindSql(sql).ok()) << sql;
  }
}

TEST_F(BinderTest, AppendixQueriesBind) {
  // Q_having family (A.1.1).
  MustBind(db_, "SELECT a, avg(b) AS ab FROM r500 GROUP BY a");
  MustBind(db_, "SELECT a, avg(b) AS ab FROM r500 GROUP BY a "
                "HAVING avg(c) < 1000");
  MustBind(db_,
           "SELECT a, avg(b) AS ab FROM r500 GROUP BY a "
           "HAVING avg(c) < 1000 AND avg(d) < 1200 AND avg(e) > 0 "
           "AND avg(f) > 0 AND avg(g) > 0 AND avg(h) > 0 AND avg(i) > 0 "
           "AND avg(j) > 0");
  // Q_topk (A.3).
  PlanPtr topk = MustBind(
      db_, "SELECT a, avg(b) AS ab FROM r500 GROUP BY a ORDER BY a LIMIT 10");
  EXPECT_EQ(topk->kind(), PlanKind::kTopK);
  // Q_endtoend (A.1.7).
  MustBind(db_, "SELECT a, avg(c) AS ac FROM r500 GROUP BY a "
                "HAVING avg(c) > 1684845 AND avg(c) < 1686014");
}

TEST(BinderJoinTest, JoinQueriesBind) {
  Database db;
  JoinPairSpec spec;
  spec.distinct_keys = 100;
  ASSERT_TRUE(CreateJoinPair(&db, spec).ok());
  // Q_join (A.1.3) with subquery + join.
  PlanPtr plan = MustBind(
      db,
      "SELECT a, avg(b) AS ab "
      "FROM (SELECT a AS a, b AS b, c AS c FROM t1gbjoin WHERE b < 1000) tt "
      "JOIN tjoinhelp ON (a = ttid) "
      "GROUP BY a HAVING avg(c) < 1000");
  // The join must be an equi-join (keys extracted from ON).
  bool found_join = false;
  VisitPlan(plan, [&](const PlanPtr& node) {
    if (node->kind() == PlanKind::kJoin) {
      found_join = true;
      EXPECT_EQ(static_cast<const JoinNode&>(*node).keys().size(), 1u);
    }
  });
  EXPECT_TRUE(found_join);
  // Q_joinsel (A.1.4): join + WHERE filter.
  MustBind(db, "SELECT a, avg(b) AS ab "
               "FROM t1gbjoin JOIN tjoinhelp ON (a = ttid) "
               "WHERE b < 1000 GROUP BY a HAVING avg(c) < 1000");
}

TEST(BinderTpchTest, TpchQueriesBind) {
  Database db;
  TpchSpec spec;
  spec.scale_factor = 0.001;
  ASSERT_TRUE(CreateTpchTables(&db, spec).ok());
  // Q_space = TPC-H Q10 with implicit comma joins (A.4).
  PlanPtr q10 = MustBind(db, TpchQ10Sql());
  EXPECT_EQ(q10->kind(), PlanKind::kTopK);
  // The comma joins must turn into equi-joins, not cross products.
  size_t joins = 0, keyed = 0;
  VisitPlan(q10, [&](const PlanPtr& node) {
    if (node->kind() == PlanKind::kJoin) {
      ++joins;
      if (!static_cast<const JoinNode&>(*node).keys().empty()) ++keyed;
    }
  });
  EXPECT_EQ(joins, 3u);
  EXPECT_EQ(keyed, 3u);
  MustBind(db, TpchQ18Sql(300));
  MustBind(db, TpchQ5Sql(1000));
}

TEST(BinderCrimesTest, CrimesQueriesBind) {
  Database db;
  CrimesSpec spec;
  spec.num_rows = 100;
  ASSERT_TRUE(CreateCrimesTable(&db, spec).ok());
  MustBind(db, CrimesCq1Sql());
  MustBind(db, CrimesCq2Sql(10));
}

}  // namespace
}  // namespace imp
