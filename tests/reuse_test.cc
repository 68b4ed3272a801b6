// Tests for the sketch reuse check (sketch/reuse.h) — the [37] technique
// deciding whether a sketch captured for Q' can answer Q.

#include <gtest/gtest.h>

#include "sketch/reuse.h"
#include "test_util.h"
#include "workload/synthetic.h"

namespace imp {
namespace {

class ReuseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    LoadSalesExample(&db_);
    SyntheticSpec spec;
    spec.name = "t";
    spec.num_rows = 100;
    spec.num_groups = 10;
    IMP_CHECK(CreateSyntheticTable(&db_, spec).ok());
    Schema gv;
    gv.AddColumn("g", ValueType::kInt);
    gv.AddColumn("v", ValueType::kInt);
    IMP_CHECK(db_.CreateTable("gv", gv).ok());
  }

  bool Reusable(const std::string& captured, const std::string& query) {
    return CanReuseSketch(MustBind(db_, captured), MustBind(db_, query));
  }

  Database db_;
};

TEST_F(ReuseTest, IdenticalQueryAlwaysReusable) {
  EXPECT_TRUE(Reusable(kSalesQTop, kSalesQTop));
}

TEST_F(ReuseTest, MonotoneSumHavingDirections) {
  const char* base =
      "SELECT brand, sum(price) AS s FROM sales GROUP BY brand "
      "HAVING sum(price) > 5000";
  // More selective (higher threshold): reusable.
  EXPECT_TRUE(Reusable(base,
                       "SELECT brand, sum(price) AS s FROM sales GROUP BY "
                       "brand HAVING sum(price) > 9000"));
  // Less selective: NOT reusable (would miss provenance).
  EXPECT_FALSE(Reusable(base,
                        "SELECT brand, sum(price) AS s FROM sales GROUP BY "
                        "brand HAVING sum(price) > 1000"));
}

TEST_F(ReuseTest, SumHavingLessThanDirections) {
  const char* base =
      "SELECT brand, sum(price) AS s FROM sales GROUP BY brand "
      "HAVING sum(price) < 5000";
  EXPECT_TRUE(Reusable(base,
                       "SELECT brand, sum(price) AS s FROM sales GROUP BY "
                       "brand HAVING sum(price) < 1000"));
  EXPECT_FALSE(Reusable(base,
                        "SELECT brand, sum(price) AS s FROM sales GROUP BY "
                        "brand HAVING sum(price) < 9000"));
}

TEST_F(ReuseTest, AvgHavingRequiresEqualThreshold) {
  // AVG is not monotone: differing thresholds are never reusable.
  const char* base =
      "SELECT brand, avg(price) AS p FROM sales GROUP BY brand "
      "HAVING avg(price) > 500";
  EXPECT_TRUE(Reusable(base, base));
  EXPECT_FALSE(Reusable(base,
                        "SELECT brand, avg(price) AS p FROM sales GROUP BY "
                        "brand HAVING avg(price) > 900"));
}

TEST_F(ReuseTest, CountHavingIsMonotone) {
  const char* base =
      "SELECT brand, count(*) AS n FROM sales GROUP BY brand "
      "HAVING count(*) > 1";
  EXPECT_TRUE(Reusable(base,
                       "SELECT brand, count(*) AS n FROM sales GROUP BY "
                       "brand HAVING count(*) > 3"));
  EXPECT_FALSE(Reusable(base,
                        "SELECT brand, count(*) AS n FROM sales GROUP BY "
                        "brand HAVING count(*) > 0"));
}

TEST_F(ReuseTest, WhereThresholdsUseSelectivityDirection) {
  const char* base =
      "SELECT a, sum(b) AS s FROM t WHERE b < 100 GROUP BY a "
      "HAVING sum(b) > 10";
  // Narrower WHERE: reusable.
  EXPECT_TRUE(Reusable(base,
                       "SELECT a, sum(b) AS s FROM t WHERE b < 50 GROUP BY a "
                       "HAVING sum(b) > 10"));
  // Wider WHERE: not reusable.
  EXPECT_FALSE(Reusable(base,
                        "SELECT a, sum(b) AS s FROM t WHERE b < 200 GROUP BY "
                        "a HAVING sum(b) > 10"));
}

TEST_F(ReuseTest, EqualityConstantsMustMatch) {
  const char* base = "SELECT sid FROM sales WHERE brand = 'HP'";
  EXPECT_TRUE(Reusable(base, base));
  EXPECT_FALSE(Reusable(base, "SELECT sid FROM sales WHERE brand = 'Dell'"));
}

TEST_F(ReuseTest, BetweenNarrowingAllowed) {
  const char* base = "SELECT sid FROM sales WHERE price BETWEEN 100 AND 2000";
  EXPECT_TRUE(
      Reusable(base, "SELECT sid FROM sales WHERE price BETWEEN 500 AND 1500"));
  EXPECT_FALSE(
      Reusable(base, "SELECT sid FROM sales WHERE price BETWEEN 50 AND 1500"));
  EXPECT_FALSE(
      Reusable(base, "SELECT sid FROM sales WHERE price BETWEEN 500 AND 5000"));
}

TEST_F(ReuseTest, DifferentTemplatesNeverReusable) {
  EXPECT_FALSE(Reusable("SELECT sid FROM sales WHERE price > 100",
                        "SELECT sid FROM sales WHERE numSold > 100"));
  EXPECT_FALSE(Reusable("SELECT sid FROM sales WHERE price > 100",
                        "SELECT sid, brand FROM sales WHERE price > 100"));
}

TEST_F(ReuseTest, TopKParametersMustMatch) {
  const char* base =
      "SELECT a, sum(b) AS s FROM t GROUP BY a ORDER BY s DESC LIMIT 5";
  EXPECT_TRUE(Reusable(base, base));
  EXPECT_FALSE(Reusable(base,
                        "SELECT a, sum(b) AS s FROM t GROUP BY a "
                        "ORDER BY s DESC LIMIT 7"));
  EXPECT_FALSE(Reusable(base,
                        "SELECT a, sum(b) AS s FROM t GROUP BY a "
                        "ORDER BY s ASC LIMIT 5"));
}

TEST_F(ReuseTest, ProjectionConstantsMustMatch) {
  // Constants inside projection arithmetic are part of the result shape.
  EXPECT_FALSE(Reusable("SELECT price * 2 AS p FROM sales WHERE price > 10",
                        "SELECT price * 3 AS p FROM sales WHERE price > 10"));
}

TEST_F(ReuseTest, MultipleConjunctsCheckedIndependently) {
  const char* base =
      "SELECT a, sum(b) AS s, count(*) AS n FROM t GROUP BY a "
      "HAVING sum(b) > 100 AND count(*) > 2";
  EXPECT_TRUE(Reusable(base,
                       "SELECT a, sum(b) AS s, count(*) AS n FROM t GROUP BY "
                       "a HAVING sum(b) > 200 AND count(*) > 2"));
  EXPECT_FALSE(Reusable(base,
                        "SELECT a, sum(b) AS s, count(*) AS n FROM t GROUP "
                        "BY a HAVING sum(b) > 200 AND count(*) > 1"));
}

// ---- Provenance containment -------------------------------------------------
// Each pair below returns, on some data, a row whose provenance lies outside
// the captured sketch; middleware_test runs the first three end to end.

TEST_F(ReuseTest, StricterWhereUnderNonMonotoneHavingRefused) {
  // Fewer rows shrink count(*), so a group can newly pass `count(*) < 2`.
  EXPECT_FALSE(Reusable(
      "SELECT g, count(*) AS n FROM gv WHERE v >= 1 GROUP BY g "
      "HAVING count(*) < 2",
      "SELECT g, count(*) AS n FROM gv WHERE v >= 3 GROUP BY g "
      "HAVING count(*) < 2"));
}

TEST_F(ReuseTest, StricterWhereUnderTopKRefused) {
  // Fewer rows reorder the sums, so another group can enter the top 1.
  EXPECT_FALSE(Reusable(
      "SELECT g, sum(v) AS s FROM gv WHERE v >= 1 GROUP BY g "
      "ORDER BY s DESC LIMIT 1",
      "SELECT g, sum(v) AS s FROM gv WHERE v >= 3 GROUP BY g "
      "ORDER BY s DESC LIMIT 1"));
}

TEST_F(ReuseTest, StricterHavingUnderTopKRefused) {
  // The stricter HAVING drops the captured top-1 group, and the next one
  // lies outside the sketch.
  EXPECT_FALSE(Reusable(
      "SELECT g, sum(v) AS s FROM gv GROUP BY g HAVING sum(v) > 0 "
      "ORDER BY s ASC LIMIT 1",
      "SELECT g, sum(v) AS s FROM gv GROUP BY g HAVING sum(v) > 5 "
      "ORDER BY s ASC LIMIT 1"));
}

TEST_F(ReuseTest, StricterConstantUnderNotRefused) {
  // NOT reverses the direction: `NOT (price > 600)` admits price 550.
  EXPECT_FALSE(Reusable("SELECT sid FROM sales WHERE NOT (price > 500)",
                        "SELECT sid FROM sales WHERE NOT (price > 600)"));
}

}  // namespace
}  // namespace imp
