// Unit tests for the common kernel: values, schemas, tuples, bitvectors,
// bloom filters, status/result and check macros.

#include <gtest/gtest.h>

#include <set>
#include <unordered_set>

#include "common/bitvector.h"
#include "common/bloom_filter.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/schema.h"
#include "common/status.h"
#include "common/tuple.h"
#include "common/value.h"

namespace imp {
namespace {

// ---- Value -----------------------------------------------------------------

TEST(ValueTest, TypeTags) {
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_TRUE(Value::Int(3).is_int());
  EXPECT_TRUE(Value::Double(3.5).is_double());
  EXPECT_TRUE(Value::String("x").is_string());
  EXPECT_TRUE(Value::Int(3).is_numeric());
  EXPECT_TRUE(Value::Double(3.5).is_numeric());
  EXPECT_FALSE(Value::String("x").is_numeric());
}

TEST(ValueTest, NumericCrossTypeComparison) {
  EXPECT_EQ(Value::Int(2).Compare(Value::Double(2.0)), 0);
  EXPECT_LT(Value::Int(2).Compare(Value::Double(2.5)), 0);
  EXPECT_GT(Value::Double(3.0).Compare(Value::Int(2)), 0);
}

TEST(ValueTest, StringComparison) {
  EXPECT_LT(Value::String("abc").Compare(Value::String("abd")), 0);
  EXPECT_EQ(Value::String("abc"), Value::String("abc"));
  // ISO dates order lexicographically == chronologically.
  EXPECT_LT(Value::String("1994-12-01").Compare(Value::String("1995-03-01")),
            0);
}

TEST(ValueTest, CrossTypeClassOrderingIsTotal) {
  // NULL < numeric < string.
  EXPECT_LT(Value::Null().Compare(Value::Int(0)), 0);
  EXPECT_LT(Value::Int(1000).Compare(Value::String("")), 0);
}

TEST(ValueTest, Arithmetic) {
  EXPECT_EQ(Value::Add(Value::Int(2), Value::Int(3)), Value::Int(5));
  EXPECT_EQ(Value::Add(Value::Int(2), Value::Double(0.5)), Value::Double(2.5));
  EXPECT_EQ(Value::Mul(Value::Int(4), Value::Int(5)), Value::Int(20));
  EXPECT_EQ(Value::Sub(Value::Int(4), Value::Int(5)), Value::Int(-1));
  EXPECT_EQ(Value::Div(Value::Int(7), Value::Int(2)), Value::Int(3));
  EXPECT_EQ(Value::Div(Value::Double(7), Value::Int(2)), Value::Double(3.5));
  EXPECT_EQ(Value::Mod(Value::Int(7), Value::Int(4)), Value::Int(3));
  EXPECT_EQ(Value::Neg(Value::Int(7)), Value::Int(-7));
}

TEST(ValueTest, NullPropagatesThroughArithmetic) {
  EXPECT_TRUE(Value::Add(Value::Null(), Value::Int(1)).is_null());
  EXPECT_TRUE(Value::Mul(Value::Int(1), Value::Null()).is_null());
}

TEST(ValueTest, DivisionByZeroYieldsNull) {
  EXPECT_TRUE(Value::Div(Value::Int(1), Value::Int(0)).is_null());
  EXPECT_TRUE(Value::Div(Value::Double(1), Value::Double(0)).is_null());
  EXPECT_TRUE(Value::Mod(Value::Int(1), Value::Int(0)).is_null());
}

TEST(ValueTest, HashConsistentWithEquality) {
  // 2 == 2.0 must hash equally.
  EXPECT_EQ(Value::Int(2).Hash(), Value::Double(2.0).Hash());
  EXPECT_EQ(Value::String("abc").Hash(), Value::String("abc").Hash());
  EXPECT_NE(Value::Int(2).Hash(), Value::Int(3).Hash());
}

TEST(ValueTest, IsTrue) {
  EXPECT_FALSE(Value::Null().IsTrue());
  EXPECT_FALSE(Value::Int(0).IsTrue());
  EXPECT_TRUE(Value::Int(1).IsTrue());
  EXPECT_TRUE(Value::Double(0.1).IsTrue());
  EXPECT_FALSE(Value::String("").IsTrue());
}

TEST(ValueTest, ToString) {
  EXPECT_EQ(Value::Null().ToString(), "NULL");
  EXPECT_EQ(Value::Int(42).ToString(), "42");
  EXPECT_EQ(Value::String("hi").ToString(), "'hi'");
}

// ---- Tuple helpers ----------------------------------------------------------

TEST(TupleTest, HashAndEquality) {
  Tuple a{Value::Int(1), Value::String("x")};
  Tuple b{Value::Int(1), Value::String("x")};
  Tuple c{Value::Int(2), Value::String("x")};
  EXPECT_TRUE(TupleEq{}(a, b));
  EXPECT_FALSE(TupleEq{}(a, c));
  EXPECT_EQ(TupleHash{}(a), TupleHash{}(b));
  std::unordered_set<Tuple, TupleHash, TupleEq> set;
  set.insert(a);
  set.insert(b);
  set.insert(c);
  EXPECT_EQ(set.size(), 2u);
}

TEST(TupleTest, LexicographicOrder) {
  Tuple a{Value::Int(1), Value::Int(2)};
  Tuple b{Value::Int(1), Value::Int(3)};
  EXPECT_TRUE(TupleLess{}(a, b));
  EXPECT_FALSE(TupleLess{}(b, a));
  EXPECT_FALSE(TupleLess{}(a, a));
}

// ---- Schema -----------------------------------------------------------------

TEST(SchemaTest, IndexOfPlainAndQualified) {
  Schema s;
  s.AddColumn("r.a", ValueType::kInt);
  s.AddColumn("s.a", ValueType::kInt);
  s.AddColumn("b", ValueType::kString);
  EXPECT_EQ(s.IndexOf("r.a"), 0u);
  EXPECT_EQ(s.IndexOf("s.a"), 1u);
  EXPECT_EQ(s.IndexOf("b"), 2u);
  EXPECT_FALSE(s.IndexOf("a").has_value());  // ambiguous
  EXPECT_FALSE(s.IndexOf("zzz").has_value());
}

TEST(SchemaTest, Concat) {
  Schema l, r;
  l.AddColumn("a", ValueType::kInt);
  r.AddColumn("b", ValueType::kDouble);
  Schema joined = Schema::Concat(l, r);
  ASSERT_EQ(joined.size(), 2u);
  EXPECT_EQ(joined.column(0).name, "a");
  EXPECT_EQ(joined.column(1).name, "b");
}

// ---- BitVector --------------------------------------------------------------

TEST(BitVectorTest, SetTestReset) {
  BitVector bv(130);
  EXPECT_EQ(bv.Count(), 0u);
  bv.Set(0);
  bv.Set(64);
  bv.Set(129);
  EXPECT_TRUE(bv.Test(0));
  EXPECT_TRUE(bv.Test(64));
  EXPECT_TRUE(bv.Test(129));
  EXPECT_FALSE(bv.Test(1));
  EXPECT_EQ(bv.Count(), 3u);
  bv.Reset(64);
  EXPECT_FALSE(bv.Test(64));
  EXPECT_EQ(bv.Count(), 2u);
}

TEST(BitVectorTest, TestBeyondSizeIsFalse) {
  BitVector bv(10);
  EXPECT_FALSE(bv.Test(1000));
}

TEST(BitVectorTest, UnionAndIntersection) {
  BitVector a(100), b(200);
  a.Set(3);
  a.Set(99);
  b.Set(3);
  b.Set(150);
  BitVector u = a;
  u.UnionWith(b);
  EXPECT_TRUE(u.Test(3));
  EXPECT_TRUE(u.Test(99));
  EXPECT_TRUE(u.Test(150));
  EXPECT_EQ(u.Count(), 3u);
  BitVector i = a;
  i.IntersectWith(b);
  EXPECT_EQ(i.Count(), 1u);
  EXPECT_TRUE(i.Test(3));
}

TEST(BitVectorTest, SubtractAndCovers) {
  BitVector a(100), b(100);
  a.Set(1);
  a.Set(2);
  b.Set(2);
  EXPECT_TRUE(a.Covers(b));
  EXPECT_FALSE(b.Covers(a));
  a.SubtractWith(b);
  EXPECT_TRUE(a.Test(1));
  EXPECT_FALSE(a.Test(2));
}

TEST(BitVectorTest, EqualityIgnoresUniverseSize) {
  BitVector a(10), b(1000);
  a.Set(3);
  b.Set(3);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.Hash(), b.Hash());
  b.Set(700);
  EXPECT_NE(a, b);
}

TEST(BitVectorTest, SetBitsAscending) {
  BitVector bv(300);
  bv.Set(299);
  bv.Set(0);
  bv.Set(65);
  std::vector<size_t> bits = bv.SetBits();
  ASSERT_EQ(bits.size(), 3u);
  EXPECT_EQ(bits[0], 0u);
  EXPECT_EQ(bits[1], 65u);
  EXPECT_EQ(bits[2], 299u);
}

TEST(BitVectorTest, OrderingIsTotal) {
  BitVector a(10), b(10), c(10);
  a.Set(1);
  b.Set(2);
  c.Set(1);
  std::set<BitVector> set{a, b, c};
  EXPECT_EQ(set.size(), 2u);
}

// Tail-word boundaries matter for the bulk word operations: sizes around
// multiples of 64 exercise full words, exact boundaries and partial tails.
TEST(BitVectorTest, SetAllRespectsTailWordBoundaries) {
  for (size_t n : {0u, 1u, 63u, 64u, 65u, 127u, 128u, 129u, 300u}) {
    BitVector bv(n);
    bv.SetAll();
    EXPECT_EQ(bv.Count(), n) << "n=" << n;
    for (size_t i = 0; i < n; ++i) EXPECT_TRUE(bv.Test(i)) << "n=" << n;
    EXPECT_FALSE(bv.Test(n));  // tail stays zero
    // Equality/hash contract: trailing zero words must not leak set bits.
    BitVector manual(n);
    for (size_t i = 0; i < n; ++i) manual.Set(i);
    EXPECT_EQ(bv, manual) << "n=" << n;
    EXPECT_EQ(bv.Hash(), manual.Hash()) << "n=" << n;
    bv.ClearAll();
    EXPECT_EQ(bv.Count(), 0u);
    EXPECT_EQ(bv, BitVector(n));
  }
}

TEST(BitVectorTest, FlipAllIsComplementWithinSize) {
  for (size_t n : {1u, 63u, 64u, 65u, 128u, 200u}) {
    BitVector bv(n);
    bv.Set(0);
    if (n > 3) bv.Set(n - 1);
    BitVector flipped = bv;
    flipped.FlipAll();
    EXPECT_EQ(flipped.Count(), n - bv.Count()) << "n=" << n;
    for (size_t i = 0; i < n; ++i) {
      EXPECT_NE(bv.Test(i), flipped.Test(i)) << "n=" << n << " i=" << i;
    }
    EXPECT_FALSE(flipped.Test(n));  // tail stays zero
    flipped.FlipAll();
    EXPECT_EQ(flipped, bv);
  }
}

TEST(BitVectorTest, ForEachSetBitVisitsAscending) {
  BitVector bv(200);
  std::vector<size_t> expect = {0, 1, 63, 64, 65, 127, 128, 199};
  for (size_t i : expect) bv.Set(i);
  std::vector<size_t> seen;
  bv.ForEachSetBit([&](size_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, expect);
  BitVector empty(100);
  empty.ForEachSetBit([&](size_t) { FAIL() << "no bits set"; });
}

TEST(BitVectorTest, ForEachSetBitSafeAgainstResetDuringIteration) {
  // The kernel's scalar-remainder loop Resets survivors mid-iteration;
  // iteration works over word copies, so every originally-set bit is still
  // visited exactly once.
  BitVector bv(130);
  for (size_t i = 0; i < 130; i += 3) bv.Set(i);
  size_t visited = 0;
  bv.ForEachSetBit([&](size_t i) {
    ++visited;
    bv.Reset(i);
  });
  EXPECT_EQ(visited, (130 + 2) / 3);
  EXPECT_EQ(bv.Count(), 0u);
}

TEST(BitVectorTest, CountAndMatchesExplicitIntersection) {
  for (size_t n : {1u, 64u, 65u, 300u}) {
    BitVector a(n), b(n + 64);  // different word counts on purpose
    for (size_t i = 0; i < n; i += 2) a.Set(i);
    for (size_t i = 0; i < n + 64; i += 3) b.Set(i);
    BitVector both = a;
    both.IntersectWith(b);
    EXPECT_EQ(a.CountAnd(b), both.Count()) << "n=" << n;
    EXPECT_EQ(b.CountAnd(a), both.Count()) << "n=" << n;
  }
}

// ---- BloomFilter ------------------------------------------------------------

TEST(BloomFilterTest, NoFalseNegatives) {
  BloomFilter bf(1000);
  for (uint64_t i = 0; i < 1000; ++i) bf.AddHash(HashInt64(i));
  for (uint64_t i = 0; i < 1000; ++i) {
    EXPECT_TRUE(bf.MayContainHash(HashInt64(i)));
  }
}

TEST(BloomFilterTest, LowFalsePositiveRate) {
  BloomFilter bf(1000, 10);
  for (uint64_t i = 0; i < 1000; ++i) bf.AddHash(HashInt64(i));
  size_t fp = 0;
  const size_t kProbes = 10000;
  for (uint64_t i = 1000000; i < 1000000 + kProbes; ++i) {
    if (bf.MayContainHash(HashInt64(i))) ++fp;
  }
  // ~1% expected at 10 bits/key; allow generous slack.
  EXPECT_LT(fp, kProbes / 20);
}

TEST(BloomFilterTest, BatchedProbeMatchesSingleProbeBitForBit) {
  Rng rng(7);
  BloomFilter bf(500, 8);
  for (uint64_t i = 0; i < 500; ++i) bf.AddHash(HashInt64(i * 13));
  // Mix of present and absent keys, including batch sizes that straddle
  // word boundaries of the output bitmap.
  for (size_t n : {0u, 1u, 63u, 64u, 65u, 1000u}) {
    std::vector<uint64_t> hashes(n);
    for (size_t i = 0; i < n; ++i) {
      hashes[i] = HashInt64(static_cast<int64_t>(
          rng.UniformInt(0, 2000) * 13));
    }
    BitVector out;
    bf.MayContainHashes(hashes.data(), hashes.size(), &out);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(out.Test(i), bf.MayContainHash(hashes[i]))
          << "n=" << n << " i=" << i;
    }
    EXPECT_FALSE(out.Test(n));
  }
}

TEST(HashTest, HashColumnBatchMatchesRowAtATimeFold) {
  // Column-batch hashing must reproduce the row-at-a-time seed+fold
  // exactly — IncJoin's bloom keys depend on it.
  const uint64_t kSeed = 0x2545f4914f6cdd1dULL;
  std::vector<Tuple> rows;
  Rng rng(11);
  for (int i = 0; i < 100; ++i) {
    rows.push_back(Tuple{Value::Int(rng.UniformInt(0, 50)),
                         Value::String(std::to_string(i % 7)),
                         Value::Double(static_cast<double>(i) / 3)});
  }
  const std::vector<size_t> key_cols = {2, 0};  // order matters
  std::vector<uint64_t> batch(rows.size(), kSeed);
  for (size_t col : key_cols) {
    HashColumnBatch(
        rows.size(), [&](size_t i) { return rows[i][col].Hash(); }, &batch);
  }
  for (size_t i = 0; i < rows.size(); ++i) {
    uint64_t h = kSeed;
    for (size_t col : key_cols) h = HashCombine(h, rows[i][col].Hash());
    EXPECT_EQ(batch[i], h) << "row " << i;
  }
}

// ---- Status / Result ---------------------------------------------------------

TEST(StatusTest, OkAndError) {
  EXPECT_TRUE(Status::OK().ok());
  Status s = Status::ParseError("boom");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kParseError);
  EXPECT_EQ(s.ToString(), "ParseError: boom");
}

TEST(ResultTest, ValueAndStatus) {
  Result<int> ok(7);
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 7);
  Result<int> err(Status::NotFound("x"));
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kNotFound);
}

// ---- Check macros ------------------------------------------------------------

TEST(CheckDeathTest, CheckMsgPrintsItsMessage) {
  // The message may be a C string or a std::string, such as the temporary
  // Status::ToString() returns.
  Status s = Status::NotFound("table ghost");
  EXPECT_DEATH(IMP_CHECK_MSG(s.ok(), s.ToString()),
               "IMP_CHECK failed: s\\.ok\\(\\) \\(NotFound: table ghost\\)");
  EXPECT_DEATH(IMP_CHECK_MSG(false, "plain message"),
               "IMP_CHECK failed: false \\(plain message\\)");
}

// ---- Rng ---------------------------------------------------------------------

TEST(RngTest, DeterministicWithSeed) {
  Rng a(99), b(99);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.UniformInt(0, 1000000), b.UniformInt(0, 1000000));
  }
}

TEST(RngTest, UniformIntInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(5, 10);
    EXPECT_GE(v, 5);
    EXPECT_LE(v, 10);
  }
}

}  // namespace
}  // namespace imp
