// Quickstart: the paper's running example (Fig. 1 / Ex. 1.1 / Ex. 1.2)
// end to end against the public API.
//
//   1. create the sales table and load the seven example rows,
//   2. register the price range partition φ_price,
//   3. run Q_top through the middleware — a provenance sketch is captured
//      and the query is answered through it,
//   4. insert s8 (which makes the sketch stale),
//   5. run Q_top again — IMP incrementally maintains the sketch and the
//      new HP group appears in the answer,
//   6. delete s8 again — HP's revenue falls back to 4895 and the group
//      leaves the answer.
//
// Every answer is compared with the expected one it prints; the program
// exits 1 when one differs.

#include <cstdio>

#include "middleware/imp_system.h"

using namespace imp;

namespace {

/// Print `rel` under `title` and compare it, as a bag, with `expected`.
bool CheckAnswer(const char* title, const Relation& rel,
                 std::vector<Tuple> expected) {
  std::printf("%s\n", title);
  for (size_t c = 0; c < rel.schema.size(); ++c) {
    std::printf("  %-12s", rel.schema.column(c).name.c_str());
  }
  std::printf("\n");
  for (const Tuple& row : rel.rows) {
    for (const Value& v : row) std::printf("  %-12s", v.ToString().c_str());
    std::printf("\n");
  }
  Relation want;
  want.rows = std::move(expected);
  if (rel.SameBag(want)) return true;
  std::fprintf(stderr, "unexpected answer for: %s\n", title);
  return false;
}

Tuple Revenue(const char* brand, int64_t rev) {
  return {Value::String(brand), Value::Int(rev)};
}

}  // namespace

int main() {
  // 1. Backend database with the Fig. 1 sales table.
  Database db;
  Schema schema;
  schema.AddColumn("sid", ValueType::kInt);
  schema.AddColumn("brand", ValueType::kString);
  schema.AddColumn("productName", ValueType::kString);
  schema.AddColumn("price", ValueType::kInt);
  schema.AddColumn("numSold", ValueType::kInt);
  IMP_CHECK(db.CreateTable("sales", schema).ok());
  IMP_CHECK(db.BulkLoad(
                  "sales",
                  {{Value::Int(1), Value::String("Lenovo"),
                    Value::String("ThinkPad T14s Gen 2"), Value::Int(349),
                    Value::Int(1)},
                   {Value::Int(2), Value::String("Lenovo"),
                    Value::String("ThinkPad T14s Gen 2"), Value::Int(449),
                    Value::Int(2)},
                   {Value::Int(3), Value::String("Apple"),
                    Value::String("MacBook Air 13-inch"), Value::Int(1199),
                    Value::Int(1)},
                   {Value::Int(4), Value::String("Apple"),
                    Value::String("MacBook Pro 14-inch"), Value::Int(3875),
                    Value::Int(1)},
                   {Value::Int(5), Value::String("Dell"),
                    Value::String("Dell XPS 13"), Value::Int(1345),
                    Value::Int(1)},
                   {Value::Int(6), Value::String("HP"),
                    Value::String("HP ProBook 450 G9"), Value::Int(999),
                    Value::Int(4)},
                   {Value::Int(7), Value::String("HP"),
                    Value::String("HP ProBook 550 G9"), Value::Int(899),
                    Value::Int(1)}})
                .ok());

  // 2. IMP middleware with the paper's price partition
  //    φ_price = {[1,600], [601,1000], [1001,1500], [1501,10000]}.
  ImpSystem imp(&db);
  IMP_CHECK(imp.RegisterPartition(RangePartition(
                                      "sales", "price", 3,
                                      {Value::Int(1), Value::Int(601),
                                       Value::Int(1001), Value::Int(1501),
                                       Value::Int(10000)}))
                .ok());

  const char* q_top =
      "SELECT brand, sum(price * numSold) AS rev "
      "FROM sales GROUP BY brand HAVING sum(price * numSold) > 5000";

  // 3. First run: captures the sketch P = {ρ3, ρ4} and answers through it.
  bool ok = true;
  auto result = imp.Query(q_top);
  IMP_CHECK(result.ok());
  ok &= CheckAnswer("\nQ_top before the update (expected: Apple 5074):",
                    result.value(), {Revenue("Apple", 5074)});
  auto entries = imp.sketches().AllEntries();
  std::printf("\ncaptured sketch: %s (fragments of the global id space)\n",
              entries[0]->sketch.ToString().c_str());

  // 4. Ex. 1.2: insert s8. The HP group's revenue rises to 6194.
  IMP_CHECK(imp.Update("INSERT INTO sales VALUES "
                       "(8, 'HP', 'HP ProBook 650 G10', 1299, 1)")
                .ok());
  std::printf("\ninserted s8 = (8, HP, HP ProBook 650 G10, 1299, 1)\n");

  // 5. Second run: the stale sketch is incrementally maintained (gains ρ2)
  //    and the query now returns HP as well.
  result = imp.Query(q_top);
  IMP_CHECK(result.ok());
  ok &= CheckAnswer("\nQ_top after the update (expected: Apple 5074, HP 6194):",
                    result.value(),
                    {Revenue("Apple", 5074), Revenue("HP", 6194)});
  std::printf("\nmaintained sketch: %s\n",
              entries[0]->sketch.ToString().c_str());

  // 6. Delete s8 again: the deletion is a negative delta, so maintenance
  //    drops HP's revenue back to 4895, below the threshold.
  IMP_CHECK(imp.Update("DELETE FROM sales WHERE sid = 8").ok());
  std::printf("\ndeleted s8\n");
  result = imp.Query(q_top);
  IMP_CHECK(result.ok());
  ok &= CheckAnswer("\nQ_top after the delete (expected: Apple 5074):",
                    result.value(), {Revenue("Apple", 5074)});
  std::printf(
      "\nstats: %zu capture(s), %zu incremental maintenance run(s), "
      "%zu sketch use(s)\n",
      imp.stats().sketch_captures, imp.stats().maintenances,
      imp.stats().sketch_uses);
  return ok ? 0 : 1;
}
