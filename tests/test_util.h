// Shared fixtures for IMP tests: the paper's running example database
// (Fig. 1 `sales`), the Fig. 5 two-table example, and small helpers.

#ifndef IMP_TESTS_TEST_UTIL_H_
#define IMP_TESTS_TEST_UTIL_H_

#include <string>
#include <vector>

#include "exec/executor.h"
#include "sketch/partition.h"
#include "sql/binder.h"
#include "storage/database.h"

namespace imp {

/// Fig. 1: sales(sid, brand, productName, price, numSold) with tuples
/// s1..s7. The paper's price partition φ_price has ranges
/// [1,600], [601,1000], [1001,1500], [1501,10000].
inline void LoadSalesExample(Database* db) {
  Schema schema;
  schema.AddColumn("sid", ValueType::kInt);
  schema.AddColumn("brand", ValueType::kString);
  schema.AddColumn("productName", ValueType::kString);
  schema.AddColumn("price", ValueType::kInt);
  schema.AddColumn("numSold", ValueType::kInt);
  IMP_CHECK(db->CreateTable("sales", schema).ok());
  std::vector<Tuple> rows = {
      {Value::Int(1), Value::String("Lenovo"),
       Value::String("ThinkPad T14s Gen 2"), Value::Int(349), Value::Int(1)},
      {Value::Int(2), Value::String("Lenovo"),
       Value::String("ThinkPad T14s Gen 2"), Value::Int(449), Value::Int(2)},
      {Value::Int(3), Value::String("Apple"),
       Value::String("MacBook Air 13-inch"), Value::Int(1199), Value::Int(1)},
      {Value::Int(4), Value::String("Apple"),
       Value::String("MacBook Pro 14-inch"), Value::Int(3875), Value::Int(1)},
      {Value::Int(5), Value::String("Dell"), Value::String("Dell XPS 13"),
       Value::Int(1345), Value::Int(1)},
      {Value::Int(6), Value::String("HP"), Value::String("HP ProBook 450 G9"),
       Value::Int(999), Value::Int(4)},
      {Value::Int(7), Value::String("HP"), Value::String("HP ProBook 550 G9"),
       Value::Int(899), Value::Int(1)},
  };
  IMP_CHECK(db->BulkLoad("sales", rows).ok());
}

/// The paper's price partition for `sales`: ρ1=[1,600], ρ2=[601,1000],
/// ρ3=[1001,1500], ρ4=[1501,10000]. Encoded as bounds {1,601,1001,1501,10000}
/// (fragment i = [b_i, b_{i+1}) except the last, inclusive).
inline RangePartition SalesPricePartition() {
  return RangePartition(
      "sales", "price", /*attr_index=*/3,
      {Value::Int(1), Value::Int(601), Value::Int(1001), Value::Int(1501),
       Value::Int(10000)});
}

/// The HAVING query Q_top of Ex. 1.1.
inline const char* kSalesQTop =
    "SELECT brand, sum(price * numSold) AS rev "
    "FROM sales GROUP BY brand HAVING sum(price * numSold) > 5000";

/// Fig. 5: R(a, b) = {(1,7),(9,9)}, S(c, d) = {(6,9),(7,8)} with partitions
/// φ_a = {f1=[1,5], f2=[6,10]} on R.a and φ_c = {g1=[1,6], g2=[7,15]} on S.c.
inline void LoadFig5Example(Database* db) {
  Schema r;
  r.AddColumn("a", ValueType::kInt);
  r.AddColumn("b", ValueType::kInt);
  IMP_CHECK(db->CreateTable("r", r).ok());
  IMP_CHECK(db->BulkLoad("r", {{Value::Int(1), Value::Int(7)},
                               {Value::Int(9), Value::Int(9)}})
                .ok());
  Schema s;
  s.AddColumn("c", ValueType::kInt);
  s.AddColumn("d", ValueType::kInt);
  IMP_CHECK(db->CreateTable("s", s).ok());
  IMP_CHECK(db->BulkLoad("s", {{Value::Int(6), Value::Int(9)},
                               {Value::Int(7), Value::Int(8)}})
                .ok());
}

inline RangePartition Fig5PartitionR() {
  return RangePartition("r", "a", 0,
                        {Value::Int(1), Value::Int(6), Value::Int(10)});
}

inline RangePartition Fig5PartitionS() {
  return RangePartition("s", "c", 0,
                        {Value::Int(1), Value::Int(7), Value::Int(15)});
}

/// The Fig. 5 query:
///   SELECT a, sum(c) AS sc
///   FROM (SELECT a, b FROM r WHERE a > 3) JOIN s ON (b = d)
///   GROUP BY a HAVING sum(c) > 5
inline const char* kFig5Query =
    "SELECT a, sum(c) AS sc "
    "FROM (SELECT a, b FROM r WHERE a > 3) tt JOIN s ON (b = d) "
    "GROUP BY a HAVING sum(c) > 5";

/// Bind a SQL query against `db`, aborting the test on failure.
inline PlanPtr MustBind(const Database& db, const std::string& sql) {
  Binder binder(&db);
  auto plan = binder.BindQuery(sql);
  IMP_CHECK_MSG(plan.ok(), plan.status().ToString().c_str());
  return plan.value();
}

/// DELETE FROM `table` WHERE `where` (SQL over the table's columns; empty:
/// every row) as one statement through the bound-predicate path, removing
/// at most `limit` rows, the first in scan order.
inline Result<uint64_t> Delete(Database* db, const std::string& table,
                               const std::string& where,
                               size_t limit = SIZE_MAX) {
  auto bound = Binder(db).BindSql("DELETE FROM " + table +
                                  (where.empty() ? "" : " WHERE " + where));
  IMP_CHECK_MSG(bound.ok(), bound.status().ToString().c_str());
  return DeleteWhere(db, table, bound.value().update.where, limit);
}

}  // namespace imp

#endif  // IMP_TESTS_TEST_UTIL_H_
