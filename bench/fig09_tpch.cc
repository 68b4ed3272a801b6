// Figure 9 (a-c): incremental vs full maintenance on TPC-H-style data.
//  (a)/(b): maintenance runtime for realistic delta sizes (10..1000) at two
//           scale factors; FM as the baseline line.
//  (c):     insert+delete deltas at the larger scale factor.
//
// Queries: Q18-style (join + SUM HAVING), Q5-style (4-way join + HAVING),
// and Q10 (Q_space, top-20 by revenue). Partition: customer.c_custkey.

#include <cstdio>

#include "bench_util.h"
#include "workload/tpch.h"

namespace imp {
namespace {

struct TpchEnv {
  Database db;
  PartitionCatalog catalog;
  Rng rng{99};
  int64_t max_custkey = 0;
  int64_t next_orderkey = 0;
};

void Setup(TpchEnv* env, double sf) {
  TpchSpec spec;
  spec.scale_factor = sf;
  IMP_CHECK(CreateTpchTables(&env->db, spec).ok());
  env->max_custkey =
      static_cast<int64_t>(env->db.GetTable("customer")->NumRows());
  env->next_orderkey =
      static_cast<int64_t>(env->db.GetTable("orders")->NumRows()) + 1;
  IMP_CHECK(env->catalog
                .Register(RangePartition::EquiWidthInt(
                    "customer", "c_custkey", 0, 1, env->max_custkey, 100))
                .ok());
}

/// Insert `n` lineitems attached to fresh orders (half orders, half items
/// when the delta must span both tables).
void InsertDelta(TpchEnv* env, size_t n) {
  std::vector<Tuple> orders;
  std::vector<Tuple> items;
  size_t num_orders = n / 4 + 1;
  for (size_t i = 0; i < num_orders; ++i) {
    orders.push_back(
        TpchOrderRow(env->next_orderkey + static_cast<int64_t>(i),
                     env->max_custkey, &env->rng));
  }
  for (size_t i = 0; i < n; ++i) {
    int64_t ok = env->next_orderkey +
                 env->rng.UniformInt(0, static_cast<int64_t>(num_orders) - 1);
    items.push_back(TpchLineitemRow(ok, static_cast<int64_t>(i + 1), &env->rng));
  }
  env->next_orderkey += static_cast<int64_t>(num_orders);
  IMP_CHECK(env->db.Insert("orders", orders).ok());
  IMP_CHECK(env->db.Insert("lineitem", items).ok());
}

void DeleteDelta(TpchEnv* env, size_t n) {
  IMP_CHECK(DeleteWhere(&env->db, "lineitem", /*where=*/nullptr, n).ok());
}

void RunScale(const char* label, double sf) {
  TpchEnv env;
  Setup(&env, sf);
  std::printf("\n-- %s: customers=%lld orders=%lld lineitems=%lld --\n", label,
              static_cast<long long>(env.db.GetTable("customer")->NumRows()),
              static_cast<long long>(env.db.GetTable("orders")->NumRows()),
              static_cast<long long>(env.db.GetTable("lineitem")->NumRows()));

  struct QueryDef {
    const char* name;
    std::string sql;
  };
  const QueryDef queries[] = {
      {"Q18-having", TpchQ18Sql(200)},
      {"Q5-having", TpchQ5Sql(1000000)},
      {"Q10-topk", TpchQ10Sql()},
  };
  const size_t deltas[] = {10, 50, 100, 500, 1000};

  bench::SeriesTable table(
      "query", {"FM(ms)", "d=10", "d=50", "d=100", "d=500", "d=1000"});
  for (const QueryDef& q : queries) {
    Binder binder(&env.db);
    auto plan = binder.BindQuery(q.sql);
    IMP_CHECK_MSG(plan.ok(), plan.status().ToString().c_str());
    Maintainer maintainer(&env.db, &env.catalog, plan.value());
    IMP_CHECK(maintainer.Initialize().ok());
    std::vector<double> row;
    row.push_back(bench::TimeFullMaintain(env.db, env.catalog, plan.value()) *
                  1000.0);
    for (size_t d : deltas) {
      double secs =
          bench::TimeMaintain(&maintainer, [&] { InsertDelta(&env, d); });
      row.push_back(secs * 1000.0);
    }
    table.AddRow(q.name, row);
  }
  table.Print();

  // (c) insert + delete mixes on the HAVING query.
  std::printf("\n-- %s insert+delete (Q18-having) --\n", label);
  Binder binder(&env.db);
  auto plan = binder.BindQuery(TpchQ18Sql(200));
  IMP_CHECK(plan.ok());
  Maintainer maintainer(&env.db, &env.catalog, plan.value());
  IMP_CHECK(maintainer.Initialize().ok());
  bench::SeriesTable mixed("delta", {"insert(ms)", "delete(ms)", "mixed(ms)"});
  for (size_t d : deltas) {
    double ins =
        bench::TimeMaintain(&maintainer, [&] { InsertDelta(&env, d); });
    double del =
        bench::TimeMaintain(&maintainer, [&] { DeleteDelta(&env, d); });
    double mix = bench::TimeMaintain(&maintainer, [&] {
      InsertDelta(&env, d / 2);
      DeleteDelta(&env, d / 2);
    });
    mixed.AddRow(std::to_string(d),
                 {ins * 1000.0, del * 1000.0, mix * 1000.0});
  }
  mixed.Print();
}

}  // namespace
}  // namespace imp

int main() {
  using namespace imp;
  bench::PrintFigureHeader("Figure 9",
                           "TPC-H: incremental vs full maintenance");
  double base_sf = 0.01 * bench::Scale();
  RunScale("SF-small", base_sf);
  RunScale("SF-large (10x)", base_sf * 10);
  return 0;
}
