// Figure 10 (a-b): incremental vs full maintenance on the Crimes dataset.
//  (a): CQ1 (crimes per beat/year) and CQ2 (areas with > threshold crimes),
//       realistic delta sizes 10..1000, FM baseline.
//  (b): insert and delete deltas.
// Partition: crimes.beat (group-aligned for both queries).

#include <cstdio>

#include "bench_util.h"
#include "workload/crimes.h"

namespace imp {
namespace {

struct CrimesEnv {
  Database db;
  PartitionCatalog catalog;
  CrimesSpec spec;
  Rng rng{5};
  int64_t next_id = 0;
};

void Setup(CrimesEnv* env) {
  env->spec.num_rows = bench::ScaledRows(200000);
  IMP_CHECK(CreateCrimesTable(&env->db, env->spec).ok());
  env->next_id = static_cast<int64_t>(env->spec.num_rows);
  IMP_CHECK(env->catalog
                .Register(RangePartition::EquiWidthInt(
                    "crimes", "beat", 1, 1, env->spec.num_beats, 50))
                .ok());
}

void InsertDelta(CrimesEnv* env, size_t n) {
  std::vector<Tuple> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    rows.push_back(CrimesRow(env->spec, env->next_id++, &env->rng));
  }
  IMP_CHECK(env->db.Insert("crimes", rows).ok());
}

void DeleteDelta(CrimesEnv* env, size_t n) {
  IMP_CHECK(DeleteWhere(&env->db, "crimes", /*where=*/nullptr, n).ok());
}

}  // namespace
}  // namespace imp

int main() {
  using namespace imp;
  bench::PrintFigureHeader("Figure 10",
                           "Crimes dataset: incremental vs full maintenance");
  CrimesEnv env;
  Setup(&env);
  std::printf("rows=%lld beats=%lld\n",
              static_cast<long long>(env.db.GetTable("crimes")->NumRows()),
              static_cast<long long>(env.spec.num_beats));

  const size_t deltas[] = {10, 50, 100, 500, 1000};
  struct QueryDef {
    const char* name;
    std::string sql;
  };
  // CQ2's threshold is scaled with the table so some areas pass.
  int64_t cq2_threshold =
      static_cast<int64_t>(env.spec.num_rows / env.spec.num_beats);
  const QueryDef queries[] = {
      {"CQ1", CrimesCq1Sql()},
      {"CQ2", CrimesCq2Sql(cq2_threshold)},
  };

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
      row.push_back(
          bench::TimeMaintain(&maintainer, [&] { InsertDelta(&env, d); }) *
          1000.0);
    }
    table.AddRow(q.name, row);
  }
  table.Print();

  std::printf("\n-- (b) insertion vs deletion (CQ2) --\n");
  Binder binder(&env.db);
  auto plan = binder.BindQuery(CrimesCq2Sql(cq2_threshold));
  IMP_CHECK(plan.ok());
  Maintainer maintainer(&env.db, &env.catalog, plan.value());
  IMP_CHECK(maintainer.Initialize().ok());
  bench::SeriesTable mixed("delta", {"insert(ms)", "delete(ms)"});
  for (size_t d : deltas) {
    double ins =
        bench::TimeMaintain(&maintainer, [&] { InsertDelta(&env, d); });
    double del =
        bench::TimeMaintain(&maintainer, [&] { DeleteDelta(&env, d); });
    mixed.AddRow(std::to_string(d), {ins * 1000.0, del * 1000.0});
  }
  mixed.Print();
  return 0;
}
