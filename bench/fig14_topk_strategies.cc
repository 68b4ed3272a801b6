// Figures 14 and 15: top-k maintenance under deletion strategies with
// truncated top-l state (Sec. 8.4.3).
//
// Q_topk (Appendix A.3): SELECT a, avg(b) FROM R GROUP BY a ORDER BY a
// LIMIT 10, table with 50k rows / 5k groups (~10 rows per group).
// Strategies: (1) always delete the 2 minimal groups, (2) R:M ratios 2:1
// and 4:1 mixing random deletions with minimal-group deletions, (3) purely
// random deletions. For l ∈ {20, 50, 100} we report total maintenance
// runtime and the number of forced full recaptures (Fig. 14) plus the
// operator-state memory trajectory (Fig. 15).

#include <cstdio>

#include "bench_util.h"

namespace imp {
namespace {

constexpr size_t kBaseRows = 50000;
constexpr size_t kGroups = 5000;

struct Env {
  Database db;
  PartitionCatalog catalog;
  SyntheticSpec spec;
  Rng rng{91};
  int64_t next_min_group = 0;

  void Setup() {
    spec.name = "t";
    spec.num_rows = bench::ScaledRows(kBaseRows);
    spec.num_groups = kGroups;
    IMP_CHECK(CreateSyntheticTable(&db, spec).ok());
    IMP_CHECK(catalog
                  .Register(RangePartition::EquiWidthInt("t", "a", 1, 0,
                                                         kGroups - 1, 100))
                  .ok());
  }

  /// DELETE FROM t WHERE `where`, at most `limit` rows.
  void Delete(const std::string& where, size_t limit = SIZE_MAX) {
    auto bound = Binder(&db).BindSql("DELETE FROM t WHERE " + where);
    IMP_CHECK(bound.ok());
    IMP_CHECK(DeleteWhere(&db, "t", bound.value().update.where, limit).ok());
  }

  void DeleteMinimalGroups() {
    int64_t lo = next_min_group;
    next_min_group += 2;
    Delete("a >= " + std::to_string(lo) + " AND a < " + std::to_string(lo + 2));
  }

  void DeleteRandom(size_t n) {
    int64_t group = rng.UniformInt(next_min_group,
                                   static_cast<int64_t>(kGroups) - 1);
    Delete("a >= " + std::to_string(group), n);
  }
};

struct StrategyResult {
  double total_seconds = 0;
  size_t recaptures = 0;
  std::vector<double> memory_kb;  // trajectory every 10 updates
};

StrategyResult RunStrategy(const std::string& strategy, size_t buffer,
                           size_t num_updates) {
  Env env;
  env.Setup();
  Binder binder(&env.db);
  auto plan = binder.BindQuery(
      "SELECT a, avg(b) AS ab FROM t GROUP BY a ORDER BY a LIMIT 10");
  IMP_CHECK_MSG(plan.ok(), plan.status().ToString().c_str());
  MaintainerOptions opts;
  opts.topk_buffer = buffer;
  Maintainer maintainer(&env.db, &env.catalog, plan.value(), opts);
  IMP_CHECK(maintainer.Initialize().ok());

  StrategyResult result;
  for (size_t u = 0; u < num_updates; ++u) {
    // Pick the update per strategy.
    if (strategy == "min-groups") {
      env.DeleteMinimalGroups();
    } else if (strategy == "random") {
      env.DeleteRandom(20);
    } else if (strategy == "2:1") {
      if (u % 3 < 2) {
        env.DeleteRandom(20);
      } else {
        env.DeleteMinimalGroups();
      }
    } else {  // "4:1"
      if (u % 5 < 4) {
        env.DeleteRandom(20);
      } else {
        env.DeleteMinimalGroups();
      }
    }
    result.total_seconds += bench::TimeSeconds([&] {
      auto r = maintainer.MaintainFromBackend();
      IMP_CHECK_MSG(r.ok(), r.status().ToString().c_str());
    });
    if (u % 10 == 0) {
      result.memory_kb.push_back(
          static_cast<double>(maintainer.StateBytes()) / 1024.0);
    }
  }
  result.recaptures = maintainer.stats().recaptures;
  return result;
}

}  // namespace
}  // namespace imp

int main() {
  using namespace imp;
  bench::PrintFigureHeader(
      "Figures 14 & 15",
      "top-k deletion strategies with truncated state (Q_topk)");
  const size_t buffers[] = {20, 50, 100};
  const char* strategies[] = {"min-groups", "2:1", "4:1", "random"};
  const size_t updates = 120;

  for (const char* strategy : strategies) {
    std::printf("\n-- strategy: %s (%zu updates) --\n", strategy, updates);
    bench::SeriesTable table(
        "l", {"total(ms)", "recaptures", "mem@start(KB)", "mem@mid(KB)",
              "mem@end(KB)"});
    for (size_t l : buffers) {
      StrategyResult r = RunStrategy(strategy, l, updates);
      double mem_start = r.memory_kb.empty() ? 0 : r.memory_kb.front();
      double mem_mid =
          r.memory_kb.empty() ? 0 : r.memory_kb[r.memory_kb.size() / 2];
      double mem_end = r.memory_kb.empty() ? 0 : r.memory_kb.back();
      table.AddRow(std::to_string(l),
                   {r.total_seconds * 1000.0,
                    static_cast<double>(r.recaptures), mem_start, mem_mid,
                    mem_end});
    }
    table.Print();
  }
  return 0;
}
