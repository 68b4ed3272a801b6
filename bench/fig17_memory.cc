// Figure 17: memory usage of incremental operator state.
//  (a) Q_groups: aggregation state vs number of groups (stable per group
//      count; grows with delta only through touched-group bookkeeping).
//  (b) Q_joinsel: join (bloom) + aggregation state across delta sizes.

#include <cstdio>

#include "bench_util.h"

namespace imp {
namespace {

void RunGroups() {
  std::printf("\n-- Fig 17a: Q_groups state memory --\n");
  const size_t group_counts[] = {50, 1000, 5000, 50000};
  bench::SeriesTable table(
      "#groups", {"after build (KB)", "after d=1000 (KB)"});
  for (size_t groups : group_counts) {
    Database db;
    SyntheticSpec spec;
    spec.name = "t";
    spec.num_rows = bench::ScaledRows(100000);
    spec.num_groups = groups;
    IMP_CHECK(CreateSyntheticTable(&db, spec).ok());
    PartitionCatalog catalog;
    IMP_CHECK(catalog
                  .Register(RangePartition::EquiWidthInt(
                      "t", "a", 1, 0, static_cast<int64_t>(groups) - 1, 100))
                  .ok());
    Binder binder(&db);
    auto plan = binder.BindQuery(
        "SELECT a, avg(b) AS ab FROM t GROUP BY a HAVING avg(c) > 0");
    IMP_CHECK(plan.ok());
    Maintainer maintainer(&db, &catalog, plan.value());
    IMP_CHECK(maintainer.Initialize().ok());
    double before = static_cast<double>(maintainer.StateBytes()) / 1024.0;
    Rng rng(3);
    std::vector<Tuple> rows;
    for (int i = 0; i < 1000; ++i) {
      rows.push_back(SyntheticRow(spec, 1000000 + i, &rng));
    }
    IMP_CHECK(db.Insert("t", rows).ok());
    IMP_CHECK(maintainer.MaintainFromBackend().ok());
    double after = static_cast<double>(maintainer.StateBytes()) / 1024.0;
    table.AddRow(std::to_string(groups), {before, after});
  }
  table.Print();
}

void RunJoin() {
  std::printf("\n-- Fig 17b: Q_joinsel state memory --\n");
  const double selectivities[] = {0.01, 0.05, 0.10};
  bench::SeriesTable table("selectivity",
                           {"after build (KB)", "after d=1000 (KB)"});
  for (double sel : selectivities) {
    Database db;
    JoinPairSpec spec;
    spec.left_name = "t";
    spec.right_name = "h";
    spec.distinct_keys = bench::ScaledRows(10000);
    spec.left_per_key = 1;
    spec.right_per_key = 10;
    spec.selectivity = sel;
    IMP_CHECK(CreateJoinPair(&db, spec).ok());
    PartitionCatalog catalog;
    IMP_CHECK(catalog
                  .Register(RangePartition::EquiWidthInt(
                      "t", "a", 1, 0,
                      static_cast<int64_t>(spec.distinct_keys) - 1, 100))
                  .ok());
    Binder binder(&db);
    auto plan = binder.BindQuery(
        "SELECT a, avg(b) AS ab FROM t JOIN h ON (a = ttid) "
        "WHERE b >= 0 GROUP BY a HAVING avg(c) >= 0");
    IMP_CHECK(plan.ok());
    Maintainer maintainer(&db, &catalog, plan.value());
    IMP_CHECK(maintainer.Initialize().ok());
    double before = static_cast<double>(maintainer.StateBytes()) / 1024.0;
    Rng rng(4);
    std::vector<Tuple> rows;
    int64_t next_id = static_cast<int64_t>(spec.distinct_keys);
    for (int i = 0; i < 1000; ++i) {
      rows.push_back(JoinLeftRow(
          spec, next_id++,
          rng.UniformInt(0, static_cast<int64_t>(spec.distinct_keys) - 1),
          &rng));
    }
    IMP_CHECK(db.Insert("t", rows).ok());
    IMP_CHECK(maintainer.MaintainFromBackend().ok());
    double after = static_cast<double>(maintainer.StateBytes()) / 1024.0;
    char label[16];
    std::snprintf(label, sizeof(label), "%.0f%%", sel * 100);
    table.AddRow(label, {before, after});
    // The delegated join probes the backend's snapshot index; its shards
    // are backend memory, not operator state — report them side by side so
    // the split stays visible.
    std::printf("  sel %s: backend index %.1f KB (table data %.1f KB)\n",
                label, static_cast<double>(db.IndexBytes()) / 1024.0,
                static_cast<double>(db.MemoryBytes()) / 1024.0);
  }
  table.Print();
}

// Base-table bytes/row of the typed ColumnVector layout (unboxed
// int64/double payloads, dictionary-or-flat string arena).
void RunStorageLayout() {
  std::printf("\n-- Fig 17c: base table bytes/row --\n");
  bench::SeriesTable table("table", {"B/row"});
  auto report = [&](const char* label, const Database& db, const char* name) {
    const Table* t = db.GetTable(name);
    table.AddRow(label, {static_cast<double>(t->MemoryBytes()) /
                         static_cast<double>(t->NumRows())});
  };
  {
    // Numeric: the synthetic Q_groups table (INT columns only).
    Database db;
    SyntheticSpec spec;
    spec.name = "t";
    spec.num_rows = bench::ScaledRows(100000);
    IMP_CHECK(CreateSyntheticTable(&db, spec).ok());
    report("numeric", db, "t");
  }
  {
    // String-heavy: a low-cardinality tag column (dictionary) plus a wide
    // distinct message column (shared arena).
    Database db;
    Schema schema;
    schema.AddColumn("id", ValueType::kInt);
    schema.AddColumn("tag", ValueType::kString);
    schema.AddColumn("msg", ValueType::kString);
    IMP_CHECK(db.CreateTable("s", schema).ok());
    Rng rng(5);
    std::vector<Tuple> rows;
    size_t n = bench::ScaledRows(100000);
    rows.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      rows.push_back(
          Tuple{Value::Int(static_cast<int64_t>(i)),
                Value::String("tag" + std::to_string(rng.UniformInt(0, 99))),
                Value::String("message-payload-" +
                              std::to_string(rng.UniformInt(0, 1 << 20)))});
    }
    IMP_CHECK(db.BulkLoad("s", rows).ok());
    report("strings", db, "s");
  }
  table.Print();
}

}  // namespace
}  // namespace imp

int main() {
  using namespace imp;
  bench::PrintFigureHeader("Figure 17", "incremental operator state memory");
  RunGroups();
  RunJoin();
  RunStorageLayout();
  return 0;
}
