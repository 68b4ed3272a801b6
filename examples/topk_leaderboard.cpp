// Top-k leaderboard example: a top-10 query over aggregated scores with
// inserts and deletions, demonstrating the top-l buffer optimization
// (Sec. 7.2) and the transparent recapture when a truncated buffer runs
// dry (Sec. 8.4.3).

#include <cstdio>

#include "exec/executor.h"
#include "imp/maintainer.h"
#include "sql/binder.h"
#include "workload/synthetic.h"

using namespace imp;

int main() {
  Database db;
  SyntheticSpec spec;
  spec.name = "scores";
  spec.num_rows = 20000;
  spec.num_groups = 2000;  // 2000 players
  IMP_CHECK(CreateSyntheticTable(&db, spec).ok());

  PartitionCatalog catalog;
  IMP_CHECK(catalog
                .Register(RangePartition::EquiWidthInt("scores", "a", 1, 0,
                                                       1999, 64))
                .ok());

  Binder binder(&db);
  auto plan = binder.BindQuery(
      "SELECT a, sum(b) AS total FROM scores GROUP BY a "
      "ORDER BY total DESC LIMIT 10");
  IMP_CHECK(plan.ok());

  // Two maintainers: exact state vs a truncated top-50 buffer.
  MaintainerOptions exact_opts;
  MaintainerOptions buffered_opts;
  buffered_opts.topk_buffer = 50;
  Maintainer exact(&db, &catalog, plan.value(), exact_opts);
  Maintainer buffered(&db, &catalog, plan.value(), buffered_opts);
  IMP_CHECK(exact.Initialize().ok());
  IMP_CHECK(buffered.Initialize().ok());
  std::printf("state after build: exact %zu KB vs top-50 buffer %zu KB\n",
              exact.StateBytes() / 1024, buffered.StateBytes() / 1024);

  Rng rng(17);
  int64_t next_id = 20000;
  for (int round = 1; round <= 10; ++round) {
    // New scores arrive; occasionally a leading player's rows are wiped
    // (account resets), which can exhaust the truncated buffer.
    std::vector<Tuple> rows;
    for (int i = 0; i < 50; ++i) {
      rows.push_back(SyntheticRow(spec, next_id++, &rng));
    }
    IMP_CHECK(db.Insert("scores", rows).ok());
    if (round % 3 == 0) {
      int64_t player = rng.UniformInt(0, 1999);
      auto wipe = binder.BindSql("DELETE FROM scores WHERE a = " +
                                 std::to_string(player));
      IMP_CHECK(wipe.ok());
      IMP_CHECK(
          DeleteWhere(&db, "scores", wipe.value().update.where).ok());
    }
    IMP_CHECK(exact.MaintainFromBackend().ok());
    IMP_CHECK(buffered.MaintainFromBackend().ok());
    IMP_CHECK_MSG(exact.sketch().fragments == buffered.sketch().fragments,
                  "sketches diverged");
    std::printf("round %2d: sketch fragments=%zu, buffered recaptures=%zu\n",
                round, buffered.sketch().NumFragments(),
                buffered.stats().recaptures);
  }

  std::printf("\nfinal state: exact %zu KB vs buffered %zu KB "
              "(same sketches, %zu transparent recaptures)\n",
              exact.StateBytes() / 1024, buffered.StateBytes() / 1024,
              buffered.stats().recaptures);
  return 0;
}
