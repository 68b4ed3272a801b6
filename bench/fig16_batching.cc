// Figure 16: cost of maintaining 1000 updates under eager maintenance,
// varying the batch size (Sec. 8.5). Small batches pay the per-round fixed
// costs (notably the join round trip) many times; the paper's take-away —
// batch sizes below ~50 significantly increase total maintenance cost —
// must reproduce.
//
// Extended for the batched maintenance pipeline: a multi-sketch section
// maintains 8 sketches over one shared table and compares the serial
// per-sketch baseline (one delta-log scan + annotation per sketch) against
// the shared-fetch pipeline (one scan + one annotation per round, borrowed
// zero-copy views per sketch) and its parallel fan-out. Results must be
// bit-identical across configurations. Speedup bar: the delta-log scan
// push-down made the per-sketch baseline's scans O(window) instead of
// O(log length), so the shared-fetch headroom is the annotation+copy
// savings alone; the bar is >= 1.1x.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench_util.h"

namespace imp {
namespace {

constexpr size_t kUpdates = 1000;

double RunAggregateQuery(size_t batch_size) {
  Database db;
  SyntheticSpec spec;
  spec.name = "edb1";
  spec.num_rows = bench::ScaledRows(50000);
  spec.num_groups = 500;
  IMP_CHECK(CreateSyntheticTable(&db, spec).ok());

  ImpConfig config;
  config.mode = ExecutionMode::kIncremental;
  config.strategy = MaintenanceStrategy::kEager;
  config.eager_batch_size = batch_size;
  ImpSystem system(&db, config);
  IMP_CHECK(system
                .RegisterPartition(RangePartition::EquiWidthInt(
                    "edb1", "a", 1, 0, 499, 100))
                .ok());
  // Create the sketch first (Q_endtoend-style template); threshold keeps
  // roughly half the groups.
  int64_t threshold =
      static_cast<int64_t>(spec.num_rows / 500) * 3 * 500 / 4;
  IMP_CHECK(system
                .Query("SELECT a, sum(c) AS sc FROM edb1 GROUP BY a "
                       "HAVING sum(c) > " + std::to_string(threshold))
                .ok());

  auto gen = SyntheticInsertGen("edb1", 1, 500,
                                static_cast<int64_t>(spec.num_rows));
  Rng rng(1);
  for (size_t u = 0; u < kUpdates; ++u) {
    IMP_CHECK(system.UpdateBound(gen(rng)).ok());
  }
  IMP_CHECK(system.MaintainAll().ok());  // flush the last partial batch
  return system.stats().maintain_seconds;
}

double RunJoinQuery(size_t batch_size) {
  Database db;
  JoinPairSpec spec;
  spec.left_name = "t";
  spec.right_name = "h";
  spec.distinct_keys = bench::ScaledRows(10000);
  spec.left_per_key = 1;
  spec.right_per_key = 5;
  spec.selectivity = 0.05;
  IMP_CHECK(CreateJoinPair(&db, spec).ok());

  ImpConfig config;
  config.mode = ExecutionMode::kIncremental;
  config.strategy = MaintenanceStrategy::kEager;
  config.eager_batch_size = batch_size;
  ImpSystem system(&db, config);
  IMP_CHECK(system
                .RegisterPartition(RangePartition::EquiWidthInt(
                    "t", "a", 1, 0,
                    static_cast<int64_t>(spec.distinct_keys) - 1, 100))
                .ok());
  // The computed join key (ttid + 0) keeps the delegated join on the
  // side-scan path: every maintenance round pays the backend round trip,
  // which is the fixed per-batch cost the paper's Fig. 16 isolates.
  IMP_CHECK(system
                .Query("SELECT a, sum(b) AS sb "
                       "FROM t JOIN (SELECT ttid + 0 AS ttid, w AS w FROM h) "
                       "hh ON (a = ttid) "
                       "WHERE b >= 0 GROUP BY a HAVING sum(b) > 0")
                .ok());

  Rng rng(2);
  int64_t next_id = static_cast<int64_t>(spec.distinct_keys);
  for (size_t u = 0; u < kUpdates; ++u) {
    BoundUpdate update;
    update.kind = BoundUpdate::Kind::kInsert;
    update.table = "t";
    update.rows.push_back(JoinLeftRow(
        spec, next_id++,
        rng.UniformInt(0, static_cast<int64_t>(spec.distinct_keys) - 1),
        &rng));
    IMP_CHECK(system.UpdateBound(update).ok());
  }
  IMP_CHECK(system.MaintainAll().ok());
  return system.stats().maintain_seconds;
}

// ---- Multi-sketch batched maintenance --------------------------------------

constexpr size_t kMultiSketches = 8;

struct MultiSketchRun {
  double maintain_seconds = 0;  ///< wall clock of the measured MaintainAll
  std::vector<std::vector<size_t>> sketches;  ///< per-entry fragment sets
  size_t delta_scans = 0;
  size_t annotation_passes = 0;
  size_t annotation_hits = 0;
  // Zero-copy pipeline counters of the measured round (the queries are
  // filterless-scan sketches, so the shared-fetch pipeline must report
  // rows_copied == 0: every sketch consumes a borrowed view).
  size_t deltas_borrowed = 0;
  size_t deltas_materialized = 0;
  size_t rows_copied = 0;
};

/// Maintain `kMultiSketches` sketches (distinct aggregate columns, one
/// shared table) for one stale window sitting at the end of a long delta
/// log — the regime where per-sketch re-scans of the log are pure
/// redundancy. `shared_fetch`/`threads` select the pipeline.
MultiSketchRun RunMultiSketch(bool shared_fetch, size_t threads) {
  Database db;
  SyntheticSpec spec;
  spec.name = "edb1";
  spec.num_rows = bench::ScaledRows(20000);
  spec.num_groups = 500;
  IMP_CHECK(CreateSyntheticTable(&db, spec).ok());

  ImpConfig config;
  config.mode = ExecutionMode::kIncremental;
  config.strategy = MaintenanceStrategy::kLazy;
  config.shared_delta_fetch = shared_fetch;
  config.maintenance_threads = threads;
  ImpSystem system(&db, config);
  IMP_CHECK(system
                .RegisterPartition(RangePartition::EquiWidthInt(
                    "edb1", "a", 1, 0, 499, 100))
                .ok());

  // 8 distinct templates -> 8 sketch entries over the same (table,
  // partition); thresholds keep the HAVING clause selective.
  const char* metrics[kMultiSketches] = {"b", "c", "d", "e",
                                         "f", "g", "h", "i"};
  int64_t rows_per_group = static_cast<int64_t>(spec.num_rows / 500) + 1;
  for (const char* col : metrics) {
    std::string q = "SELECT a, sum(" + std::string(col) + ") AS s FROM edb1 "
                    "GROUP BY a HAVING sum(" + std::string(col) + ") > " +
                    std::to_string(rows_per_group * 400);
    auto result = system.Query(q);
    IMP_CHECK_MSG(result.ok(), result.status().ToString().c_str());
  }
  IMP_CHECK(system.sketches().size() == kMultiSketches);

  // Grow the delta log (4000 maintained update statements, ~200k records),
  // then leave a fresh stale window of 2 statements for the measured round
  // — the steady state of frequent maintenance against a long-lived log,
  // where each per-sketch ScanDelta re-walks the whole log for a small
  // window and re-annotates the same rows the other 7 sketches already
  // annotated.
  auto gen = SyntheticInsertGen("edb1", 50, 500,
                                static_cast<int64_t>(spec.num_rows));
  Rng rng(7);
  for (size_t u = 0; u < 4000; ++u) {
    IMP_CHECK(system.UpdateBound(gen(rng)).ok());
  }
  IMP_CHECK(system.MaintainAll().ok());
  for (size_t u = 0; u < 2; ++u) IMP_CHECK(system.UpdateBound(gen(rng)).ok());

  ImpSystemStats before = system.stats();
  MultiSketchRun run;
  run.maintain_seconds =
      bench::TimeSeconds([&] { IMP_CHECK(system.MaintainAll().ok()); });
  const ImpSystemStats& after = system.stats();
  run.delta_scans = after.delta_scans - before.delta_scans;
  run.annotation_passes = after.annotation_passes - before.annotation_passes;
  run.annotation_hits = after.annotation_hits - before.annotation_hits;
  run.deltas_borrowed = after.deltas_borrowed - before.deltas_borrowed;
  run.deltas_materialized =
      after.deltas_materialized - before.deltas_materialized;
  run.rows_copied = after.rows_copied - before.rows_copied;
  for (SketchEntry* entry : system.sketches().AllEntries()) {
    run.sketches.push_back(entry->sketch.fragments.SetBits());
  }
  return run;
}

/// Median maintain time over Reps() rebuilds of the same deterministic
/// workload; the sketch/stat fields come from the first run.
MultiSketchRun MedianMultiSketch(bool shared_fetch, size_t threads) {
  MultiSketchRun first = RunMultiSketch(shared_fetch, threads);
  std::vector<double> times = {first.maintain_seconds};
  for (int r = 1; r < bench::Reps(); ++r) {
    times.push_back(RunMultiSketch(shared_fetch, threads).maintain_seconds);
  }
  std::sort(times.begin(), times.end());
  first.maintain_seconds = times[times.size() / 2];
  return first;
}

}  // namespace
}  // namespace imp

int main() {
  using namespace imp;
  bench::PrintFigureHeader(
      "Figure 16", "eager maintenance: total cost of 1000 updates vs batch size");
  const size_t batch_sizes[] = {1, 5, 10, 50, 100, 250, 1000};
  bench::SeriesTable table("batch",
                           {"Q_endtoend total(ms)", "Q_joinsel total(ms)"});
  for (size_t b : batch_sizes) {
    double agg = RunAggregateQuery(b);
    double join = RunJoinQuery(b);
    table.AddRow(std::to_string(b), {agg * 1000.0, join * 1000.0});
  }
  table.Print();
  std::printf(
      "\nTake-away check: batches below ~50 should cost significantly more "
      "than larger batches, especially for the join query.\n");

  // -- Multi-sketch: shared delta fetch & annotation + parallel fan-out ------
  std::printf(
      "\n-- batched maintenance of %zu sketches over one shared table --\n",
      kMultiSketches);
  MultiSketchRun serial = MedianMultiSketch(/*shared_fetch=*/false, 1);
  MultiSketchRun shared = MedianMultiSketch(/*shared_fetch=*/true, 1);
  MultiSketchRun parallel = MedianMultiSketch(/*shared_fetch=*/true, 0);

  bool identical = serial.sketches == shared.sketches &&
                   serial.sketches == parallel.sketches;
  double speedup_shared =
      shared.maintain_seconds > 0
          ? serial.maintain_seconds / shared.maintain_seconds
          : 0.0;
  double speedup_parallel =
      parallel.maintain_seconds > 0
          ? serial.maintain_seconds / parallel.maintain_seconds
          : 0.0;

  bench::SeriesTable multi("pipeline",
                           {"maintain(ms)", "scans", "annotations",
                            "cache hits", "borrowed", "rows copied",
                            "speedup"});
  multi.AddRow("per-sketch serial",
               {serial.maintain_seconds * 1000.0,
                static_cast<double>(serial.delta_scans),
                static_cast<double>(serial.annotation_passes),
                static_cast<double>(serial.annotation_hits),
                static_cast<double>(serial.deltas_borrowed),
                static_cast<double>(serial.rows_copied), 1.0});
  multi.AddRow("shared fetch",
               {shared.maintain_seconds * 1000.0,
                static_cast<double>(shared.delta_scans),
                static_cast<double>(shared.annotation_passes),
                static_cast<double>(shared.annotation_hits),
                static_cast<double>(shared.deltas_borrowed),
                static_cast<double>(shared.rows_copied), speedup_shared});
  multi.AddRow("shared + parallel",
               {parallel.maintain_seconds * 1000.0,
                static_cast<double>(parallel.delta_scans),
                static_cast<double>(parallel.annotation_passes),
                static_cast<double>(parallel.annotation_hits),
                static_cast<double>(parallel.deltas_borrowed),
                static_cast<double>(parallel.rows_copied),
                speedup_parallel});
  multi.Print();
  std::printf("sketches bit-identical across pipelines: %s\n",
              identical ? "yes" : "NO — BUG");
  std::printf("acceptance (>= 1.1x shared vs per-sketch): %s (%.2fx)\n",
              speedup_shared >= 1.1 ? "PASS" : "FAIL", speedup_shared);
  std::printf(
      "zero-copy (filterless scans, shared fetch): rows_copied=%zu "
      "materializations=%zu borrowed_views=%zu — %s\n",
      shared.rows_copied, shared.deltas_materialized, shared.deltas_borrowed,
      shared.rows_copied == 0 ? "PASS" : "FAIL");

  // Exit code gates on the deterministic properties: bit-identical
  // sketches and the shared-work counters (1 scan serving all sketches,
  // one cache hit per sketch view) — these are load-independent, unlike
  // the wall-clock ratio. The >= 1.1x speedup bar additionally gates when
  // IMP_BENCH_ENFORCE_SPEEDUP is set (for perf-controlled hardware; the
  // bar is calibrated for default IMP_BENCH_SCALE against the PR 2
  // baseline, whose O(window) delta scans leave less redundancy to share).
  bool counters_ok = shared.delta_scans == 1 &&
                     serial.delta_scans == kMultiSketches &&
                     shared.annotation_hits == kMultiSketches;
  if (!counters_ok) std::printf("shared-work counters: UNEXPECTED — BUG\n");
  // Zero-copy gate: every query is a filterless-scan sketch, so the shared
  // (and parallel) pipelines must serve one borrowed view per sketch and
  // copy no rows at all.
  bool zero_copy_ok = shared.rows_copied == 0 &&
                      shared.deltas_materialized == 0 &&
                      parallel.rows_copied == 0 &&
                      shared.deltas_borrowed >= kMultiSketches;
  if (!zero_copy_ok) std::printf("zero-copy counters: UNEXPECTED — BUG\n");
  const char* enforce = std::getenv("IMP_BENCH_ENFORCE_SPEEDUP");
  bool speedup_ok =
      enforce == nullptr || enforce[0] == '\0' || speedup_shared >= 1.1;
  return identical && counters_ok && zero_copy_ok && speedup_ok ? 0 : 1;
}
