// Operator microbenchmarks, two parts:
//
//   1. The kernel smoke (always built, runs first): the filter-annotate,
//      delta-filter, aggregate-build and join-key-hash hot paths over the
//      typed chunk columns, timed in rows/sec and merged into
//      BENCH_PR7.json. Correctness is HARD-GATED against test-side
//      oracles — row-at-a-time Expr::Eval filtering plus per-row
//      annotation, the row-at-a-time Executor::ExecuteAnnotated, folded
//      Value::Hash — and the compiled kernels must actually run
//      (vectorized_batches > 0), or the binary exits non-zero.
//
//   2. google-benchmark per-operator scaling checks matching the
//      complexity analysis of Sec. 5.3 — O(n) stateless operators, O(n·p)
//      aggregation, O(log l) ordered-state updates, O(1) bloom probes,
//      O(log p) fragment lookup. Compiled only when Google Benchmark is
//      available (IMP_HAVE_GOOGLE_BENCHMARK); pass --smoke_only to skip.

#ifdef IMP_HAVE_GOOGLE_BENCHMARK
#include <benchmark/benchmark.h>
#endif

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/bloom_filter.h"
#include "common/hash.h"
#include "exec/executor.h"
#include "exec/vector_kernels.h"
#include "imp/inc_aggregate.h"
#include "imp/inc_operators.h"
#include "imp/inc_topk.h"
#include "sketch/partition.h"
#include "workload/synthetic.h"

namespace imp {
namespace {

ExprPtr ColA() { return MakeColumnRef(1, "a", ValueType::kInt); }
ExprPtr IntLit(int64_t v) { return MakeLiteral(Value::Int(v)); }

/// The IN-partition-bucket shape the sketch use-rewrite emits: an OR of
/// ranges over the partition column, selective like a real sketch's
/// fragment set (~6% of the domain here). Compile() fuses it into one
/// sorted range-set probe, so this predicate must be fully vectorized.
ExprPtr RangeSetPredicate() {
  std::vector<ExprPtr> ranges;
  ranges.push_back(MakeBetween(ColA(), IntLit(40), IntLit(60)));
  ranges.push_back(MakeBetween(ColA(), IntLit(200), IntLit(205)));
  ranges.push_back(MakeBinary(BinaryOp::kEq, ColA(), IntLit(400)));
  return MakeDisjunction(std::move(ranges));
}

bool SameAnnotatedRelation(const AnnotatedRelation& a,
                           const AnnotatedRelation& b) {
  if (a.rows.size() != b.rows.size()) return false;
  for (size_t i = 0; i < a.rows.size(); ++i) {
    if (!(a.rows[i].row == b.rows[i].row)) return false;
    if (a.rows[i].sketch.SetBits() != b.rows[i].sketch.SetBits()) return false;
  }
  return true;
}

/// (row, fragments) pairs in a canonical order, for unordered outputs.
std::vector<std::pair<Tuple, std::vector<size_t>>> SortedRows(
    const AnnotatedRelation& rel) {
  std::vector<std::pair<Tuple, std::vector<size_t>>> out;
  out.reserve(rel.rows.size());
  for (const AnnotatedRow& ar : rel.rows) {
    out.emplace_back(ar.row, ar.sketch.SetBits());
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return TupleLess()(a.first, b.first);
  });
  return out;
}

int Fail(const char* what) {
  std::fprintf(stderr, "FAIL (kernel smoke): %s\n", what);
  return 1;
}

}  // namespace

/// Runs the kernel smoke; returns non-zero on any gate failure.
int RunKernelSmoke() {
  bench::PrintFigureHeader(
      "Kernels", "Columnar operator kernels: rows/sec, oracle-checked");

  // Unclustered base data on purpose: with cluster_by_a the zone maps
  // would let the scan skip most chunks outright, measuring pruning rather
  // than the kernels.
  SyntheticSpec spec;
  spec.name = "t";
  spec.num_rows = bench::ScaledRows(200000);
  spec.num_groups = 500;
  spec.cluster_by_a = false;
  Database db;
  IMP_CHECK(CreateSyntheticTable(&db, spec).ok());
  PartitionCatalog catalog;
  IMP_CHECK(catalog
                .Register(RangePartition::EquiWidthInt(
                    "t", "a", 1, 0,
                    static_cast<int64_t>(spec.num_groups) - 1, 64))
                .ok());
  const Schema& schema = db.GetTable("t")->schema();
  auto annotate = [&](const std::string& table, const Tuple& row,
                      BitVector* out) { catalog.AnnotateRow(table, row, out); };

  ExprPtr pred = RangeSetPredicate();
  if (!PredicateKernel::Compile(pred).fully_vectorized()) {
    return Fail("range-set predicate did not compile fully vectorized");
  }

  bench::JsonReport report("operator_kernels", "BENCH_PR7.json");
  bench::SeriesTable table("operator", {"Mrows/s"});
  const double rows = static_cast<double>(spec.num_rows);

  // ---- filter-annotate (IncScan::Build capture path) -----------------------
  // The hot path of sketch capture: scan every base chunk, filter, and
  // annotate survivors with their partition fragment.
  MaintainStats stats;
  IncScan scan("t", pred, &db, &catalog, schema, &stats);
  Result<AnnotatedRelation> built = scan.Build(DeltaContext{});
  IMP_CHECK(built.ok());
  AnnotatedRelation oracle;
  db.GetTable("t")->Snapshot()->ForEachRow([&](const Tuple& row) {
    if (!pred->Eval(row).IsTrue()) return;
    AnnotatedRow ar{row, BitVector()};
    catalog.AnnotateRow("t", row, &ar.sketch);
    oracle.rows.push_back(std::move(ar));
  });
  if (!SameAnnotatedRelation(built.value(), oracle)) {
    return Fail("filter-annotate differs from the row-at-a-time oracle");
  }
  if (stats.vectorized_batches == 0) {
    return Fail("filter-annotate: vectorized_batches == 0 (kernels idle)");
  }
  double t_fa = bench::MedianSeconds([&] {
    Result<AnnotatedRelation> r = scan.Build(DeltaContext{});
    IMP_CHECK(r.ok());
  });
  table.AddRow("filter_annotate", {rows / t_fa / 1e6});
  report.Add("filter_annotate", "rows_per_sec", rows / t_fa);
  report.Add("filter_annotate", "vectorized_batches",
             static_cast<double>(stats.vectorized_batches));
  report.Add("filter_annotate", "scalar_fallback_rows",
             static_cast<double>(stats.scalar_fallback_rows));

  // ---- delta filter (IncScan::Process push-down path) ----------------------
  // The maintenance-round hot path: refine a borrowed delta batch's
  // selection bitmap with the pushed-down predicate.
  Rng rng(11);
  uint64_t from = db.CurrentVersion();
  {
    std::vector<Tuple> fresh;
    size_t n = bench::ScaledRows(60000);
    fresh.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      fresh.push_back(SyntheticRow(
          spec, static_cast<int64_t>(1000000 + i), &rng));
    }
    IMP_CHECK(db.Insert("t", fresh).ok());
  }
  DeltaContext ctx =
      MakeDeltaContext({db.ScanDelta("t", from, db.CurrentVersion())}, catalog);
  const DeltaBatch* delta = ctx.FindBatch("t");
  stats.Reset();
  Result<DeltaBatch> filtered = scan.Process(ctx);
  IMP_CHECK(filtered.ok());
  std::vector<Tuple> kept, expected;
  filtered.value().ForEachRow(
      [&](const AnnotatedDeltaRow& r) { kept.push_back(r.row); });
  delta->ForEachRow([&](const AnnotatedDeltaRow& r) {
    if (pred->Eval(r.row).IsTrue()) expected.push_back(r.row);
  });
  if (kept != expected) {
    return Fail("delta-filter differs from the row-at-a-time oracle");
  }
  if (stats.vectorized_batches == 0) {
    return Fail("delta-filter: vectorized_batches == 0 (kernels idle)");
  }
  double t_df = bench::MedianSeconds([&] {
    Result<DeltaBatch> r = scan.Process(ctx);
    IMP_CHECK(r.ok());
  });
  const double drows = static_cast<double>(delta->size());
  table.AddRow("delta_filter", {drows / t_df / 1e6});
  report.Add("delta_filter", "rows_per_sec", drows / t_df);

  // ---- aggregate build (scan + group-by over the full table) ---------------
  // SUM/COUNT group-by straight off the chunk columns (TryBuildColumnar);
  // the row-at-a-time Executor::ExecuteAnnotated over the same plan is the
  // oracle.
  std::vector<ExprPtr> groups = {MakeColumnRef(1, "a", ValueType::kInt)};
  std::vector<AggSpec> aggs = {
      {AggFunc::kSum, MakeColumnRef(2, "b", ValueType::kInt), "s"},
      {AggFunc::kCount, nullptr, "n"}};
  PlanPtr agg_plan = MakeAggregate(MakeScan("t", schema), groups, {"a"}, aggs);
  auto build_agg = [&]() -> Result<AnnotatedRelation> {
    IncAggregate agg(std::make_unique<IncScan>("t", nullptr, &db, &catalog,
                                               schema, &stats),
                     groups, aggs, agg_plan->output_schema(),
                     IncAggregate::Options{}, &stats);
    return agg.Build(DeltaContext{});
  };
  Result<AnnotatedRelation> agg_built = build_agg();
  Result<AnnotatedRelation> agg_oracle =
      Executor(&db).ExecuteAnnotated(agg_plan, annotate);
  IMP_CHECK(agg_built.ok() && agg_oracle.ok());
  if (SortedRows(agg_built.value()) != SortedRows(agg_oracle.value())) {
    return Fail("aggregate build differs from Executor::ExecuteAnnotated");
  }
  const double all_rows = static_cast<double>(db.GetTable("t")->NumRows());
  double t_ag = bench::MedianSeconds([&] { IMP_CHECK(build_agg().ok()); });
  table.AddRow("aggregate_build", {all_rows / t_ag / 1e6});
  report.Add("aggregate", "rows_per_sec", all_rows / t_ag);

  // ---- join-key hashing over chunk columns ---------------------------------
  // Batch key hashing straight off the typed arrays (NULL-aware, dictionary
  // strings hashed once per distinct) over a mixed int/double/string key
  // table; folding Value::Hash per cell is the oracle.
  {
    Schema kschema;
    kschema.AddColumn("kid", ValueType::kInt);
    kschema.AddColumn("kv", ValueType::kDouble);
    kschema.AddColumn("kt", ValueType::kString);
    IMP_CHECK(db.CreateTable("k", kschema).ok());
    Rng krng(9);
    size_t n = bench::ScaledRows(200000);
    std::vector<Tuple> krows;
    krows.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      krows.push_back(Tuple{
          Value::Int(static_cast<int64_t>(i)),
          krng.Chance(0.1) ? Value::Null()
                           : Value::Double(krng.UniformDouble(-1e6, 1e6)),
          Value::String("k" + std::to_string(krng.UniformInt(0, 49)))});
    }
    IMP_CHECK(db.BulkLoad("k", krows).ok());
    constexpr uint64_t kKeySeed = 0x2545f4914f6cdd1dULL;  // IncJoin's seed
    auto snap = db.GetTable("k")->Snapshot();
    std::vector<uint64_t> hashes;
    auto batch_hashes = [&] {
      hashes.clear();
      for (const auto& chunk : snap->chunks()) {
        std::vector<uint64_t> h(chunk->num_rows(), kKeySeed);
        for (size_t c = 0; c < 3; ++c) {
          chunk->column(c).AppendKeyHashes(chunk->num_rows(), &h);
        }
        hashes.insert(hashes.end(), h.begin(), h.end());
      }
    };
    batch_hashes();
    for (size_t i = 0; i < n; ++i) {
      uint64_t h = kKeySeed;
      for (const Value& v : krows[i]) h = HashCombine(h, v.Hash());
      if (hashes[i] != h) {
        return Fail("join-key hash differs from folded Value::Hash");
      }
    }
    double t_jk = bench::MedianSeconds(batch_hashes);
    const double dn = static_cast<double>(n);
    table.AddRow("join_key_hash", {dn / t_jk / 1e6});
    report.Add("join_key_hash", "rows_per_sec", dn / t_jk);
  }

  table.Print();
  report.Add("gates", "oracle_identical", 1.0);
  report.Add("gates", "vectorized_batches_nonzero", 1.0);
  report.Write();
  const char* json_env = std::getenv("IMP_BENCH_JSON");
  std::printf("kernel smoke: oracle-identical, kernels engaged; report -> %s\n",
              json_env != nullptr ? json_env : "BENCH_PR7.json");
  return 0;
}

}  // namespace imp

#ifdef IMP_HAVE_GOOGLE_BENCHMARK

namespace imp {
namespace {

// ---- Fragment lookup: O(log p) ----------------------------------------------

void BM_FragmentOf(benchmark::State& state) {
  size_t frags = static_cast<size_t>(state.range(0));
  RangePartition part = RangePartition::EquiWidthInt(
      "t", "a", 0, 0, static_cast<int64_t>(frags) * 100, frags);
  Rng rng(1);
  int64_t domain = static_cast<int64_t>(frags) * 100;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        part.FragmentOf(Value::Int(rng.UniformInt(0, domain))));
  }
}
BENCHMARK(BM_FragmentOf)->Arg(10)->Arg(100)->Arg(1000)->Arg(100000);

// ---- Merge operator: O(n * |sketch|) ------------------------------------------

void BM_MergeProcess(benchmark::State& state) {
  size_t frags = static_cast<size_t>(state.range(0));
  IncMerge merge(frags);
  Rng rng(2);
  AnnotatedDelta delta;
  for (int i = 0; i < 64; ++i) {
    BitVector sk(frags);
    sk.Set(static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(frags) - 1)));
    delta.Append(Tuple{Value::Int(i)}, std::move(sk), 1);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(merge.Process(delta));
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_MergeProcess)->Arg(16)->Arg(256)->Arg(4096);

// ---- Bloom filter -------------------------------------------------------------

void BM_BloomProbe(benchmark::State& state) {
  BloomFilter bf(100000);
  for (uint64_t i = 0; i < 100000; ++i) bf.AddHash(HashInt64(i));
  uint64_t probe = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(bf.MayContainHash(HashInt64(probe++)));
  }
}
BENCHMARK(BM_BloomProbe);

void BM_BloomProbeBatched(benchmark::State& state) {
  BloomFilter bf(100000);
  for (uint64_t i = 0; i < 100000; ++i) bf.AddHash(HashInt64(i));
  size_t n = static_cast<size_t>(state.range(0));
  std::vector<uint64_t> hashes(n);
  for (size_t i = 0; i < n; ++i) {
    hashes[i] = HashInt64(static_cast<int64_t>(i % 200000));
  }
  for (auto _ : state) {
    BitVector out;
    bf.MayContainHashes(hashes.data(), n, &out);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_BloomProbeBatched)->Arg(1024)->Arg(65536);

// ---- Predicate kernel over base chunks --------------------------------------

void BM_PredicateKernelChunk(benchmark::State& state) {
  SyntheticSpec spec;
  spec.name = "t";
  spec.num_rows = 4096;
  spec.num_groups = 500;
  spec.cluster_by_a = false;
  Database db;
  IMP_CHECK(CreateSyntheticTable(&db, spec).ok());
  auto snap = db.GetTable("t")->Snapshot();
  PredicateKernel kernel = PredicateKernel::Compile(RangeSetPredicate());
  for (auto _ : state) {
    for (const auto& chunk : snap->chunks()) {
      BitVector sel;
      kernel.Eval(RowBlock::FromChunk(*chunk), &sel, nullptr, nullptr);
      benchmark::DoNotOptimize(sel);
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(spec.num_rows));
}
BENCHMARK(BM_PredicateKernelChunk);

// ---- Incremental aggregation: O(n) per delta row --------------------------------

class AggBench {
 public:
  AggBench(size_t num_rows, size_t num_groups) {
    spec_.name = "t";
    spec_.num_rows = num_rows;
    spec_.num_groups = num_groups;
    IMP_CHECK(CreateSyntheticTable(&db_, spec_).ok());
    IMP_CHECK(catalog_
                  .Register(RangePartition::EquiWidthInt(
                      "t", "a", 1, 0, static_cast<int64_t>(num_groups) - 1,
                      64))
                  .ok());
    auto scan = std::make_unique<IncScan>("t", nullptr, &db_, &catalog_,
                                          db_.GetTable("t")->schema(), &stats_);
    std::vector<ExprPtr> groups = {MakeColumnRef(1, "a", ValueType::kInt)};
    std::vector<AggSpec> aggs = {
        {AggFunc::kSum, MakeColumnRef(2, "b", ValueType::kInt), "s"},
        {AggFunc::kCount, nullptr, "n"}};
    Schema out;
    out.AddColumn("a", ValueType::kInt);
    out.AddColumn("s", ValueType::kInt);
    out.AddColumn("n", ValueType::kInt);
    agg_ = std::make_unique<IncAggregate>(std::move(scan), groups, aggs, out,
                                          IncAggregate::Options{}, &stats_);
    IMP_CHECK(agg_->Build(DeltaContext{}).ok());
  }

  DeltaContext MakeDelta(size_t n) {
    Rng rng(3);
    uint64_t from = db_.CurrentVersion();
    std::vector<Tuple> rows;
    for (size_t i = 0; i < n; ++i) {
      rows.push_back(SyntheticRow(spec_, next_id_++, &rng));
    }
    IMP_CHECK(db_.Insert("t", rows).ok());
    return MakeDeltaContext({db_.ScanDelta("t", from, db_.CurrentVersion())},
                            catalog_);
  }

  Database db_;
  PartitionCatalog catalog_;
  SyntheticSpec spec_;
  MaintainStats stats_;
  std::unique_ptr<IncAggregate> agg_;
  int64_t next_id_ = 1000000;
};

void BM_IncAggregateProcess(benchmark::State& state) {
  AggBench bench(20000, 1000);
  size_t delta_rows = static_cast<size_t>(state.range(0));
  DeltaContext ctx = bench.MakeDelta(delta_rows);
  for (auto _ : state) {
    auto out = bench.agg_->Process(ctx);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(delta_rows));
}
BENCHMARK(BM_IncAggregateProcess)->Arg(10)->Arg(100)->Arg(1000);

// ---- Incremental top-k ----------------------------------------------------------

void BM_IncTopKProcess(benchmark::State& state) {
  Database db;
  SyntheticSpec spec;
  spec.name = "t";
  spec.num_rows = 20000;
  spec.num_groups = 5000;
  IMP_CHECK(CreateSyntheticTable(&db, spec).ok());
  PartitionCatalog catalog;
  IMP_CHECK(
      catalog.Register(RangePartition::EquiWidthInt("t", "a", 1, 0, 4999, 64))
          .ok());
  MaintainStats stats;
  auto scan = std::make_unique<IncScan>("t", nullptr, &db, &catalog,
                                        db.GetTable("t")->schema(), &stats);
  IncTopK::Options opts;
  opts.buffer = static_cast<size_t>(state.range(0));
  IncTopK topk(std::move(scan), {SortSpec{2, true}}, 10, opts, &stats);
  IMP_CHECK(topk.Build(DeltaContext{}).ok());

  Rng rng(4);
  uint64_t from = db.CurrentVersion();
  std::vector<Tuple> rows;
  for (int i = 0; i < 100; ++i) {
    rows.push_back(SyntheticRow(spec, 500000 + i, &rng));
  }
  IMP_CHECK(db.Insert("t", rows).ok());
  DeltaContext ctx =
      MakeDeltaContext({db.ScanDelta("t", from, db.CurrentVersion())}, catalog);
  for (auto _ : state) {
    auto out = topk.Process(ctx);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_IncTopKProcess)->Arg(0)->Arg(100)->Arg(1000);

// ---- Borrowed vs materialized DeltaBatch consumption ------------------------------
//
// The zero-copy pipeline claim at operator granularity: aggregating N
// sketches' worth of work over one shared annotated delta through borrowed
// views vs through per-consumer materialized copies. The per-iteration
// counters (deltas_borrowed / deltas_materialized / rows_copied) land in
// the google-benchmark report (--benchmark_format=json), which makes the
// claim machine-checkable from the bench output.

void BM_DeltaBatchBorrowedAggregate(benchmark::State& state) {
  AggBench bench(20000, 1000);
  DeltaContext ctx = bench.MakeDelta(static_cast<size_t>(state.range(0)));
  bench.stats_.Reset();
  for (auto _ : state) {
    auto out = bench.agg_->Process(ctx);  // scan serves a borrowed view
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  double iters = static_cast<double>(state.iterations());
  state.counters["deltas_borrowed"] =
      static_cast<double>(bench.stats_.deltas_borrowed) / iters;
  state.counters["deltas_materialized"] =
      static_cast<double>(bench.stats_.deltas_materialized) / iters;
  state.counters["rows_copied"] =
      static_cast<double>(bench.stats_.rows_copied) / iters;
}
BENCHMARK(BM_DeltaBatchBorrowedAggregate)->Arg(100)->Arg(1000);

void BM_DeltaBatchMaterializeCopy(benchmark::State& state) {
  // The copy the borrowed pipeline removes: deep-copying the shared
  // annotated delta once per consumer (the pre-refactor IncScan behavior).
  AggBench bench(20000, 1000);
  DeltaContext ctx = bench.MakeDelta(static_cast<size_t>(state.range(0)));
  const DeltaBatch* batch = ctx.FindBatch("t");
  IMP_CHECK(batch != nullptr);
  bench.stats_.Reset();
  for (auto _ : state) {
    AnnotatedDelta copy = batch->View().Materialize(&bench.stats_);
    benchmark::DoNotOptimize(copy);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  double iters = static_cast<double>(state.iterations());
  state.counters["deltas_materialized"] =
      static_cast<double>(bench.stats_.deltas_materialized) / iters;
  state.counters["rows_copied"] =
      static_cast<double>(bench.stats_.rows_copied) / iters;
}
BENCHMARK(BM_DeltaBatchMaterializeCopy)->Arg(100)->Arg(1000);

// ---- BitVector union (join annotation merging) -----------------------------------

void BM_BitVectorUnion(benchmark::State& state) {
  size_t bits = static_cast<size_t>(state.range(0));
  BitVector a(bits), b(bits);
  for (size_t i = 0; i < bits; i += 7) a.Set(i);
  for (size_t i = 3; i < bits; i += 11) b.Set(i);
  for (auto _ : state) {
    BitVector c = a;
    c.UnionWith(b);
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_BitVectorUnion)->Arg(64)->Arg(1024)->Arg(65536);

}  // namespace
}  // namespace imp

#endif  // IMP_HAVE_GOOGLE_BENCHMARK

int main(int argc, char** argv) {
  int rc = imp::RunKernelSmoke();
  if (rc != 0) return rc;

  bool smoke_only = false;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke_only") == 0) {
      smoke_only = true;
    } else {
      argv[out++] = argv[i];  // strip our flag before benchmark::Initialize
    }
  }
  argc = out;
  (void)smoke_only;

#ifdef IMP_HAVE_GOOGLE_BENCHMARK
  if (!smoke_only) {
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
  }
#endif
  return 0;
}
