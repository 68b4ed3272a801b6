// The benchmark workloads, the oracle and the per-layer accounting.
//
// A run is a sequence of EPISODES. Each episode sets a fresh system up over
// base data and pre-generates its operations, both from a seed derived from
// the run seed and the episode number, and replays them through
// ImpSystem in a closed loop. Whole episodes run until the timed seconds
// reach --seconds, so the state every operation sees (table growth, zone-map
// erosion, sketch count) does not depend on how fast the engine is: a
// faster engine runs more episodes, not longer ones.
//
// Only the calls into ImpSystem are timed. Input generation, set-up, the
// oracle and the per-layer probes run with the clock stopped.
//
// The host's own speed drifts by up to 2x from minute to minute on a shared
// VM, which no run length averages away. Each episode therefore also times
// a fixed reference kernel of the benchmark's own (ReferenceSeconds) before
// it starts and between its operations, and every time of the episode is
// scaled by kReferenceSeconds / (the kernel's median time in the episode):
// the reported times are those of a host on which the kernel takes
// kReferenceSeconds. No engine change moves the kernel.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>

#include "bench.h"
#include "exec/executor.h"
#include "middleware/imp_system.h"
#include "sketch/capture.h"
#include "sketch/reuse.h"
#include "sketch/use_rewrite.h"
#include "sql/binder.h"
#include "trace.h"
#include "workload/synthetic.h"

namespace perfbench {

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0;
  std::vector<double> v = values_;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Samples::BlockQuantile(double q, size_t block) const {
  const size_t blocks = std::max<size_t>(1, values_.size() / block);
  Samples per_block;
  for (size_t b = 0; b < blocks; ++b) {
    Samples s;
    const size_t end = b + 1 == blocks ? values_.size() : (b + 1) * block;
    s.values_.assign(values_.begin() + b * block, values_.begin() + end);
    per_block.Add(s.Quantile(q));
  }
  return per_block.Median();
}

namespace {

using imp::BoundUpdate;
using imp::Database;
using imp::ImpConfig;
using imp::ImpSystem;
using imp::ImpSystemStats;
using imp::PlanPtr;
using imp::Relation;
using imp::Rng;
using imp::Tuple;

/// Set-ups timed per run at least (setup_s is their median).
constexpr size_t kMinSetups = 3;
/// Queries per run at least (at scale 1), so that ten samples lie beyond
/// query_p99_ms even when the host runs slow; also the block size of the
/// p99 metrics, so that ten samples lie beyond each block's p99.
constexpr size_t kMinQueries = 1000;
/// Hard stop for the timed loop, far below the 180 s exit limit.
constexpr double kWallCapSeconds = 120;
/// Median ReferenceSeconds on an idle 4-vCPU x86-64 VM (g++ 12, -O2):
/// the host speed that reported times are scaled to.
constexpr double kReferenceSeconds = 240e-6;
/// Reference samples taken before an episode, and ops between two more.
constexpr size_t kReferenceWarmSamples = 3;
constexpr size_t kOpsPerReferenceSample = 10;

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(2);
}

void Require(const imp::Status& status, const std::string& what) {
  if (!status.ok()) Die(what + ": " + status.ToString());
}

/// FNV-1a over the rendered inputs.
class Digest {
 public:
  void Add(const std::string& s) {
    for (unsigned char c : s) {
      h_ ^= c;
      h_ *= 1099511628211ull;
    }
    h_ ^= 0xff;
    h_ *= 1099511628211ull;
  }
  std::string Hex() const {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  uint64_t h_ = 1469598103934665603ull;
};

// ---- Inputs -----------------------------------------------------------------

struct Op {
  enum class Kind : uint8_t { kQuery, kInsert, kDelete, kUpdate };
  Kind kind = Kind::kQuery;
  std::string sql;      ///< query text, or the DELETE/UPDATE statement text
  BoundUpdate update;   ///< bound before the timed phase (not for queries)
  /// Threshold queries: the same template at its loosest threshold, and
  /// this query's threshold on output column `threshold_column`.
  std::string base_sql;
  int64_t threshold = 0;
  size_t threshold_column = 0;
};

void DigestOps(const std::vector<Op>& ops, Digest* d) {
  for (const Op& op : ops) {
    d->Add(std::to_string(static_cast<int>(op.kind)) + op.sql);
    for (const Tuple& row : op.update.rows) {
      std::string r;
      for (const imp::Value& v : row) r += v.ToString() + ",";
      d->Add(r);
    }
  }
}

/// Keeps ReferenceSeconds' result alive.
volatile int64_t reference_sink = 0;

/// Seconds of one run of a fixed kernel of the benchmark's own: stream 2 MiB
/// of pre-generated (group, value) pairs and hash-aggregate them into 512
/// groups, the same kind of work as the engine's scan and aggregate.
double ReferenceSeconds() {
  static const std::vector<std::pair<int64_t, int64_t>> rows = [] {
    std::vector<std::pair<int64_t, int64_t>> r(1 << 17);
    uint64_t x = 42;
    for (auto& [group, value] : r) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      group = static_cast<int64_t>((x >> 33) % 512);
      value = static_cast<int64_t>((x >> 13) & 0xffff);
    }
    return r;
  }();
  Clock::time_point t0 = Clock::now();
  std::unordered_map<int64_t, int64_t> sums;
  for (const auto& [group, value] : rows) sums[group] += value;
  int64_t total = 0;
  for (const auto& [group, sum] : sums) total += sum;
  reference_sink = total;
  return SecondsBetween(t0, Clock::now());
}

Op InsertOp(const std::string& table, std::vector<Tuple> rows) {
  Op op;
  op.kind = Op::Kind::kInsert;
  op.update.kind = BoundUpdate::Kind::kInsert;
  op.update.table = table;
  op.update.rows = std::move(rows);
  return op;
}

Op StatementOp(Op::Kind kind, const std::string& sql,
               const imp::Binder& binder) {
  Op op;
  op.kind = kind;
  op.sql = sql;
  auto bound = binder.BindSql(sql);
  Require(bound.status(), "bind " + sql);
  op.update = bound.value().update;
  return op;
}

Op QueryOp(std::string sql) {
  Op op;
  op.sql = std::move(sql);
  return op;
}

// ---- Data and workloads -----------------------------------------------------

size_t Scaled(size_t base, double scale, size_t floor) {
  return std::max(floor, static_cast<size_t>(static_cast<double>(base) * scale));
}

/// edb1 (fig08): `rows` rows clustered on `a`, 500 groups, partitioned on
/// b ~ 3a + N(0, 50) into 100 equal-width fragments. The partition spans
/// [0, 2000] rather than fig08's [0, 1500]: b reaches ~1750, and the
/// use-rewrite bounds the last fragment at the partition's upper bound
/// while capture clamps larger values into it, so rows above the bound
/// would be dropped from sketch-filtered answers.
struct Edb1 {
  static constexpr size_t kGroups = 500;
  imp::SyntheticSpec spec;
  int64_t base_threshold = 0;  ///< keeps roughly the top third of groups
                               ///< (c ~ 2a, fig08's formula assumes 1.5a)
  int64_t step = 0;

  explicit Edb1(double scale) {
    spec.name = "edb1";
    spec.num_rows = Scaled(40000, scale, 2000);
    spec.num_groups = kGroups;
    int64_t rows_per_group = static_cast<int64_t>(spec.num_rows / kGroups) + 1;
    base_threshold = rows_per_group * 3 * (kGroups * 9 / 10) / 2;
    step = rows_per_group;
  }

  void Load(Database* db, ImpSystem* system) const {
    Require(imp::CreateSyntheticTable(db, spec), "load edb1");
    Require(system->RegisterPartition(imp::RangePartition::EquiWidthInt(
                "edb1", "b", 2, 0, 4 * static_cast<int64_t>(kGroups), 100)),
            "partition edb1");
  }

  /// The fig08 template; the first query of an episode uses the base
  /// threshold so every later, larger threshold reuses its sketch.
  Op Query(Rng& rng, bool first) const {
    Op op;
    op.threshold = base_threshold + (first ? 0 : rng.UniformInt(0, 40) * step);
    op.sql = Sql(op.threshold);
    op.base_sql = Sql(base_threshold);
    op.threshold_column = 1;
    return op;
  }

  static std::string Sql(int64_t threshold) {
    return "SELECT a, sum(c) AS sc FROM edb1 GROUP BY a HAVING sum(c) > " +
           std::to_string(threshold);
  }

  std::vector<Tuple> Rows(Rng& rng, int64_t* next_id, size_t n) const {
    std::vector<Tuple> rows;
    rows.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      rows.push_back(imp::SyntheticRow(spec, (*next_id)++, &rng));
    }
    return rows;
  }
};

/// The fig16 join pair t(id, a, b, c) ⋈ h(ttid, w), t partitioned on a.
struct JoinPair {
  imp::JoinPairSpec spec;

  explicit JoinPair(double scale) {
    spec.left_name = "t";
    spec.right_name = "h";
    spec.distinct_keys = Scaled(4000, scale, 400);
    spec.left_per_key = 1;
    spec.right_per_key = 5;
    spec.selectivity = 0.3;
  }

  void Load(Database* db, ImpSystem* system) const {
    Require(imp::CreateJoinPair(db, spec), "load join pair");
    Require(system->RegisterPartition(imp::RangePartition::EquiWidthInt(
                "t", "a", 1, 0,
                static_cast<int64_t>(spec.distinct_keys) - 1, 100)),
            "partition t");
  }

  /// Four join-aggregate HAVING templates, one sketch each: two join h on
  /// the direct key (index-probe delegation), two on the computed key
  /// ttid + 0 (side-scan delegation).
  std::vector<std::string> Templates() const {
    const std::string direct = "FROM t JOIN h ON (a = ttid) ";
    const std::string computed =
        "FROM t JOIN (SELECT ttid + 0 AS ttid, w AS w FROM h) hh "
        "ON (a = ttid) ";
    const int64_t keys = static_cast<int64_t>(spec.distinct_keys);
    const std::string sum_w = std::to_string(3000);
    const std::string sum_b = std::to_string(keys * 8);  // a > 0.8 * keys
    return {
        "SELECT a, sum(w) AS sw " + direct + "GROUP BY a HAVING sum(w) > " +
            sum_w,
        "SELECT a, sum(b) AS sb " + direct + "GROUP BY a HAVING sum(b) > " +
            sum_b,
        "SELECT a, sum(w) AS sw " + computed + "GROUP BY a HAVING sum(w) > " +
            sum_w,
        "SELECT a, sum(b) AS sb " + computed +
            "WHERE b >= 0 GROUP BY a HAVING sum(b) > " + sum_b,
    };
  }

  std::vector<Tuple> Rows(Rng& rng, int64_t* next_id, size_t n) const {
    std::vector<Tuple> rows;
    rows.reserve(n);
    const int64_t keys = static_cast<int64_t>(spec.distinct_keys);
    for (size_t i = 0; i < n; ++i) {
      rows.push_back(imp::JoinLeftRow(spec, (*next_id)++,
                                      rng.UniformInt(0, keys - 1), &rng));
    }
    return rows;
  }
};

/// Seed of episode `e`'s base data and operations. Every episode draws
/// fresh data, so a run averages over data instances instead of measuring
/// one instance per seed.
uint64_t EpisodeSeed(uint64_t seed, size_t e) {
  return seed * 0x9E3779B97F4A7C15ull + e + 1;
}

enum class WorkloadKind { kAggRead, kAggChurn, kJoinEager };

struct Env {
  std::unique_ptr<Database> db;
  std::unique_ptr<ImpSystem> system;  ///< destroyed before db
};

class Workload {
 public:
  Workload(WorkloadKind kind, const Options& o)
      : kind_(kind), scale_(o.scale), edb1_(o.scale), join_(o.scale) {
    config_.mode = imp::ExecutionMode::kIncremental;
    config_.strategy = imp::MaintenanceStrategy::kLazy;
    if (kind == WorkloadKind::kJoinEager) {
      config_.strategy = imp::MaintenanceStrategy::kEager;
      config_.eager_batch_size = 1;
      config_.maintenance_threads = 2;
    }
  }

  /// A fresh system over base data generated from `data_seed`.
  Env Setup(uint64_t data_seed) const {
    Env env;
    env.db = std::make_unique<Database>();
    env.system = std::make_unique<ImpSystem>(env.db.get(), config_);
    if (kind_ == WorkloadKind::kJoinEager) {
      JoinPair join = join_;
      join.spec.seed = data_seed;
      join.Load(env.db.get(), env.system.get());
    } else {
      Edb1 edb1 = edb1_;
      edb1.spec.seed = data_seed;
      edb1.Load(env.db.get(), env.system.get());
    }
    return env;
  }

  /// Episode `e`'s operations, generated from (seed, e) against `env`'s
  /// schema (DELETE/UPDATE statements are bound here, untimed).
  std::vector<Op> Generate(uint64_t seed, size_t e, const Env& env) const {
    Rng rng(EpisodeSeed(seed, e) ^ 0xA5A5A5A5A5A5A5A5ull);
    imp::Binder binder(env.db.get());
    std::vector<Op> ops;
    switch (kind_) {
      case WorkloadKind::kAggRead: {
        // 1U5Q, ~20-row inserts. Short episodes: the capture that opens
        // each one is 2% of the queries, so query_p99_ms falls inside the
        // capture cost rather than at the edge of the host's hiccups.
        int64_t next_id = static_cast<int64_t>(edb1_.spec.num_rows);
        for (size_t r = 0; r < Rounds(10); ++r) {
          for (int q = 0; q < 5; ++q) {
            ops.push_back(edb1_.Query(rng, ops.empty()));
          }
          ops.push_back(InsertOp("edb1", edb1_.Rows(rng, &next_id, 20)));
        }
        break;
      }
      case WorkloadKind::kAggChurn: {
        // 1U1Q churn at steady table size: INSERT k fresh rows, DELETE the
        // k oldest ids, UPDATE a small id range, one query.
        int64_t next_id = static_cast<int64_t>(edb1_.spec.num_rows);
        int64_t oldest = 0;
        const int64_t max_k = static_cast<int64_t>(
            Scaled(2000, scale_, 20));
        for (size_t r = 0; r < Rounds(60); ++r) {
          int64_t k = rng.UniformInt(max_k * 3 / 20, max_k);
          ops.push_back(InsertOp("edb1", edb1_.Rows(rng, &next_id, k)));
          oldest += k;
          ops.push_back(StatementOp(
              Op::Kind::kDelete,
              "DELETE FROM edb1 WHERE id < " + std::to_string(oldest),
              binder));
          int64_t lo = rng.UniformInt(oldest, next_id - 11);
          ops.push_back(StatementOp(
              Op::Kind::kUpdate,
              "UPDATE edb1 SET c = c + 1 WHERE id >= " + std::to_string(lo) +
                  " AND id < " + std::to_string(lo + 10),
              binder));
          ops.push_back(edb1_.Query(rng, r == 0));
        }
        break;
      }
      case WorkloadKind::kJoinEager: {
        // Update-heavy 2U1Q: every insert triggers an eager round over the
        // four sketches; queries cycle through the templates.
        std::vector<std::string> templates = join_.Templates();
        int64_t next_id = static_cast<int64_t>(join_.spec.distinct_keys);
        for (size_t r = 0; r < Rounds(80); ++r) {
          for (int u = 0; u < 2; ++u) {
            ops.push_back(InsertOp("t", join_.Rows(rng, &next_id, 30)));
          }
          ops.push_back(QueryOp(templates[r % templates.size()]));
        }
        break;
      }
    }
    return ops;
  }

 private:
  size_t Rounds(size_t base) const { return Scaled(base, scale_, 2); }

  WorkloadKind kind_;
  double scale_;
  Edb1 edb1_;
  JoinPair join_;
  ImpConfig config_;
};

// ---- Accounting -----------------------------------------------------------

/// Sums of the per-maintainer counters (MaintainStats) of one system.
struct MaintainTotals {
  double delta_rows = 0, bloom_pruned = 0, shipped = 0, round_trips = 0,
         index_fallbacks = 0, rows_copied = 0, recaptures = 0;
};

/// Per-maintainer counters seen at the previous read, so a maintainer
/// replaced by a recapture does not produce a negative delta.
class MaintainDeltas {
 public:
  MaintainTotals Take(ImpSystem* system) {
    MaintainTotals d;
    for (imp::SketchEntry* entry : system->sketches().AllEntries()) {
      const imp::Maintainer* m = entry->maintainer.get();
      if (m == nullptr) continue;
      const imp::MaintainStats& now = m->stats();
      imp::MaintainStats& prev = seen_[m];
      d.delta_rows += static_cast<double>(now.delta_rows_processed -
                                          prev.delta_rows_processed);
      d.bloom_pruned +=
          static_cast<double>(now.bloom_pruned_rows - prev.bloom_pruned_rows);
      d.shipped +=
          static_cast<double>(now.join_rows_shipped - prev.join_rows_shipped);
      d.round_trips +=
          static_cast<double>(now.join_round_trips - prev.join_round_trips);
      d.index_fallbacks += static_cast<double>(now.index_fallback_scans -
                                               prev.index_fallback_scans);
      d.rows_copied += static_cast<double>(now.rows_copied - prev.rows_copied);
      d.recaptures += static_cast<double>(now.recaptures - prev.recaptures);
      prev = now;
    }
    return d;
  }
  void Reset() { seen_.clear(); }

 private:
  std::unordered_map<const imp::Maintainer*, imp::MaintainStats> seen_;
};

/// Everything a run accumulates; turned into metrics at the end.
struct Acc {
  // End to end, scaled to the reference host speed.
  Samples query_s, update_s, setup_s;
  // Unscaled, for the notes: timed seconds, and the host's slowdown
  // (reference kernel median / kReferenceSeconds) of each episode.
  double timed_s = 0;
  Samples slowdown;
  uint64_t attempted = 0, failed = 0;
  uint64_t oracle_checks = 0, theorem_checks = 0;
  std::vector<std::string> failures;
  // Probes.
  Samples reuse_s, rewrite_s, open_view_s, sketch_exec_s, ns_exec_s,
      capture_round_s, maintain_round_s, delete_apply_s;
  double frag_kept = 0, frag_total = 0, chunks_skipped = 0, chunks_total = 0,
         rows_scanned = 0, rows_total = 0, scalar_rows = 0, range_scans = 0;
  uint64_t probes = 0;
  // Maintenance.
  MaintainTotals m;
  double rounds = 0;
  // Engine stage totals (ImpSystemStats summed over episodes).
  double capture_sec = 0, maintain_sec = 0, query_sec = 0, update_sec = 0;
  double queries = 0, sketch_uses = 0, snapshot_reads = 0,
         degraded = 0, annotation_hits = 0, annotation_passes = 0,
         delta_scans = 0;
  // Storage.
  double insert_apply_s = 0, inserted_rows = 0, shards_built = 0,
         shards_reused = 0, update_statements = 0;
  Samples memory_mb, index_mb, state_mb;
  // Per episode, scaled: the end-to-end rates and medians are the medians
  // of these, so that a slow spell of the host moves them less.
  Samples episode_ops_per_s, episode_query_p50_s, episode_update_p50_s;

  void Fail(const std::string& why) {
    ++failed;
    if (failures.size() < 10) failures.push_back(why);
  }
};

/// The unscaled times of one episode, scaled into Acc when it ends.
struct EpisodeTimes {
  Samples query_s, update_s, reference_s;
  double setup_s = 0, timed_s = 0;
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

// ---- The runner -------------------------------------------------------------

class Runner {
 public:
  Runner(const Options& options, WorkloadKind kind)
      : options_(options), workload_(kind, options),
        epoch_(Clock::now()), tracer_(options.trace, epoch_) {}

  RunResult Run();

 private:
  /// A fresh system for `episode`, after the reference samples that open
  /// the episode; the set-up seconds go to `times`.
  Env TimedSetup(size_t episode, EpisodeTimes* times) {
    for (size_t i = 0; i < kReferenceWarmSamples; ++i) {
      times->reference_s.Add(ReferenceSeconds());
    }
    Clock::time_point t0 = Clock::now();
    Env env = workload_.Setup(EpisodeSeed(options_.seed, episode));
    times->setup_s = SecondsBetween(t0, Clock::now());
    return env;
  }
  /// Scale an episode's times to the reference host speed into acc_.
  void AddEpisodeTimes(const EpisodeTimes& times);

  void RunOps(Env& env, const std::vector<Op>& ops, EpisodeTimes* times);
  /// Oracle for one answered query; on the first check of a state the
  /// traced run also probes the sketch layers (ProbeSketch).
  void CheckQuery(Env& env, const Op& op, const Relation& answer);
  /// Reuse check, use-rewrite and sketch-filtered execution of `plan` on
  /// `view`, against the oracle's answer.
  void ProbeSketch(Env& env, const imp::ReadView& view, const PlanPtr& plan);
  /// FM cost of the current round: capture every sketch afresh.
  void ProbeCapture(Env& env);
  /// End of episode: final maintenance, Thm 6.1, and the episode totals.
  void FinishEpisode(Env& env, const imp::Database::IndexStatsSnapshot& idx0);

  const Options& options_;
  Workload workload_;
  Clock::time_point epoch_;
  Tracer tracer_;
  Acc acc_;
  MaintainDeltas deltas_;
  long queries_checked_ = 0;
  size_t rounds_seen_ = 0;
  /// Plain-executor answer of `sql` at `watermark`.
  struct {
    uint64_t watermark = UINT64_MAX;
    std::string sql;
    Relation answer;
  } oracle_;
};

/// Stage seconds of the engine's own clock between two stats reads.
struct StageDelta {
  double capture, maintain, query, update;
  size_t rounds;
};

StageDelta Diff(const ImpSystemStats& a, const ImpSystemStats& b) {
  return {b.capture_seconds - a.capture_seconds,
          b.maintain_seconds - a.maintain_seconds,
          b.query_seconds - a.query_seconds,
          b.update_seconds - a.update_seconds,
          b.batch_rounds - a.batch_rounds};
}

void Runner::AddEpisodeTimes(const EpisodeTimes& times) {
  const double slowdown = times.reference_s.Median() / kReferenceSeconds;
  const double scale = 1 / slowdown;
  acc_.slowdown.Add(slowdown);
  acc_.setup_s.Add(times.setup_s * scale);
  acc_.query_s.AppendScaled(times.query_s, scale);
  acc_.update_s.AppendScaled(times.update_s, scale);
  acc_.timed_s += times.timed_s;
  if (times.timed_s > 0) {
    acc_.episode_ops_per_s.Add(
        static_cast<double>(times.query_s.size() + times.update_s.size()) /
        (times.timed_s * scale));
  }
  if (times.query_s.size() > 0) {
    acc_.episode_query_p50_s.Add(times.query_s.Median() * scale);
  }
  if (times.update_s.size() > 0) {
    acc_.episode_update_p50_s.Add(times.update_s.Median() * scale);
  }
}

void Runner::RunOps(Env& env, const std::vector<Op>& ops,
                    EpisodeTimes* times) {
  ImpSystem& system = *env.system;
  imp::Binder binder(env.db.get());
  const bool traced = tracer_.enabled();
  size_t done = 0;
  for (const Op& op : ops) {
    if (++done % kOpsPerReferenceSample == 0) {
      times->reference_s.Add(ReferenceSeconds());
    }
    ImpSystemStats before = system.stats();
    tracer_.BeginOp();
    size_t call_span = Tracer::kNone;
    bool ok = false;
    std::optional<imp::Result<Relation>> answer;
    std::optional<imp::Result<PlanPtr>> plan;
    Clock::time_point t0 = Clock::now();
    if (op.kind == Op::Kind::kQuery) {
      if (traced) {
        SpanScope root(&tracer_, "op.query");
        {
          SpanScope s(&tracer_, "sql.bind");
          plan.emplace(binder.BindQuery(op.sql));
        }
        if (plan->ok()) {
          SpanScope s(&tracer_, "middleware.query_plan");
          answer.emplace(system.QueryPlan(plan->value()));
          call_span = s.Close();
        }
      } else {
        answer.emplace(system.Query(op.sql));
      }
      ok = answer.has_value() && answer->ok();
    } else {
      SpanScope root(&tracer_, "op.update");
      SpanScope s(&tracer_, "middleware.update_bound");
      ok = system.UpdateBound(op.update).ok();
      call_span = s.Close();
    }
    double dt = SecondsBetween(t0, Clock::now());
    // ---- clock stopped ----
    times->timed_s += dt;
    ++acc_.attempted;
    const ImpSystemStats& after = system.stats();
    StageDelta stage = Diff(before, after);
    tracer_.AddDerived(call_span, "exec.query", stage.query);
    tracer_.AddDerived(call_span, "imp.maintain", stage.maintain);
    tracer_.AddDerived(call_span, "sketch.capture", stage.capture);
    tracer_.AddDerived(call_span, "storage.apply", stage.update);
    if (stage.rounds > 0 && stage.maintain > 0) {
      acc_.maintain_round_s.Add(stage.maintain / stage.rounds);
    }
    if (!ok) {
      acc_.Fail(op.kind == Op::Kind::kQuery ? "query failed: " + op.sql
                                            : "update failed");
      continue;
    }
    // A degraded query is answered correctly by a plain scan, so the
    // oracle would pass it; but its time is not an IMP time.
    if (after.degraded_queries > before.degraded_queries) {
      acc_.Fail("degraded query (answered without its sketch): " + op.sql);
      continue;
    }
    if (op.kind == Op::Kind::kQuery) {
      times->query_s.Add(dt);
      CheckQuery(env, op, answer->value());
    } else {
      times->update_s.Add(dt);
      ++acc_.update_statements;
      if (op.kind == Op::Kind::kInsert) {
        acc_.insert_apply_s += stage.update;
        acc_.inserted_rows += static_cast<double>(op.update.rows.size());
      } else if (op.kind == Op::Kind::kDelete) {
        acc_.delete_apply_s.Add(stage.update);
      }
    }
    // FM comparison: capture every sketch afresh after every 8th round.
    if (traced && stage.rounds > 0 && rounds_seen_++ % 8 == 0) {
      ProbeCapture(env);
    }
  }
}

PlanPtr BindOrDie(const Database& db, const std::string& sql) {
  imp::Binder binder(&db);
  auto plan = binder.BindQuery(sql);
  Require(plan.status(), "bind " + sql);
  return plan.value();
}

void Runner::CheckQuery(Env& env, const Op& op, const Relation& answer) {
  Database& db = *env.db;
  tracer_.BeginOp();
  SpanScope root(&tracer_, "probe");
  Clock::time_point t0 = Clock::now();
  imp::ReadView view;
  {
    SpanScope s(&tracer_, "storage.open_view");
    view = db.OpenReadView();
  }
  acc_.open_view_s.Add(SecondsBetween(t0, Clock::now()));

  // Oracle: the plain executor's answer on the same state. Queries of one
  // template that differ only in their HAVING threshold share one plain
  // execution of the loosest instance per state; a tighter threshold's
  // answer is that answer's rows above the threshold.
  const std::string& oracle_sql = op.base_sql.empty() ? op.sql : op.base_sql;
  if (oracle_.watermark != view.watermark() || oracle_.sql != oracle_sql) {
    PlanPtr plan = BindOrDie(db, oracle_sql);
    t0 = Clock::now();
    imp::Result<Relation> plain = [&] {
      SpanScope s(&tracer_, "exec.execute_ns");
      return imp::Executor(&db, &view).Execute(plan);
    }();
    acc_.ns_exec_s.Add(SecondsBetween(t0, Clock::now()));
    Require(plain.status(), "plain execution");
    oracle_.watermark = view.watermark();
    oracle_.sql = oracle_sql;
    oracle_.answer = std::move(plain).value();
    if (tracer_.enabled()) ProbeSketch(env, view, plan);
  }
  Relation above;
  const Relation* expected = &oracle_.answer;
  if (!op.base_sql.empty()) {
    above.schema = oracle_.answer.schema;
    const imp::Value threshold = imp::Value::Int(op.threshold);
    for (const Tuple& row : oracle_.answer.rows) {
      if (row[op.threshold_column].Compare(threshold) > 0) {
        above.rows.push_back(row);
      }
    }
    expected = &above;
  }

  ++acc_.oracle_checks;
  ++queries_checked_;
  if (queries_checked_ == options_.corrupt_query && !answer.rows.empty()) {
    Relation dropped = answer;
    dropped.rows.pop_back();
    if (!dropped.SameBag(*expected)) acc_.Fail("oracle mismatch: " + op.sql);
  } else if (!answer.SameBag(*expected)) {
    acc_.Fail("oracle mismatch: " + op.sql);
  }
}

void Runner::ProbeSketch(Env& env, const imp::ReadView& view,
                         const PlanPtr& plan) {
  Database& db = *env.db;
  ImpSystem& system = *env.system;
  // The entry the middleware answers `plan` through: same template,
  // passes the reuse check.
  const std::string key = plan->TemplateKey();
  imp::SketchEntry* entry = nullptr;
  for (imp::SketchEntry* candidate : system.sketches().AllEntries()) {
    if (candidate->plan->TemplateKey() != key) continue;
    Clock::time_point t0 = Clock::now();
    bool reusable;
    {
      SpanScope s(&tracer_, "sketch.reuse_check");
      reusable = imp::CanReuseSketch(candidate->plan, plan);
    }
    acc_.reuse_s.Add(SecondsBetween(t0, Clock::now()));
    if (reusable) {
      entry = candidate;
      break;
    }
  }
  if (entry == nullptr) return;
  std::shared_ptr<const imp::SketchSnapshot> snap = entry->Snapshot();
  for (const std::string& t : entry->tables) {
    if (view.TableVersion(t) > snap->valid_version()) return;  // stale
  }
  Clock::time_point t0 = Clock::now();
  PlanPtr rewritten;
  {
    SpanScope s(&tracer_, "sketch.use_rewrite");
    rewritten = imp::ApplyUseRewrite(plan, system.catalog(), *snap,
                                     &entry->filter_tables);
  }
  acc_.rewrite_s.Add(SecondsBetween(t0, Clock::now()));
  imp::Executor exec(&db, &view);
  t0 = Clock::now();
  imp::Result<Relation> filtered = [&] {
    SpanScope s(&tracer_, "exec.execute_sketch");
    return exec.Execute(rewritten);
  }();
  acc_.sketch_exec_s.Add(SecondsBetween(t0, Clock::now()));
  // The paper's second invariant: sketch-filtered answer = full answer.
  if (!filtered.ok() || !filtered.value().SameBag(oracle_.answer)) {
    acc_.Fail("sketch-filtered answer differs: " + oracle_.sql);
  }
  ++acc_.probes;
  const imp::ScanStats& scan = exec.scan_stats();
  acc_.chunks_skipped += static_cast<double>(scan.chunks_skipped);
  acc_.chunks_total +=
      static_cast<double>(scan.chunks_skipped + scan.chunks_scanned);
  acc_.rows_scanned += static_cast<double>(scan.rows_scanned);
  acc_.scalar_rows += static_cast<double>(scan.scalar_fallback_rows);
  acc_.range_scans += static_cast<double>(scan.index_range_scans);
  for (const std::string& t : entry->tables) {
    const imp::TableSnapshot* ts = view.Find(t);
    if (ts != nullptr) acc_.rows_total += static_cast<double>(ts->num_rows());
  }
  size_t total = 0;
  for (const std::string& t : entry->filter_tables) {
    const imp::RangePartition* p = system.catalog().Find(t);
    if (p != nullptr) total += p->num_fragments();
  }
  acc_.frag_kept += static_cast<double>(snap->sketch.NumFragments());
  acc_.frag_total += static_cast<double>(total);
}

void Runner::ProbeCapture(Env& env) {
  tracer_.BeginOp();
  SpanScope root(&tracer_, "probe");
  imp::ReadView view = env.db->OpenReadView();
  imp::CaptureEngine capture(env.db.get(), &env.system->catalog());
  Clock::time_point t0 = Clock::now();
  for (imp::SketchEntry* entry : env.system->sketches().AllEntries()) {
    SpanScope s(&tracer_, "sketch.capture_fm");
    Require(capture.Capture(entry->plan, &view).status(), "capture probe");
  }
  acc_.capture_round_s.Add(SecondsBetween(t0, Clock::now()));
}

void Runner::FinishEpisode(Env& env,
                           const imp::Database::IndexStatsSnapshot& idx0) {
  ImpSystem& system = *env.system;
  imp::Status maintained = system.MaintainAll();
  if (!maintained.ok()) {
    acc_.Fail("final maintenance: " + maintained.ToString());
  }
  // Thm 6.1: every maintained sketch covers a fresh capture.
  imp::ReadView view = env.db->OpenReadView();
  imp::CaptureEngine capture(env.db.get(), &system.catalog());
  double state_bytes = 0;
  for (imp::SketchEntry* entry : system.sketches().AllEntries()) {
    if (maintained.ok()) {
      ++acc_.theorem_checks;
      auto fresh = capture.Capture(entry->plan, &view);
      std::shared_ptr<const imp::SketchSnapshot> snap = entry->Snapshot();
      if (!fresh.ok() || !snap->sketch.Covers(fresh.value())) {
        acc_.Fail("Thm 6.1: maintained sketch misses fragments of " +
                  entry->plan->TemplateKey());
      }
    }
    if (entry->maintainer) {
      state_bytes += static_cast<double>(entry->maintainer->StateBytes());
    }
  }
  const ImpSystemStats& s = system.stats();
  acc_.capture_sec += s.capture_seconds;
  acc_.maintain_sec += s.maintain_seconds;
  acc_.query_sec += s.query_seconds;
  acc_.update_sec += s.update_seconds;
  acc_.queries += static_cast<double>(s.queries);
  acc_.sketch_uses += static_cast<double>(s.sketch_uses);
  acc_.snapshot_reads += static_cast<double>(s.snapshot_reads);
  acc_.degraded += static_cast<double>(s.degraded_queries);
  acc_.annotation_hits += static_cast<double>(s.annotation_hits);
  acc_.annotation_passes += static_cast<double>(s.annotation_passes);
  acc_.delta_scans += static_cast<double>(s.delta_scans);
  acc_.rounds += static_cast<double>(s.batch_rounds);
  MaintainTotals m = deltas_.Take(&system);
  acc_.m.delta_rows += m.delta_rows;
  acc_.m.bloom_pruned += m.bloom_pruned;
  acc_.m.shipped += m.shipped;
  acc_.m.round_trips += m.round_trips;
  acc_.m.index_fallbacks += m.index_fallbacks;
  acc_.m.rows_copied += m.rows_copied;
  acc_.m.recaptures += m.recaptures;
  imp::Database::IndexStatsSnapshot idx = env.db->AggregateIndexStats();
  acc_.shards_built += static_cast<double>(idx.shards_built - idx0.shards_built);
  acc_.shards_reused +=
      static_cast<double>(idx.shards_reused - idx0.shards_reused);
  acc_.memory_mb.Add(static_cast<double>(env.db->MemoryBytes()) / (1 << 20));
  acc_.index_mb.Add(static_cast<double>(env.db->IndexBytes()) / (1 << 20));
  acc_.state_mb.Add(state_bytes / (1 << 20));
}

RunResult Runner::Run() {
  RunResult result;
  Digest digest;
  Clock::time_point run_start = Clock::now();
  size_t episode = 0;
  const size_t min_queries = Scaled(kMinQueries, options_.scale, 1);
  while ((acc_.timed_s < options_.seconds ||
          acc_.query_s.size() < min_queries) &&
         SecondsBetween(run_start, Clock::now()) < kWallCapSeconds) {
    EpisodeTimes times;
    Env env = TimedSetup(episode, &times);
    std::vector<Op> ops = workload_.Generate(options_.seed, episode, env);
    if (episode == 0) {
      DigestOps(ops, &digest);
      result.inputs_digest = digest.Hex();
    }
    deltas_.Reset();
    oracle_.watermark = UINT64_MAX;  // watermarks restart with each database
    imp::Database::IndexStatsSnapshot idx0 = env.db->AggregateIndexStats();
    RunOps(env, ops, &times);
    // The first episode warms caches and the heap: checked, not timed.
    if (episode > 0) AddEpisodeTimes(times);
    FinishEpisode(env, idx0);
    ++episode;
  }
  while (acc_.setup_s.size() < kMinSetups) {
    EpisodeTimes times;
    TimedSetup(acc_.setup_s.size(), &times);
    AddEpisodeTimes(times);
  }

  result.attempted = acc_.attempted;
  result.failed = acc_.failed;
  result.correct = acc_.failed == 0;
  const double ops = static_cast<double>(acc_.query_s.size() +
                                         acc_.update_s.size());
  const double ops_per_s = acc_.episode_ops_per_s.Median();
  auto add = [&](const std::string& name, double value,
                 const std::string& unit) {
    result.metrics.push_back({name, value, unit});
  };
  auto note = [&](const std::string& line) { result.notes.push_back(line); };
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "workload=%s seed=%llu episodes=%zu timed_s=%.3f ops=%.0f "
                "queries=%zu updates=%zu setups=%zu",
                options_.workload.c_str(),
                static_cast<unsigned long long>(options_.seed), episode,
                acc_.timed_s, ops, acc_.query_s.size(), acc_.update_s.size(),
                acc_.setup_s.size());
  note(buf);
  std::snprintf(buf, sizeof(buf),
                "failed_op_ratio=%.6g (failed=%llu attempted=%llu; oracle "
                "checks=%llu, Thm 6.1 checks=%llu)",
                Ratio(static_cast<double>(acc_.failed),
                      static_cast<double>(acc_.attempted)),
                static_cast<unsigned long long>(acc_.failed),
                static_cast<unsigned long long>(acc_.attempted),
                static_cast<unsigned long long>(acc_.oracle_checks),
                static_cast<unsigned long long>(acc_.theorem_checks));
  note(buf);
  std::snprintf(buf, sizeof(buf),
                "episode ops/s: min=%.1f p25=%.1f median=%.1f p75=%.1f "
                "max=%.1f",
                acc_.episode_ops_per_s.Quantile(0),
                acc_.episode_ops_per_s.Quantile(0.25),
                acc_.episode_ops_per_s.Median(),
                acc_.episode_ops_per_s.Quantile(0.75),
                acc_.episode_ops_per_s.Quantile(1));
  note(buf);
  for (const std::string& f : acc_.failures) note("FAILURE " + f);
  for (const char* what : {"query", "update"}) {
    const Samples& s = what[0] == 'q' ? acc_.query_s : acc_.update_s;
    std::snprintf(buf, sizeof(buf),
                  "%s latency (scaled, all calls): n=%zu p50=%.4f ms "
                  "p99=%.4f ms (%zu samples beyond p99; %zu blocks of %zu "
                  "for the reported p99)",
                  what, s.size(), s.Median() * 1e3, s.Quantile(0.99) * 1e3,
                  s.size() / 100, std::max<size_t>(1, s.size() / kMinQueries),
                  kMinQueries);
    note(buf);
  }
  std::snprintf(buf, sizeof(buf),
                "host slowdown (reference kernel median / %.0f us) per "
                "episode: min=%.3f median=%.3f max=%.3f; unscaled "
                "ops_per_s=%.2f",
                kReferenceSeconds * 1e6, acc_.slowdown.Quantile(0),
                acc_.slowdown.Median(), acc_.slowdown.Quantile(1),
                Ratio(ops, acc_.timed_s));
  note(buf);

  if (!options_.trace) {
    add("ops_per_s", ops_per_s, "1/s");
    add("query_p50_ms", acc_.episode_query_p50_s.Median() * 1e3, "ms");
    add("query_p99_ms", acc_.query_s.BlockQuantile(0.99, kMinQueries) * 1e3,
        "ms");
    add("update_p50_ms", acc_.episode_update_p50_s.Median() * 1e3, "ms");
    add("update_p99_ms", acc_.update_s.BlockQuantile(0.99, kMinQueries) * 1e3,
        "ms");
    add("setup_s", acc_.setup_s.Median(), "s");
    add("peak_rss_mb", PeakRssMb(), "MB");
    return result;
  }

  // ---- Traced run: per-layer metrics, ratio bases in the notes ----
  const double probes = static_cast<double>(acc_.probes);
  std::snprintf(
      buf, sizeof(buf),
      "bases: sketch probes=%.0f (fragments total %.0f/probe, table rows "
      "%.0f/probe), maintenance rounds=%.0f, delta rows=%.0f, engine "
      "queries=%.0f, sketch uses=%.0f, annotation hits+passes=%.0f, update "
      "statements=%.0f, inserted rows=%.0f, stage seconds total=%.4f",
      probes, Ratio(acc_.frag_total, probes), Ratio(acc_.rows_total, probes),
      acc_.rounds, acc_.m.delta_rows, acc_.queries, acc_.sketch_uses,
      acc_.annotation_hits + acc_.annotation_passes, acc_.update_statements,
      acc_.inserted_rows,
      acc_.capture_sec + acc_.maintain_sec + acc_.query_sec + acc_.update_sec);
  note(buf);
  Samples bind = tracer_.Durations("sql.bind");
  // Per-layer times are not scaled; unscale query_p50 to match.
  const double query_p50 = acc_.query_s.Median() * acc_.slowdown.Median();
  add("sql.bind_us_p50", bind.Median() * 1e6, "us");
  add("sql.bind_share_of_query", Ratio(bind.Median(), query_p50), "ratio");
  add("sketch.reuse_check_us_p50", acc_.reuse_s.Median() * 1e6, "us");
  add("sketch.use_rewrite_us_p50", acc_.rewrite_s.Median() * 1e6, "us");
  add("sketch.fragments_kept_ratio", Ratio(acc_.frag_kept, acc_.frag_total),
      "ratio");
  add("sketch.capture_ms_p50", acc_.capture_round_s.Median() * 1e3, "ms");
  add("exec.sketch_execute_ms_p50", acc_.sketch_exec_s.Median() * 1e3, "ms");
  add("exec.sketch_execute_ms_p99", acc_.sketch_exec_s.Quantile(0.99) * 1e3,
      "ms");
  add("exec.ns_execute_ms_p50", acc_.ns_exec_s.Median() * 1e3, "ms");
  add("exec.skip_speedup",
      Ratio(acc_.ns_exec_s.Median(), acc_.sketch_exec_s.Median()), "x");
  add("exec.chunks_skipped_ratio",
      Ratio(acc_.chunks_skipped, acc_.chunks_total), "ratio");
  add("exec.rows_scanned_ratio", Ratio(acc_.rows_scanned, acc_.rows_total),
      "ratio");
  add("exec.scalar_fallback_rows",
      Ratio(acc_.scalar_rows, static_cast<double>(acc_.probes)),
      "count/query");
  add("exec.index_range_scans",
      Ratio(acc_.range_scans, static_cast<double>(acc_.probes)),
      "count/query");
  const double maintain_p50 = acc_.maintain_round_s.Median();
  add("imp.maintain_ms_p50", maintain_p50 * 1e3, "ms");
  add("imp.maintain_ms_p99", acc_.maintain_round_s.Quantile(0.99) * 1e3,
      "ms");
  add("imp.speedup_vs_fm", Ratio(acc_.capture_round_s.Median(), maintain_p50),
      "x");
  add("imp.maintain_us_per_delta_row",
      Ratio(acc_.maintain_sec * 1e6, acc_.m.delta_rows), "us");
  add("imp.bloom_pruned_ratio",
      Ratio(acc_.m.bloom_pruned, acc_.m.bloom_pruned + acc_.m.shipped),
      "ratio");
  add("imp.join_round_trips", Ratio(acc_.m.round_trips, acc_.rounds),
      "count/round");
  add("imp.index_fallback_scans", Ratio(acc_.m.index_fallbacks, acc_.rounds),
      "count/round");
  add("imp.rows_copied", Ratio(acc_.m.rows_copied, acc_.rounds),
      "count/round");
  add("imp.recaptures", Ratio(acc_.m.recaptures, acc_.rounds), "count/round");
  add("imp.state_mb", acc_.state_mb.Median(), "MB");
  const double total = acc_.capture_sec + acc_.maintain_sec + acc_.query_sec +
                       acc_.update_sec;
  add("middleware.capture_share", Ratio(acc_.capture_sec, total), "ratio");
  add("middleware.maintain_share", Ratio(acc_.maintain_sec, total), "ratio");
  add("middleware.query_share", Ratio(acc_.query_sec, total), "ratio");
  add("middleware.update_share", Ratio(acc_.update_sec, total), "ratio");
  add("middleware.sketch_use_ratio", Ratio(acc_.sketch_uses, acc_.queries),
      "ratio");
  add("middleware.degraded_queries", acc_.degraded, "count");
  add("middleware.snapshot_read_ratio",
      Ratio(acc_.snapshot_reads, acc_.sketch_uses), "ratio");
  add("middleware.annotation_hit_ratio",
      Ratio(acc_.annotation_hits, acc_.annotation_hits + acc_.annotation_passes),
      "ratio");
  add("middleware.delta_scans", Ratio(acc_.delta_scans, acc_.rounds),
      "count/round");
  add("storage.insert_us_per_row",
      Ratio(acc_.insert_apply_s * 1e6, acc_.inserted_rows), "us");
  add("storage.delete_ms_p50", acc_.delete_apply_s.Median() * 1e3, "ms");
  add("storage.open_view_us_p50", acc_.open_view_s.Median() * 1e6, "us");
  add("storage.index_shards_built",
      Ratio(acc_.shards_built, acc_.update_statements), "count/update");
  add("storage.index_shards_reused",
      Ratio(acc_.shards_reused, acc_.update_statements), "count/update");
  add("storage.memory_mb", acc_.memory_mb.Median(), "MB");
  add("storage.index_mb", acc_.index_mb.Median(), "MB");
  add("trace.ops_per_s", ops_per_s, "1/s");
  std::map<std::string, double> self = tracer_.LayerSelfSeconds("op.");
  double self_total = 0;
  for (const auto& [layer, s] : self) self_total += s;
  for (const char* layer :
       {"sql", "middleware", "sketch", "exec", "imp", "storage"}) {
    add(std::string("trace.self_share.") + layer,
        Ratio(self[layer], self_total), "ratio");
  }
  if (!options_.out_dir.empty()) {
    std::string path = options_.out_dir + "/" + options_.workload + "_seed" +
                       std::to_string(options_.seed) + "_spans.jsonl";
    if (!tracer_.WriteJsonl(path)) note("WARNING cannot write " + path);
  }
  return result;
}

const std::map<std::string, WorkloadKind>& Kinds() {
  static const std::map<std::string, WorkloadKind> kinds = {
      {"agg_read", WorkloadKind::kAggRead},
      {"agg_churn", WorkloadKind::kAggChurn},
      {"join_eager", WorkloadKind::kJoinEager},
  };
  return kinds;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"agg_read", "agg_churn",
                                                 "join_eager"};
  return names;
}

RunResult RunWorkload(const Options& options) {
  auto it = Kinds().find(options.workload);
  if (it == Kinds().end()) Die("unknown workload " + options.workload);
  Runner runner(options, it->second);
  return runner.Run();
}

}  // namespace perfbench
