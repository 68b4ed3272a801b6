// Self-tuning maintenance policies (ROADMAP item 1): a per-sketch cost
// model that turns the hand-picked maintenance knobs into per-round
// decisions driven by observed costs. The middleware already measures
// everything a cost model needs — delta scans, annotation cache hits,
// per-round timings, queue depth — and this module makes it *decide*:
//
//   * incremental repair  — the default: replay the pending delta window
//     through the incremental operators (cost ~ delta rows);
//   * FM recapture        — rebuild the operator state from base tables
//     (cost ~ table rows). Chosen when the delta window OUTGREW the
//     sketch: structurally (pending rows exceed a fraction of the table)
//     or by measured cost (the repair-seconds EWMA projects past the
//     capture-seconds EWMA);
//   * eviction / decline  — a sketch whose upkeep keeps costing rounds
//     while no query uses it is dropped from maintenance (and from delta
//     log pinning) until a query asks for it again, which readmits it
//     through a recapture;
//   * lazy deferral       — a ROUND decision rather than a per-sketch
//     one: an eager flush is deferred while ingest-queue pressure is
//     above a threshold (bounded, so maintenance never starves), and the
//     ingestion worker sizes its apply batches from the observed backlog.
//
// Every decision affects only WHEN and HOW sketches are refreshed; query
// results stay bit-identical to the fixed-policy reference over the same
// pinned view (a sketch only ever prunes work, and an unmaintained sketch
// degrades the query to a plain scan — never to a wrong answer).
//
// The decisions COMPOSE with the health ladder (PR 6) instead of fighting
// it: quarantined entries and entries inside their backoff window are
// excluded from round planning before the cost model ever sees them, so a
// failing sketch cannot be recaptured in a storm and a quarantined one is
// never "deferred" — it is simply out of service until repaired.
//
// This header is self-contained (no project includes) so both the sketch
// store and the middleware can embed its types without cycles.

#ifndef IMP_MIDDLEWARE_POLICY_H_
#define IMP_MIDDLEWARE_POLICY_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace imp {

/// How maintenance policies are chosen.
enum class PolicyMode : uint8_t {
  kFixed,      ///< today's behaviour, bit for bit: always-incremental
               ///< repair, fixed eager rounds, configured apply batches —
               ///< the escape hatch AND the reference the self-tuning
               ///< results are gated against
  kCostBased,  ///< per-sketch / per-round decisions from the cost ledger
};

/// The maintenance policy the cost model last APPLIED to one sketch. The
/// fourth choice — deferring an eager round wholesale under ingest
/// pressure — is a round decision, counted in stats (rounds_deferred)
/// rather than recorded per sketch.
enum class SketchPolicy : uint8_t {
  kIncremental,  ///< repair from the delta log (the default)
  kRecapture,    ///< rebuild from base tables: the window outgrew repair
  kEvicted,      ///< upkeep declined until a query asks for the sketch
};

const char* SketchPolicyName(SketchPolicy policy);

/// Knobs of the cost-based engine. Defaults are deliberately conservative;
/// PolicyMode::kFixed ignores all of them.
struct PolicyConfig {
  PolicyMode mode = PolicyMode::kFixed;
  /// Outgrown-window structural rule: switch a stale sketch to recapture
  /// when its pending delta rows reach this fraction of its referenced
  /// tables' rows. Fires even before the timing EWMAs are warm.
  double outgrown_delta_ratio = 0.5;
  /// Measured-cost rule: once both EWMAs are warm, recapture when
  /// estimated repair seconds exceed `recapture_bias` x estimated capture
  /// seconds ( > 1 biases toward repair, < 1 toward recapture).
  double recapture_bias = 1.0;
  /// Defer an eager flush while the ingest queue is more than this
  /// fraction full (the write path is the one under pressure; maintenance
  /// can wait a few statements).
  double defer_queue_fraction = 0.5;
  /// Starvation bound: after this many consecutive pressure deferrals the
  /// next eager round proceeds regardless of queue depth.
  size_t max_consecutive_deferrals = 4;
  /// Size ingestion apply batches from the observed backlog (deep queue
  /// -> larger cycles, one publication per touched table amortized across
  /// more statements) instead of the fixed ingest_apply_batch. Results
  /// are identical for any batch size (ticket-order apply). At most 64
  /// statements per batch.
  bool adaptive_ingest_batch = true;
  /// Evict a sketch maintained for this many consecutive rounds without a
  /// single query using it (0 disables eviction). A later query readmits
  /// it via recapture.
  size_t evict_after_idle_rounds = 16;
};

/// EWMA smoothing factor of the cost ledger's estimates (0 < a <= 1;
/// higher = faster to follow workload shifts, noisier).
constexpr double kCostEwmaAlpha = 0.3;

/// Per-sketch cost ledger: EWMA estimates of what this sketch's upkeep
/// costs and what it delivers. Written under the owning shard's WRITE
/// lock (round planning / post-round observation), like the health state.
struct SketchCostLedger {
  // Per-row EWMA costs in seconds; has_* gates decisions until the first
  // sample lands (an unwarmed estimate must not fabricate a verdict).
  double repair_s_per_row = 0;
  bool has_repair = false;
  double capture_s_per_row = 0;
  bool has_capture = false;
  /// EWMA of the shared annotation cache's hit rate over the rounds this
  /// sketch was maintained in (observability input: a low rate means this
  /// sketch's repairs keep paying full annotation passes).
  double annotation_hit_rate = 0;
  bool has_hit_rate = false;
  double upkeep_seconds = 0;  ///< lifetime maintenance + recapture spend
  size_t upkeep_rounds = 0;   ///< rounds that actually maintained this entry
  size_t idle_rounds = 0;     ///< maintained rounds since the last query use
  size_t uses_seen = 0;       ///< query-use count at the last planning pass
  /// Set when the sketch's delta-log window can no longer be trusted
  /// (eviction stops pinning the log, so truncation may pass the evicted
  /// version): the next maintenance MUST rebuild from base tables.
  /// Cleared by a successful capture observation.
  bool needs_recapture = false;

  /// Record one incremental repair of `rows` delta rows taking `seconds`.
  void ObserveRepair(double seconds, size_t rows);
  /// Record one capture/recapture over `rows` base-table rows.
  void ObserveCapture(double seconds, size_t rows);
  /// Fold one round's shared-annotation-cache hit rate (0..1) in.
  void ObserveAnnotationHitRate(double rate);
};

/// Everything the decision reads about one sketch at round-planning time.
struct PolicyInputs {
  bool stale = false;            ///< pending deltas on a referenced table
  size_t pending_delta_rows = 0; ///< published delta rows past the sketch
  size_t table_rows = 0;         ///< referenced tables' rows at the cut
  size_t current_uses = 0;       ///< lifetime query uses of this sketch
};

/// The per-sketch decision, pure given (config, ledger, inputs): callers
/// exclude quarantined and backing-off entries FIRST (the health ladder
/// outranks the cost model). Mutates only the ledger's benefit-tracking
/// fields (uses_seen / idle_rounds); cost observations land separately
/// after the round ran.
SketchPolicy DecideMaintenance(const PolicyConfig& config,
                               SketchCostLedger* ledger,
                               const PolicyInputs& inputs);

/// Point-in-time policy snapshot of one sketch, surfaced via Health().
struct SketchPolicyState {
  std::string state_key;
  SketchPolicy policy = SketchPolicy::kIncremental;
  double repair_s_per_row = 0;
  double capture_s_per_row = 0;
  double annotation_hit_rate = 0;
  double upkeep_seconds = 0;
  size_t upkeep_rounds = 0;
  size_t idle_rounds = 0;
  size_t uses = 0;
};

}  // namespace imp

#endif  // IMP_MIDDLEWARE_POLICY_H_
