#include "middleware/policy.h"

#include <algorithm>

namespace imp {
namespace {

// Fold one sample into an EWMA, using the sample itself as the seed so an
// unwarmed estimate never averages against a fabricated zero.
double Ewma(double current, bool warmed, double sample) {
  if (!warmed) return sample;
  return kCostEwmaAlpha * sample + (1.0 - kCostEwmaAlpha) * current;
}

}  // namespace

const char* SketchPolicyName(SketchPolicy policy) {
  switch (policy) {
    case SketchPolicy::kIncremental:
      return "incremental";
    case SketchPolicy::kRecapture:
      return "recapture";
    case SketchPolicy::kEvicted:
      return "evicted";
  }
  return "unknown";
}

void SketchCostLedger::ObserveRepair(double seconds, size_t rows) {
  const double denom = static_cast<double>(std::max<size_t>(rows, 1));
  repair_s_per_row = Ewma(repair_s_per_row, has_repair, seconds / denom);
  has_repair = true;
  upkeep_seconds += seconds;
  ++upkeep_rounds;
  ++idle_rounds;
}

void SketchCostLedger::ObserveCapture(double seconds, size_t rows) {
  const double denom = static_cast<double>(std::max<size_t>(rows, 1));
  capture_s_per_row = Ewma(capture_s_per_row, has_capture, seconds / denom);
  has_capture = true;
  upkeep_seconds += seconds;
  ++upkeep_rounds;
  ++idle_rounds;
  // A capture anchors the sketch at the round's view; whatever invalidated
  // the old delta window (eviction, truncation) is repaired by it.
  needs_recapture = false;
}

void SketchCostLedger::ObserveAnnotationHitRate(double rate) {
  annotation_hit_rate = Ewma(annotation_hit_rate, has_hit_rate, rate);
  has_hit_rate = true;
}

SketchPolicy DecideMaintenance(const PolicyConfig& config,
                               SketchCostLedger* ledger,
                               const PolicyInputs& inputs) {
  // Benefit tracking first: any query use since the last planning pass
  // closes the idle window, whatever else this round decides.
  if (inputs.current_uses > ledger->uses_seen) {
    ledger->uses_seen = inputs.current_uses;
    ledger->idle_rounds = 0;
  }
  // Version fast-forward only — there is nothing to repair, so there is
  // nothing to decide.
  if (!inputs.stale) return SketchPolicy::kIncremental;
  // An invalidated delta window (set at eviction — the log may have
  // truncated past the sketch while it was not pinning it) always routes
  // to a rebuild from base tables; replaying the log would be unsound.
  if (ledger->needs_recapture) return SketchPolicy::kRecapture;
  // Eviction/decline: upkeep keeps costing rounds while no query benefits.
  if (config.evict_after_idle_rounds > 0 &&
      ledger->idle_rounds >= config.evict_after_idle_rounds) {
    return SketchPolicy::kEvicted;
  }
  // Outgrown window, structural rule: repair scales with the delta and
  // capture with the table, so past this fraction repair cannot win —
  // usable even before the timing EWMAs are warm.
  const double table_rows =
      static_cast<double>(std::max<size_t>(inputs.table_rows, 1));
  const double pending = static_cast<double>(inputs.pending_delta_rows);
  if (pending >= config.outgrown_delta_ratio * table_rows) {
    return SketchPolicy::kRecapture;
  }
  // Outgrown window, measured rule: once both EWMAs are warm, compare the
  // projected costs of the two repairs directly.
  if (ledger->has_repair && ledger->has_capture) {
    const double est_repair = ledger->repair_s_per_row * pending;
    const double est_capture = ledger->capture_s_per_row * table_rows;
    if (est_repair > config.recapture_bias * est_capture) {
      return SketchPolicy::kRecapture;
    }
  }
  return SketchPolicy::kIncremental;
}

}  // namespace imp
