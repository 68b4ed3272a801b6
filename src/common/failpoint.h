// Failpoints: named fault-injection sites compiled into the pipeline
// (maintenance rounds, capture, snapshot publication) that tests, benches
// and CI can arm to force an error exactly where a real fault would
// surface — and assert the system degrades instead of corrupting,
// deadlocking or aborting.
//
// Design:
//  * A failpoint is a process-global named object resolved ONCE per call
//    site (the IMP_FAILPOINT macro caches a reference in a function-local
//    static), so an inactive failpoint costs a single relaxed atomic load
//    — cheap enough to leave compiled into release binaries.
//  * Triggers are deterministic and seeded: one-shot, fire-K-times,
//    every-Nth evaluation, or probability p from a seeded mt19937_64.
//    Deterministic triggers are what make "queries stay bit-identical to
//    the fault-free run" an assertable property rather than a flake.
//  * Activation: programmatic (FailpointRegistry::ArmFromSpec, used by
//    ImpConfig::failpoints) or the IMP_FAILPOINTS environment variable,
//    parsed once on first registry use. Spec grammar:
//
//      spec    := point '=' trigger (';' point '=' trigger)*
//      trigger := 'off' | 'once' | 'always' | 'times:K' | 'nth:N'
//               | 'prob:P' | 'prob:P:SEED'
//
//    e.g. IMP_FAILPOINTS="snapshot.publish=once;maintain.round=nth:3".
//
// A fired failpoint makes the surrounding operation return
// Status::Internal("failpoint fired: <name>") — the same shape a genuine
// fault would take — so every handler downstream (publication retry,
// backoff, escalation, quarantine) is exercised through its production
// path.

#ifndef IMP_COMMON_FAILPOINT_H_
#define IMP_COMMON_FAILPOINT_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"

namespace imp {

/// One named fault-injection site. Thread-safe: ShouldFire() may race
/// Arm()/Disarm() from other threads; the armed flag is the lock-free fast
/// path, trigger bookkeeping runs under the point's mutex only while armed.
class Failpoint {
 public:
  explicit Failpoint(std::string name) : name_(std::move(name)) {}

  Failpoint(const Failpoint&) = delete;
  Failpoint& operator=(const Failpoint&) = delete;

  /// Trigger modes (see the spec grammar in the header comment).
  enum class Mode : uint8_t { kOff, kOnce, kAlways, kTimes, kNth, kProb };

  /// Evaluate the trigger. Inactive failpoints cost one relaxed load and
  /// never take the mutex.
  bool ShouldFire() {
    if (!armed_.load(std::memory_order_relaxed)) return false;
    return EvalSlow();
  }

  /// Arm with a trigger mode. `n` is K for kTimes, N for kNth; `p`/`seed`
  /// apply to kProb. Resets evaluation and fire counters.
  void Arm(Mode mode, uint64_t n = 1, double p = 0.0, uint64_t seed = 42);
  /// Parse and arm from a trigger spec ('once', 'nth:3', ...).
  Status ArmSpec(std::string_view trigger);
  void Disarm();

  const std::string& name() const { return name_; }
  bool armed() const { return armed_.load(std::memory_order_relaxed); }
  /// Times this failpoint actually fired (survives Disarm; reset by Arm).
  size_t fire_count() const {
    return fired_.load(std::memory_order_relaxed);
  }

 private:
  bool EvalSlow();

  const std::string name_;
  std::atomic<bool> armed_{false};
  std::atomic<size_t> fired_{0};
  std::mutex mu_;  ///< guards the trigger state below
  Mode mode_ = Mode::kOff;
  uint64_t n_ = 1;          ///< K (kTimes) / N (kNth)
  uint64_t evaluations_ = 0;
  uint64_t hits_ = 0;       ///< fires under the current arming
  double p_ = 0.0;
  std::mt19937_64 rng_{42};
};

/// Process-global registry of failpoints, keyed by name. Points are
/// created on first use and never destroyed (call sites cache references).
class FailpointRegistry {
 public:
  /// The singleton. The first call parses IMP_FAILPOINTS (if set).
  static FailpointRegistry& Instance();

  /// The failpoint named `name`, created disarmed on first use.
  Failpoint& GetOrCreate(std::string_view name);

  /// Arm/disarm from a full spec string ("a=once;b=nth:3"). Empty spec is
  /// a no-op. Unknown points are created; malformed triggers fail without
  /// applying the rest.
  Status ArmFromSpec(std::string_view spec);

  /// Disarm every registered point (does not reset fire counts).
  void DisarmAll();
  /// Disarm every point AND reset fire counts — test isolation between
  /// cases sharing the process-global registry.
  void Reset();

  /// Total fires across all points since process start (or Reset()).
  size_t TotalFired() const;
  /// (name, fire_count) for every registered point, name-sorted.
  std::vector<std::pair<std::string, size_t>> Counters() const;

 private:
  FailpointRegistry() = default;

  mutable std::shared_mutex mu_;  ///< guards the map structure
  std::map<std::string, std::unique_ptr<Failpoint>, std::less<>> points_;
};

// Fault-injection site for Status/Result-returning functions: when the
// named failpoint fires, return the injected error through the normal
// error path. The registry lookup happens once per call site (static
// local); an inactive point is a single relaxed atomic load.
#define IMP_FAILPOINT(point_name)                                         \
  do {                                                                    \
    static ::imp::Failpoint& imp_failpoint_site =                         \
        ::imp::FailpointRegistry::Instance().GetOrCreate(point_name);     \
    if (imp_failpoint_site.ShouldFire()) {                                \
      return ::imp::Status::Internal(std::string("failpoint fired: ") +   \
                                     (point_name));                       \
    }                                                                     \
  } while (0)

// The pipeline's named failpoints (shared by sites, tests and CI specs).
inline constexpr const char* kFpMaintainRound = "maintain.round";
inline constexpr const char* kFpCapture = "capture";
inline constexpr const char* kFpSnapshotPublish = "snapshot.publish";

}  // namespace imp

#endif  // IMP_COMMON_FAILPOINT_H_
