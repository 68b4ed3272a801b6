// The backend's statement-version lifecycle, extracted from Database's
// ad-hoc counter into an epoch-aware, concurrency-safe clock.
//
// A statement's life has three points, all on the writer's thread while
// it holds the table's write stripe:
//   1. Allocate()   — the version id is reserved (the statement has not
//                     touched storage yet),
//   2. apply        — base rows and delta records are staged, invisible to
//                     readers,
//   3. Publish(v)   — the statement is fully applied and its delta records
//                     are visible; once every version <= v is published the
//                     stable watermark advances to v.
//
// stable() is the epoch cut maintenance rounds use: sketches maintained up
// to stable() have seen every delta record of every statement <= stable(),
// and no record of an in-flight statement. allocated() (the old
// CurrentVersion) runs ahead of stable() while a writer is between steps
// 1 and 3; the two coincide once every writer has returned.
//
// Thread safety: Allocate()/allocated()/stable() are wait-free atomics;
// Publish() serializes on a small mutex and tolerates out-of-order
// publication (version v+1 published before v holds the watermark at v-1
// until v lands). Writers on different tables hold different stripes, so
// their versions do retire out of order.

#ifndef IMP_STORAGE_VERSION_CLOCK_H_
#define IMP_STORAGE_VERSION_CLOCK_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <queue>
#include <vector>

namespace imp {

class VersionClock {
 public:
  VersionClock() = default;
  VersionClock(const VersionClock&) = delete;
  VersionClock& operator=(const VersionClock&) = delete;

  /// Reserve the next version id (1-based; 0 means "before any update").
  uint64_t Allocate() {
    return allocated_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  /// Highest allocated version (may exceed stable() while statements are
  /// in flight).
  uint64_t allocated() const {
    return allocated_.load(std::memory_order_acquire);
  }

  /// Highest version v such that every version <= v has been published —
  /// the watermark maintenance rounds cut at.
  uint64_t stable() const { return stable_.load(std::memory_order_acquire); }

  /// Mark `version` fully published. Safe from any thread; out-of-order
  /// publication is held back until the gap closes. Publishing the same
  /// version twice is a programming error.
  void Publish(uint64_t version);

 private:
  std::atomic<uint64_t> allocated_{0};
  std::atomic<uint64_t> stable_{0};
  std::mutex mu_;  ///< guards pending_
  /// Published versions above the watermark, min-first.
  std::priority_queue<uint64_t, std::vector<uint64_t>, std::greater<uint64_t>>
      pending_;
};

}  // namespace imp

#endif  // IMP_STORAGE_VERSION_CLOCK_H_
