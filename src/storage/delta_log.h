// A per-table append-only delta log with an explicit publication step and a
// WAIT-FREE read side: window scans, counts and staleness probes never take
// a lock, even while a writer is appending, publishing, or a maintenance
// round is truncating the log.
//
// The log has two zones:
//
//     [0, published)            — visible to every reader,
//     [published, appended)     — the in-flight tail of the statement(s) the
//                                 writer is currently applying; invisible.
//
// Records live in fixed-capacity segments whose slots never move. The
// visible zone is described by an immutable LogView — the list of segment
// pointers plus a (first_offset, count) window — published via an atomic
// shared_ptr swap (release), exactly the RCU pattern of TableSnapshot:
//
//   * Append() constructs records into pre-allocated slots PAST the
//     published count; no view can see them until Publish() swaps in the
//     next view, whose release/acquire edge orders the slot writes.
//   * Readers pin the view (one atomic load) and index records with plain
//     arithmetic — segment s = g / kSegmentCapacity, slot g % capacity —
//     so window scans binary-search and iterate with zero locks.
//   * Truncate() builds a view that drops a visible prefix (whole segments
//     plus a first_offset into the new head segment). A reader that pinned
//     the old view keeps every segment it can reach alive through the
//     view's shared_ptrs: reclamation is epoch-based via the pins, so a
//     scan can never read freed memory no matter how the sweep races it.
//
// Writer-side serialization: Append/Publish are externally serialized per
// table (the Database's per-table write stripe, which every writer holds
// while it stages and publishes). Truncate may be called by maintenance
// threads concurrently with the writer, so all three serialize on the
// log's small internal writer mutex — a writer/writer lock only; readers
// never touch it.
//
// HasRecordAfter() and last_published_version() remain wait-free atomics —
// they back the O(1) staleness probe and never touch record storage.

#ifndef IMP_STORAGE_DELTA_LOG_H_
#define IMP_STORAGE_DELTA_LOG_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "common/tuple.h"

namespace imp {

/// Signed, versioned delta record: mult > 0 for insertions (Δ+), mult < 0
/// for deletions (Δ-). `version` is the snapshot id of the statement that
/// produced the change.
struct DeltaRecord {
  Tuple row;
  int64_t mult = 1;
  uint64_t version = 0;
};

class DeltaLog {
 public:
  /// Records per segment. Every segment has exactly this capacity, so a
  /// global record index maps to (segment, slot) with one divide.
  static constexpr size_t kSegmentCapacity = 1024;

  DeltaLog() = default;
  DeltaLog(const DeltaLog&) = delete;
  DeltaLog& operator=(const DeltaLog&) = delete;

  // --- Writer side (Append/Publish externally serialized per table) ---

  /// Stage one record into the unpublished tail.
  void Append(DeltaRecord rec);

  /// Publish the whole staged tail: all appended records become visible and
  /// last_published_version() advances to the newest record's version.
  void Publish();

  /// Drop published records with version <= `version` (log truncation once
  /// every sketch has been maintained past that point). Safe against the
  /// in-flight writer (internal writer mutex) and against every concurrent
  /// reader (pinned views keep dropped segments alive).
  void Truncate(uint64_t version);

  // --- Reader side (wait-free) ---

  /// Number of published records.
  size_t size() const { return published_.load(std::memory_order_acquire); }
  bool empty() const { return size() == 0; }

  /// Copy of published record `i` (i < size(), indexed within the current
  /// view — truncation shifts indices). Tests / introspection.
  DeltaRecord At(size_t i) const;

  /// Version of the newest published record (0 when none). Wait-free.
  uint64_t last_published_version() const {
    return last_published_version_.load(std::memory_order_acquire);
  }

  /// True iff any published record has version > `from_version`. Wait-free
  /// (the O(1) staleness probe).
  bool HasRecordAfter(uint64_t from_version) const {
    return published_.load(std::memory_order_acquire) > 0 &&
           last_published_version_.load(std::memory_order_acquire) >
               from_version;
  }

  /// Number of published records with version > `from_version`.
  size_t CountAfter(uint64_t from_version) const;

  /// Append every published record in (from_version, to_version] that
  /// passes `pred` (empty = all) to `out`, in log order. Versions are
  /// non-decreasing across the published prefix (statements are applied in
  /// allocation order), so the window start is binary-searched: a small
  /// stale tail of a long-lived log costs O(window), not O(log length).
  void CollectWindow(uint64_t from_version, uint64_t to_version,
                     const std::function<bool(const Tuple&)>& pred,
                     std::vector<DeltaRecord>* out) const;

  /// Records staged but not yet published (tests / introspection).
  size_t unpublished() const;

  size_t MemoryBytes() const;

 private:
  /// Fixed-capacity slab of record slots. Slots are default-constructed up
  /// front and assigned by the writer strictly past the published count,
  /// so a slot visible through any view is never written again.
  struct Segment {
    Segment() : slots(new DeltaRecord[kSegmentCapacity]) {}
    std::unique_ptr<DeltaRecord[]> slots;
  };

  /// Immutable description of the visible zone. record(i) addresses the
  /// i-th visible record; the segment list is shared with the writer's
  /// working list (slot storage never moves).
  struct LogView {
    std::vector<std::shared_ptr<Segment>> segments;
    size_t first_offset = 0;  ///< visible start within segments[0]
    size_t count = 0;         ///< number of visible records

    const DeltaRecord& record(size_t i) const {
      size_t g = first_offset + i;
      return segments[g / kSegmentCapacity].get()->slots[g % kSegmentCapacity];
    }
  };

  std::shared_ptr<const LogView> PinView() const {
    return std::atomic_load_explicit(&view_, std::memory_order_acquire);
  }

  /// First visible index in `view` with version > from_version.
  static size_t WindowBegin(const LogView& view, uint64_t from_version);

  /// Build + swap the view for the current writer state. Caller holds
  /// writer_mu_.
  void PublishViewLocked();

  mutable std::mutex writer_mu_;  ///< serializes Append/Publish/Truncate
  // Writer working state (guarded by writer_mu_). The staged zone is
  // [first_offset_ + visible_, first_offset_ + visible_ + staged_) in
  // global slot coordinates over segments_.
  std::vector<std::shared_ptr<Segment>> segments_;
  size_t first_offset_ = 0;  ///< truncated prefix within segments_[0]
  size_t visible_ = 0;       ///< published record count
  size_t staged_ = 0;        ///< appended but unpublished records
  uint64_t last_staged_version_ = 0;

  /// The published view (atomic shared_ptr swap; starts empty non-null).
  std::shared_ptr<const LogView> view_ = std::make_shared<const LogView>();
  std::atomic<size_t> published_{0};
  std::atomic<uint64_t> last_published_version_{0};
};

}  // namespace imp

#endif  // IMP_STORAGE_DELTA_LOG_H_
