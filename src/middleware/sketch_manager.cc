#include "middleware/sketch_manager.h"

#include <mutex>

namespace imp {

void SketchEntry::PublishSnapshot() {
  std::shared_ptr<const SketchSnapshot> prev = Snapshot();
  std::atomic_store_explicit(&snapshot_,
                             MakeSketchSnapshot(sketch, prev->epoch + 1),
                             std::memory_order_release);
}

SketchManager::Shard* SketchManager::FindShard(std::string_view table) const {
  std::shared_lock<std::shared_mutex> lock(map_mu_);
  auto it = shards_.find(table);
  return it == shards_.end() ? nullptr : it->second.get();
}

SketchManager::Shard& SketchManager::GetOrCreateShard(std::string_view table) {
  if (Shard* shard = FindShard(table)) return *shard;
  std::unique_lock<std::shared_mutex> lock(map_mu_);
  auto it = shards_.find(table);
  if (it == shards_.end()) {
    it = shards_
             .emplace(std::string(table),
                      std::make_unique<Shard>(std::string(table)))
             .first;
  }
  return *it->second;
}

std::vector<SketchManager::Shard*> SketchManager::Shards() const {
  std::shared_lock<std::shared_mutex> lock(map_mu_);
  std::vector<Shard*> out;
  out.reserve(shards_.size());
  for (const auto& [_, shard] : shards_) out.push_back(shard.get());
  return out;  // std::map iteration order == key-sorted
}

std::vector<SketchEntry*> SketchManager::CandidatesLocked(
    const Shard& shard, std::string_view template_key) {
  std::vector<SketchEntry*> out;
  auto it = shard.buckets.find(template_key);
  if (it == shard.buckets.end()) return out;
  out.reserve(it->second.size());
  for (const auto& entry : it->second) out.push_back(entry.get());
  return out;
}

SketchEntry* SketchManager::InsertLocked(Shard& shard,
                                         std::string_view template_key,
                                         std::unique_ptr<SketchEntry> entry) {
  auto it = shard.buckets.find(template_key);
  if (it == shard.buckets.end()) {
    it = shard.buckets.emplace(std::string(template_key),
                               std::vector<std::unique_ptr<SketchEntry>>())
             .first;
  }
  it->second.push_back(std::move(entry));
  return it->second.back().get();
}

size_t SketchManager::size() const {
  size_t n = 0;
  for (Shard* shard : Shards()) {
    std::shared_lock<std::shared_mutex> lock(shard->mu);
    for (const auto& [_, bucket] : shard->buckets) n += bucket.size();
  }
  return n;
}

std::vector<SketchEntry*> SketchManager::AllEntries() {
  std::vector<SketchEntry*> out;
  for (Shard* shard : Shards()) {
    std::shared_lock<std::shared_mutex> lock(shard->mu);
    for (const auto& [_, bucket] : shard->buckets) {
      for (const auto& entry : bucket) out.push_back(entry.get());
    }
  }
  return out;
}

void SketchManager::ClearUnsketchable() {
  for (Shard* shard : Shards()) {
    std::unique_lock<std::shared_mutex> lock(shard->mu);
    shard->unsketchable.clear();
  }
}

uint64_t SketchManager::MinValidVersion() const {
  uint64_t min_valid = UINT64_MAX;
  for (Shard* shard : Shards()) {
    std::shared_lock<std::shared_mutex> lock(shard->mu);
    for (const auto& [_, bucket] : shard->buckets) {
      for (const auto& entry : bucket) {
        // The working copy is stable under the shard's shared lock (its
        // writers hold the exclusive side). Quarantined entries repair by
        // recapture, not log replay — they must not pin the log (see
        // header).
        if (entry->health == SketchHealth::kQuarantined) continue;
        if (entry->sketch.valid_version < min_valid) {
          min_valid = entry->sketch.valid_version;
        }
      }
    }
  }
  return min_valid;
}

SketchManager::HealthTally SketchManager::TallyHealth() const {
  HealthTally tally;
  for (Shard* shard : Shards()) {
    std::shared_lock<std::shared_mutex> lock(shard->mu);
    for (const auto& [_, bucket] : shard->buckets) {
      for (const auto& entry : bucket) {
        switch (entry->health) {
          case SketchHealth::kFresh:
            ++tally.fresh;
            break;
          case SketchHealth::kStale:
            ++tally.stale;
            break;
          case SketchHealth::kQuarantined:
            ++tally.quarantined;
            break;
        }
      }
    }
  }
  return tally;
}

size_t SketchManager::MemoryBytes() const {
  size_t bytes = 0;
  for (Shard* shard : Shards()) {
    std::shared_lock<std::shared_mutex> lock(shard->mu);
    for (const auto& [key, bucket] : shard->buckets) {
      bytes += key.size();
      for (const auto& entry : bucket) {
        bytes += entry->sketch.MemoryBytes();
        if (entry->maintainer) bytes += entry->maintainer->StateBytes();
      }
    }
  }
  return bytes;
}

}  // namespace imp
