#include "imp/inc_join.h"

#include <unordered_map>

#include "common/hash.h"

namespace imp {

namespace {
/// Seed of IncJoin::KeyHash; keep the two in sync so the batched and the
/// row-at-a-time hash are bit-identical.
constexpr uint64_t kJoinKeySeed = 0x2545f4914f6cdd1dULL;
}  // namespace

IncJoin::IncJoin(std::unique_ptr<IncOperator> left,
                 std::unique_ptr<IncOperator> right, PlanPtr left_plan,
                 PlanPtr right_plan, std::vector<JoinNode::KeyPair> keys,
                 ExprPtr residual, const Database* db,
                 const PartitionCatalog* catalog, Options options,
                 MaintainStats* stats)
    : IncOperator([&] {
        std::vector<std::unique_ptr<IncOperator>> c;
        c.push_back(std::move(left));
        c.push_back(std::move(right));
        return c;
      }()),
      left_plan_(std::move(left_plan)),
      right_plan_(std::move(right_plan)),
      keys_(std::move(keys)),
      residual_(std::move(residual)),
      db_(db),
      catalog_(catalog),
      options_(options),
      stats_(stats) {
  // Detect the index fast path: single-key equi-join whose probed side is
  // a stateless chain with the key column passed through from the scan.
  if (keys_.size() == 1) {
    left_chain_ = ExtractStatelessChain(left_plan_);
    right_chain_ = ExtractStatelessChain(right_plan_);
    if (left_chain_) {
      size_t lc = keys_[0].first;
      if (lc < left_chain_->to_scan.size()) {
        left_index_col_ = left_chain_->to_scan[lc];
      }
    }
    if (right_chain_) {
      size_t rc = keys_[0].second;
      if (rc < right_chain_->to_scan.size()) {
        right_index_col_ = right_chain_->to_scan[rc];
      }
    }
  }
}

uint64_t IncJoin::KeyHash(const Tuple& row, bool left_side) const {
  uint64_t h = kJoinKeySeed;
  for (const auto& [lc, rc] : keys_) {
    h = HashCombine(h, row[left_side ? lc : rc].Hash());
  }
  return h;
}

Result<AnnotatedRelation> IncJoin::EvalSide(const PlanPtr& side_plan,
                                            const ReadView* view) {
  Executor exec(db_, view);
  // Side evaluations repeat every round over the same tables — let exact
  // range filters build the ordered index once and skip chunks thereafter.
  exec.set_range_index_mode(RangeIndexMode::kBuild);
  Result<AnnotatedRelation> result = exec.ExecuteAnnotated(
      side_plan,
      [this](const std::string& table, const Tuple& row, BitVector* out) {
        catalog_->AnnotateRow(table, row, out);
      });
  // Fold the delegated capture's kernel counters into this maintainer.
  stats_->vectorized_batches += exec.scan_stats().vectorized_batches;
  stats_->scalar_fallback_rows += exec.scan_stats().scalar_fallback_rows;
  return result;
}

void IncJoin::EmitJoined(const Tuple& l, const BitVector& lsk, const Tuple& r,
                         const BitVector& rsk, int64_t mult,
                         AnnotatedDelta* out) const {
  Tuple joined;
  joined.reserve(l.size() + r.size());
  joined.insert(joined.end(), l.begin(), l.end());
  joined.insert(joined.end(), r.begin(), r.end());
  if (residual_ && !residual_->Eval(joined).IsTrue()) return;
  BitVector sketch = lsk;
  sketch.UnionWith(rsk);  // P1 ∪ P2
  out->Append(std::move(joined), std::move(sketch), mult);
}

Result<AnnotatedRelation> IncJoin::Build(const DeltaContext& ctx) {
  IMP_ASSIGN_OR_RETURN(AnnotatedRelation left, children_[0]->Build(ctx));
  IMP_ASSIGN_OR_RETURN(AnnotatedRelation right, children_[1]->Build(ctx));

  // Build both bloom filters from the current side contents: a one-time
  // O(m) scan cost (Sec. 5.3).
  if (options_.use_bloom && !keys_.empty()) {
    left_bloom_ = std::make_unique<BloomFilter>(left.rows.size() + 1);
    for (const AnnotatedRow& r : left.rows) {
      left_bloom_->AddHash(KeyHash(r.row, /*left_side=*/true));
    }
    right_bloom_ = std::make_unique<BloomFilter>(right.rows.size() + 1);
    for (const AnnotatedRow& r : right.rows) {
      right_bloom_->AddHash(KeyHash(r.row, /*left_side=*/false));
    }
  }

  // The join output for downstream state building.
  return HashJoin(left, right, keys_, residual_);
}

DeltaBatch IncJoin::PruneByBloom(DeltaBatch delta, const BloomFilter& filter,
                                 bool left_side) {
  if (delta.empty()) return delta;
  // Batched probe: fold each key column into the hash lane column-at-a-
  // time (same seed/fold order as KeyHash), then one MayContainHashes call
  // yields the keep bitmap over the base rows.
  const std::vector<AnnotatedDeltaRow>& rows =
      delta.borrowed() ? delta.base()->rows : delta.owned().rows;
  std::vector<uint64_t> hashes(rows.size(), kJoinKeySeed);
  for (const auto& kp : keys_) {
    const size_t col = left_side ? kp.first : kp.second;
    HashColumnBatch(
        rows.size(), [&](size_t i) { return rows[i].row[col].Hash(); },
        &hashes);
  }
  BitVector keep;
  filter.MayContainHashes(hashes.data(), hashes.size(), &keep);
  // A key with a NULL component matches nothing (JoinKeyOf), but every
  // NULL hashes alike, so the filter passes it whenever the other side
  // holds a NULL key: drop such rows here instead of shipping them to a
  // delegated join that cannot emit them.
  for (const auto& kp : keys_) {
    const size_t col = left_side ? kp.first : kp.second;
    for (size_t i = 0; i < rows.size(); ++i) {
      if (rows[i].row[col].is_null()) keep.Reset(i);
    }
  }
  ++stats_->vectorized_batches;
  const size_t before = delta.size();
  DeltaBatch out = std::move(delta).FilterWithMask(keep);
  stats_->bloom_pruned_rows += before - out.size();
  return out;
}

void IncJoin::JoinDeltaWithSide(const DeltaBatch& delta,
                                const AnnotatedRelation& side,
                                bool delta_is_left, int sign,
                                AnnotatedDelta* out) const {
  if (delta.empty() || side.rows.empty()) return;
  if (keys_.empty()) {
    delta.ForEachRow([&](const AnnotatedDeltaRow& d) {
      for (const AnnotatedRow& s : side.rows) {
        if (delta_is_left) {
          EmitJoined(d.row, d.sketch, s.row, s.sketch, sign * d.mult, out);
        } else {
          EmitJoined(s.row, s.sketch, d.row, d.sketch, sign * d.mult, out);
        }
      }
    });
    return;
  }
  // Hash the (usually small) delta, probe with the side rows. Rows are
  // referenced in place — borrowed batches are hashed without copying.
  std::vector<const AnnotatedDeltaRow*> delta_rows;
  delta_rows.reserve(delta.size());
  delta.ForEachRow(
      [&](const AnnotatedDeltaRow& d) { delta_rows.push_back(&d); });
  std::unordered_map<Tuple, std::vector<size_t>, TupleHash, TupleEq> ht;
  ht.reserve(delta_rows.size());
  Tuple key;
  for (size_t i = 0; i < delta_rows.size(); ++i) {
    if (JoinKeyOf(delta_rows[i]->row, keys_, delta_is_left, &key)) {
      ht[std::move(key)].push_back(i);
    }
  }
  for (const AnnotatedRow& s : side.rows) {
    if (!JoinKeyOf(s.row, keys_, !delta_is_left, &key)) continue;
    auto it = ht.find(key);
    if (it == ht.end()) continue;
    for (size_t di : it->second) {
      const AnnotatedDeltaRow& d = *delta_rows[di];
      if (delta_is_left) {
        EmitJoined(d.row, d.sketch, s.row, s.sketch, sign * d.mult, out);
      } else {
        EmitJoined(s.row, s.sketch, d.row, d.sketch, sign * d.mult, out);
      }
    }
  }
}

void IncJoin::JoinDeltaWithDelta(const DeltaBatch& dl, const DeltaBatch& dr,
                                 AnnotatedDelta* out) const {
  if (dl.empty() || dr.empty()) return;
  dl.ForEachRow([&](const AnnotatedDeltaRow& l) {
    dr.ForEachRow([&](const AnnotatedDeltaRow& r) {
      for (const auto& [lc, rc] : keys_) {
        // NULL equals nothing, itself included (see JoinKeyOf).
        if (l.row[lc].is_null() || l.row[lc].Compare(r.row[rc]) != 0) return;
      }
      // −ΔR ⋈ ΔS: the subtraction term of the post-state identity (it
      // collapses the paper's mixed insert/delete cases).
      EmitJoined(l.row, l.sketch, r.row, r.sketch, -(l.mult * r.mult), out);
    });
  });
}

bool IncJoin::TryIndexedJoin(const DeltaBatch& delta, bool delta_is_left,
                             int sign, const ReadView* view,
                             AnnotatedDelta* out) {
  const std::optional<StatelessChain>& chain =
      delta_is_left ? right_chain_ : left_chain_;
  int index_col = delta_is_left ? right_index_col_ : left_index_col_;
  if (!chain || index_col < 0) return false;
  // Probe the pinned snapshot's point index: rows and index shards are
  // immutable and consistent at the round's cut, and shards carried
  // forward from earlier publications make the probe O(delta)-maintained.
  std::shared_ptr<const TableSnapshot> pinned;
  const TableSnapshot* snap = view ? view->Find(chain->table) : nullptr;
  if (snap == nullptr) {
    const Table* table = db_->GetTable(chain->table);
    if (table == nullptr) return false;
    pinned = table->Snapshot();
    snap = pinned.get();
  }

  size_t delta_key_col = delta_is_left ? keys_[0].first : keys_[0].second;
  delta.ForEachRow([&](const AnnotatedDeltaRow& d) {
    snap->ForEachIndexMatch(
        static_cast<size_t>(index_col), d.row[delta_key_col],
        [&](const TableSnapshot::RowLoc& loc) {
          Tuple base = snap->chunks()[loc.chunk]->GetRow(loc.row);
          BitVector side_sketch;
          catalog_->AnnotateRow(chain->table, base, &side_sketch);
          Tuple side_row;
          if (!chain->Replay(base, &side_row)) return;
          if (delta_is_left) {
            EmitJoined(d.row, d.sketch, side_row, side_sketch, sign * d.mult,
                       out);
          } else {
            EmitJoined(side_row, side_sketch, d.row, d.sketch, sign * d.mult,
                       out);
          }
        });
  });
  return true;
}

Result<DeltaBatch> IncJoin::Process(const DeltaContext& ctx) {
  IMP_ASSIGN_OR_RETURN(DeltaBatch dl, children_[0]->Process(ctx));
  IMP_ASSIGN_OR_RETURN(DeltaBatch dr, children_[1]->Process(ctx));
  AnnotatedDelta out;
  if (dl.empty() && dr.empty()) return DeltaBatch();

  // Update bloom filters with inserted keys *before* pruning, so a delta
  // row that only joins another delta row in this batch is not dropped.
  // (Deletions are never removed from the filters — they stay conservative
  // supersets of the key sets, which preserves correctness.)
  if (options_.use_bloom && left_bloom_ != nullptr) {
    dl.ForEachRow([&](const AnnotatedDeltaRow& r) {
      if (r.mult > 0) left_bloom_->AddHash(KeyHash(r.row, true));
    });
    dr.ForEachRow([&](const AnnotatedDeltaRow& r) {
      if (r.mult > 0) right_bloom_->AddHash(KeyHash(r.row, false));
    });
    dl = PruneByBloom(std::move(dl), *right_bloom_, /*left_side=*/true);
    dr = PruneByBloom(std::move(dr), *left_bloom_, /*left_side=*/false);
  }

  // ΔR ⋈ S_new (delegated round trip, skipped when the pruned delta is
  // empty; answered via the backend's hash index when the side allows it).
  if (!dl.empty()) {
    stats_->join_rows_shipped += dl.size();
    ++stats_->join_round_trips;
    if (!TryIndexedJoin(dl, /*delta_is_left=*/true, +1, ctx.view, &out)) {
      ++stats_->index_fallback_scans;  // no point index: O(rows) side eval
      IMP_ASSIGN_OR_RETURN(AnnotatedRelation right_side,
                           EvalSide(right_plan_, ctx.view));
      JoinDeltaWithSide(dl, right_side, /*delta_is_left=*/true, +1, &out);
    }
  }
  // R_new ⋈ ΔS
  if (!dr.empty()) {
    stats_->join_rows_shipped += dr.size();
    ++stats_->join_round_trips;
    if (!TryIndexedJoin(dr, /*delta_is_left=*/false, +1, ctx.view, &out)) {
      ++stats_->index_fallback_scans;  // no point index: O(rows) side eval
      IMP_ASSIGN_OR_RETURN(AnnotatedRelation left_side,
                           EvalSide(left_plan_, ctx.view));
      JoinDeltaWithSide(dr, left_side, /*delta_is_left=*/false, +1, &out);
    }
  }
  // − ΔR ⋈ ΔS
  JoinDeltaWithDelta(dl, dr, &out);

  out.Consolidate();
  return DeltaBatch::OwnedOf(std::move(out));
}

size_t IncJoin::StateBytes() const {
  size_t bytes = 0;
  if (left_bloom_) bytes += left_bloom_->MemoryBytes();
  if (right_bloom_) bytes += right_bloom_->MemoryBytes();
  return bytes;
}

namespace {
void SaveBloom(SerdeWriter* writer, const BloomFilter* bloom) {
  writer->WriteBool(bloom != nullptr);
  if (bloom == nullptr) return;
  writer->WriteU64(bloom->num_bits());
  writer->WriteI64(bloom->num_hashes());
  writer->WriteU64(bloom->words().size());
  for (uint64_t w : bloom->words()) writer->WriteU64(w);
}

Result<std::unique_ptr<BloomFilter>> LoadBloom(SerdeReader* reader) {
  IMP_ASSIGN_OR_RETURN(bool present, reader->ReadBool());
  if (!present) return std::unique_ptr<BloomFilter>();
  IMP_ASSIGN_OR_RETURN(uint64_t bits, reader->ReadU64());
  IMP_ASSIGN_OR_RETURN(int64_t hashes, reader->ReadI64());
  IMP_ASSIGN_OR_RETURN(uint64_t num_words, reader->ReadU64());
  std::vector<uint64_t> words(num_words);
  for (uint64_t i = 0; i < num_words; ++i) {
    IMP_ASSIGN_OR_RETURN(words[i], reader->ReadU64());
  }
  auto bloom = std::make_unique<BloomFilter>(1);
  bloom->Restore(bits, static_cast<int>(hashes), std::move(words));
  return bloom;
}
}  // namespace

void IncJoin::SaveState(SerdeWriter* writer) const {
  SaveBloom(writer, left_bloom_.get());
  SaveBloom(writer, right_bloom_.get());
}

Status IncJoin::LoadState(SerdeReader* reader) {
  IMP_ASSIGN_OR_RETURN(left_bloom_, LoadBloom(reader));
  IMP_ASSIGN_OR_RETURN(right_bloom_, LoadBloom(reader));
  return Status::OK();
}

}  // namespace imp
