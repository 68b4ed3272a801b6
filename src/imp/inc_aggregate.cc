#include "imp/inc_aggregate.h"

#include <algorithm>

#include "sketch/partition.h"
#include "storage/table.h"

namespace imp {

IncAggregate::IncAggregate(std::unique_ptr<IncOperator> child,
                           std::vector<ExprPtr> group_exprs,
                           std::vector<AggSpec> aggs, Schema output_schema,
                           Options options, MaintainStats* stats)
    : IncOperator([&] {
        std::vector<std::unique_ptr<IncOperator>> c;
        c.push_back(std::move(child));
        return c;
      }()),
      group_exprs_(std::move(group_exprs)),
      aggs_(std::move(aggs)),
      output_schema_(std::move(output_schema)),
      options_(options),
      stats_(stats) {
  key_cols_valid_ = true;
  key_cols_.reserve(group_exprs_.size());
  for (const ExprPtr& g : group_exprs_) {
    if (g->kind() != ExprKind::kColumnRef) {
      key_cols_valid_ = false;
      key_cols_.clear();
      break;
    }
    key_cols_.push_back(static_cast<const ColumnRefExpr&>(*g).index());
  }
  agg_cols_.reserve(aggs_.size());
  for (const AggSpec& spec : aggs_) {
    agg_cols_.push_back(spec.arg && spec.arg->kind() == ExprKind::kColumnRef
                            ? static_cast<int>(
                                  static_cast<const ColumnRefExpr&>(*spec.arg)
                                      .index())
                            : -1);
  }
}

size_t IncAggregate::AggState::MemoryBytes() const {
  size_t bytes = sizeof(AggState);
  for (const auto& [v, _] : values) {
    bytes += v.MemoryBytes() + sizeof(int64_t) + 3 * sizeof(void*);
  }
  return bytes;
}

BitVector IncAggregate::GroupState::SketchOf() const {
  BitVector out;
  for (const auto& [frag, count] : frag_counts) {
    if (count > 0) {
      out.Resize(frag + 1);
      out.Set(frag);
    }
  }
  return out;
}

size_t IncAggregate::GroupState::MemoryBytes() const {
  size_t bytes = sizeof(GroupState);
  for (const AggState& agg : aggs) bytes += agg.MemoryBytes();
  bytes += frag_counts.size() * (2 * sizeof(int64_t) + 3 * sizeof(void*));
  return bytes;
}

Tuple IncAggregate::GroupKeyOf(const Tuple& row) const {
  Tuple key;
  key.reserve(group_exprs_.size());
  if (key_cols_valid_) {
    for (size_t c : key_cols_) key.push_back(row[c]);
    return key;
  }
  for (const ExprPtr& g : group_exprs_) key.push_back(g->Eval(row));
  return key;
}

Status IncAggregate::ApplyMinMax(AggState* agg, const AggSpec& spec,
                                 const Value& v, int64_t mult) {
  const bool keep_smallest = spec.fn == AggFunc::kMin;
  const size_t limit = options_.minmax_buffer;
  auto& values = agg->values;

  if (mult > 0) {
    if (limit == 0 || values.size() < limit) {
      values[v] += mult;
    } else {
      // Buffer full: accept only values better than the worst retained one.
      const Value& worst =
          keep_smallest ? values.rbegin()->first : values.begin()->first;
      bool better = keep_smallest ? (v < worst) : (worst < v);
      if (better || values.count(v) > 0) {
        values[v] += mult;
        // Evict the worst entry if we grew beyond the limit.
        while (values.size() > limit) {
          auto worst_it = keep_smallest ? std::prev(values.end())
                                        : values.begin();
          agg->overflow += worst_it->second;
          values.erase(worst_it);
        }
      } else {
        agg->overflow += mult;
      }
    }
    return Status::OK();
  }

  // Deletion.
  int64_t remove = -mult;
  auto it = values.find(v);
  if (it != values.end()) {
    it->second -= remove;
    if (it->second < 0) {
      return Status::NeedsRecapture("min/max multiset underflow");
    }
    if (it->second == 0) values.erase(it);
  } else if (limit != 0 && agg->overflow >= remove) {
    // The value was truncated away; it must be worse than everything
    // retained, so it only affects the overflow count.
    agg->overflow -= remove;
  } else {
    return Status::NeedsRecapture("deletion of untracked min/max value");
  }
  if (values.empty() && agg->overflow > 0) {
    // We no longer know the best value (Sec. 7.2: "if all tuples from the
    // buffer are deleted, we have to recapture the sketch").
    return Status::NeedsRecapture("min/max buffer exhausted");
  }
  return Status::OK();
}

Status IncAggregate::ApplyAggValue(AggState* agg, const AggSpec& spec,
                                   const Value& v, int64_t mult) {
  switch (spec.fn) {
    case AggFunc::kCount:
      agg->nonnull_count += mult;
      break;
    case AggFunc::kSum:
    case AggFunc::kAvg:
      agg->nonnull_count += mult;
      if (v.is_double()) {
        agg->saw_double = true;
        agg->dbl_sum += v.AsDouble() * static_cast<double>(mult);
      } else {
        agg->int_sum += v.AsInt() * mult;
      }
      break;
    case AggFunc::kMin:
    case AggFunc::kMax:
      return ApplyMinMax(agg, spec, v, mult);
  }
  return Status::OK();
}

Status IncAggregate::ApplyRow(GroupState* state, const Tuple& row,
                              const BitVector& sketch, int64_t mult) {
  state->count += mult;
  if (state->count < 0) {
    return Status::NeedsRecapture("group multiplicity went negative");
  }
  for (size_t bit : sketch.SetBits()) {
    int64_t& c = state->frag_counts[bit];
    c += mult;
    if (c < 0) return Status::NeedsRecapture("fragment count went negative");
    if (c == 0) state->frag_counts.erase(bit);
  }
  for (size_t i = 0; i < aggs_.size(); ++i) {
    const AggSpec& spec = aggs_[i];
    Value v = (i < agg_cols_.size() && agg_cols_[i] >= 0)
                  ? row[static_cast<size_t>(agg_cols_[i])]
                  : (spec.arg ? spec.arg->Eval(row) : Value::Int(1));
    if (v.is_null()) continue;  // SQL aggregates skip NULLs
    Status st = ApplyAggValue(&state->aggs[i], spec, v, mult);
    if (!st.ok()) return st;
  }
  return Status::OK();
}

Tuple IncAggregate::OutputRow(const Tuple& key, const GroupState& state) const {
  Tuple out = key;
  out.reserve(key.size() + aggs_.size());
  for (size_t i = 0; i < aggs_.size(); ++i) {
    const AggSpec& spec = aggs_[i];
    const AggState& agg = state.aggs[i];
    switch (spec.fn) {
      case AggFunc::kCount:
        out.push_back(Value::Int(agg.nonnull_count));
        break;
      case AggFunc::kSum:
        if (agg.nonnull_count == 0) {
          out.push_back(Value::Null());
        } else if (agg.saw_double) {
          out.push_back(
              Value::Double(agg.dbl_sum + static_cast<double>(agg.int_sum)));
        } else {
          out.push_back(Value::Int(agg.int_sum));
        }
        break;
      case AggFunc::kAvg:
        if (agg.nonnull_count == 0) {
          out.push_back(Value::Null());
        } else {
          double total = agg.dbl_sum + static_cast<double>(agg.int_sum);
          out.push_back(
              Value::Double(total / static_cast<double>(agg.nonnull_count)));
        }
        break;
      case AggFunc::kMin:
        out.push_back(agg.values.empty() ? Value::Null()
                                         : agg.values.begin()->first);
        break;
      case AggFunc::kMax:
        out.push_back(agg.values.empty() ? Value::Null()
                                         : agg.values.rbegin()->first);
        break;
    }
  }
  return out;
}

AnnotatedRelation IncAggregate::FinalizeBuildOutput() {
  // Aggregation without GROUP BY always has exactly one (possibly empty)
  // group.
  if (group_exprs_.empty() && groups_.empty()) {
    groups_.try_emplace(Tuple{}).first->second.aggs.resize(aggs_.size());
  }
  AnnotatedRelation out;
  out.schema = output_schema_;
  out.rows.reserve(groups_.size());
  for (const auto& [key, state] : groups_) {
    if (!GroupExists(state) && !group_exprs_.empty()) continue;
    out.rows.push_back(AnnotatedRow{OutputRow(key, state), state.SketchOf()});
  }
  return out;
}

Result<bool> IncAggregate::TryBuildColumnar(const DeltaContext& ctx,
                                            AnnotatedRelation* result) {
  if (!key_cols_valid_) return false;
  for (size_t i = 0; i < aggs_.size(); ++i) {
    // A general expression argument needs the materialized row.
    if (agg_cols_[i] < 0 && aggs_[i].arg) return false;
  }
  const IncScan* scan = children_[0]->AsIncScan();
  if (scan == nullptr) return false;
  std::shared_ptr<const TableSnapshot> pinned;
  const TableSnapshot* snap = nullptr;
  TableAnnotator annot;
  if (!scan->ColumnarSource(ctx, &pinned, &snap, &annot)) return false;

  groups_.clear();
  // Unboxed fragment bounds: same raw-int64 upper_bound fast path as
  // IncScan::Build (NULL sorts below every integer bound → fragment 0).
  std::vector<int64_t> int_bounds;
  if (annot.active()) {
    for (const Value& b : annot.partition()->bounds()) {
      if (!b.is_int()) {
        int_bounds.clear();
        break;
      }
      int_bounds.push_back(b.AsInt());
    }
  }

  // Side index into groups_ (node-based: GroupState pointers are stable),
  // plus a one-entry fragment-count cache per group — grouping columns
  // usually determine the partition fragment, so the std::map lookup in
  // frag_counts collapses to one pointer increment per row.
  struct GroupRef {
    GroupState* state = nullptr;
    size_t cached_frag = SIZE_MAX;
    int64_t* cached_count = nullptr;
  };
  std::unordered_map<int64_t, GroupRef> int_groups;
  std::unordered_map<Tuple, GroupRef, TupleHash, TupleEq> tuple_groups;
  auto locate = [&](Tuple key) -> GroupRef& {
    auto [sit, fresh] = tuple_groups.try_emplace(std::move(key));
    if (fresh) {
      auto [it, inserted] = groups_.try_emplace(sit->first);
      if (inserted) it->second.aggs.resize(aggs_.size());
      sit->second.state = &it->second;
    }
    return sit->second;
  };

  // Per-chunk, per-aggregate access plan.
  enum class AggMode : uint8_t {
    kCountStar,  // COUNT with no argument: every row counts
    kCountCol,   // COUNT(col): non-NULL cells count
    kSumInt,     // SUM/AVG over an unboxed int64 column
    kSumDbl,     // SUM/AVG over an unboxed double column
    kGeneric,    // rebox the cell and run the shared ApplyAggValue
  };
  struct AggPlan {
    AggMode mode;
    const ColumnVector* cv = nullptr;
    const int64_t* iv = nullptr;
    const double* dv = nullptr;
  };

  for (const auto& chunk : snap->chunks()) {
    const size_t n = chunk->num_rows();
    if (n == 0) continue;
    // Group-key access: a single int64-encoded key column gets a raw-value
    // side map; anything else builds the key tuple from reboxed cells.
    const ColumnVector* kcol = nullptr;
    if (key_cols_.size() == 1) {
      const ColumnVector& cand = chunk->column(key_cols_[0]);
      if (cand.encoding() == ColumnVector::Encoding::kInt64) kcol = &cand;
    }
    // Partition-column access for fragment counting.
    const ColumnVector* pcol = nullptr;
    if (annot.active() && !int_bounds.empty()) {
      const ColumnVector& cand = chunk->column(annot.attr_index());
      if (cand.encoding() == ColumnVector::Encoding::kInt64) pcol = &cand;
    }
    std::vector<AggPlan> plans(aggs_.size());
    for (size_t a = 0; a < aggs_.size(); ++a) {
      AggPlan& p = plans[a];
      if (agg_cols_[a] < 0) {
        p.mode = aggs_[a].fn == AggFunc::kCount ? AggMode::kCountStar
                                                : AggMode::kGeneric;
        continue;  // kGeneric with cv == nullptr folds Value::Int(1)
      }
      p.cv = &chunk->column(static_cast<size_t>(agg_cols_[a]));
      const bool summable =
          aggs_[a].fn == AggFunc::kSum || aggs_[a].fn == AggFunc::kAvg;
      switch (p.cv->encoding()) {
        case ColumnVector::Encoding::kInt64:
          p.mode = aggs_[a].fn == AggFunc::kCount ? AggMode::kCountCol
                   : summable                     ? AggMode::kSumInt
                                                  : AggMode::kGeneric;
          p.iv = p.cv->ints();
          break;
        case ColumnVector::Encoding::kDouble:
          p.mode = aggs_[a].fn == AggFunc::kCount ? AggMode::kCountCol
                   : summable                     ? AggMode::kSumDbl
                                                  : AggMode::kGeneric;
          p.dv = p.cv->doubles();
          break;
        default:
          p.mode = aggs_[a].fn == AggFunc::kCount ? AggMode::kCountCol
                                                  : AggMode::kGeneric;
          break;
      }
    }
    for (size_t i = 0; i < n; ++i) {
      GroupRef* ref;
      if (kcol != nullptr && !kcol->IsNull(i)) {
        auto [sit, fresh] = int_groups.try_emplace(kcol->ints()[i]);
        if (fresh) sit->second = locate(Tuple{Value::Int(kcol->ints()[i])});
        ref = &sit->second;
      } else {
        Tuple key;
        key.reserve(key_cols_.size());
        for (size_t c : key_cols_) key.push_back(chunk->column(c).GetValue(i));
        ref = &locate(std::move(key));
      }
      GroupState* g = ref->state;
      g->count += 1;
      if (annot.active()) {
        size_t bit = annot.offset();
        if (pcol != nullptr) {
          if (!pcol->IsNull(i)) {
            auto it = std::upper_bound(int_bounds.begin(), int_bounds.end(),
                                       pcol->ints()[i]);
            if (it != int_bounds.begin()) {
              size_t frag = static_cast<size_t>(it - int_bounds.begin()) - 1;
              const size_t num_fragments = int_bounds.size() - 1;
              if (frag >= num_fragments) frag = num_fragments - 1;
              bit += frag;
            }
          }
        } else {
          bit += annot.partition()->FragmentOf(
              chunk->column(annot.attr_index()).GetValue(i));
        }
        if (ref->cached_frag == bit) {
          ++*ref->cached_count;
        } else {
          int64_t& c = g->frag_counts[bit];
          ++c;
          ref->cached_frag = bit;
          ref->cached_count = &c;
        }
      }
      for (size_t a = 0; a < plans.size(); ++a) {
        const AggPlan& p = plans[a];
        AggState& agg = g->aggs[a];
        switch (p.mode) {
          case AggMode::kCountStar:
            agg.nonnull_count += 1;
            break;
          case AggMode::kCountCol:
            if (!p.cv->IsNull(i)) agg.nonnull_count += 1;
            break;
          case AggMode::kSumInt:
            if (!p.cv->IsNull(i)) {
              agg.nonnull_count += 1;
              agg.int_sum += p.iv[i];
            }
            break;
          case AggMode::kSumDbl:
            if (!p.cv->IsNull(i)) {
              agg.nonnull_count += 1;
              agg.saw_double = true;
              agg.dbl_sum += p.dv[i];
            }
            break;
          case AggMode::kGeneric: {
            Value v = p.cv != nullptr ? p.cv->GetValue(i) : Value::Int(1);
            if (!v.is_null()) {
              Status st = ApplyAggValue(&agg, aggs_[a], v, 1);
              IMP_RETURN_NOT_OK(st);
            }
            break;
          }
        }
      }
    }
  }
  *result = FinalizeBuildOutput();
  return true;
}

Result<AnnotatedRelation> IncAggregate::Build(const DeltaContext& ctx) {
  AnnotatedRelation columnar;
  IMP_ASSIGN_OR_RETURN(bool handled, TryBuildColumnar(ctx, &columnar));
  if (handled) return columnar;
  IMP_ASSIGN_OR_RETURN(AnnotatedRelation in, children_[0]->Build(ctx));
  groups_.clear();
  for (const AnnotatedRow& r : in.rows) {
    Tuple key = GroupKeyOf(r.row);
    auto [it, inserted] = groups_.try_emplace(std::move(key));
    if (inserted) it->second.aggs.resize(aggs_.size());
    Status st = ApplyRow(&it->second, r.row, r.sketch, 1);
    IMP_RETURN_NOT_OK(st);
  }
  return FinalizeBuildOutput();
}

Result<DeltaBatch> IncAggregate::Process(const DeltaContext& ctx) {
  IMP_ASSIGN_OR_RETURN(DeltaBatch in, children_[0]->Process(ctx));
  AnnotatedDelta out;
  if (in.empty()) return DeltaBatch();

  // Lazily snapshot the previous output of each touched group.
  struct PreState {
    bool existed = false;
    Tuple out_row;
    BitVector sketch;
  };
  std::unordered_map<Tuple, PreState, TupleHash, TupleEq> touched;

  // Input rows are consumed through the cursor: borrowed batches are read
  // in place, the group deltas below are freshly built rows either way.
  DeltaBatch::Cursor cursor(in);
  while (const AnnotatedDeltaRow* r = cursor.Next()) {
    Tuple key = GroupKeyOf(r->row);
    auto [it, inserted] = groups_.try_emplace(key);
    if (inserted) it->second.aggs.resize(aggs_.size());
    auto [snap_it, snap_new] = touched.try_emplace(key);
    if (snap_new) {
      bool global_group = group_exprs_.empty();
      snap_it->second.existed = GroupExists(it->second) || global_group;
      if (snap_it->second.existed) {
        snap_it->second.out_row = OutputRow(key, it->second);
        snap_it->second.sketch = it->second.SketchOf();
      }
    }
    Status st = ApplyRow(&it->second, r->row, r->sketch, r->mult);
    IMP_RETURN_NOT_OK(st);
  }

  for (auto& [key, pre] : touched) {
    auto it = groups_.find(key);
    IMP_CHECK(it != groups_.end());
    const GroupState& state = it->second;
    bool exists_now = GroupExists(state) || group_exprs_.empty();
    if (exists_now) {
      Tuple new_row = OutputRow(key, state);
      BitVector new_sketch = state.SketchOf();
      if (pre.existed && TupleEq{}(pre.out_row, new_row) &&
          pre.sketch == new_sketch) {
        continue;  // no observable change; skip the Δ-/Δ+ pair
      }
      if (pre.existed) {
        out.Append(std::move(pre.out_row), std::move(pre.sketch), -1);
      }
      out.Append(std::move(new_row), std::move(new_sketch), +1);
    } else {
      if (pre.existed) {
        out.Append(std::move(pre.out_row), std::move(pre.sketch), -1);
      }
      if (state.count == 0) groups_.erase(it);  // group fully deleted
    }
  }
  return DeltaBatch::OwnedOf(std::move(out));
}

size_t IncAggregate::StateBytes() const {
  size_t bytes = sizeof(*this);
  for (const auto& [key, state] : groups_) {
    bytes += TupleMemoryBytes(key) + state.MemoryBytes();
  }
  return bytes;
}

void IncAggregate::SaveState(SerdeWriter* writer) const {
  writer->WriteU64(groups_.size());
  for (const auto& [key, state] : groups_) {
    writer->WriteTuple(key);
    writer->WriteI64(state.count);
    writer->WriteU64(state.frag_counts.size());
    for (const auto& [frag, count] : state.frag_counts) {
      writer->WriteU64(frag);
      writer->WriteI64(count);
    }
    writer->WriteU64(state.aggs.size());
    for (const AggState& agg : state.aggs) {
      writer->WriteI64(agg.nonnull_count);
      writer->WriteI64(agg.int_sum);
      writer->WriteDouble(agg.dbl_sum);
      writer->WriteBool(agg.saw_double);
      writer->WriteU64(agg.values.size());
      for (const auto& [v, count] : agg.values) {
        writer->WriteValue(v);
        writer->WriteI64(count);
      }
      writer->WriteI64(agg.overflow);
    }
  }
}

Status IncAggregate::LoadState(SerdeReader* reader) {
  groups_.clear();
  IMP_ASSIGN_OR_RETURN(uint64_t num_groups, reader->ReadU64());
  for (uint64_t g = 0; g < num_groups; ++g) {
    IMP_ASSIGN_OR_RETURN(Tuple key, reader->ReadTuple());
    GroupState state;
    IMP_ASSIGN_OR_RETURN(state.count, reader->ReadI64());
    IMP_ASSIGN_OR_RETURN(uint64_t num_frags, reader->ReadU64());
    for (uint64_t f = 0; f < num_frags; ++f) {
      IMP_ASSIGN_OR_RETURN(uint64_t frag, reader->ReadU64());
      IMP_ASSIGN_OR_RETURN(int64_t count, reader->ReadI64());
      state.frag_counts[frag] = count;
    }
    IMP_ASSIGN_OR_RETURN(uint64_t num_aggs, reader->ReadU64());
    if (num_aggs != aggs_.size()) {
      return Status::Internal("aggregate state does not match plan");
    }
    state.aggs.resize(num_aggs);
    for (uint64_t a = 0; a < num_aggs; ++a) {
      AggState& agg = state.aggs[a];
      IMP_ASSIGN_OR_RETURN(agg.nonnull_count, reader->ReadI64());
      IMP_ASSIGN_OR_RETURN(agg.int_sum, reader->ReadI64());
      IMP_ASSIGN_OR_RETURN(agg.dbl_sum, reader->ReadDouble());
      IMP_ASSIGN_OR_RETURN(agg.saw_double, reader->ReadBool());
      IMP_ASSIGN_OR_RETURN(uint64_t num_values, reader->ReadU64());
      for (uint64_t v = 0; v < num_values; ++v) {
        IMP_ASSIGN_OR_RETURN(Value value, reader->ReadValue());
        IMP_ASSIGN_OR_RETURN(int64_t count, reader->ReadI64());
        agg.values[value] = count;
      }
      IMP_ASSIGN_OR_RETURN(agg.overflow, reader->ReadI64());
    }
    groups_.emplace(std::move(key), std::move(state));
  }
  return Status::OK();
}

}  // namespace imp
