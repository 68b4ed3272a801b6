#include "exec/executor.h"

#include <algorithm>
#include <type_traits>
#include <unordered_map>

#include "exec/vector_kernels.h"
#include "exec/zone_filter.h"

namespace imp {

namespace {
/// False when the zone map proves that no row of `chunk` passes `filter`;
/// `ranges` (the filter reduced to one column's ranges, when it reduces)
/// sharpen the test with an ordered shard the chunk already carries.
bool ChunkMayPass(const Expr& filter, const std::optional<ColumnRanges>& ranges,
                  const DataChunk& chunk) {
  return ranges ? ChunkMayMatchRanges(*ranges, chunk)
                : ChunkMayMatch(filter, chunk);
}

// ---- Row types --------------------------------------------------------------
// Every operator is written once over the relation type. The annotated
// instantiation carries a fragment BitVector beside each tuple; the
// `if constexpr` branches that handle it are compiled out of the plain one.

template <typename Rel>
constexpr bool kAnnotated = std::is_same_v<Rel, AnnotatedRelation>;

const Tuple& TupleOf(const Tuple& row) { return row; }
const Tuple& TupleOf(const AnnotatedRow& row) { return row.row; }

RowBlock BlockOf(const std::vector<Tuple>& rows) {
  return RowBlock::FromTuples(rows.data(), rows.size());
}
RowBlock BlockOf(const std::vector<AnnotatedRow>& rows) {
  return RowBlock::FromMember(rows, &AnnotatedRow::row);
}

/// What a plain group accumulates beside its aggregates: nothing.
struct NoSketch {};
template <typename Rel>
using GroupSketch = std::conditional_t<kAnnotated<Rel>, BitVector, NoSketch>;

/// Comparator over tuples induced by ORDER BY sort specs.
struct SortSpecLess {
  const std::vector<SortSpec>* sorts;
  bool operator()(const Tuple& a, const Tuple& b) const {
    for (const SortSpec& s : *sorts) {
      int c = a[s.column].Compare(b[s.column]);
      if (c != 0) return s.ascending ? c < 0 : c > 0;
    }
    return false;
  }
};

/// One aggregate of one group: sum/count/avg/min/max with int/double
/// promotion matching Sec. 5.2.5.
class AggAccumulator {
 public:
  explicit AggAccumulator(const AggSpec* spec) : spec_(spec) {}

  /// Fold one input row.
  void Add(const Tuple& row) {
    Value v = spec_->arg ? spec_->arg->Eval(row) : Value::Int(1);
    if (v.is_null()) return;  // SQL aggregates skip NULLs
    ++count_;
    switch (spec_->fn) {
      case AggFunc::kCount:
        break;
      case AggFunc::kSum:
      case AggFunc::kAvg:
        if (v.is_double()) {
          saw_double_ = true;
          dbl_sum_ += v.AsDouble();
        } else {
          int_sum_ += v.AsInt();
        }
        break;
      case AggFunc::kMin:
        if (!has_minmax_ || v < minmax_) {
          minmax_ = v;
          has_minmax_ = true;
        }
        break;
      case AggFunc::kMax:
        if (!has_minmax_ || minmax_ < v) {
          minmax_ = v;
          has_minmax_ = true;
        }
        break;
    }
  }

  /// Current value of the aggregate (SQL semantics over the folded rows).
  Value Finish() const {
    switch (spec_->fn) {
      case AggFunc::kCount:
        return Value::Int(count_);
      case AggFunc::kSum:
        if (count_ == 0) return Value::Null();
        if (saw_double_) {
          return Value::Double(dbl_sum_ + static_cast<double>(int_sum_));
        }
        return Value::Int(int_sum_);
      case AggFunc::kAvg: {
        if (count_ == 0) return Value::Null();
        double total = dbl_sum_ + static_cast<double>(int_sum_);
        return Value::Double(total / static_cast<double>(count_));
      }
      case AggFunc::kMin:
      case AggFunc::kMax:
        return has_minmax_ ? minmax_ : Value::Null();
    }
    return Value::Null();
  }

 private:
  const AggSpec* spec_;
  int64_t count_ = 0;  // non-NULL input rows
  int64_t int_sum_ = 0;
  double dbl_sum_ = 0.0;
  bool saw_double_ = false;
  bool has_minmax_ = false;
  Value minmax_;
};
}  // namespace

std::string Relation::ToString() const {
  std::vector<std::string> lines;
  lines.reserve(rows.size());
  for (const Tuple& row : rows) lines.push_back(TupleToString(row));
  std::sort(lines.begin(), lines.end());
  std::string out = "[" + schema.ToString() + "]\n";
  for (const auto& line : lines) {
    out += line;
    out += "\n";
  }
  return out;
}

bool Relation::SameBag(const Relation& other) const {
  if (rows.size() != other.rows.size()) return false;
  std::unordered_map<Tuple, int64_t, TupleHash, TupleEq> counts;
  for (const Tuple& row : rows) counts[row]++;
  for (const Tuple& row : other.rows) {
    auto it = counts.find(row);
    if (it == counts.end() || it->second == 0) return false;
    --it->second;
  }
  return true;
}

BitVector AnnotatedRelation::SketchUnion() const {
  BitVector out;
  for (const AnnotatedRow& r : rows) out.UnionWith(r.sketch);
  return out;
}

Relation AnnotatedRelation::ToRelation() const {
  Relation out;
  out.schema = schema;
  out.rows.reserve(rows.size());
  for (const AnnotatedRow& r : rows) out.rows.push_back(r.row);
  return out;
}

Result<Relation> Executor::Execute(const PlanPtr& plan) const {
  return Exec<Relation>(plan, nullptr);
}

Result<AnnotatedRelation> Executor::ExecuteAnnotated(
    const PlanPtr& plan, const RowAnnotator& annotator) const {
  return Exec<AnnotatedRelation>(plan, &annotator);
}

template <typename Rel>
Result<Rel> Executor::Exec(const PlanPtr& plan,
                           const RowAnnotator* annotator) const {
  switch (plan->kind()) {
    case PlanKind::kScan:
      return ExecScan<Rel>(static_cast<const ScanNode&>(*plan), annotator);
    case PlanKind::kSelect:
      return ExecSelect<Rel>(static_cast<const SelectNode&>(*plan), annotator);
    case PlanKind::kProject:
      return ExecProject<Rel>(static_cast<const ProjectNode&>(*plan),
                              annotator);
    case PlanKind::kJoin:
      return ExecJoin<Rel>(static_cast<const JoinNode&>(*plan), annotator);
    case PlanKind::kAggregate:
      return ExecAggregate<Rel>(static_cast<const AggregateNode&>(*plan),
                                annotator);
    case PlanKind::kTopK:
      return ExecTopK<Rel>(static_cast<const TopKNode&>(*plan), annotator);
    case PlanKind::kDistinct:
      return ExecDistinct<Rel>(static_cast<const DistinctNode&>(*plan),
                               annotator);
  }
  return Status::Internal("unknown plan kind");
}

template <typename Rel>
Result<Rel> Executor::ExecScan(const ScanNode& node,
                               const RowAnnotator* annotator) const {
  Rel out;
  out.schema = node.output_schema();
  // A base row enters the plan as is or, annotated, with its fragment bits.
  auto emit = [&](Tuple&& row) {
    if constexpr (kAnnotated<Rel>) {
      AnnotatedRow ar{std::move(row), BitVector()};
      (*annotator)(node.table(), ar.row, &ar.sketch);
      out.rows.push_back(std::move(ar));
    } else {
      out.rows.push_back(std::move(row));
    }
  };
  auto filter = node.filter();
  PredicateKernel kernel;
  if (filter) kernel = PredicateKernel::Compile(filter);
  // Lock-free snapshot read: the caller's pinned view when present (one
  // consistent watermark for the whole plan), else the table's currently
  // published snapshot, pinned for the duration of this scan.
  std::shared_ptr<const TableSnapshot> pinned;
  const TableSnapshot* snap = view_ ? view_->Find(node.table()) : nullptr;
  if (snap == nullptr) {
    const Table* table = db_->GetTable(node.table());
    if (table == nullptr) {
      return Status::NotFound("no such table: " + node.table());
    }
    pinned = table->Snapshot();
    snap = pinned.get();
  }
  // Filters that reduce exactly to single-column value ranges can be
  // answered by the snapshot's ordered index (bit-identical emission
  // order), and sharpen chunk skipping even when they cannot.
  std::optional<ColumnRanges> ranges;
  if (filter) ranges = ExtractColumnRanges(*filter);
  if (ranges && range_index_mode_ != RangeIndexMode::kOff) {
    std::vector<TableSnapshot::RowLoc> locs;
    if (TryIndexRangeScan(*snap, *ranges,
                          range_index_mode_ == RangeIndexMode::kBuild,
                          &locs)) {
      ++scan_stats_.index_range_scans;
      size_t matched_chunks = 0;
      for (size_t i = 0; i < locs.size(); ++i) {
        if (i == 0 || locs[i].chunk != locs[i - 1].chunk) ++matched_chunks;
        emit(snap->chunks()[locs[i].chunk]->GetRow(locs[i].row));
      }
      scan_stats_.chunks_scanned += matched_chunks;
      scan_stats_.chunks_skipped += snap->chunks().size() - matched_chunks;
      scan_stats_.rows_scanned += locs.size();
      return out;
    }
  }
  out.rows.reserve(snap->num_rows());
  for (const auto& chunk : snap->chunks()) {
    if (filter && !ChunkMayPass(*filter, ranges, *chunk)) {
      ++scan_stats_.chunks_skipped;  // zone map pruned the whole chunk
      continue;
    }
    ++scan_stats_.chunks_scanned;
    scan_stats_.rows_scanned += chunk->num_rows();
    if (!filter) {
      for (size_t r = 0; r < chunk->num_rows(); ++r) emit(chunk->GetRow(r));
      continue;
    }
    // Evaluate the predicate column-at-a-time into a selection bitvector,
    // then gather the surviving rows column-at-a-time (one encoding
    // dispatch per column, not per cell).
    BitVector sel;
    kernel.Eval(RowBlock::FromChunk(*chunk), &sel,
                &scan_stats_.vectorized_batches,
                &scan_stats_.scalar_fallback_rows);
    std::vector<Tuple> gathered = chunk->GatherRows(sel);
    for (Tuple& row : gathered) emit(std::move(row));
  }
  return out;
}

std::vector<BitVector> SelectRows(const Table& table, const ExprPtr& where,
                                  size_t limit) {
  const std::vector<std::shared_ptr<DataChunk>>& chunks = table.chunks();
  std::vector<BitVector> selection(chunks.size());
  std::optional<ColumnRanges> ranges;
  PredicateKernel kernel;
  if (where) {
    ranges = ExtractColumnRanges(*where);
    kernel = PredicateKernel::Compile(where);
  }
  size_t taken = 0;
  for (size_t i = 0; i < chunks.size() && taken < limit; ++i) {
    const DataChunk& chunk = *chunks[i];
    BitVector& sel = selection[i];
    if (!where) {
      sel = BitVector(chunk.num_rows());
      sel.SetAll();
    } else if (ChunkMayPass(*where, ranges, chunk)) {
      kernel.Eval(RowBlock::FromChunk(chunk), &sel, nullptr, nullptr);
    } else {
      continue;  // zone map: no row of this chunk can match
    }
    size_t n = sel.Count();
    if (n > limit - taken) {
      // The limit falls inside this chunk: keep its first matches only.
      size_t keep = limit - taken;
      BitVector first(sel.num_bits());
      sel.ForEachSetBit([&](size_t r) {
        if (keep > 0) {
          first.Set(r);
          --keep;
        }
      });
      sel = std::move(first);
      n = limit - taken;
    }
    taken += n;
  }
  return selection;
}

Result<uint64_t> DeleteWhere(Database* db, const std::string& table,
                             const ExprPtr& where, size_t limit) {
  const Table* t = db->GetTable(table);
  if (t == nullptr) return Status::NotFound("no such table: " + table);
  // As Database::Insert: allocate, select, erase and publish under one
  // hold of the stripe, and publish even on failure so the allocated
  // version cannot stall the stable watermark.
  auto session = db->WriteSession(table);
  uint64_t v = db->AllocateVersion();
  Status staged =
      db->StageDelete(table, SelectRows(*t, where, limit), v).status();
  db->PublishVersion(table, v);
  IMP_RETURN_NOT_OK(staged);
  return v;
}

template <typename Rel>
Result<Rel> Executor::ExecSelect(const SelectNode& node,
                                 const RowAnnotator* annotator) const {
  IMP_ASSIGN_OR_RETURN(Rel in, Exec<Rel>(node.child(), annotator));
  Rel out;
  out.schema = node.output_schema();
  PredicateKernel kernel = PredicateKernel::Compile(node.predicate());
  BitVector sel;
  kernel.Eval(BlockOf(in.rows), &sel, &scan_stats_.vectorized_batches,
              &scan_stats_.scalar_fallback_rows);
  sel.ForEachSetBit(
      [&](size_t i) { out.rows.push_back(std::move(in.rows[i])); });
  return out;
}

template <typename Rel>
Result<Rel> Executor::ExecProject(const ProjectNode& node,
                                  const RowAnnotator* annotator) const {
  IMP_ASSIGN_OR_RETURN(Rel in, Exec<Rel>(node.child(), annotator));
  Rel out;
  out.schema = node.output_schema();
  out.rows.reserve(in.rows.size());
  for (auto& r : in.rows) {
    Tuple projected;
    projected.reserve(node.exprs().size());
    for (const ExprPtr& e : node.exprs()) {
      projected.push_back(e->Eval(TupleOf(r)));
    }
    if constexpr (kAnnotated<Rel>) {
      // Π propagates P unmodified (5.2.2).
      out.rows.push_back(
          AnnotatedRow{std::move(projected), std::move(r.sketch)});
    } else {
      out.rows.push_back(std::move(projected));
    }
  }
  return out;
}

template <typename Rel>
Rel HashJoin(const Rel& left, const Rel& right,
             const std::vector<JoinNode::KeyPair>& keys,
             const ExprPtr& residual) {
  Rel out;
  out.schema = Schema::Concat(left.schema, right.schema);

  auto emit = [&](const auto& l, const auto& r) {
    const Tuple& lt = TupleOf(l);
    const Tuple& rt = TupleOf(r);
    Tuple joined;
    joined.reserve(lt.size() + rt.size());
    joined.insert(joined.end(), lt.begin(), lt.end());
    joined.insert(joined.end(), rt.begin(), rt.end());
    if (residual && !residual->Eval(joined).IsTrue()) return;
    if constexpr (kAnnotated<Rel>) {
      AnnotatedRow jr{std::move(joined), l.sketch};
      jr.sketch.UnionWith(r.sketch);  // P1 ∪ P2 (5.2.4)
      out.rows.push_back(std::move(jr));
    } else {
      out.rows.push_back(std::move(joined));
    }
  };

  if (keys.empty()) {
    // Cross product with optional residual predicate.
    for (const auto& l : left.rows) {
      for (const auto& r : right.rows) emit(l, r);
    }
    return out;
  }

  // Hash join: build on the right side.
  std::unordered_map<Tuple, std::vector<size_t>, TupleHash, TupleEq> ht;
  ht.reserve(right.rows.size());
  Tuple key;
  for (size_t i = 0; i < right.rows.size(); ++i) {
    if (JoinKeyOf(TupleOf(right.rows[i]), keys, /*left_side=*/false, &key)) {
      ht[std::move(key)].push_back(i);
    }
  }
  for (const auto& l : left.rows) {
    if (!JoinKeyOf(TupleOf(l), keys, /*left_side=*/true, &key)) continue;
    auto it = ht.find(key);
    if (it == ht.end()) continue;
    for (size_t ri : it->second) emit(l, right.rows[ri]);
  }
  return out;
}

bool JoinKeyOf(const Tuple& row, const std::vector<JoinNode::KeyPair>& keys,
               bool left_side, Tuple* key) {
  key->clear();
  key->reserve(keys.size());
  for (const auto& [lc, rc] : keys) {
    const Value& v = row[left_side ? lc : rc];
    if (v.is_null()) return false;
    key->push_back(v);
  }
  return true;
}

template Relation HashJoin(const Relation&, const Relation&,
                           const std::vector<JoinNode::KeyPair>&,
                           const ExprPtr&);
template AnnotatedRelation HashJoin(const AnnotatedRelation&,
                                    const AnnotatedRelation&,
                                    const std::vector<JoinNode::KeyPair>&,
                                    const ExprPtr&);

template <typename Rel>
Result<Rel> Executor::ExecJoin(const JoinNode& node,
                               const RowAnnotator* annotator) const {
  IMP_ASSIGN_OR_RETURN(Rel left, Exec<Rel>(node.left(), annotator));
  IMP_ASSIGN_OR_RETURN(Rel right, Exec<Rel>(node.right(), annotator));
  return HashJoin(left, right, node.keys(), node.residual());
}

template <typename Rel>
Result<Rel> Executor::ExecAggregate(const AggregateNode& node,
                                    const RowAnnotator* annotator) const {
  IMP_ASSIGN_OR_RETURN(Rel in, Exec<Rel>(node.child(), annotator));
  Rel out;
  out.schema = node.output_schema();

  // A group's accumulators and, annotated, the union of its input rows'
  // sketches.
  struct GroupState {
    std::vector<AggAccumulator> accums;
    GroupSketch<Rel> sketch;
  };
  std::unordered_map<Tuple, GroupState, TupleHash, TupleEq> groups;
  auto group_of = [&](Tuple&& key) -> GroupState& {
    auto [it, inserted] = groups.try_emplace(std::move(key));
    if (inserted) {
      it->second.accums.reserve(node.aggs().size());
      for (const AggSpec& spec : node.aggs()) {
        it->second.accums.emplace_back(&spec);
      }
    }
    return it->second;
  };

  for (const auto& r : in.rows) {
    const Tuple& row = TupleOf(r);
    Tuple key;
    key.reserve(node.group_exprs().size());
    for (const ExprPtr& g : node.group_exprs()) key.push_back(g->Eval(row));
    GroupState& group = group_of(std::move(key));
    for (AggAccumulator& acc : group.accums) acc.Add(row);
    if constexpr (kAnnotated<Rel>) group.sketch.UnionWith(r.sketch);
  }

  // Aggregation without GROUP BY over an empty input still produces one
  // row: the one group, fed no row (so, annotated, with an empty sketch).
  if (groups.empty() && node.group_exprs().empty()) group_of(Tuple());

  out.rows.reserve(groups.size());
  for (auto& [key, state] : groups) {
    Tuple row = key;
    for (const AggAccumulator& acc : state.accums) row.push_back(acc.Finish());
    if constexpr (kAnnotated<Rel>) {
      // The group's sketch is the union of its inputs' (5.2.5).
      out.rows.push_back(AnnotatedRow{std::move(row), std::move(state.sketch)});
    } else {
      out.rows.push_back(std::move(row));
    }
  }
  return out;
}

template <typename Rel>
Result<Rel> Executor::ExecTopK(const TopKNode& node,
                               const RowAnnotator* annotator) const {
  IMP_ASSIGN_OR_RETURN(Rel in, Exec<Rel>(node.child(), annotator));
  Rel out;
  out.schema = node.output_schema();
  SortSpecLess less{&node.sorts()};
  std::stable_sort(in.rows.begin(), in.rows.end(),
                   [&](const auto& a, const auto& b) {
                     return less(TupleOf(a), TupleOf(b));
                   });
  size_t k = node.k() < in.rows.size() ? node.k() : in.rows.size();
  out.rows.assign(in.rows.begin(), in.rows.begin() + static_cast<long>(k));
  return out;
}

template <typename Rel>
Result<Rel> Executor::ExecDistinct(const DistinctNode& node,
                                   const RowAnnotator* annotator) const {
  IMP_ASSIGN_OR_RETURN(Rel in, Exec<Rel>(node.child(), annotator));
  Rel out;
  out.schema = node.output_schema();
  // Each distinct tuple's position in `out`.
  std::unordered_map<Tuple, size_t, TupleHash, TupleEq> seen;
  for (auto& r : in.rows) {
    auto [it, inserted] = seen.try_emplace(TupleOf(r), out.rows.size());
    if (inserted) {
      out.rows.push_back(std::move(r));
    } else if constexpr (kAnnotated<Rel>) {
      // Union the duplicate's sketch: a safe over-approximation of the
      // witness set for the distinct tuple.
      out.rows[it->second].sketch.UnionWith(r.sketch);
    }
  }
  return out;
}

}  // namespace imp
