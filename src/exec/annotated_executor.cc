#include "exec/annotated_executor.h"

#include <algorithm>
#include <unordered_map>

#include "exec/vector_kernels.h"
#include "exec/zone_filter.h"

namespace imp {

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

Result<AnnotatedRelation> AnnotatedExecutor::Execute(const PlanPtr& plan) const {
  switch (plan->kind()) {
    case PlanKind::kScan:
      return ExecScan(static_cast<const ScanNode&>(*plan));
    case PlanKind::kSelect:
      return ExecSelect(static_cast<const SelectNode&>(*plan));
    case PlanKind::kProject:
      return ExecProject(static_cast<const ProjectNode&>(*plan));
    case PlanKind::kJoin:
      return ExecJoin(static_cast<const JoinNode&>(*plan));
    case PlanKind::kAggregate:
      return ExecAggregate(static_cast<const AggregateNode&>(*plan));
    case PlanKind::kTopK:
      return ExecTopK(static_cast<const TopKNode&>(*plan));
    case PlanKind::kDistinct:
      return ExecDistinct(static_cast<const DistinctNode&>(*plan));
  }
  return Status::Internal("unknown plan kind");
}

Result<AnnotatedRelation> AnnotatedExecutor::ExecScan(const ScanNode& node) const {
  AnnotatedRelation out;
  out.schema = node.output_schema();
  auto filter = node.filter();
  PredicateKernel kernel;
  if (filter) kernel = PredicateKernel::Compile(filter);
  auto bound = bindings_.find(node.table());
  if (bound != bindings_.end()) {
    const std::vector<AnnotatedRow>& rows = bound->second->rows;
    if (!filter) {
      out.rows = rows;
      return out;
    }
    BitVector sel;
    kernel.Eval(RowBlock::FromMember(rows, &AnnotatedRow::row), &sel,
                &scan_stats_.vectorized_batches,
                &scan_stats_.scalar_fallback_rows);
    sel.ForEachSetBit([&](size_t i) { out.rows.push_back(rows[i]); });
    return out;
  }
  // Lock-free snapshot read (see Executor::ExecScan).
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
  // Exact single-column range filters: serve from the ordered index
  // (bit-identical emission order) or at least sharpen chunk skipping —
  // mirrors Executor::ExecScan.
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
        AnnotatedRow ar;
        ar.row = snap->chunks()[locs[i].chunk]->GetRow(locs[i].row);
        if (annotator_) annotator_(node.table(), ar.row, &ar.sketch);
        out.rows.push_back(std::move(ar));
      }
      scan_stats_.chunks_scanned += matched_chunks;
      scan_stats_.chunks_skipped += snap->chunks().size() - matched_chunks;
      scan_stats_.rows_scanned += locs.size();
      return out;
    }
  }
  out.rows.reserve(snap->num_rows());
  for (const auto& chunk : snap->chunks()) {
    if (filter && !(ranges ? ChunkMayMatchRanges(*ranges, *chunk)
                           : ChunkMayMatch(*filter, *chunk))) {
      ++scan_stats_.chunks_skipped;  // zone map skip
      continue;
    }
    ++scan_stats_.chunks_scanned;
    scan_stats_.rows_scanned += chunk->num_rows();
    std::vector<Tuple> gathered;
    if (filter) {
      // Filter the whole chunk column-at-a-time and gather the survivors
      // column-at-a-time.
      BitVector sel;
      kernel.Eval(RowBlock::FromChunk(*chunk), &sel,
                  &scan_stats_.vectorized_batches,
                  &scan_stats_.scalar_fallback_rows);
      gathered = chunk->GatherRows(sel);
    }
    const size_t n = filter ? gathered.size() : chunk->num_rows();
    for (size_t r = 0; r < n; ++r) {
      AnnotatedRow ar;
      ar.row = filter ? std::move(gathered[r]) : chunk->GetRow(r);
      if (annotator_) annotator_(node.table(), ar.row, &ar.sketch);
      out.rows.push_back(std::move(ar));
    }
  }
  return out;
}

Result<AnnotatedRelation> AnnotatedExecutor::ExecSelect(
    const SelectNode& node) const {
  IMP_ASSIGN_OR_RETURN(AnnotatedRelation in, Execute(node.child()));
  AnnotatedRelation out;
  out.schema = node.output_schema();
  PredicateKernel kernel = PredicateKernel::Compile(node.predicate());
  BitVector sel;
  kernel.Eval(RowBlock::FromMember(in.rows, &AnnotatedRow::row), &sel,
              &scan_stats_.vectorized_batches,
              &scan_stats_.scalar_fallback_rows);
  sel.ForEachSetBit(
      [&](size_t i) { out.rows.push_back(std::move(in.rows[i])); });
  return out;
}

Result<AnnotatedRelation> AnnotatedExecutor::ExecProject(
    const ProjectNode& node) const {
  IMP_ASSIGN_OR_RETURN(AnnotatedRelation in, Execute(node.child()));
  AnnotatedRelation out;
  out.schema = node.output_schema();
  out.rows.reserve(in.rows.size());
  for (AnnotatedRow& r : in.rows) {
    AnnotatedRow pr;
    pr.row.reserve(node.exprs().size());
    for (const ExprPtr& e : node.exprs()) pr.row.push_back(e->Eval(r.row));
    pr.sketch = std::move(r.sketch);  // Π propagates P unmodified (5.2.2)
    out.rows.push_back(std::move(pr));
  }
  return out;
}

Result<AnnotatedRelation> AnnotatedExecutor::ExecJoin(const JoinNode& node) const {
  IMP_ASSIGN_OR_RETURN(AnnotatedRelation left, Execute(node.left()));
  IMP_ASSIGN_OR_RETURN(AnnotatedRelation right, Execute(node.right()));
  AnnotatedRelation out;
  out.schema = node.output_schema();
  const ExprPtr& residual = node.residual();

  auto emit = [&](const AnnotatedRow& l, const AnnotatedRow& r) {
    Tuple joined;
    joined.reserve(l.row.size() + r.row.size());
    joined.insert(joined.end(), l.row.begin(), l.row.end());
    joined.insert(joined.end(), r.row.begin(), r.row.end());
    if (residual && !residual->Eval(joined).IsTrue()) return;
    AnnotatedRow jr;
    jr.row = std::move(joined);
    jr.sketch = l.sketch;
    jr.sketch.UnionWith(r.sketch);  // P1 ∪ P2 (5.2.4)
    out.rows.push_back(std::move(jr));
  };

  if (node.keys().empty()) {
    for (const AnnotatedRow& l : left.rows) {
      for (const AnnotatedRow& r : right.rows) emit(l, r);
    }
    return out;
  }

  std::unordered_map<Tuple, std::vector<size_t>, TupleHash, TupleEq> ht;
  ht.reserve(right.rows.size());
  for (size_t i = 0; i < right.rows.size(); ++i) {
    Tuple key;
    for (const auto& [lc, rc] : node.keys()) {
      (void)lc;
      key.push_back(right.rows[i].row[rc]);
    }
    ht[std::move(key)].push_back(i);
  }
  for (const AnnotatedRow& l : left.rows) {
    Tuple key;
    for (const auto& [lc, rc] : node.keys()) {
      (void)rc;
      key.push_back(l.row[lc]);
    }
    auto it = ht.find(key);
    if (it == ht.end()) continue;
    for (size_t ri : it->second) emit(l, right.rows[ri]);
  }
  return out;
}

Result<AnnotatedRelation> AnnotatedExecutor::ExecAggregate(
    const AggregateNode& node) const {
  IMP_ASSIGN_OR_RETURN(AnnotatedRelation in, Execute(node.child()));
  AnnotatedRelation out;
  out.schema = node.output_schema();

  struct GroupState {
    std::vector<AggAccumulator> accums;
    BitVector sketch;
  };
  std::unordered_map<Tuple, GroupState, TupleHash, TupleEq> groups;

  for (const AnnotatedRow& r : in.rows) {
    Tuple key;
    key.reserve(node.group_exprs().size());
    for (const ExprPtr& g : node.group_exprs()) key.push_back(g->Eval(r.row));
    auto [it, inserted] = groups.try_emplace(std::move(key));
    if (inserted) {
      it->second.accums.reserve(node.aggs().size());
      for (const AggSpec& spec : node.aggs()) {
        it->second.accums.emplace_back(&spec);
      }
    }
    for (AggAccumulator& acc : it->second.accums) acc.Add(r.row);
    it->second.sketch.UnionWith(r.sketch);  // group sketch = union of inputs
  }

  if (groups.empty() && node.group_exprs().empty()) {
    AnnotatedRow row;
    for (const AggSpec& spec : node.aggs()) {
      AggAccumulator acc(&spec);
      row.row.push_back(acc.Finish());
    }
    out.rows.push_back(std::move(row));
    return out;
  }

  out.rows.reserve(groups.size());
  for (const auto& [key, state] : groups) {
    AnnotatedRow row;
    row.row = key;
    for (const AggAccumulator& acc : state.accums) {
      row.row.push_back(acc.Finish());
    }
    row.sketch = state.sketch;
    out.rows.push_back(std::move(row));
  }
  return out;
}

Result<AnnotatedRelation> AnnotatedExecutor::ExecTopK(const TopKNode& node) const {
  IMP_ASSIGN_OR_RETURN(AnnotatedRelation in, Execute(node.child()));
  AnnotatedRelation out;
  out.schema = node.output_schema();
  SortSpecLess less{&node.sorts()};
  std::stable_sort(in.rows.begin(), in.rows.end(),
                   [&](const AnnotatedRow& a, const AnnotatedRow& b) {
                     return less(a.row, b.row);
                   });
  size_t k = node.k() < in.rows.size() ? node.k() : in.rows.size();
  out.rows.assign(in.rows.begin(), in.rows.begin() + static_cast<long>(k));
  return out;
}

Result<AnnotatedRelation> AnnotatedExecutor::ExecDistinct(
    const DistinctNode& node) const {
  IMP_ASSIGN_OR_RETURN(AnnotatedRelation in, Execute(node.child()));
  AnnotatedRelation out;
  out.schema = node.output_schema();
  std::unordered_map<Tuple, size_t, TupleHash, TupleEq> index;
  for (AnnotatedRow& r : in.rows) {
    auto [it, inserted] = index.try_emplace(r.row, out.rows.size());
    if (inserted) {
      out.rows.push_back(std::move(r));
    } else {
      // Union the duplicate's sketch: a safe over-approximation of the
      // witness set for the distinct tuple.
      out.rows[it->second].sketch.UnionWith(r.sketch);
    }
  }
  return out;
}

}  // namespace imp
