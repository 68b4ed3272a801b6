#include "exec/executor.h"

#include <algorithm>
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

void AggAccumulator::Add(const Tuple& row, int64_t mult) {
  Value v = spec_->arg ? spec_->arg->Eval(row) : Value::Int(1);
  if (v.is_null()) return;  // SQL aggregates skip NULLs
  count_ += mult;
  switch (spec_->fn) {
    case AggFunc::kCount:
      break;
    case AggFunc::kSum:
    case AggFunc::kAvg:
      if (v.is_double()) {
        saw_double_ = true;
        dbl_sum_ += v.AsDouble() * static_cast<double>(mult);
      } else {
        int_sum_ += v.AsInt() * mult;
      }
      break;
    case AggFunc::kMin:
      IMP_DCHECK(mult > 0);
      if (!has_minmax_ || v < minmax_) {
        minmax_ = v;
        has_minmax_ = true;
      }
      break;
    case AggFunc::kMax:
      IMP_DCHECK(mult > 0);
      if (!has_minmax_ || minmax_ < v) {
        minmax_ = v;
        has_minmax_ = true;
      }
      break;
  }
}

Value AggAccumulator::Finish() const {
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

Result<Relation> Executor::Execute(const PlanPtr& plan) const {
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

Result<Relation> Executor::ExecScan(const ScanNode& node) const {
  Relation out;
  out.schema = node.output_schema();
  auto filter = node.filter();
  PredicateKernel kernel;
  if (filter) kernel = PredicateKernel::Compile(filter);
  auto bound = bindings_.find(node.table());
  if (bound != bindings_.end()) {
    const std::vector<Tuple>& rows = bound->second->rows;
    if (!filter) {
      out.rows = rows;
      return out;
    }
    BitVector sel;
    kernel.Eval(RowBlock::FromTuples(rows.data(), rows.size()), &sel,
                &scan_stats_.vectorized_batches,
                &scan_stats_.scalar_fallback_rows);
    sel.ForEachSetBit([&](size_t i) { out.rows.push_back(rows[i]); });
    return out;
  }
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
        out.rows.push_back(snap->chunks()[locs[i].chunk]->GetRow(locs[i].row));
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
      for (size_t r = 0; r < chunk->num_rows(); ++r) {
        out.rows.push_back(chunk->GetRow(r));
      }
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
    for (Tuple& row : gathered) out.rows.push_back(std::move(row));
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

Result<Relation> Executor::ExecSelect(const SelectNode& node) const {
  IMP_ASSIGN_OR_RETURN(Relation in, Execute(node.child()));
  Relation out;
  out.schema = node.output_schema();
  PredicateKernel kernel = PredicateKernel::Compile(node.predicate());
  BitVector sel;
  kernel.Eval(RowBlock::FromTuples(in.rows.data(), in.rows.size()), &sel,
              &scan_stats_.vectorized_batches,
              &scan_stats_.scalar_fallback_rows);
  sel.ForEachSetBit(
      [&](size_t i) { out.rows.push_back(std::move(in.rows[i])); });
  return out;
}

Result<Relation> Executor::ExecProject(const ProjectNode& node) const {
  IMP_ASSIGN_OR_RETURN(Relation in, Execute(node.child()));
  Relation out;
  out.schema = node.output_schema();
  out.rows.reserve(in.rows.size());
  for (const Tuple& row : in.rows) {
    Tuple projected;
    projected.reserve(node.exprs().size());
    for (const ExprPtr& e : node.exprs()) projected.push_back(e->Eval(row));
    out.rows.push_back(std::move(projected));
  }
  return out;
}

Result<Relation> Executor::ExecJoin(const JoinNode& node) const {
  IMP_ASSIGN_OR_RETURN(Relation left, Execute(node.left()));
  IMP_ASSIGN_OR_RETURN(Relation right, Execute(node.right()));
  Relation out;
  out.schema = node.output_schema();
  const ExprPtr& residual = node.residual();

  auto emit = [&](const Tuple& l, const Tuple& r) {
    Tuple joined;
    joined.reserve(l.size() + r.size());
    joined.insert(joined.end(), l.begin(), l.end());
    joined.insert(joined.end(), r.begin(), r.end());
    if (!residual || residual->Eval(joined).IsTrue()) {
      out.rows.push_back(std::move(joined));
    }
  };

  if (node.keys().empty()) {
    // Cross product with optional residual predicate.
    for (const Tuple& l : left.rows) {
      for (const Tuple& r : right.rows) emit(l, r);
    }
    return out;
  }

  // Hash join: build on the right side.
  std::unordered_map<Tuple, std::vector<size_t>, TupleHash, TupleEq> ht;
  ht.reserve(right.rows.size());
  for (size_t i = 0; i < right.rows.size(); ++i) {
    Tuple key;
    key.reserve(node.keys().size());
    for (const auto& [lc, rc] : node.keys()) {
      (void)lc;
      key.push_back(right.rows[i][rc]);
    }
    ht[std::move(key)].push_back(i);
  }
  for (const Tuple& l : left.rows) {
    Tuple key;
    key.reserve(node.keys().size());
    for (const auto& [lc, rc] : node.keys()) {
      (void)rc;
      key.push_back(l[lc]);
    }
    auto it = ht.find(key);
    if (it == ht.end()) continue;
    for (size_t ri : it->second) emit(l, right.rows[ri]);
  }
  return out;
}

Result<Relation> Executor::ExecAggregate(const AggregateNode& node) const {
  IMP_ASSIGN_OR_RETURN(Relation in, Execute(node.child()));
  Relation out;
  out.schema = node.output_schema();

  struct GroupState {
    std::vector<AggAccumulator> accums;
  };
  std::unordered_map<Tuple, GroupState, TupleHash, TupleEq> groups;

  for (const Tuple& row : in.rows) {
    Tuple key;
    key.reserve(node.group_exprs().size());
    for (const ExprPtr& g : node.group_exprs()) key.push_back(g->Eval(row));
    auto [it, inserted] = groups.try_emplace(std::move(key));
    if (inserted) {
      it->second.accums.reserve(node.aggs().size());
      for (const AggSpec& spec : node.aggs()) {
        it->second.accums.emplace_back(&spec);
      }
    }
    for (AggAccumulator& acc : it->second.accums) acc.Add(row);
  }

  // Aggregation without GROUP BY over an empty input still produces one row.
  if (groups.empty() && node.group_exprs().empty()) {
    Tuple row;
    for (const AggSpec& spec : node.aggs()) {
      AggAccumulator acc(&spec);
      row.push_back(acc.Finish());
    }
    out.rows.push_back(std::move(row));
    return out;
  }

  out.rows.reserve(groups.size());
  for (const auto& [key, state] : groups) {
    Tuple row = key;
    for (const AggAccumulator& acc : state.accums) row.push_back(acc.Finish());
    out.rows.push_back(std::move(row));
  }
  return out;
}

Result<Relation> Executor::ExecTopK(const TopKNode& node) const {
  IMP_ASSIGN_OR_RETURN(Relation in, Execute(node.child()));
  Relation out;
  out.schema = node.output_schema();
  SortSpecLess less{&node.sorts()};
  std::stable_sort(in.rows.begin(), in.rows.end(), less);
  size_t k = node.k() < in.rows.size() ? node.k() : in.rows.size();
  out.rows.assign(in.rows.begin(), in.rows.begin() + static_cast<long>(k));
  return out;
}

Result<Relation> Executor::ExecDistinct(const DistinctNode& node) const {
  IMP_ASSIGN_OR_RETURN(Relation in, Execute(node.child()));
  Relation out;
  out.schema = node.output_schema();
  std::unordered_map<Tuple, bool, TupleHash, TupleEq> seen;
  for (Tuple& row : in.rows) {
    auto [it, inserted] = seen.try_emplace(row, true);
    (void)it;
    if (inserted) out.rows.push_back(std::move(row));
  }
  return out;
}

}  // namespace imp
