#include "imp/inc_operators.h"

#include <algorithm>
#include <map>

#include "exec/zone_filter.h"
#include "sketch/partition.h"

namespace imp {

size_t IncOperator::TotalStateBytes() const {
  size_t bytes = StateBytes();
  for (const auto& child : children_) bytes += child->TotalStateBytes();
  return bytes;
}

void IncOperator::SaveTree(SerdeWriter* writer) const {
  SaveState(writer);
  for (const auto& child : children_) child->SaveTree(writer);
}

Status IncOperator::LoadTree(SerdeReader* reader) {
  IMP_RETURN_NOT_OK(LoadState(reader));
  for (const auto& child : children_) {
    IMP_RETURN_NOT_OK(child->LoadTree(reader));
  }
  return Status::OK();
}

// ---- IncScan ---------------------------------------------------------------

IncScan::IncScan(std::string table, ExprPtr filter, const Database* db,
                 const PartitionCatalog* catalog, Schema schema,
                 MaintainStats* stats)
    : IncOperator({}),
      table_(std::move(table)),
      filter_(std::move(filter)),
      db_(db),
      catalog_(catalog),
      schema_(std::move(schema)),
      stats_(stats) {
  if (filter_) kernel_ = PredicateKernel::Compile(filter_);
}

bool IncScan::ColumnarSource(const DeltaContext& ctx,
                             std::shared_ptr<const TableSnapshot>* pinned,
                             const TableSnapshot** snap,
                             TableAnnotator* annot) const {
  if (filter_ != nullptr) return false;
  const TableSnapshot* s = ctx.view ? ctx.view->Find(table_) : nullptr;
  if (s == nullptr) {
    const Table* table = db_->GetTable(table_);
    if (table == nullptr) return false;
    *pinned = table->Snapshot();
    s = pinned->get();
  }
  *snap = s;
  *annot = catalog_->ResolveAnnotator(table_);
  return true;
}

Result<AnnotatedRelation> IncScan::Build(const DeltaContext& ctx) {
  AnnotatedRelation out;
  out.schema = schema_;
  // Read through the round's pinned view (capture at the frozen
  // watermark); without one, pin the table's current published snapshot.
  std::shared_ptr<const TableSnapshot> pinned;
  const TableSnapshot* snap = ctx.view ? ctx.view->Find(table_) : nullptr;
  if (snap == nullptr) {
    const Table* table = db_->GetTable(table_);
    if (table == nullptr) return Status::NotFound("no such table: " + table_);
    pinned = table->Snapshot();
    snap = pinned.get();
  }
  // Resolve the table's partition once; per-row annotation then touches
  // only the partition column (bit-identical to catalog_->AnnotateRow).
  const TableAnnotator annot = catalog_->ResolveAnnotator(table_);
  // When every partition boundary is an integer, fragment lookup over a
  // typed chunk's unboxed int64 column is a raw upper_bound — no Value
  // touched per row. NULL sorts below every integer in Value::Compare's
  // type-tag order, so a NULL cell clamps into fragment 0 exactly as
  // FragmentOf does.
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
  // Chunk-at-a-time capture: zone-map pruning in front of the compiled
  // kernel, a column-at-a-time gather of the survivors, then annotation
  // in row order (bit-identical to a GetRow-per-set-bit loop). No
  // table-sized reserve: a selective filter should not allocate a
  // table-sized row vector, and AnnotatedRow moves are pointer swaps.
  for (const auto& chunk : snap->chunks()) {
    if (filter_ && !ChunkMayMatch(*filter_, *chunk)) continue;
    BitVector sel;
    kernel_.Eval(RowBlock::FromChunk(*chunk), &sel,
                 stats_ ? &stats_->vectorized_batches : nullptr,
                 stats_ ? &stats_->scalar_fallback_rows : nullptr);
    std::vector<Tuple> gathered = chunk->GatherRows(sel);
    const ColumnVector* pcol = nullptr;
    if (!int_bounds.empty()) {
      const ColumnVector& cand = chunk->column(annot.attr_index());
      if (cand.encoding() == ColumnVector::Encoding::kInt64) pcol = &cand;
    }
    if (pcol != nullptr) {
      const int64_t* pv = pcol->ints();
      const size_t num_fragments = int_bounds.size() - 1;
      size_t gi = 0;
      sel.ForEachSetBit([&](size_t i) {
        AnnotatedRow ar;
        ar.row = std::move(gathered[gi++]);
        size_t frag = 0;
        if (!pcol->IsNull(i)) {
          auto it = std::upper_bound(int_bounds.begin(), int_bounds.end(),
                                     pv[i]);
          if (it != int_bounds.begin()) {
            frag = static_cast<size_t>(it - int_bounds.begin()) - 1;
            if (frag >= num_fragments) frag = num_fragments - 1;
          }
        }
        ar.sketch.Resize(annot.total_fragments());
        ar.sketch.Set(annot.offset() + frag);
        out.rows.push_back(std::move(ar));
      });
      continue;
    }
    for (Tuple& row : gathered) {
      AnnotatedRow ar;
      ar.row = std::move(row);
      annot.AnnotateRow(ar.row, &ar.sketch);
      out.rows.push_back(std::move(ar));
    }
  }
  return out;
}

Result<DeltaBatch> IncScan::Process(const DeltaContext& ctx) {
  const DeltaBatch* in = ctx.FindBatch(table_);
  if (in == nullptr) return DeltaBatch();
  stats_->delta_rows_processed += in->size();
  // Serve a borrowed view of the context's batch — zero row copies no
  // matter how many sketches share the underlying annotated delta. A scan
  // filter only refines the selection bitmap, keeping the view borrowed.
  ++stats_->deltas_borrowed;
  DeltaBatch out = in->View();
  if (!filter_) return out;
  // View() always yields a borrowed batch, so evaluate the kernel over the
  // base rows in one pass and intersect with the current selection.
  BitVector keep;
  kernel_.Eval(RowBlock::FromMember(out.base()->rows, &AnnotatedDeltaRow::row),
               &keep, stats_ ? &stats_->vectorized_batches : nullptr,
               stats_ ? &stats_->scalar_fallback_rows : nullptr);
  return std::move(out).FilterWithMask(keep);
}

// ---- IncSelect --------------------------------------------------------------

IncSelect::IncSelect(std::unique_ptr<IncOperator> child, ExprPtr predicate,
                     MaintainStats* stats)
    : IncOperator([&] {
        std::vector<std::unique_ptr<IncOperator>> c;
        c.push_back(std::move(child));
        return c;
      }()),
      predicate_(std::move(predicate)),
      stats_(stats),
      kernel_(PredicateKernel::Compile(predicate_)) {}

Result<AnnotatedRelation> IncSelect::Build(const DeltaContext& ctx) {
  IMP_ASSIGN_OR_RETURN(AnnotatedRelation in, children_[0]->Build(ctx));
  AnnotatedRelation out;
  out.schema = in.schema;
  BitVector sel;
  kernel_.Eval(RowBlock::FromMember(in.rows, &AnnotatedRow::row), &sel,
               stats_ ? &stats_->vectorized_batches : nullptr,
               stats_ ? &stats_->scalar_fallback_rows : nullptr);
  sel.ForEachSetBit(
      [&](size_t i) { out.rows.push_back(std::move(in.rows[i])); });
  return out;
}

Result<DeltaBatch> IncSelect::Process(const DeltaContext& ctx) {
  IMP_ASSIGN_OR_RETURN(DeltaBatch in, children_[0]->Process(ctx));
  // Borrowed input stays borrowed (bitmap refinement); owned input is
  // filtered in place. Either way: no row copies.
  const std::vector<AnnotatedDeltaRow>& rows =
      in.borrowed() ? in.base()->rows : in.owned().rows;
  BitVector keep;
  kernel_.Eval(RowBlock::FromMember(rows, &AnnotatedDeltaRow::row), &keep,
               stats_ ? &stats_->vectorized_batches : nullptr,
               stats_ ? &stats_->scalar_fallback_rows : nullptr);
  return std::move(in).FilterWithMask(keep);
}

// ---- IncProject -------------------------------------------------------------

IncProject::IncProject(std::unique_ptr<IncOperator> child,
                       std::vector<ExprPtr> exprs, Schema output_schema)
    : IncOperator([&] {
        std::vector<std::unique_ptr<IncOperator>> c;
        c.push_back(std::move(child));
        return c;
      }()),
      exprs_(std::move(exprs)),
      output_schema_(std::move(output_schema)) {
  proj_cols_valid_ = true;
  proj_cols_.reserve(exprs_.size());
  for (const ExprPtr& e : exprs_) {
    if (e->kind() != ExprKind::kColumnRef) {
      proj_cols_valid_ = false;
      proj_cols_.clear();
      break;
    }
    proj_cols_.push_back(static_cast<const ColumnRefExpr&>(*e).index());
  }
}

Tuple IncProject::ProjectRow(const Tuple& row) const {
  Tuple projected;
  projected.reserve(exprs_.size());
  if (proj_cols_valid_) {
    for (size_t c : proj_cols_) projected.push_back(row[c]);
    return projected;
  }
  for (const ExprPtr& e : exprs_) projected.push_back(e->Eval(row));
  return projected;
}

Result<AnnotatedRelation> IncProject::Build(const DeltaContext& ctx) {
  IMP_ASSIGN_OR_RETURN(AnnotatedRelation in, children_[0]->Build(ctx));
  AnnotatedRelation out;
  out.schema = output_schema_;
  out.rows.reserve(in.rows.size());
  for (AnnotatedRow& r : in.rows) {
    AnnotatedRow pr;
    pr.row = ProjectRow(r.row);
    pr.sketch = std::move(r.sketch);
    out.rows.push_back(std::move(pr));
  }
  return out;
}

Result<DeltaBatch> IncProject::Process(const DeltaContext& ctx) {
  IMP_ASSIGN_OR_RETURN(DeltaBatch in, children_[0]->Process(ctx));
  // Projection rewrites rows, so its output is always owned. Borrowed
  // input rows are read through the cursor (sketches are copied into the
  // fresh output rows); owned input donates its sketches.
  AnnotatedDelta out;
  out.rows.reserve(in.size());
  if (in.borrowed()) {
    in.ForEachRow([&](const AnnotatedDeltaRow& r) {
      out.Append(ProjectRow(r.row), r.sketch, r.mult);
    });
  } else {
    for (AnnotatedDeltaRow& r : in.mutable_owned().rows) {
      out.Append(ProjectRow(r.row), std::move(r.sketch), r.mult);
    }
  }
  return DeltaBatch::OwnedOf(std::move(out));
}

// ---- IncMerge (μ) -----------------------------------------------------------

void IncMerge::Build(const AnnotatedRelation& result) {
  std::fill(counters_.begin(), counters_.end(), 0);
  for (const AnnotatedRow& r : result.rows) {
    for (size_t bit : r.sketch.SetBits()) {
      if (bit >= counters_.size()) counters_.resize(bit + 1, 0);
      ++counters_[bit];
    }
  }
}

SketchDelta IncMerge::Process(const DeltaBatch& batch) {
  // Snapshot the pre-batch counts of touched fragments, apply the whole
  // batch, then emit one transition per fragment (Sec. 5.1: zero -> nonzero
  // inserts the fragment, nonzero -> zero removes it).
  std::map<size_t, int64_t> before;
  batch.ForEachRow([&](const AnnotatedDeltaRow& r) {
    for (size_t bit : r.sketch.SetBits()) {
      if (bit >= counters_.size()) counters_.resize(bit + 1, 0);
      before.emplace(bit, counters_[bit]);
      counters_[bit] += r.mult;
    }
  });
  SketchDelta out;
  for (const auto& [bit, old_count] : before) {
    int64_t new_count = counters_[bit];
    IMP_CHECK_MSG(new_count >= 0, "negative merge counter");
    if (old_count == 0 && new_count != 0) out.added.push_back(bit);
    if (old_count != 0 && new_count == 0) out.removed.push_back(bit);
  }
  return out;
}

BitVector IncMerge::CurrentSketch() const {
  BitVector out(counters_.size());
  for (size_t i = 0; i < counters_.size(); ++i) {
    if (counters_[i] > 0) out.Set(i);
  }
  return out;
}

void IncMerge::SaveState(SerdeWriter* writer) const {
  writer->WriteU64(counters_.size());
  for (int64_t c : counters_) writer->WriteI64(c);
}

Status IncMerge::LoadState(SerdeReader* reader) {
  IMP_ASSIGN_OR_RETURN(uint64_t n, reader->ReadU64());
  counters_.assign(n, 0);
  for (uint64_t i = 0; i < n; ++i) {
    IMP_ASSIGN_OR_RETURN(counters_[i], reader->ReadI64());
  }
  return Status::OK();
}

}  // namespace imp
