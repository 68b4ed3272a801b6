#include "imp/maintainer.h"

#include <chrono>
#include <optional>

#include "common/failpoint.h"

#include "algebra/chain.h"
#include "imp/inc_aggregate.h"
#include "imp/inc_join.h"
#include "imp/inc_topk.h"

namespace imp {

namespace {

/// Split an AND tree into conjuncts.
void FlattenConjuncts(const ExprPtr& expr, std::vector<ExprPtr>* out) {
  if (expr->kind() == ExprKind::kBinary) {
    const auto& bin = static_cast<const BinaryExpr&>(*expr);
    if (bin.op() == BinaryOp::kAnd) {
      FlattenConjuncts(bin.left(), out);
      FlattenConjuncts(bin.right(), out);
      return;
    }
  }
  out->push_back(expr);
}

}  // namespace

Maintainer::Maintainer(const Database* db, const PartitionCatalog* catalog,
                       PlanPtr plan, MaintainerOptions options)
    : db_(db),
      catalog_(catalog),
      plan_(std::move(plan)),
      options_(options),
      merge_(catalog->total_fragments()) {
  VisitPlan(plan_, [this](const PlanPtr& node) {
    if (node->kind() == PlanKind::kScan) {
      ++scan_counts_[static_cast<const ScanNode&>(*node).table()];
    }
  });
  std::set<std::string> referenced = plan_->ReferencedTables();
  tables_.assign(referenced.begin(), referenced.end());
  if (options_.selection_pushdown) ComputePushdowns();
  root_ = BuildOperator(plan_);
}

std::unique_ptr<IncOperator> Maintainer::BuildOperator(const PlanPtr& plan) {
  switch (plan->kind()) {
    case PlanKind::kScan: {
      const auto& scan = static_cast<const ScanNode&>(*plan);
      return std::make_unique<IncScan>(scan.table(), scan.filter(), db_,
                                       catalog_, scan.output_schema(), &stats_);
    }
    case PlanKind::kSelect: {
      const auto& node = static_cast<const SelectNode&>(*plan);
      return std::make_unique<IncSelect>(BuildOperator(node.child()),
                                         node.predicate(), &stats_);
    }
    case PlanKind::kProject: {
      const auto& node = static_cast<const ProjectNode&>(*plan);
      return std::make_unique<IncProject>(BuildOperator(node.child()),
                                          node.exprs(), node.output_schema());
    }
    case PlanKind::kJoin: {
      const auto& node = static_cast<const JoinNode&>(*plan);
      IncJoin::Options jopts;
      jopts.use_bloom = options_.bloom_filters;
      return std::make_unique<IncJoin>(
          BuildOperator(node.left()), BuildOperator(node.right()),
          node.left(), node.right(), node.keys(), node.residual(), db_,
          catalog_, jopts, &stats_);
    }
    case PlanKind::kAggregate: {
      const auto& node = static_cast<const AggregateNode&>(*plan);
      IncAggregate::Options aopts;
      aopts.minmax_buffer = options_.minmax_buffer;
      return std::make_unique<IncAggregate>(
          BuildOperator(node.child()), node.group_exprs(), node.aggs(),
          node.output_schema(), aopts, &stats_);
    }
    case PlanKind::kTopK: {
      const auto& node = static_cast<const TopKNode&>(*plan);
      IncTopK::Options topts;
      topts.buffer = options_.topk_buffer;
      return std::make_unique<IncTopK>(BuildOperator(node.child()),
                                       node.sorts(), node.k(), topts, &stats_);
    }
    case PlanKind::kDistinct: {
      // δ is aggregation with all columns as group-by and no functions.
      const auto& node = static_cast<const DistinctNode&>(*plan);
      const Schema& schema = node.output_schema();
      std::vector<ExprPtr> group_exprs;
      std::vector<std::string> names;
      for (size_t i = 0; i < schema.size(); ++i) {
        group_exprs.push_back(
            MakeColumnRef(i, schema.column(i).name, schema.column(i).type));
        names.push_back(schema.column(i).name);
      }
      return std::make_unique<IncAggregate>(
          BuildOperator(node.child()), std::move(group_exprs),
          std::vector<AggSpec>{}, schema, IncAggregate::Options{}, &stats_);
    }
  }
  IMP_CHECK_MSG(false, "unknown plan kind");
  return nullptr;
}

void Maintainer::ComputePushdowns() {
  // Find selections whose subtree is a stateless chain to a single scan and
  // remap their (pushable) conjuncts to the scan's schema.
  VisitPlan(plan_, [this](const PlanPtr& node) {
    if (node->kind() != PlanKind::kSelect) return;
    const auto& select = static_cast<const SelectNode&>(*node);
    auto chain = ExtractStatelessChain(select.child());
    if (!chain) return;
    // Push-down is unsafe when the table is scanned more than once: the
    // fetched delta is shared across all occurrences.
    if (scan_counts_[chain->table] != 1) return;
    std::vector<ExprPtr> conjuncts;
    FlattenConjuncts(select.predicate(), &conjuncts);
    for (const ExprPtr& conjunct : conjuncts) {
      std::vector<size_t> cols;
      conjunct->CollectColumns(&cols);
      bool mappable = true;
      for (size_t c : cols) {
        if (c >= chain->to_scan.size() || chain->to_scan[c] < 0) {
          mappable = false;
          break;
        }
      }
      if (!mappable) continue;
      ExprPtr remapped = conjunct->RemapColumns(chain->to_scan);
      auto it = pushdown_preds_.find(chain->table);
      if (it == pushdown_preds_.end()) {
        pushdown_preds_[chain->table] = remapped;
      } else {
        it->second = MakeBinary(BinaryOp::kAnd, it->second, remapped);
      }
    }
  });
}

Result<ProvenanceSketch> Maintainer::Initialize(const ReadView* view) {
  // A (re)build of incremental state from base tables is a capture: it
  // shares the capture failpoint. Fires before any state is touched.
  IMP_FAILPOINT(kFpCapture);
  const auto build_start = std::chrono::steady_clock::now();
  DeltaContext empty;
  empty.view = view;
  IMP_ASSIGN_OR_RETURN(AnnotatedRelation result, root_->Build(empty));
  merge_ = IncMerge(catalog_->total_fragments());
  merge_.Build(result);
  last_build_seconds_ = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - build_start)
                            .count();
  sketch_.fragments = merge_.CurrentSketch();
  sketch_.fragments.Resize(catalog_->total_fragments());
  // Anchor at the view's watermark (the state was built from exactly that
  // pinned set of snapshots) — or, without a view, at the stable
  // watermark: the state was built from published data only, so claiming
  // validity for in-flight allocated versions would silently skip their
  // deltas.
  sketch_.valid_version = view ? view->watermark() : db_->StableVersion();
  return sketch_;
}

Result<SketchDelta> Maintainer::Maintain(const std::vector<TableDelta>& deltas,
                                         uint64_t new_version) {
  DeltaContext ctx = MakeDeltaContext(deltas, *catalog_);
  return MaintainAnnotated(ctx, new_version);
}

Result<SketchDelta> Maintainer::MaintainAnnotated(const DeltaContext& ctx,
                                                  uint64_t new_version) {
  // Every maintenance round (backend-driven, annotated, fast-forward)
  // funnels through here, so one failpoint covers them all. It fires
  // before Process() touches any operator state: the sketch still claims
  // its old valid_version and a later round re-scans the same window —
  // a failed round is always cleanly retryable.
  IMP_FAILPOINT(kFpMaintainRound);
  // The result batch may borrow rows from `ctx` (zero-copy pipeline):
  // `ctx` and the shared deltas behind it stay alive until the merge
  // operator below has consumed the batch.
  Result<DeltaBatch> result = root_->Process(ctx);
  if (!result.ok()) {
    if (result.status().code() != StatusCode::kNeedsRecapture) {
      return result.status();
    }
    // Truncated state ran dry: rebuild everything from the round's pinned
    // view (falling back to the current published snapshots when the
    // caller pinned none), then report the old-vs-new sketch difference as
    // the delta.
    ++stats_.recaptures;
    BitVector before = sketch_.fragments;
    IMP_RETURN_NOT_OK(Initialize(ctx.view).status());
    sketch_.valid_version = new_version;
    SketchDelta diff;
    BitVector after = sketch_.fragments;
    BitVector added = after;
    added.SubtractWith(before);
    BitVector removed = before;
    removed.SubtractWith(after);
    diff.added = added.SetBits();
    diff.removed = removed.SetBits();
    return diff;
  }
  SketchDelta delta = merge_.Process(result.value());
  sketch_ = ApplySketchDelta(sketch_, delta, new_version);
  return delta;
}

Result<SketchDelta> Maintainer::MaintainFromBackend(uint64_t cut_version,
                                                    const ReadView* view) {
  std::vector<TableDelta> deltas;
  for (const std::string& table : tables_) {
    TableDelta d = db_->ScanDelta(table, sketch_.valid_version, cut_version,
                                  DeltaPredicate(table));
    if (!d.empty()) deltas.push_back(std::move(d));
  }
  last_fetch_stats_.delta_scans = tables_.size();
  last_fetch_stats_.annotation_passes = deltas.size();
  DeltaContext ctx = MakeDeltaContext(std::move(deltas), *catalog_);
  ctx.view = view;
  return MaintainAnnotated(ctx, cut_version);
}

Result<SketchDelta> Maintainer::MaintainFromBackend() {
  return MaintainFromBackend(db_->StableVersion());
}

std::function<bool(const Tuple&)> Maintainer::DeltaPredicate(
    const std::string& table) const {
  auto it = pushdown_preds_.find(table);
  if (it == pushdown_preds_.end()) return {};
  return ExprPredicate(it->second);
}

ExprPtr Maintainer::DeltaPredicateExpr(const std::string& table) const {
  auto it = pushdown_preds_.find(table);
  return it == pushdown_preds_.end() ? nullptr : it->second;
}

size_t Maintainer::StateBytes() const {
  return root_->TotalStateBytes() + merge_.StateBytes() +
         sketch_.MemoryBytes();
}

namespace {
// Blob layout marker: bump when the state format changes.
constexpr uint64_t kStateMagic = 0x494d505354415431ULL;  // "IMPSTAT1"
}  // namespace

std::string Maintainer::SerializeState() const {
  SerdeWriter writer;
  writer.WriteU64(kStateMagic);
  writer.WriteBitVector(sketch_.fragments);
  writer.WriteU64(sketch_.valid_version);
  merge_.SaveState(&writer);
  root_->SaveTree(&writer);
  return writer.TakeBuffer();
}

Status Maintainer::RestoreState(const std::string& blob) {
  SerdeReader reader(blob);
  IMP_ASSIGN_OR_RETURN(uint64_t magic, reader.ReadU64());
  if (magic != kStateMagic) {
    return Status::Internal("maintainer state blob has wrong format");
  }
  IMP_ASSIGN_OR_RETURN(sketch_.fragments, reader.ReadBitVector());
  IMP_ASSIGN_OR_RETURN(sketch_.valid_version, reader.ReadU64());
  IMP_RETURN_NOT_OK(merge_.LoadState(&reader));
  IMP_RETURN_NOT_OK(root_->LoadTree(&reader));
  if (!reader.AtEnd()) {
    return Status::Internal("maintainer state blob has trailing bytes");
  }
  return Status::OK();
}

}  // namespace imp
