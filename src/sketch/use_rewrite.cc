#include "sketch/use_rewrite.h"

namespace imp {

ExprPtr SketchScanPredicate(const PartitionCatalog& catalog,
                            const std::string& table,
                            const ProvenanceSketch& sketch) {
  const RangePartition* part = catalog.Find(table);
  if (part == nullptr) return nullptr;

  std::vector<size_t> local = catalog.LocalFragments(table, sketch.fragments);
  if (local.size() == part->num_fragments()) return nullptr;  // no skipping

  ExprPtr attr = MakeColumnRef(part->attr_index(), part->attribute(),
                               part->bounds().front().type());

  // Merge runs of adjacent fragments into single intervals (footnote 2).
  // FragmentOf clamps values outside the bounds into the edge fragments, so
  // a run holding the first fragment is unbounded below and a run holding
  // the last one unbounded above (never both: that is the full sketch).
  std::vector<ExprPtr> disjuncts;
  size_t i = 0;
  while (i < local.size()) {
    size_t j = i;
    while (j + 1 < local.size() && local[j + 1] == local[j] + 1) ++j;
    auto lo = part->FragmentBounds(local[i]);
    auto hi = part->FragmentBounds(local[j]);
    ExprPtr ge = MakeBinary(BinaryOp::kGe, attr, MakeLiteral(lo.lo));
    ExprPtr lt = MakeBinary(BinaryOp::kLt, attr, MakeLiteral(hi.hi));
    if (local[i] == 0) {
      disjuncts.push_back(std::move(lt));
    } else if (hi.inclusive_hi) {
      disjuncts.push_back(std::move(ge));
    } else {
      disjuncts.push_back(
          MakeBinary(BinaryOp::kAnd, std::move(ge), std::move(lt)));
    }
    i = j + 1;
  }
  return MakeDisjunction(std::move(disjuncts));
}

namespace {
PlanPtr RewriteRec(const PlanPtr& plan, const PartitionCatalog& catalog,
                   const ProvenanceSketch& sketch,
                   const std::set<std::string>* only_tables) {
  if (plan->kind() == PlanKind::kScan) {
    const auto& scan = static_cast<const ScanNode&>(*plan);
    if (only_tables != nullptr && only_tables->count(scan.table()) == 0) {
      return plan;
    }
    ExprPtr pred = SketchScanPredicate(catalog, scan.table(), sketch);
    if (!pred) return plan;
    ExprPtr combined =
        scan.filter() ? MakeBinary(BinaryOp::kAnd, scan.filter(), pred) : pred;
    return MakeScan(scan.table(), scan.output_schema(), std::move(combined));
  }

  std::vector<PlanPtr> new_children;
  bool changed = false;
  for (const PlanPtr& child : plan->children()) {
    PlanPtr nc = RewriteRec(child, catalog, sketch, only_tables);
    changed |= (nc != child);
    new_children.push_back(std::move(nc));
  }
  if (!changed) return plan;

  switch (plan->kind()) {
    case PlanKind::kSelect: {
      const auto& node = static_cast<const SelectNode&>(*plan);
      return MakeSelect(new_children[0], node.predicate());
    }
    case PlanKind::kProject: {
      const auto& node = static_cast<const ProjectNode&>(*plan);
      std::vector<std::string> names;
      for (const auto& c : node.output_schema().columns()) names.push_back(c.name);
      return MakeProject(new_children[0], node.exprs(), std::move(names));
    }
    case PlanKind::kJoin: {
      const auto& node = static_cast<const JoinNode&>(*plan);
      return MakeJoin(new_children[0], new_children[1], node.keys(),
                      node.residual());
    }
    case PlanKind::kAggregate: {
      const auto& node = static_cast<const AggregateNode&>(*plan);
      std::vector<std::string> names;
      for (size_t i = 0; i < node.group_exprs().size(); ++i) {
        names.push_back(node.output_schema().column(i).name);
      }
      return MakeAggregate(new_children[0], node.group_exprs(), std::move(names),
                           node.aggs());
    }
    case PlanKind::kTopK: {
      const auto& node = static_cast<const TopKNode&>(*plan);
      return MakeTopK(new_children[0], node.sorts(), node.k());
    }
    case PlanKind::kDistinct:
      return MakeDistinct(new_children[0]);
    case PlanKind::kScan:
      break;  // handled above
  }
  return plan;
}
}  // namespace

PlanPtr ApplyUseRewrite(const PlanPtr& plan, const PartitionCatalog& catalog,
                        const ProvenanceSketch& sketch,
                        const std::set<std::string>* only_tables) {
  return RewriteRec(plan, catalog, sketch, only_tables);
}

PlanPtr ApplyUseRewrite(const PlanPtr& plan, const PartitionCatalog& catalog,
                        const SketchSnapshot& snapshot,
                        const std::set<std::string>* only_tables) {
  return RewriteRec(plan, catalog, snapshot.sketch, only_tables);
}

}  // namespace imp
