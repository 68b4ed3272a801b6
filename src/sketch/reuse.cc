#include "sketch/reuse.h"

#include <set>

namespace imp {

namespace {

/// What the walk knows of the operators above the node it is at.
struct ReuseContext {
  /// Every operator above keeps the query's provenance inside the captured
  /// query's when this subtree returns a sub-bag of the captured rows, so a
  /// constant here may be stricter in the query. A top-k above clears it:
  /// a row the captured query cut can move into the query's top k.
  bool may_narrow = true;
  /// The operators above keep that containment also when the SUM and COUNT
  /// results of an aggregate in this subtree shrink: projection, distinct
  /// and a HAVING whose every conjunct is `>`/`>=` over SUM or COUNT do;
  /// any other filter, a join, a top-k or an aggregate may read those
  /// results and let a new group through. Narrowing below an aggregate
  /// needs it.
  bool aggregates_may_shrink = true;
};

/// `lit op x` as `x op' lit`.
BinaryOp Flip(BinaryOp op) {
  switch (op) {
    case BinaryOp::kLt: return BinaryOp::kGt;
    case BinaryOp::kLe: return BinaryOp::kGe;
    case BinaryOp::kGt: return BinaryOp::kLt;
    case BinaryOp::kGe: return BinaryOp::kLe;
    default: return op;
  }
}

/// `x op captured` vs `x op query` (`op` with the literal on the right):
/// equal constants, or with `narrow` a query at least as selective.
bool LiteralPairOk(const Value& captured, const Value& query, BinaryOp op,
                   bool narrow) {
  if (captured == query) return true;
  if (!narrow) return false;
  switch (op) {
    case BinaryOp::kGt:
    case BinaryOp::kGe:
      return query >= captured;
    case BinaryOp::kLt:
    case BinaryOp::kLe:
      return query <= captured;
    default:
      return false;  // =, <> with differing constants
  }
}

bool IsLiteral(const ExprPtr& e) { return e->kind() == ExprKind::kLiteral; }
const Value& LitOf(const ExprPtr& e) {
  return static_cast<const LiteralExpr&>(*e).value();
}

/// May the comparison operand `x` take a stricter constant? In a filter
/// (`monotone_cols` null) any operand may; in a HAVING only a SUM or COUNT
/// output may (AVG/MIN/MAX thresholds must be equal).
bool NarrowOperand(const ExprPtr& x, const std::set<size_t>* monotone_cols) {
  if (monotone_cols == nullptr) return true;
  return x->kind() == ExprKind::kColumnRef &&
         monotone_cols->count(static_cast<const ColumnRefExpr&>(*x).index()) >
             0;
}

/// Lockstep structural walk of two expressions. With `narrow`, a
/// comparison or BETWEEN against a constant may be stricter in `q`; only
/// AND and OR pass that on to their operands, so a constant under NOT, in
/// arithmetic or inside a comparison operand must be equal.
bool ExprsReusable(const ExprPtr& s, const ExprPtr& q, bool narrow,
                   const std::set<size_t>* monotone_cols) {
  if (s->kind() != q->kind()) return false;
  switch (s->kind()) {
    case ExprKind::kLiteral:
      return LitOf(s) == LitOf(q);
    case ExprKind::kColumnRef:
      return static_cast<const ColumnRefExpr&>(*s).index() ==
             static_cast<const ColumnRefExpr&>(*q).index();
    case ExprKind::kUnary: {
      const auto& a = static_cast<const UnaryExpr&>(*s);
      const auto& b = static_cast<const UnaryExpr&>(*q);
      return a.op() == b.op() &&
             ExprsReusable(a.child(), b.child(), false, monotone_cols);
    }
    case ExprKind::kBetween: {
      const auto& a = static_cast<const BetweenExpr&>(*s);
      const auto& b = static_cast<const BetweenExpr&>(*q);
      if (!ExprsReusable(a.input(), b.input(), false, monotone_cols)) {
        return false;
      }
      if (IsLiteral(a.lo()) && IsLiteral(b.lo()) && IsLiteral(a.hi()) &&
          IsLiteral(b.hi())) {
        if (LitOf(a.lo()) == LitOf(b.lo()) && LitOf(a.hi()) == LitOf(b.hi())) {
          return true;
        }
        // Narrowing: [lo_Q, hi_Q] ⊆ [lo_Q', hi_Q'].
        return narrow && NarrowOperand(a.input(), monotone_cols) &&
               LitOf(b.lo()) >= LitOf(a.lo()) && LitOf(b.hi()) <= LitOf(a.hi());
      }
      return ExprsReusable(a.lo(), b.lo(), false, monotone_cols) &&
             ExprsReusable(a.hi(), b.hi(), false, monotone_cols);
    }
    case ExprKind::kBinary: {
      const auto& a = static_cast<const BinaryExpr&>(*s);
      const auto& b = static_cast<const BinaryExpr&>(*q);
      if (a.op() != b.op()) return false;
      const bool connective =
          a.op() == BinaryOp::kAnd || a.op() == BinaryOp::kOr;
      if (IsComparison(a.op()) &&
          IsLiteral(a.left()) != IsLiteral(a.right()) &&
          IsLiteral(a.left()) == IsLiteral(b.left()) &&
          IsLiteral(a.right()) == IsLiteral(b.right())) {
        const bool lit_right = IsLiteral(a.right());
        const ExprPtr& x = lit_right ? a.left() : a.right();
        const ExprPtr& qx = lit_right ? b.left() : b.right();
        if (!ExprsReusable(x, qx, false, monotone_cols)) return false;
        return LiteralPairOk(LitOf(lit_right ? a.right() : a.left()),
                             LitOf(lit_right ? b.right() : b.left()),
                             lit_right ? a.op() : Flip(a.op()),
                             narrow && NarrowOperand(x, monotone_cols));
      }
      return ExprsReusable(a.left(), b.left(), narrow && connective,
                           monotone_cols) &&
             ExprsReusable(a.right(), b.right(), narrow && connective,
                           monotone_cols);
    }
  }
  return false;
}

/// The aggregate's SUM and COUNT output columns.
std::set<size_t> MonotoneColumns(const AggregateNode& agg) {
  std::set<size_t> cols;
  for (size_t i = 0; i < agg.aggs().size(); ++i) {
    AggFunc fn = agg.aggs()[i].fn;
    if (fn == AggFunc::kSum || fn == AggFunc::kCount) {
      cols.insert(agg.group_exprs().size() + i);
    }
  }
  return cols;
}

/// True when every conjunct of a HAVING predicate is `x > c` or `x >= c`
/// (either way round) over a SUM or COUNT output: a group that passes with
/// smaller sums and counts passes with the captured ones too.
bool HavingKeepsShrunkGroups(const ExprPtr& pred,
                             const std::set<size_t>& monotone_cols) {
  if (pred->kind() != ExprKind::kBinary) return false;
  const auto& bin = static_cast<const BinaryExpr&>(*pred);
  if (bin.op() == BinaryOp::kAnd) {
    return HavingKeepsShrunkGroups(bin.left(), monotone_cols) &&
           HavingKeepsShrunkGroups(bin.right(), monotone_cols);
  }
  if (IsLiteral(bin.left()) == IsLiteral(bin.right())) return false;
  const bool lit_right = IsLiteral(bin.right());
  BinaryOp op = lit_right ? bin.op() : Flip(bin.op());
  return (op == BinaryOp::kGt || op == BinaryOp::kGe) &&
         NarrowOperand(lit_right ? bin.left() : bin.right(), &monotone_cols);
}

/// Walks both plans in lockstep from the root, threading what sits above.
bool PlansReusable(const PlanPtr& s, const PlanPtr& q, ReuseContext ctx) {
  if (s->kind() != q->kind()) return false;
  switch (s->kind()) {
    case PlanKind::kScan: {
      const auto& a = static_cast<const ScanNode&>(*s);
      const auto& b = static_cast<const ScanNode&>(*q);
      if (a.table() != b.table()) return false;
      if ((a.filter() == nullptr) != (b.filter() == nullptr)) return false;
      return !a.filter() ||
             ExprsReusable(a.filter(), b.filter(), ctx.may_narrow, nullptr);
    }
    case PlanKind::kSelect: {
      const auto& a = static_cast<const SelectNode&>(*s);
      const auto& b = static_cast<const SelectNode&>(*q);
      ReuseContext below = ctx;
      if (a.child()->kind() == PlanKind::kAggregate) {
        // HAVING.
        std::set<size_t> monotone = MonotoneColumns(
            static_cast<const AggregateNode&>(*a.child()));
        if (!ExprsReusable(a.predicate(), b.predicate(), ctx.may_narrow,
                           &monotone)) {
          return false;
        }
        below.aggregates_may_shrink =
            ctx.aggregates_may_shrink &&
            HavingKeepsShrunkGroups(a.predicate(), monotone);
      } else {
        if (!ExprsReusable(a.predicate(), b.predicate(), ctx.may_narrow,
                           nullptr)) {
          return false;
        }
        below.aggregates_may_shrink = false;
      }
      return PlansReusable(a.child(), b.child(), below);
    }
    case PlanKind::kProject: {
      const auto& a = static_cast<const ProjectNode&>(*s);
      const auto& b = static_cast<const ProjectNode&>(*q);
      if (a.exprs().size() != b.exprs().size()) return false;
      for (size_t i = 0; i < a.exprs().size(); ++i) {
        // Projection constants are part of the result: they must match.
        if (!ExprsReusable(a.exprs()[i], b.exprs()[i], false, nullptr)) {
          return false;
        }
      }
      return PlansReusable(a.child(), b.child(), ctx);
    }
    case PlanKind::kJoin: {
      const auto& a = static_cast<const JoinNode&>(*s);
      const auto& b = static_cast<const JoinNode&>(*q);
      if (a.keys() != b.keys()) return false;
      if ((a.residual() == nullptr) != (b.residual() == nullptr)) return false;
      if (a.residual() && !ExprsReusable(a.residual(), b.residual(),
                                         ctx.may_narrow, nullptr)) {
        return false;
      }
      ReuseContext below = ctx;
      below.aggregates_may_shrink = false;
      return PlansReusable(a.left(), b.left(), below) &&
             PlansReusable(a.right(), b.right(), below);
    }
    case PlanKind::kAggregate: {
      const auto& a = static_cast<const AggregateNode&>(*s);
      const auto& b = static_cast<const AggregateNode&>(*q);
      if (a.aggs().size() != b.aggs().size() ||
          a.group_exprs().size() != b.group_exprs().size()) {
        return false;
      }
      for (size_t i = 0; i < a.group_exprs().size(); ++i) {
        if (!ExprsReusable(a.group_exprs()[i], b.group_exprs()[i], false,
                           nullptr)) {
          return false;
        }
      }
      for (size_t i = 0; i < a.aggs().size(); ++i) {
        if (a.aggs()[i].fn != b.aggs()[i].fn) return false;
        if ((a.aggs()[i].arg == nullptr) != (b.aggs()[i].arg == nullptr)) {
          return false;
        }
        if (a.aggs()[i].arg &&
            !ExprsReusable(a.aggs()[i].arg, b.aggs()[i].arg, false, nullptr)) {
          return false;
        }
      }
      // Fewer input rows shrink this aggregate's SUMs and COUNTs (SUM
      // arguments are assumed non-negative, as safety's R3 assumes).
      ReuseContext below;
      below.may_narrow = ctx.may_narrow && ctx.aggregates_may_shrink;
      below.aggregates_may_shrink = false;
      return PlansReusable(a.child(), b.child(), below);
    }
    case PlanKind::kTopK: {
      const auto& a = static_cast<const TopKNode&>(*s);
      const auto& b = static_cast<const TopKNode&>(*q);
      if (a.k() != b.k() || a.sorts().size() != b.sorts().size()) return false;
      for (size_t i = 0; i < a.sorts().size(); ++i) {
        if (a.sorts()[i].column != b.sorts()[i].column ||
            a.sorts()[i].ascending != b.sorts()[i].ascending) {
          return false;
        }
      }
      ReuseContext below;
      below.may_narrow = false;
      below.aggregates_may_shrink = false;
      return PlansReusable(a.child(), b.child(), below);
    }
    case PlanKind::kDistinct:
      return PlansReusable(static_cast<const DistinctNode&>(*s).child(),
                           static_cast<const DistinctNode&>(*q).child(), ctx);
  }
  return false;
}

}  // namespace

bool CanReuseSketch(const PlanPtr& captured, const PlanPtr& query) {
  if (captured->TemplateKey() != query->TemplateKey()) return false;
  return PlansReusable(captured, query, ReuseContext{});
}

}  // namespace imp
