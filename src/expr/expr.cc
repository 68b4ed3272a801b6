#include "expr/expr.h"

namespace imp {

const char* BinaryOpSymbol(BinaryOp op) {
  switch (op) {
    case BinaryOp::kAdd: return "+";
    case BinaryOp::kSub: return "-";
    case BinaryOp::kMul: return "*";
    case BinaryOp::kDiv: return "/";
    case BinaryOp::kMod: return "%";
    case BinaryOp::kEq: return "=";
    case BinaryOp::kNe: return "<>";
    case BinaryOp::kLt: return "<";
    case BinaryOp::kLe: return "<=";
    case BinaryOp::kGt: return ">";
    case BinaryOp::kGe: return ">=";
    case BinaryOp::kAnd: return "AND";
    case BinaryOp::kOr: return "OR";
  }
  return "?";
}

bool IsComparison(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq:
    case BinaryOp::kNe:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe:
      return true;
    default:
      return false;
  }
}

namespace {
ValueType BinaryResultType(BinaryOp op, const ExprPtr& l, const ExprPtr& r) {
  switch (op) {
    case BinaryOp::kAdd:
    case BinaryOp::kSub:
    case BinaryOp::kMul:
    case BinaryOp::kMod:
      if (l->result_type() == ValueType::kDouble ||
          r->result_type() == ValueType::kDouble) {
        return ValueType::kDouble;
      }
      if (op == BinaryOp::kAdd && (l->result_type() == ValueType::kString ||
                                   r->result_type() == ValueType::kString)) {
        return ValueType::kString;
      }
      return ValueType::kInt;
    case BinaryOp::kDiv:
      if (l->result_type() == ValueType::kDouble ||
          r->result_type() == ValueType::kDouble) {
        return ValueType::kDouble;
      }
      return ValueType::kInt;
    default:
      return ValueType::kInt;  // comparisons / boolean -> 0/1
  }
}
}  // namespace

BinaryExpr::BinaryExpr(BinaryOp op, ExprPtr left, ExprPtr right)
    : Expr(ExprKind::kBinary, BinaryResultType(op, left, right)),
      op_(op),
      left_(std::move(left)),
      right_(std::move(right)) {}

Value BinaryExpr::Eval(const Tuple& row) const {
  switch (op_) {
    case BinaryOp::kAnd: {
      Value l = left_->Eval(row);
      if (!l.IsTrue()) return Value::Bool(false);
      return Value::Bool(right_->Eval(row).IsTrue());
    }
    case BinaryOp::kOr: {
      Value l = left_->Eval(row);
      if (l.IsTrue()) return Value::Bool(true);
      return Value::Bool(right_->Eval(row).IsTrue());
    }
    default:
      break;
  }
  Value l = left_->Eval(row);
  Value r = right_->Eval(row);
  switch (op_) {
    case BinaryOp::kAdd: return Value::Add(l, r);
    case BinaryOp::kSub: return Value::Sub(l, r);
    case BinaryOp::kMul: return Value::Mul(l, r);
    case BinaryOp::kDiv: return Value::Div(l, r);
    case BinaryOp::kMod: return Value::Mod(l, r);
    default:
      break;
  }
  // Comparisons: NULL operands compare to false (SQL's UNKNOWN treated as
  // false in predicate position).
  if (l.is_null() || r.is_null()) return Value::Bool(false);
  int c = l.Compare(r);
  switch (op_) {
    case BinaryOp::kEq: return Value::Bool(c == 0);
    case BinaryOp::kNe: return Value::Bool(c != 0);
    case BinaryOp::kLt: return Value::Bool(c < 0);
    case BinaryOp::kLe: return Value::Bool(c <= 0);
    case BinaryOp::kGt: return Value::Bool(c > 0);
    case BinaryOp::kGe: return Value::Bool(c >= 0);
    default:
      IMP_CHECK_MSG(false, "unhandled binary op");
      return Value::Null();
  }
}

std::string BinaryExpr::ToString(bool templated) const {
  return "(" + left_->ToString(templated) + " " + BinaryOpSymbol(op_) + " " +
         right_->ToString(templated) + ")";
}

UnaryExpr::UnaryExpr(UnaryOp op, ExprPtr child)
    : Expr(ExprKind::kUnary,
           op == UnaryOp::kNot ? ValueType::kInt : child->result_type()),
      op_(op),
      child_(std::move(child)) {}

Value UnaryExpr::Eval(const Tuple& row) const {
  Value v = child_->Eval(row);
  switch (op_) {
    case UnaryOp::kNot:
      return Value::Bool(!v.IsTrue());
    case UnaryOp::kNeg:
      return Value::Neg(v);
  }
  return Value::Null();
}

std::string UnaryExpr::ToString(bool templated) const {
  const char* sym = op_ == UnaryOp::kNot ? "NOT " : "-";
  return std::string("(") + sym + child_->ToString(templated) + ")";
}

BetweenExpr::BetweenExpr(ExprPtr input, ExprPtr lo, ExprPtr hi)
    : Expr(ExprKind::kBetween, ValueType::kInt),
      input_(std::move(input)),
      lo_(std::move(lo)),
      hi_(std::move(hi)) {}

Value BetweenExpr::Eval(const Tuple& row) const {
  Value v = input_->Eval(row);
  Value lo = lo_->Eval(row);
  Value hi = hi_->Eval(row);
  if (v.is_null() || lo.is_null() || hi.is_null()) return Value::Bool(false);
  return Value::Bool(lo.Compare(v) <= 0 && v.Compare(hi) <= 0);
}

std::string BetweenExpr::ToString(bool templated) const {
  return "(" + input_->ToString(templated) + " BETWEEN " +
         lo_->ToString(templated) + " AND " + hi_->ToString(templated) + ")";
}

// ---- RemapColumns ---------------------------------------------------------

ExprPtr LiteralExpr::RemapColumns(const std::vector<int>&) const {
  return std::make_shared<LiteralExpr>(value_);
}

ExprPtr ColumnRefExpr::RemapColumns(const std::vector<int>& mapping) const {
  IMP_CHECK_MSG(index_ < mapping.size() && mapping[index_] >= 0,
                "column not available after remap");
  return std::make_shared<ColumnRefExpr>(static_cast<size_t>(mapping[index_]),
                                         name_, result_type());
}

ExprPtr BinaryExpr::RemapColumns(const std::vector<int>& mapping) const {
  return std::make_shared<BinaryExpr>(op_, left_->RemapColumns(mapping),
                                      right_->RemapColumns(mapping));
}

ExprPtr UnaryExpr::RemapColumns(const std::vector<int>& mapping) const {
  return std::make_shared<UnaryExpr>(op_, child_->RemapColumns(mapping));
}

ExprPtr BetweenExpr::RemapColumns(const std::vector<int>& mapping) const {
  return std::make_shared<BetweenExpr>(input_->RemapColumns(mapping),
                                       lo_->RemapColumns(mapping),
                                       hi_->RemapColumns(mapping));
}

// ---- Factories ------------------------------------------------------------

ExprPtr MakeLiteral(Value v) { return std::make_shared<LiteralExpr>(std::move(v)); }

ExprPtr MakeColumnRef(size_t index, std::string name, ValueType type) {
  return std::make_shared<ColumnRefExpr>(index, std::move(name), type);
}

ExprPtr MakeBinary(BinaryOp op, ExprPtr left, ExprPtr right) {
  return std::make_shared<BinaryExpr>(op, std::move(left), std::move(right));
}

ExprPtr MakeUnary(UnaryOp op, ExprPtr child) {
  return std::make_shared<UnaryExpr>(op, std::move(child));
}

ExprPtr MakeBetween(ExprPtr input, ExprPtr lo, ExprPtr hi) {
  return std::make_shared<BetweenExpr>(std::move(input), std::move(lo),
                                       std::move(hi));
}

ExprPtr MakeConjunction(std::vector<ExprPtr> terms) {
  ExprPtr out;
  for (ExprPtr& term : terms) {
    if (!term) continue;
    out = out ? MakeBinary(BinaryOp::kAnd, std::move(out), std::move(term))
              : std::move(term);
  }
  if (!out) out = MakeLiteral(Value::Bool(true));
  return out;
}

ExprPtr MakeDisjunction(std::vector<ExprPtr> terms) {
  ExprPtr out;
  for (ExprPtr& term : terms) {
    if (!term) continue;
    out = out ? MakeBinary(BinaryOp::kOr, std::move(out), std::move(term))
              : std::move(term);
  }
  if (!out) out = MakeLiteral(Value::Bool(false));
  return out;
}

std::function<bool(const Tuple&)> ExprPredicate(ExprPtr expr) {
  return [expr = std::move(expr)](const Tuple& row) {
    return expr->Eval(row).IsTrue();
  };
}

}  // namespace imp
