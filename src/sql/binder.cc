#include "sql/binder.h"

#include <map>
#include <set>

#include "sql/parser.h"

namespace imp {

namespace {

bool IsAggName(const std::string& fname, AggFunc* out) {
  if (fname == "sum") {
    *out = AggFunc::kSum;
  } else if (fname == "count") {
    *out = AggFunc::kCount;
  } else if (fname == "avg") {
    *out = AggFunc::kAvg;
  } else if (fname == "min") {
    *out = AggFunc::kMin;
  } else if (fname == "max") {
    *out = AggFunc::kMax;
  } else {
    return false;
  }
  return true;
}

bool ContainsAgg(const ParsedExprPtr& e) {
  if (e == nullptr) return false;
  AggFunc fn;
  if (e->kind == ParsedExpr::Kind::kFunc && IsAggName(e->name, &fn)) return true;
  for (const ParsedExprPtr& child : e->args) {
    if (ContainsAgg(child)) return true;
  }
  return false;
}

/// Name-resolution scope: one entry per column of the current input.
struct Scope {
  struct Col {
    std::string qualifier;  // table alias ("" when anonymous)
    std::string name;
    ValueType type;
  };
  std::vector<Col> cols;
  std::vector<std::string> display;  // disambiguated names (schema names)

  void Finalize() {
    std::map<std::string, int> counts;
    for (const Col& c : cols) ++counts[c.name];
    display.clear();
    for (const Col& c : cols) {
      if (counts[c.name] > 1 && !c.qualifier.empty()) {
        display.push_back(c.qualifier + "." + c.name);
      } else {
        display.push_back(c.name);
      }
    }
  }

  Schema ToSchema() const {
    Schema s;
    for (size_t i = 0; i < cols.size(); ++i) {
      s.AddColumn(display[i], cols[i].type);
    }
    return s;
  }

  Result<size_t> Resolve(const std::string& name) const {
    std::string qualifier, base = name;
    auto dot = name.rfind('.');
    if (dot != std::string::npos) {
      qualifier = name.substr(0, dot);
      base = name.substr(dot + 1);
    }
    int found = -1;
    for (size_t i = 0; i < cols.size(); ++i) {
      if (cols[i].name != base) continue;
      if (!qualifier.empty() && cols[i].qualifier != qualifier) continue;
      if (found >= 0) {
        return Status::BindError("ambiguous column reference: " + name);
      }
      found = static_cast<int>(i);
    }
    if (found < 0) return Status::BindError("unknown column: " + name);
    return static_cast<size_t>(found);
  }

  static Scope Concat(const Scope& a, const Scope& b) {
    Scope out;
    out.cols = a.cols;
    out.cols.insert(out.cols.end(), b.cols.begin(), b.cols.end());
    out.Finalize();
    return out;
  }
};

/// A number or NULL (arithmetic operands, SUM/AVG arguments).
bool Numeric(ValueType t) { return FitsColumnType(t, ValueType::kDouble); }

/// Bind a scalar (non-aggregate) expression over a scope.
Result<ExprPtr> BindScalar(const ParsedExprPtr& e, const Scope& scope) {
  switch (e->kind) {
    case ParsedExpr::Kind::kLiteral:
      return MakeLiteral(e->literal);
    case ParsedExpr::Kind::kName: {
      IMP_ASSIGN_OR_RETURN(size_t idx, scope.Resolve(e->name));
      return MakeColumnRef(idx, scope.display[idx], scope.cols[idx].type);
    }
    case ParsedExpr::Kind::kStar:
      return Status::BindError("'*' is only allowed in COUNT(*)");
    case ParsedExpr::Kind::kBinary: {
      IMP_ASSIGN_OR_RETURN(ExprPtr l, BindScalar(e->args[0], scope));
      IMP_ASSIGN_OR_RETURN(ExprPtr r, BindScalar(e->args[1], scope));
      // Arithmetic takes numbers (`+` also concatenates two strings, `%`
      // takes integers only); comparisons and connectives take anything.
      const ValueType lt = l->result_type(), rt = r->result_type();
      bool ok = true;
      switch (e->bin_op) {
        case BinaryOp::kAdd:
          ok = (Numeric(lt) && Numeric(rt)) ||
               (FitsColumnType(lt, ValueType::kString) &&
                FitsColumnType(rt, ValueType::kString));
          break;
        case BinaryOp::kSub:
        case BinaryOp::kMul:
        case BinaryOp::kDiv:
          ok = Numeric(lt) && Numeric(rt);
          break;
        case BinaryOp::kMod:
          ok = FitsColumnType(lt, ValueType::kInt) &&
               FitsColumnType(rt, ValueType::kInt);
          break;
        default:
          break;
      }
      if (!ok) {
        return Status::BindError(std::string("operator ") +
                                 BinaryOpSymbol(e->bin_op) + " cannot take " +
                                 ValueTypeName(lt) + " and " +
                                 ValueTypeName(rt));
      }
      return MakeBinary(e->bin_op, std::move(l), std::move(r));
    }
    case ParsedExpr::Kind::kUnary: {
      IMP_ASSIGN_OR_RETURN(ExprPtr c, BindScalar(e->args[0], scope));
      if (e->un_op == UnaryOp::kNeg && !Numeric(c->result_type())) {
        return Status::BindError(std::string("operator - cannot take ") +
                                 ValueTypeName(c->result_type()));
      }
      return MakeUnary(e->un_op, std::move(c));
    }
    case ParsedExpr::Kind::kBetween: {
      IMP_ASSIGN_OR_RETURN(ExprPtr in, BindScalar(e->args[0], scope));
      IMP_ASSIGN_OR_RETURN(ExprPtr lo, BindScalar(e->args[1], scope));
      IMP_ASSIGN_OR_RETURN(ExprPtr hi, BindScalar(e->args[2], scope));
      return MakeBetween(std::move(in), std::move(lo), std::move(hi));
    }
    case ParsedExpr::Kind::kFunc: {
      AggFunc fn;
      if (IsAggName(e->name, &fn)) {
        return Status::BindError("aggregate function " + e->name +
                                 " not allowed in this context");
      }
      if (e->name == "to_date") {
        // Dates are ISO-8601 strings; to_date folds to its first argument.
        if (e->args.size() >= 1 &&
            e->args[0]->kind == ParsedExpr::Kind::kLiteral) {
          return MakeLiteral(e->args[0]->literal);
        }
        return Status::BindError("to_date expects a string literal");
      }
      if (e->name == "abs" && e->args.size() == 1) {
        // abs(x) lowered to a CASE-free form is not expressible; reject.
        return Status::NotImplemented("function abs");
      }
      return Status::NotImplemented("function " + e->name);
    }
  }
  return Status::Internal("unhandled parsed expression kind");
}

/// Split an AND tree of parsed expressions into conjuncts.
void FlattenParsedConjuncts(const ParsedExprPtr& e,
                            std::vector<ParsedExprPtr>* out) {
  if (e->kind == ParsedExpr::Kind::kBinary && e->bin_op == BinaryOp::kAnd) {
    FlattenParsedConjuncts(e->args[0], out);
    FlattenParsedConjuncts(e->args[1], out);
    return;
  }
  out->push_back(e);
}

/// Collect all aggregate calls in an expression tree.
void CollectAggCalls(const ParsedExprPtr& e, std::vector<ParsedExprPtr>* out) {
  if (e == nullptr) return;
  AggFunc fn;
  if (e->kind == ParsedExpr::Kind::kFunc && IsAggName(e->name, &fn)) {
    out->push_back(e);
    return;  // no nested aggregates
  }
  for (const ParsedExprPtr& child : e->args) CollectAggCalls(child, out);
}

class SelectBinder {
 public:
  SelectBinder(const Database* db, const Binder* binder)
      : db_(db), binder_(binder) {}

  Result<PlanPtr> Bind(const SelectStmt& stmt) {
    IMP_ASSIGN_OR_RETURN(auto source, BindFromClause(stmt));
    PlanPtr plan = source.first;
    Scope scope = std::move(source.second);

    bool is_agg = !stmt.group_by.empty() || ContainsAgg(stmt.having);
    for (const SelectItem& item : stmt.items) {
      is_agg = is_agg || ContainsAgg(item.expr);
    }

    if (is_agg) {
      return BindAggregatePath(stmt, std::move(plan), scope);
    }
    return BindSimplePath(stmt, std::move(plan), scope);
  }

 private:
  // ---- FROM clause ---------------------------------------------------------

  Result<std::pair<PlanPtr, Scope>> BindTableRef(const TableRef& ref) {
    switch (ref.kind) {
      case TableRef::Kind::kTable: {
        const Table* table = db_->GetTable(ref.table);
        if (table == nullptr) {
          return Status::BindError("unknown table: " + ref.table);
        }
        Scope scope;
        std::string qualifier = ref.alias.empty() ? ref.table : ref.alias;
        for (const ColumnDef& c : table->schema().columns()) {
          scope.cols.push_back(Scope::Col{qualifier, c.name, c.type});
        }
        scope.Finalize();
        return std::make_pair(MakeScan(ref.table, table->schema()),
                              std::move(scope));
      }
      case TableRef::Kind::kSubquery: {
        IMP_ASSIGN_OR_RETURN(PlanPtr sub, binder_->BindSelect(*ref.subquery));
        Scope scope;
        std::string qualifier = ref.alias;
        for (const ColumnDef& c : sub->output_schema().columns()) {
          scope.cols.push_back(Scope::Col{qualifier, c.name, c.type});
        }
        scope.Finalize();
        return std::make_pair(std::move(sub), std::move(scope));
      }
      case TableRef::Kind::kJoin: {
        IMP_ASSIGN_OR_RETURN(auto left, BindTableRef(*ref.left));
        IMP_ASSIGN_OR_RETURN(auto right, BindTableRef(*ref.right));
        Scope combined = Scope::Concat(left.second, right.second);
        size_t left_width = left.second.cols.size();
        std::vector<ParsedExprPtr> conjuncts;
        FlattenParsedConjuncts(ref.on_condition, &conjuncts);
        std::vector<JoinNode::KeyPair> keys;
        std::vector<ExprPtr> residual;
        for (const ParsedExprPtr& conjunct : conjuncts) {
          IMP_ASSIGN_OR_RETURN(ExprPtr bound, BindScalar(conjunct, combined));
          JoinNode::KeyPair key;
          if (ExtractEquiKey(bound, left_width, combined.cols.size(), &key)) {
            keys.push_back(key);
          } else {
            residual.push_back(std::move(bound));
          }
        }
        ExprPtr residual_expr =
            residual.empty() ? nullptr : MakeConjunction(std::move(residual));
        PlanPtr join = MakeJoin(left.first, right.first, std::move(keys),
                                std::move(residual_expr));
        return std::make_pair(std::move(join), std::move(combined));
      }
    }
    return Status::Internal("unhandled table ref kind");
  }

  static bool ExtractEquiKey(const ExprPtr& bound, size_t left_width,
                             size_t total_width, JoinNode::KeyPair* out) {
    if (bound->kind() != ExprKind::kBinary) return false;
    const auto& bin = static_cast<const BinaryExpr&>(*bound);
    if (bin.op() != BinaryOp::kEq) return false;
    if (bin.left()->kind() != ExprKind::kColumnRef ||
        bin.right()->kind() != ExprKind::kColumnRef) {
      return false;
    }
    size_t a = static_cast<const ColumnRefExpr&>(*bin.left()).index();
    size_t b = static_cast<const ColumnRefExpr&>(*bin.right()).index();
    if (a >= total_width || b >= total_width) return false;
    if (a < left_width && b >= left_width) {
      *out = {a, b - left_width};
      return true;
    }
    if (b < left_width && a >= left_width) {
      *out = {b, a - left_width};
      return true;
    }
    return false;
  }

  /// Bind the whole FROM list plus WHERE, converting implicit comma joins
  /// into a left-deep equi-join tree with pushed-down single-item filters.
  Result<std::pair<PlanPtr, Scope>> BindFromClause(const SelectStmt& stmt) {
    if (stmt.from.empty()) return Status::BindError("FROM clause is required");

    std::vector<PlanPtr> plans;
    std::vector<Scope> scopes;
    for (const auto& ref : stmt.from) {
      IMP_ASSIGN_OR_RETURN(auto bound, BindTableRef(*ref));
      plans.push_back(std::move(bound.first));
      scopes.push_back(std::move(bound.second));
    }
    Scope combined = scopes[0];
    for (size_t i = 1; i < scopes.size(); ++i) {
      combined = Scope::Concat(combined, scopes[i]);
    }

    // Column index ranges of each FROM item within the combined scope.
    std::vector<size_t> starts(plans.size());
    size_t offset = 0;
    for (size_t i = 0; i < plans.size(); ++i) {
      starts[i] = offset;
      offset += scopes[i].cols.size();
    }

    struct Conjunct {
      ExprPtr expr;
      std::vector<size_t> cols;
      bool used = false;
    };
    std::vector<Conjunct> conjuncts;
    if (stmt.where) {
      std::vector<ParsedExprPtr> parsed;
      FlattenParsedConjuncts(stmt.where, &parsed);
      for (const ParsedExprPtr& p : parsed) {
        Conjunct c;
        IMP_ASSIGN_OR_RETURN(c.expr, BindScalar(p, combined));
        c.expr->CollectColumns(&c.cols);
        conjuncts.push_back(std::move(c));
      }
    }

    auto item_of = [&](size_t col) {
      size_t item = 0;
      for (size_t i = 0; i < starts.size(); ++i) {
        if (col >= starts[i]) item = i;
      }
      return item;
    };

    // Push single-item conjuncts below the joins.
    for (Conjunct& c : conjuncts) {
      if (c.used || c.cols.empty()) continue;
      size_t item = item_of(c.cols[0]);
      bool single = true;
      for (size_t col : c.cols) single = single && item_of(col) == item;
      if (!single) continue;
      std::vector<int> mapping(combined.cols.size(), -1);
      for (size_t j = 0; j < scopes[item].cols.size(); ++j) {
        mapping[starts[item] + j] = static_cast<int>(j);
      }
      plans[item] = MakeSelect(plans[item], c.expr->RemapColumns(mapping));
      c.used = true;
    }

    // Left-deep join tree, consuming cross-item equality conjuncts as keys.
    PlanPtr acc = plans[0];
    size_t acc_width = scopes[0].cols.size();
    for (size_t i = 1; i < plans.size(); ++i) {
      std::vector<JoinNode::KeyPair> keys;
      for (Conjunct& c : conjuncts) {
        if (c.used) continue;
        JoinNode::KeyPair key;
        // Keys connect accumulated columns [0, acc_width) with this item's
        // columns [starts[i], starts[i] + width).
        if (c.expr->kind() != ExprKind::kBinary) continue;
        const auto& bin = static_cast<const BinaryExpr&>(*c.expr);
        if (bin.op() != BinaryOp::kEq ||
            bin.left()->kind() != ExprKind::kColumnRef ||
            bin.right()->kind() != ExprKind::kColumnRef) {
          continue;
        }
        size_t a = static_cast<const ColumnRefExpr&>(*bin.left()).index();
        size_t b = static_cast<const ColumnRefExpr&>(*bin.right()).index();
        size_t lo = starts[i];
        size_t hi = lo + scopes[i].cols.size();
        if (a < acc_width && b >= lo && b < hi) {
          key = {a, b - lo};
        } else if (b < acc_width && a >= lo && a < hi) {
          key = {b, a - lo};
        } else {
          continue;
        }
        keys.push_back(key);
        c.used = true;
      }
      acc = MakeJoin(acc, plans[i], std::move(keys));
      acc_width += scopes[i].cols.size();
    }

    // Remaining conjuncts become a filter above the join tree.
    std::vector<ExprPtr> rest;
    for (Conjunct& c : conjuncts) {
      if (!c.used) rest.push_back(c.expr);
    }
    if (!rest.empty()) acc = MakeSelect(acc, MakeConjunction(std::move(rest)));
    return std::make_pair(std::move(acc), std::move(combined));
  }

  // ---- Simple (non-aggregate) path ----------------------------------------

  Result<PlanPtr> BindSimplePath(const SelectStmt& stmt, PlanPtr plan,
                                 const Scope& scope) {
    std::vector<ExprPtr> exprs;
    std::vector<std::string> names;
    bool identity = true;
    for (const SelectItem& item : stmt.items) {
      if (item.expr->kind == ParsedExpr::Kind::kStar) {
        for (size_t i = 0; i < scope.cols.size(); ++i) {
          exprs.push_back(
              MakeColumnRef(i, scope.display[i], scope.cols[i].type));
          names.push_back(scope.display[i]);
        }
        continue;
      }
      IMP_ASSIGN_OR_RETURN(ExprPtr e, BindScalar(item.expr, scope));
      names.push_back(!item.alias.empty()
                          ? item.alias
                          : (e->kind() == ExprKind::kColumnRef
                                 ? static_cast<const ColumnRefExpr&>(*e).name()
                                 : "col" + std::to_string(exprs.size())));
      exprs.push_back(std::move(e));
    }
    identity = exprs.size() == scope.cols.size();
    for (size_t i = 0; identity && i < exprs.size(); ++i) {
      identity = exprs[i]->kind() == ExprKind::kColumnRef &&
                 static_cast<const ColumnRefExpr&>(*exprs[i]).index() == i &&
                 names[i] == scope.display[i];
    }
    if (!identity) {
      plan = MakeProject(std::move(plan), exprs, names);
    }
    return FinishQuery(stmt, std::move(plan));
  }

  // ---- Aggregate path ------------------------------------------------------

  Result<PlanPtr> BindAggregatePath(const SelectStmt& stmt, PlanPtr source,
                                    const Scope& scope) {
    // 1. Group-by expressions.
    std::vector<ExprPtr> group_exprs;
    std::vector<std::string> group_names;
    std::vector<std::string> group_keys;  // ToString for structural matching
    for (const ParsedExprPtr& g : stmt.group_by) {
      IMP_ASSIGN_OR_RETURN(ExprPtr bound, BindScalar(g, scope));
      group_keys.push_back(bound->ToString());
      group_names.push_back(
          bound->kind() == ExprKind::kColumnRef
              ? static_cast<const ColumnRefExpr&>(*bound).name()
              : "g" + std::to_string(group_exprs.size()));
      group_exprs.push_back(std::move(bound));
    }

    // 2. Collect and deduplicate aggregate calls from SELECT / HAVING /
    //    ORDER BY.
    std::vector<ParsedExprPtr> calls;
    for (const SelectItem& item : stmt.items) CollectAggCalls(item.expr, &calls);
    CollectAggCalls(stmt.having, &calls);
    for (const OrderItem& o : stmt.order_by) CollectAggCalls(o.expr, &calls);

    std::vector<AggSpec> aggs;
    std::vector<std::string> agg_keys;  // "fn|argstring" for dedup
    for (const ParsedExprPtr& call : calls) {
      AggFunc fn;
      IMP_CHECK(IsAggName(call->name, &fn));
      ExprPtr arg;
      std::string arg_key = "*";
      if (call->args.size() == 1 &&
          call->args[0]->kind == ParsedExpr::Kind::kStar) {
        if (fn != AggFunc::kCount) {
          return Status::BindError("'*' argument only valid for COUNT");
        }
      } else if (call->args.size() == 1) {
        IMP_ASSIGN_OR_RETURN(arg, BindScalar(call->args[0], scope));
        if ((fn == AggFunc::kSum || fn == AggFunc::kAvg) &&
            !Numeric(arg->result_type())) {
          return Status::BindError(std::string(AggFuncName(fn)) +
                                   " needs a numeric argument, got " +
                                   ValueTypeName(arg->result_type()));
        }
        arg_key = arg->ToString();
      } else if (call->args.empty() && fn == AggFunc::kCount) {
        // COUNT() treated as COUNT(*).
      } else {
        return Status::BindError("aggregate functions take one argument");
      }
      std::string key = std::string(AggFuncName(fn)) + "|" + arg_key;
      bool dup = false;
      for (const std::string& k : agg_keys) dup = dup || k == key;
      if (dup) continue;
      agg_keys.push_back(std::move(key));
      AggSpec spec;
      spec.fn = fn;
      spec.arg = std::move(arg);
      spec.name = "agg" + std::to_string(aggs.size());
      aggs.push_back(std::move(spec));
    }

    PlanPtr plan =
        MakeAggregate(std::move(source), group_exprs, group_names, aggs);

    // Scope over the aggregate's output.
    Scope agg_scope;
    for (size_t i = 0; i < plan->output_schema().size(); ++i) {
      const ColumnDef& c = plan->output_schema().column(i);
      agg_scope.cols.push_back(Scope::Col{"", c.name, c.type});
    }
    agg_scope.Finalize();

    auto bind_over_agg = [&](const ParsedExprPtr& e) -> Result<ExprPtr> {
      return BindOverAggregate(e, scope, agg_scope, group_keys, agg_keys,
                               group_exprs.size());
    };

    // 3. HAVING.
    if (stmt.having) {
      IMP_ASSIGN_OR_RETURN(ExprPtr having, bind_over_agg(stmt.having));
      plan = MakeSelect(std::move(plan), std::move(having));
    }

    // 4. SELECT list projection.
    std::vector<ExprPtr> exprs;
    std::vector<std::string> names;
    for (const SelectItem& item : stmt.items) {
      if (item.expr->kind == ParsedExpr::Kind::kStar) {
        return Status::BindError("'*' not allowed with GROUP BY");
      }
      IMP_ASSIGN_OR_RETURN(ExprPtr e, bind_over_agg(item.expr));
      names.push_back(!item.alias.empty()
                          ? item.alias
                          : (e->kind() == ExprKind::kColumnRef
                                 ? static_cast<const ColumnRefExpr&>(*e).name()
                                 : "col" + std::to_string(exprs.size())));
      exprs.push_back(std::move(e));
    }
    plan = MakeProject(std::move(plan), std::move(exprs), std::move(names));
    return FinishQuery(stmt, std::move(plan));
  }

  /// Bind an expression over an aggregate's output: aggregate calls map to
  /// their aggregate columns, group expressions to group columns.
  Result<ExprPtr> BindOverAggregate(const ParsedExprPtr& e,
                                    const Scope& input_scope,
                                    const Scope& agg_scope,
                                    const std::vector<std::string>& group_keys,
                                    const std::vector<std::string>& agg_keys,
                                    size_t num_groups) {
    AggFunc fn;
    if (e->kind == ParsedExpr::Kind::kFunc && IsAggName(e->name, &fn)) {
      std::string arg_key = "*";
      if (e->args.size() == 1 && e->args[0]->kind != ParsedExpr::Kind::kStar) {
        IMP_ASSIGN_OR_RETURN(ExprPtr arg, BindScalar(e->args[0], input_scope));
        arg_key = arg->ToString();
      }
      std::string key = std::string(AggFuncName(fn)) + "|" + arg_key;
      for (size_t i = 0; i < agg_keys.size(); ++i) {
        if (agg_keys[i] == key) {
          size_t idx = num_groups + i;
          return MakeColumnRef(idx, agg_scope.display[idx],
                               agg_scope.cols[idx].type);
        }
      }
      return Status::Internal("aggregate call not collected: " + key);
    }
    // Structural match against a group expression.
    {
      Result<ExprPtr> bound = BindScalar(e, input_scope);
      if (bound.ok()) {
        std::string key = bound.value()->ToString();
        for (size_t i = 0; i < group_keys.size(); ++i) {
          if (group_keys[i] == key) {
            return MakeColumnRef(i, agg_scope.display[i],
                                 agg_scope.cols[i].type);
          }
        }
      }
    }
    switch (e->kind) {
      case ParsedExpr::Kind::kLiteral:
        return MakeLiteral(e->literal);
      case ParsedExpr::Kind::kBinary: {
        IMP_ASSIGN_OR_RETURN(
            ExprPtr l, BindOverAggregate(e->args[0], input_scope, agg_scope,
                                         group_keys, agg_keys, num_groups));
        IMP_ASSIGN_OR_RETURN(
            ExprPtr r, BindOverAggregate(e->args[1], input_scope, agg_scope,
                                         group_keys, agg_keys, num_groups));
        return MakeBinary(e->bin_op, std::move(l), std::move(r));
      }
      case ParsedExpr::Kind::kUnary: {
        IMP_ASSIGN_OR_RETURN(
            ExprPtr c, BindOverAggregate(e->args[0], input_scope, agg_scope,
                                         group_keys, agg_keys, num_groups));
        return MakeUnary(e->un_op, std::move(c));
      }
      case ParsedExpr::Kind::kBetween: {
        IMP_ASSIGN_OR_RETURN(
            ExprPtr in, BindOverAggregate(e->args[0], input_scope, agg_scope,
                                          group_keys, agg_keys, num_groups));
        IMP_ASSIGN_OR_RETURN(
            ExprPtr lo, BindOverAggregate(e->args[1], input_scope, agg_scope,
                                          group_keys, agg_keys, num_groups));
        IMP_ASSIGN_OR_RETURN(
            ExprPtr hi, BindOverAggregate(e->args[2], input_scope, agg_scope,
                                          group_keys, agg_keys, num_groups));
        return MakeBetween(std::move(in), std::move(lo), std::move(hi));
      }
      case ParsedExpr::Kind::kName:
        return Status::BindError("column " + e->name +
                                 " must appear in GROUP BY");
      default:
        return Status::BindError(
            "expression not allowed above aggregation");
    }
  }

  /// Apply ORDER BY / LIMIT / DISTINCT above the (projected) plan.
  Result<PlanPtr> FinishQuery(const SelectStmt& stmt, PlanPtr plan) {
    if (stmt.distinct) plan = MakeDistinct(std::move(plan));
    if (stmt.limit.has_value()) {
      Scope out_scope;
      for (size_t i = 0; i < plan->output_schema().size(); ++i) {
        const ColumnDef& c = plan->output_schema().column(i);
        out_scope.cols.push_back(Scope::Col{"", c.name, c.type});
      }
      out_scope.Finalize();
      std::vector<SortSpec> sorts;
      for (const OrderItem& item : stmt.order_by) {
        IMP_ASSIGN_OR_RETURN(ExprPtr bound, BindScalar(item.expr, out_scope));
        if (bound->kind() != ExprKind::kColumnRef) {
          return Status::NotImplemented(
              "ORDER BY must reference a SELECT-list column");
        }
        sorts.push_back(
            SortSpec{static_cast<const ColumnRefExpr&>(*bound).index(),
                     item.ascending});
      }
      plan = MakeTopK(std::move(plan), std::move(sorts), *stmt.limit);
    }
    // ORDER BY without LIMIT does not change the bag of results; the
    // middleware sorts final output for display when requested.
    return plan;
  }

  const Database* db_;
  const Binder* binder_;
};

}  // namespace

Result<PlanPtr> Binder::BindSelect(const SelectStmt& stmt) const {
  SelectBinder sb(db_, this);
  return sb.Bind(stmt);
}

Result<BoundStatement> Binder::Bind(const Statement& stmt) const {
  BoundStatement out;
  out.kind = stmt.kind;
  switch (stmt.kind) {
    case Statement::Kind::kSelect: {
      IMP_ASSIGN_OR_RETURN(out.query, BindSelect(*stmt.select));
      return out;
    }
    case Statement::Kind::kInsert: {
      const Table* table = db_->GetTable(stmt.insert->table);
      if (table == nullptr) {
        return Status::BindError("unknown table: " + stmt.insert->table);
      }
      out.update.kind = BoundUpdate::Kind::kInsert;
      out.update.table = stmt.insert->table;
      for (const auto& parsed_row : stmt.insert->rows) {
        if (parsed_row.size() != table->schema().size()) {
          return Status::BindError("INSERT arity mismatch for table " +
                                   stmt.insert->table);
        }
        Tuple row;
        Scope empty;
        for (size_t i = 0; i < parsed_row.size(); ++i) {
          IMP_ASSIGN_OR_RETURN(ExprPtr e, BindScalar(parsed_row[i], empty));
          Value v = e->Eval(Tuple{});
          // An INT fits a DOUBLE column: the write boundary widens it.
          const ColumnDef& col = table->schema().column(i);
          if (!FitsColumnType(v.type(), col.type)) {
            return Status::BindError("INSERT value " + v.ToString() +
                                     " does not fit column " + col.name +
                                     " (" + ValueTypeName(col.type) + ")");
          }
          row.push_back(std::move(v));
        }
        out.update.rows.push_back(std::move(row));
      }
      return out;
    }
    case Statement::Kind::kDelete:
    case Statement::Kind::kUpdate: {
      const std::string& table_name = stmt.kind == Statement::Kind::kDelete
                                          ? stmt.del->table
                                          : stmt.update->table;
      const Table* table = db_->GetTable(table_name);
      if (table == nullptr) {
        return Status::BindError("unknown table: " + table_name);
      }
      Scope scope;
      for (const ColumnDef& c : table->schema().columns()) {
        scope.cols.push_back({table_name, c.name, c.type});
      }
      scope.Finalize();
      out.update.table = table_name;
      if (stmt.kind == Statement::Kind::kDelete) {
        out.update.kind = BoundUpdate::Kind::kDelete;
        if (stmt.del->where) {
          IMP_ASSIGN_OR_RETURN(out.update.where,
                               BindScalar(stmt.del->where, scope));
        }
      } else {
        out.update.kind = BoundUpdate::Kind::kUpdate;
        if (stmt.update->where) {
          IMP_ASSIGN_OR_RETURN(out.update.where,
                               BindScalar(stmt.update->where, scope));
        }
        for (const auto& [col, parsed] : stmt.update->sets) {
          auto idx = table->schema().IndexOf(col);
          if (!idx.has_value()) {
            return Status::BindError("unknown column in SET: " + col);
          }
          IMP_ASSIGN_OR_RETURN(ExprPtr e, BindScalar(parsed, scope));
          const ColumnDef& def = table->schema().column(*idx);
          if (!FitsColumnType(e->result_type(), def.type)) {
            return Status::BindError(
                "SET " + col + " = " + e->ToString() + " is " +
                ValueTypeName(e->result_type()) + ", column is " +
                ValueTypeName(def.type));
          }
          out.update.sets.emplace_back(*idx, std::move(e));
        }
      }
      return out;
    }
  }
  return Status::Internal("unhandled statement kind");
}

Result<PlanPtr> Binder::BindQuery(const std::string& sql) const {
  IMP_ASSIGN_OR_RETURN(auto stmt, ParseSelect(sql));
  return BindSelect(*stmt);
}

Result<BoundStatement> Binder::BindSql(const std::string& sql) const {
  IMP_ASSIGN_OR_RETURN(Statement stmt, ParseStatement(sql));
  return Bind(stmt);
}

}  // namespace imp
