#include "exec/vector_kernels.h"

#include <algorithm>
#include <cmath>
#include <string_view>
#include <type_traits>
#include <utility>

namespace imp {

// ---- Compiled tree --------------------------------------------------------

struct KernelNode {
  enum class Kind : uint8_t {
    kConst,     // constant boolean (folded literals, null-literal compares)
    kCmp,       // column <op> literal
    kBetween,   // literal <= column <= literal (inclusive, SQL BETWEEN)
    kRangeSet,  // column IN union of sorted disjoint [lo, hi] ranges —
                // the IN-partition-bucket shape of use-rewrite predicates
    kAnd,
    kOr,
    kNot,
  };

  struct Range {
    Value lo;
    Value hi;
  };

  Kind kind;
  bool const_val = false;        // kConst
  BinaryOp op = BinaryOp::kEq;   // kCmp
  size_t col = 0;                // kCmp / kBetween / kRangeSet
  Value lit;                     // kCmp literal / kBetween lo
  Value lit_hi;                  // kBetween hi
  std::vector<Range> ranges;     // kRangeSet (sorted by lo, disjoint)
  std::vector<std::unique_ptr<KernelNode>> children;  // kAnd / kOr / kNot
};

namespace {

using NodePtr = std::unique_ptr<KernelNode>;

NodePtr MakeConst(bool v) {
  auto n = std::make_unique<KernelNode>();
  n->kind = KernelNode::Kind::kConst;
  n->const_val = v;
  return n;
}

/// l <op> r  <=>  r <mirror(op)> l, for the lit-op-col orientation.
BinaryOp MirrorCmp(BinaryOp op) {
  switch (op) {
    case BinaryOp::kLt: return BinaryOp::kGt;
    case BinaryOp::kLe: return BinaryOp::kGe;
    case BinaryOp::kGt: return BinaryOp::kLt;
    case BinaryOp::kGe: return BinaryOp::kLe;
    default: return op;  // kEq / kNe are symmetric
  }
}

bool ApplyCmp(BinaryOp op, int c) {
  switch (op) {
    case BinaryOp::kEq: return c == 0;
    case BinaryOp::kNe: return c != 0;
    case BinaryOp::kLt: return c < 0;
    case BinaryOp::kLe: return c <= 0;
    case BinaryOp::kGt: return c > 0;
    case BinaryOp::kGe: return c >= 0;
    default: return false;
  }
}

NodePtr MakeCmp(BinaryOp op, size_t col, const Value& lit) {
  // A NULL literal makes every comparison false (SQL UNKNOWN-as-false).
  if (lit.is_null()) return MakeConst(false);
  auto n = std::make_unique<KernelNode>();
  n->kind = KernelNode::Kind::kCmp;
  n->op = op;
  n->col = col;
  n->lit = lit;
  return n;
}

NodePtr CompileNode(const Expr& e);

void FlattenSameOp(const Expr& e, BinaryOp op, std::vector<const Expr*>* out) {
  if (e.kind() == ExprKind::kBinary) {
    const auto& bin = static_cast<const BinaryExpr&>(e);
    if (bin.op() == op) {
      FlattenSameOp(*bin.left(), op, out);
      FlattenSameOp(*bin.right(), op, out);
      return;
    }
  }
  out->push_back(&e);
}

NodePtr FoldAnd(std::vector<NodePtr> children) {
  std::vector<NodePtr> kept;
  for (NodePtr& c : children) {
    if (c->kind == KernelNode::Kind::kConst) {
      if (!c->const_val) return MakeConst(false);
      continue;  // TRUE conjunct is a no-op
    }
    kept.push_back(std::move(c));
  }
  if (kept.empty()) return MakeConst(true);
  if (kept.size() == 1) return std::move(kept[0]);
  auto n = std::make_unique<KernelNode>();
  n->kind = KernelNode::Kind::kAnd;
  n->children = std::move(kept);
  return n;
}

/// Extract a [lo, hi] range when `c` tests one column against constants:
/// `col = lit` or `col BETWEEN lo AND hi`. An inverted (lo > hi) range
/// never merges with a neighbour in FoldOr and matches only NaN.
bool AsRange(const KernelNode& c, size_t* col, KernelNode::Range* out) {
  if (c.kind == KernelNode::Kind::kCmp && c.op == BinaryOp::kEq) {
    *col = c.col;
    out->lo = c.lit;
    out->hi = c.lit;
    return true;
  }
  if (c.kind == KernelNode::Kind::kBetween) {
    *col = c.col;
    out->lo = c.lit;
    out->hi = c.lit_hi;
    return true;
  }
  return false;
}

NodePtr FoldOr(std::vector<NodePtr> children) {
  std::vector<NodePtr> kept;
  for (NodePtr& c : children) {
    if (c->kind == KernelNode::Kind::kConst) {
      if (c->const_val) return MakeConst(true);
      continue;  // FALSE disjunct is a no-op
    }
    kept.push_back(std::move(c));
  }
  if (kept.empty()) return MakeConst(false);

  // Fuse equality/BETWEEN disjuncts over one column into a sorted
  // range-set probed by binary search — one search per row instead of k
  // range tests. This is the fan-out shape the sketch use-rewrite emits
  // (one BETWEEN per selected partition fragment).
  std::vector<NodePtr> rest;
  std::vector<std::pair<size_t, KernelNode::Range>> range_terms;
  for (NodePtr& c : kept) {
    size_t col;
    KernelNode::Range r;
    if (AsRange(*c, &col, &r)) {
      range_terms.emplace_back(col, std::move(r));
    } else {
      rest.push_back(std::move(c));
    }
  }
  // Group ranges per column; fuse columns with >= 2 ranges, keep singles.
  std::stable_sort(range_terms.begin(), range_terms.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  for (size_t i = 0; i < range_terms.size();) {
    size_t j = i;
    while (j < range_terms.size() && range_terms[j].first == range_terms[i].first) ++j;
    if (j - i == 1) {
      const KernelNode::Range& r = range_terms[i].second;
      if (r.lo == r.hi) {
        rest.push_back(MakeCmp(BinaryOp::kEq, range_terms[i].first, r.lo));
      } else {
        auto n = std::make_unique<KernelNode>();
        n->kind = KernelNode::Kind::kBetween;
        n->col = range_terms[i].first;
        n->lit = r.lo;
        n->lit_hi = r.hi;
        rest.push_back(std::move(n));
      }
    } else {
      std::vector<KernelNode::Range> ranges;
      for (size_t k = i; k < j; ++k) ranges.push_back(std::move(range_terms[k].second));
      std::sort(ranges.begin(), ranges.end(),
                [](const KernelNode::Range& a, const KernelNode::Range& b) {
                  return a.lo.Compare(b.lo) < 0;
                });
      // Merge overlapping [lo, hi] spans so the probe's ranges are disjoint.
      std::vector<KernelNode::Range> merged;
      for (KernelNode::Range& r : ranges) {
        if (!merged.empty() && r.lo.Compare(merged.back().hi) <= 0) {
          if (merged.back().hi.Compare(r.hi) < 0) merged.back().hi = std::move(r.hi);
        } else {
          merged.push_back(std::move(r));
        }
      }
      auto n = std::make_unique<KernelNode>();
      n->kind = KernelNode::Kind::kRangeSet;
      n->col = range_terms[i].first;
      n->ranges = std::move(merged);
      rest.push_back(std::move(n));
    }
    i = j;
  }

  if (rest.size() == 1) return std::move(rest[0]);
  auto n = std::make_unique<KernelNode>();
  n->kind = KernelNode::Kind::kOr;
  n->children = std::move(rest);
  return n;
}

/// A NaN literal compares equal to every number under Value::Compare, which
/// the kernels' range logic (fusion, ordering, BETWEEN x AND x == `= x`)
/// cannot express; comparisons against one stay scalar.
bool IsNaNLiteral(const Expr& e) {
  const Value& v = static_cast<const LiteralExpr&>(e).value();
  return v.is_double() && std::isnan(v.AsDouble());
}

/// Compile one (sub)expression into a kernel node, or nullptr when the
/// shape is unsupported (column-vs-column compares, arithmetic, truthy
/// column tests, NaN literals, ...): those fall back to scalar Expr::Eval.
NodePtr CompileNode(const Expr& e) {
  switch (e.kind()) {
    case ExprKind::kLiteral:
      return MakeConst(static_cast<const LiteralExpr&>(e).value().IsTrue());
    case ExprKind::kBinary: {
      const auto& bin = static_cast<const BinaryExpr&>(e);
      if (bin.op() == BinaryOp::kAnd || bin.op() == BinaryOp::kOr) {
        std::vector<const Expr*> terms;
        FlattenSameOp(e, bin.op(), &terms);
        std::vector<NodePtr> children;
        children.reserve(terms.size());
        for (const Expr* t : terms) {
          NodePtr c = CompileNode(*t);
          if (!c) return nullptr;  // a disjunct cannot be split off; punt
          children.push_back(std::move(c));
        }
        return bin.op() == BinaryOp::kAnd ? FoldAnd(std::move(children))
                                          : FoldOr(std::move(children));
      }
      if (!IsComparison(bin.op())) return nullptr;
      const Expr& l = *bin.left();
      const Expr& r = *bin.right();
      if (l.kind() == ExprKind::kColumnRef && r.kind() == ExprKind::kLiteral) {
        if (IsNaNLiteral(r)) return nullptr;
        return MakeCmp(bin.op(), static_cast<const ColumnRefExpr&>(l).index(),
                       static_cast<const LiteralExpr&>(r).value());
      }
      if (l.kind() == ExprKind::kLiteral && r.kind() == ExprKind::kColumnRef) {
        if (IsNaNLiteral(l)) return nullptr;
        return MakeCmp(MirrorCmp(bin.op()),
                       static_cast<const ColumnRefExpr&>(r).index(),
                       static_cast<const LiteralExpr&>(l).value());
      }
      if (l.kind() == ExprKind::kLiteral && r.kind() == ExprKind::kLiteral) {
        const Value& lv = static_cast<const LiteralExpr&>(l).value();
        const Value& rv = static_cast<const LiteralExpr&>(r).value();
        if (lv.is_null() || rv.is_null()) return MakeConst(false);
        return MakeConst(ApplyCmp(bin.op(), lv.Compare(rv)));
      }
      return nullptr;
    }
    case ExprKind::kUnary: {
      const auto& u = static_cast<const UnaryExpr&>(e);
      if (u.op() != UnaryOp::kNot) return nullptr;
      NodePtr c = CompileNode(*u.child());
      if (!c) return nullptr;
      if (c->kind == KernelNode::Kind::kConst) return MakeConst(!c->const_val);
      auto n = std::make_unique<KernelNode>();
      n->kind = KernelNode::Kind::kNot;
      n->children.push_back(std::move(c));
      return n;
    }
    case ExprKind::kBetween: {
      const auto& b = static_cast<const BetweenExpr&>(e);
      if (b.input()->kind() != ExprKind::kColumnRef ||
          b.lo()->kind() != ExprKind::kLiteral ||
          b.hi()->kind() != ExprKind::kLiteral || IsNaNLiteral(*b.lo()) ||
          IsNaNLiteral(*b.hi())) {
        return nullptr;
      }
      const Value& lo = static_cast<const LiteralExpr&>(*b.lo()).value();
      const Value& hi = static_cast<const LiteralExpr&>(*b.hi()).value();
      // An inverted (lo > hi) range is kept, not folded to FALSE: a NaN
      // cell compares equal to both bounds, so Expr::Eval admits it.
      if (lo.is_null() || hi.is_null()) return MakeConst(false);
      auto n = std::make_unique<KernelNode>();
      n->kind = KernelNode::Kind::kBetween;
      n->col = static_cast<const ColumnRefExpr&>(*b.input()).index();
      n->lit = lo;
      n->lit_hi = hi;
      return n;
    }
    default:
      return nullptr;  // bare column refs stay scalar (truthy-value tests)
  }
}

void FlattenConjunctPtrs(const ExprPtr& expr, std::vector<ExprPtr>* out) {
  if (expr->kind() == ExprKind::kBinary) {
    const auto& bin = static_cast<const BinaryExpr&>(*expr);
    if (bin.op() == BinaryOp::kAnd) {
      FlattenConjunctPtrs(bin.left(), out);
      FlattenConjunctPtrs(bin.right(), out);
      return;
    }
  }
  out->push_back(expr);
}

// ---- Kernel evaluation ----------------------------------------------------

/// Leaf loops templated over the column accessor so the columnar case
/// iterates a raw Value array and the row-major case strides over tuples.
template <typename At>
void EvalCmpLoop(const KernelNode& node, size_t n, const At& at,
                 BitVector* out) {
  const Value& lit = node.lit;
  const BinaryOp op = node.op;
  if (lit.is_int()) {
    // Int literals dominate the workloads; compare in-register when the
    // column value is an int too (identical to Value::Compare int/int).
    const int64_t lv = lit.AsInt();
    for (size_t i = 0; i < n; ++i) {
      const Value& v = at(i);
      int c;
      if (v.is_int()) {
        const int64_t a = v.AsInt();
        c = a < lv ? -1 : (a > lv ? 1 : 0);
      } else if (v.is_null()) {
        continue;  // NULL compares to false
      } else {
        c = v.Compare(lit);
      }
      if (ApplyCmp(op, c)) out->Set(i);
    }
    return;
  }
  for (size_t i = 0; i < n; ++i) {
    const Value& v = at(i);
    if (v.is_null()) continue;
    if (ApplyCmp(op, v.Compare(lit))) out->Set(i);
  }
}

template <typename At>
void EvalBetweenLoop(const KernelNode& node, size_t n, const At& at,
                     BitVector* out) {
  const Value& lo = node.lit;
  const Value& hi = node.lit_hi;
  if (lo.is_int() && hi.is_int()) {
    const int64_t lv = lo.AsInt(), hv = hi.AsInt();
    for (size_t i = 0; i < n; ++i) {
      const Value& v = at(i);
      if (v.is_int()) {
        const int64_t a = v.AsInt();
        if (a >= lv && a <= hv) out->Set(i);
      } else if (!v.is_null() && lo.Compare(v) <= 0 && v.Compare(hi) <= 0) {
        out->Set(i);
      }
    }
    return;
  }
  for (size_t i = 0; i < n; ++i) {
    const Value& v = at(i);
    if (v.is_null()) continue;
    if (lo.Compare(v) <= 0 && v.Compare(hi) <= 0) out->Set(i);
  }
}

/// Last range whose lo <= v (ranges are sorted and disjoint), then one
/// upper-bound test.
inline bool RangeSetContains(const std::vector<KernelNode::Range>& ranges,
                             const Value& v) {
  auto it = std::upper_bound(
      ranges.begin(), ranges.end(), v,
      [](const Value& val, const KernelNode::Range& r) {
        return val.Compare(r.lo) < 0;
      });
  if (it == ranges.begin()) return false;
  --it;
  return v.Compare(it->hi) <= 0;
}

template <typename At>
void EvalRangeSetLoop(const KernelNode& node, size_t n, const At& at,
                      BitVector* out) {
  const std::vector<KernelNode::Range>& ranges = node.ranges;
  bool all_int = true;
  for (const KernelNode::Range& r : ranges) {
    if (!r.lo.is_int() || !r.hi.is_int()) {
      all_int = false;
      break;
    }
  }
  if (all_int) {
    // The common partition-bucket shape: a small sorted set of int ranges.
    // Unbox the bounds once per batch; a linear probe with early break
    // beats binary search at these sizes and runs entirely on int64s.
    std::vector<std::pair<int64_t, int64_t>> spans;
    spans.reserve(ranges.size());
    for (const KernelNode::Range& r : ranges) {
      spans.emplace_back(r.lo.AsInt(), r.hi.AsInt());
    }
    for (size_t i = 0; i < n; ++i) {
      const Value& v = at(i);
      if (v.is_int()) {
        const int64_t a = v.AsInt();
        for (const std::pair<int64_t, int64_t>& s : spans) {
          if (a < s.first) break;  // sorted: no later span can match
          if (a <= s.second) {
            out->Set(i);
            break;
          }
        }
      } else if (!v.is_null() && RangeSetContains(ranges, v)) {
        // Mixed-type column (e.g. doubles vs int bounds): per-row generic
        // probe, numerically identical to Value::Compare ordering.
        out->Set(i);
      }
    }
    return;
  }
  for (size_t i = 0; i < n; ++i) {
    const Value& v = at(i);
    if (v.is_null()) continue;
    if (RangeSetContains(ranges, v)) out->Set(i);
  }
}

template <typename At>
void EvalLeaf(const KernelNode& node, size_t n, const At& at, BitVector* out) {
  switch (node.kind) {
    case KernelNode::Kind::kCmp:
      EvalCmpLoop(node, n, at, out);
      return;
    case KernelNode::Kind::kBetween:
      EvalBetweenLoop(node, n, at, out);
      return;
    case KernelNode::Kind::kRangeSet:
      EvalRangeSetLoop(node, n, at, out);
      return;
    default:
      IMP_DCHECK(false);
  }
}

// ---- Typed columnar leaf loops --------------------------------------------
//
// One loop per ColumnVector encoding, each replicating the generic row
// semantics bit-exactly: bit i is set iff the row's (reboxed) value is
// non-NULL and the leaf holds under Value::Compare. Numeric literals are
// classified once per batch into an exact-int compare or a promoted-double
// compare — the two legs of Value::Compare's numeric path, including its
// NaN-compares-equal `a < b ? -1 : (a > b ? 1 : 0)` form — and string
// literals become a constant outcome (numbers < strings in the type-tag
// order).

struct NumLit {
  enum class Cls : uint8_t { kInt, kDbl, kConst };
  Cls cls = Cls::kConst;
  int64_t iv = 0;
  double dv = 0;
  int cc = 0;  ///< kConst: fixed three-way outcome for every column value
};

NumLit ClassifyNumLit(bool int_column, const Value& lit) {
  NumLit m;
  if (lit.is_string()) {
    m.cc = -1;  // numbers < strings
    return m;
  }
  if (int_column && lit.is_int()) {
    m.cls = NumLit::Cls::kInt;
    m.iv = lit.AsInt();
    return m;
  }
  m.cls = NumLit::Cls::kDbl;
  m.dv = lit.is_int() ? static_cast<double>(lit.AsInt()) : lit.AsDouble();
  return m;
}

inline int CmpRaw(int64_t a, const NumLit& m) {
  switch (m.cls) {
    case NumLit::Cls::kInt:
      return a < m.iv ? -1 : (a > m.iv ? 1 : 0);
    case NumLit::Cls::kDbl: {
      const double ad = static_cast<double>(a);
      return ad < m.dv ? -1 : (ad > m.dv ? 1 : 0);
    }
    default:
      return m.cc;
  }
}

inline int CmpRaw(double a, const NumLit& m) {
  // Int literals were promoted into kDbl for double columns.
  if (m.cls == NumLit::Cls::kDbl) return a < m.dv ? -1 : (a > m.dv ? 1 : 0);
  return m.cc;
}

/// Invoke fn(i, vals[i]) for every non-NULL row of a typed numeric column.
template <typename T, typename Fn>
inline void ForEachNonNull(size_t n, const T* vals, const ColumnVector& cv,
                           Fn&& fn) {
  if (cv.has_nulls()) {
    const BitVector& nulls = cv.nulls();
    for (size_t i = 0; i < n; ++i) {
      if (nulls.Test(i)) continue;
      fn(i, vals[i]);
    }
  } else {
    for (size_t i = 0; i < n; ++i) fn(i, vals[i]);
  }
}

/// OR branchless verdicts into `out` a 64-row word at a time: every lane
/// evaluates `pred` unconditionally (no data-dependent branch, so random
/// data costs no mispredicts and the compare loop auto-vectorizes), the
/// packed word is masked against the NULL bitmap wholesale, then OR-ed in.
/// NULL slots hold zeroed payloads, so reading them through `pred` is safe;
/// their verdict bits are discarded by the mask.
template <typename T, typename Pred>
inline void OrVerdictWords(size_t n, const T* vals, const ColumnVector& cv,
                           BitVector* out, const Pred& pred) {
  uint64_t* words = out->mutable_words();
  const uint64_t* null_words =
      cv.has_nulls() ? cv.nulls().words().data() : nullptr;
  const size_t full = n / 64;
  for (size_t wi = 0; wi < full; ++wi) {
    const T* v = vals + wi * 64;
    uint64_t w = 0;
    for (size_t j = 0; j < 64; ++j) {
      w |= static_cast<uint64_t>(pred(v[j])) << j;
    }
    if (null_words != nullptr) w &= ~null_words[wi];
    words[wi] |= w;
  }
  const size_t rest = n - full * 64;
  if (rest > 0) {
    const T* v = vals + full * 64;
    uint64_t w = 0;
    for (size_t j = 0; j < rest; ++j) {
      w |= static_cast<uint64_t>(pred(v[j])) << j;
    }
    if (null_words != nullptr) w &= ~null_words[full];
    words[full] |= w;
  }
}

template <typename T>
void EvalLeafNumeric(const KernelNode& node, size_t n, const T* vals,
                     const ColumnVector& cv, BitVector* out) {
  constexpr bool kIntCol = std::is_same_v<T, int64_t>;
  switch (node.kind) {
    case KernelNode::Kind::kCmp: {
      const NumLit m = ClassifyNumLit(kIntCol, node.lit);
      const BinaryOp op = node.op;
      if (m.cls == NumLit::Cls::kInt) {
        // The dominant shape: unboxed int64 exact compare vs an int
        // literal, one branchless sweep per op.
        const int64_t lv = m.iv;
        switch (op) {
          case BinaryOp::kEq:
            OrVerdictWords(n, vals, cv, out, [lv](T a) { return a == lv; });
            return;
          case BinaryOp::kNe:
            OrVerdictWords(n, vals, cv, out, [lv](T a) { return a != lv; });
            return;
          case BinaryOp::kLt:
            OrVerdictWords(n, vals, cv, out, [lv](T a) { return a < lv; });
            return;
          case BinaryOp::kLe:
            OrVerdictWords(n, vals, cv, out, [lv](T a) { return a <= lv; });
            return;
          case BinaryOp::kGt:
            OrVerdictWords(n, vals, cv, out, [lv](T a) { return a > lv; });
            return;
          case BinaryOp::kGe:
            OrVerdictWords(n, vals, cv, out, [lv](T a) { return a >= lv; });
            return;
          default:
            return;  // only comparisons compile to kCmp
        }
      }
      if (m.cls == NumLit::Cls::kDbl) {
        // Value::Compare's promoted-double three-way treats NaN as equal
        // to everything (`a < b ? -1 : (a > b ? 1 : 0)`), so each op is
        // phrased through !(a < lit) / !(a > lit), never operator==.
        const double dv = m.dv;
        switch (op) {
          case BinaryOp::kEq:
            OrVerdictWords(n, vals, cv, out, [dv](T a) {
              const double ad = static_cast<double>(a);
              return !(ad < dv) && !(ad > dv);
            });
            return;
          case BinaryOp::kNe:
            OrVerdictWords(n, vals, cv, out, [dv](T a) {
              const double ad = static_cast<double>(a);
              return (ad < dv) || (ad > dv);
            });
            return;
          case BinaryOp::kLt:
            OrVerdictWords(n, vals, cv, out, [dv](T a) {
              return static_cast<double>(a) < dv;
            });
            return;
          case BinaryOp::kLe:
            OrVerdictWords(n, vals, cv, out, [dv](T a) {
              return !(static_cast<double>(a) > dv);
            });
            return;
          case BinaryOp::kGt:
            OrVerdictWords(n, vals, cv, out, [dv](T a) {
              return static_cast<double>(a) > dv;
            });
            return;
          case BinaryOp::kGe:
            OrVerdictWords(n, vals, cv, out, [dv](T a) {
              return !(static_cast<double>(a) < dv);
            });
            return;
          default:
            return;
        }
      }
      // kConst: the type-tag order fixes one outcome for the whole batch —
      // every non-NULL row matches, or none does.
      if (ApplyCmp(op, m.cc)) {
        OrVerdictWords(n, vals, cv, out, [](T) { return true; });
      }
      return;
    }
    case KernelNode::Kind::kBetween: {
      const NumLit lo = ClassifyNumLit(kIntCol, node.lit);
      const NumLit hi = ClassifyNumLit(kIntCol, node.lit_hi);
      if (lo.cls == NumLit::Cls::kInt && hi.cls == NumLit::Cls::kInt) {
        const int64_t lv = lo.iv, hv = hi.iv;
        OrVerdictWords(n, vals, cv, out,
                       [lv, hv](T a) { return a >= lv && a <= hv; });
        return;
      }
      if (lo.cls == NumLit::Cls::kDbl && hi.cls == NumLit::Cls::kDbl) {
        // NaN-as-equal three-way: in-range is !(a < lo) && !(a > hi).
        const double lv = lo.dv, hv = hi.dv;
        OrVerdictWords(n, vals, cv, out, [lv, hv](T a) {
          const double ad = static_cast<double>(a);
          return !(ad < lv) && !(ad > hv);
        });
        return;
      }
      // BETWEEN row semantics are lo.Compare(v) <= 0 && v.Compare(hi) <= 0,
      // and Compare's NaN-as-equal form makes both orientations agree, so
      // the v-side three-way is exact.
      ForEachNonNull(n, vals, cv, [&](size_t i, T a) {
        if (CmpRaw(a, lo) >= 0 && CmpRaw(a, hi) <= 0) out->Set(i);
      });
      return;
    }
    case KernelNode::Kind::kRangeSet: {
      std::vector<std::pair<NumLit, NumLit>> spans;
      spans.reserve(node.ranges.size());
      bool all_int = true, all_dbl = true;
      for (const KernelNode::Range& r : node.ranges) {
        spans.emplace_back(ClassifyNumLit(kIntCol, r.lo),
                           ClassifyNumLit(kIntCol, r.hi));
        all_int = all_int && spans.back().first.cls == NumLit::Cls::kInt &&
                  spans.back().second.cls == NumLit::Cls::kInt;
        all_dbl = all_dbl && spans.back().first.cls == NumLit::Cls::kDbl &&
                  spans.back().second.cls == NumLit::Cls::kDbl;
      }
      if (all_int) {
        // Span-major branchless sweeps: the spans are lo-sorted and
        // disjoint, so at most one can match a given value and OR-ing one
        // verdict word per span equals the early-break probe exactly.
        for (const auto& s : spans) {
          const int64_t lv = s.first.iv, hv = s.second.iv;
          OrVerdictWords(n, vals, cv, out,
                         [lv, hv](T a) { return a >= lv && a <= hv; });
        }
        return;
      }
      if (all_dbl) {
        // NaN-as-equal: NaN is "in" every span under the three-way form,
        // matching the probe's CmpRaw verdicts (OR keeps that identical).
        for (const auto& s : spans) {
          const double lv = s.first.dv, hv = s.second.dv;
          OrVerdictWords(n, vals, cv, out, [lv, hv](T a) {
            const double ad = static_cast<double>(a);
            return !(ad < lv) && !(ad > hv);
          });
        }
        return;
      }
      // Ranges are lo-sorted and disjoint, so a linear probe with early
      // break matches the generic upper_bound probe exactly.
      ForEachNonNull(n, vals, cv, [&](size_t i, T a) {
        for (const auto& s : spans) {
          if (CmpRaw(a, s.first) < 0) break;
          if (CmpRaw(a, s.second) <= 0) {
            out->Set(i);
            break;
          }
        }
      });
      return;
    }
    default:
      IMP_DCHECK(false);
  }
}

/// Sign of Value(string v).Compare(lit).
inline int CmpStrLit(std::string_view v, const Value& lit) {
  if (!lit.is_string()) return 1;  // strings > numbers
  const std::string& s = lit.AsString();
  const int c = v.compare(std::string_view(s.data(), s.size()));
  return c < 0 ? -1 : (c > 0 ? 1 : 0);
}

/// Leaf verdict for one non-NULL string cell (dict-distinct or flat row).
bool LeafMatchString(const KernelNode& node, std::string_view v) {
  switch (node.kind) {
    case KernelNode::Kind::kCmp:
      return ApplyCmp(node.op, CmpStrLit(v, node.lit));
    case KernelNode::Kind::kBetween:
      return CmpStrLit(v, node.lit) >= 0 && CmpStrLit(v, node.lit_hi) <= 0;
    case KernelNode::Kind::kRangeSet:
      for (const KernelNode::Range& r : node.ranges) {
        if (CmpStrLit(v, r.lo) < 0) break;
        if (CmpStrLit(v, r.hi) <= 0) return true;
      }
      return false;
    default:
      IMP_DCHECK(false);
      return false;
  }
}

void EvalLeafDict(const KernelNode& node, size_t n, const ColumnVector& cv,
                  BitVector* out) {
  // One verdict per distinct string, then an unboxed code loop — the
  // comparison cost is O(dictionary), not O(rows).
  const size_t dict = cv.dict_size();
  std::vector<char> verdict(dict);
  for (uint32_t code = 0; code < dict; ++code) {
    verdict[code] = LeafMatchString(node, cv.DictString(code)) ? 1 : 0;
  }
  const uint32_t* codes = cv.codes();
  if (cv.has_nulls()) {
    const BitVector& nulls = cv.nulls();
    for (size_t i = 0; i < n; ++i) {
      if (!nulls.Test(i) && verdict[codes[i]]) out->Set(i);
    }
  } else {
    for (size_t i = 0; i < n; ++i) {
      if (verdict[codes[i]]) out->Set(i);
    }
  }
}

void EvalLeafColumnar(const KernelNode& node, size_t n, const ColumnVector& cv,
                      BitVector* out) {
  switch (cv.encoding()) {
    case ColumnVector::Encoding::kInt64:
      EvalLeafNumeric(node, n, cv.ints(), cv, out);
      return;
    case ColumnVector::Encoding::kDouble:
      EvalLeafNumeric(node, n, cv.doubles(), cv, out);
      return;
    case ColumnVector::Encoding::kDictString:
      EvalLeafDict(node, n, cv, out);
      return;
    case ColumnVector::Encoding::kFlatString:
      if (cv.has_nulls()) {
        const BitVector& nulls = cv.nulls();
        for (size_t i = 0; i < n; ++i) {
          if (!nulls.Test(i) && LeafMatchString(node, cv.StringAt(i))) {
            out->Set(i);
          }
        }
      } else {
        for (size_t i = 0; i < n; ++i) {
          if (LeafMatchString(node, cv.StringAt(i))) out->Set(i);
        }
      }
      return;
  }
}

/// Evaluate `node` over the whole block. `out` has block.num_rows() bits,
/// all zero on entry; matching rows get their bit set.
void EvalNode(const KernelNode& node, const RowBlock& block, BitVector* out) {
  const size_t n = block.num_rows();
  switch (node.kind) {
    case KernelNode::Kind::kConst:
      if (node.const_val) out->SetAll();
      return;
    case KernelNode::Kind::kAnd: {
      EvalNode(*node.children[0], block, out);
      BitVector scratch(n);
      for (size_t i = 1; i < node.children.size(); ++i) {
        if (out->None()) return;  // conjunction already empty
        scratch.ClearAll();
        EvalNode(*node.children[i], block, &scratch);
        out->IntersectWith(scratch);
      }
      return;
    }
    case KernelNode::Kind::kOr: {
      BitVector scratch(n);
      for (const NodePtr& c : node.children) {
        scratch.ClearAll();
        EvalNode(*c, block, &scratch);
        out->UnionWith(scratch);
      }
      return;
    }
    case KernelNode::Kind::kNot:
      EvalNode(*node.children[0], block, out);
      out->FlipAll();
      return;
    default:
      if (block.columnar()) {
        EvalLeafColumnar(node, n, block.chunk()->column(node.col), out);
      } else {
        const size_t c = node.col;
        EvalLeaf(node, n,
                 [&block, c](size_t i) -> const Value& { return block.row(i)[c]; },
                 out);
      }
      return;
  }
}

}  // namespace

// ---- PredicateKernel ------------------------------------------------------

PredicateKernel::PredicateKernel() = default;
PredicateKernel::~PredicateKernel() = default;
PredicateKernel::PredicateKernel(PredicateKernel&&) noexcept = default;
PredicateKernel& PredicateKernel::operator=(PredicateKernel&&) noexcept =
    default;

PredicateKernel PredicateKernel::Compile(const ExprPtr& expr) {
  PredicateKernel k;
  k.expr_ = expr;
  if (!expr) return k;

  // Split the top-level conjunction: compiled conjuncts run as kernels,
  // the rest re-conjoin into a scalar remainder evaluated on survivors.
  std::vector<ExprPtr> conjuncts;
  FlattenConjunctPtrs(expr, &conjuncts);
  std::vector<NodePtr> compiled;
  std::vector<ExprPtr> residual;
  for (const ExprPtr& c : conjuncts) {
    NodePtr node = CompileNode(*c);
    if (node) {
      compiled.push_back(std::move(node));
    } else {
      residual.push_back(c);
    }
  }
  if (!compiled.empty()) k.root_ = FoldAnd(std::move(compiled));
  if (!residual.empty()) {
    k.scalar_ = residual.size() == 1 ? residual[0]
                                     : MakeConjunction(std::move(residual));
    std::vector<size_t> cols;
    k.scalar_->CollectColumns(&cols);
    std::sort(cols.begin(), cols.end());
    cols.erase(std::unique(cols.begin(), cols.end()), cols.end());
    k.scalar_width_ = cols.empty() ? 0 : cols.back() + 1;
    k.scalar_cols_ = std::move(cols);
  }
  return k;
}

void PredicateKernel::Eval(const RowBlock& block, BitVector* sel,
                           size_t* vectorized_batches,
                           size_t* scalar_fallback_rows) const {
  const size_t n = block.num_rows();
  *sel = BitVector(n);
  if (!expr_) {
    sel->SetAll();
    return;
  }
  if (root_) {
    EvalNode(*root_, block, sel);
    if (vectorized_batches) ++*vectorized_batches;
  } else {
    sel->SetAll();
  }
  if (!scalar_) return;

  // Scalar remainder on surviving rows only. For columnar blocks only the
  // referenced columns are materialized into a scratch tuple (unreferenced
  // positions stay NULL — Expr::Eval never reads them).
  size_t tested = 0;
  if (block.columnar()) {
    const DataChunk& chunk = *block.chunk();
    Tuple scratch(scalar_width_);
    sel->ForEachSetBit([&](size_t r) {
      for (size_t c : scalar_cols_) scratch[c] = chunk.At(r, c);
      ++tested;
      if (!scalar_->Eval(scratch).IsTrue()) sel->Reset(r);
    });
  } else {
    sel->ForEachSetBit([&](size_t r) {
      ++tested;
      if (!scalar_->Eval(block.row(r)).IsTrue()) sel->Reset(r);
    });
  }
  if (scalar_fallback_rows) *scalar_fallback_rows += tested;
}

}  // namespace imp
