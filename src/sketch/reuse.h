// Sketch reuse check — reproduction of the PBDS technique ([37], used in
// Sec. 2/7.1: sketches are prefiltered by query template, then a check
// decides whether a sketch captured for Q' can answer Q).
//
// Two queries share a template when they differ only in constants. A
// captured sketch covers the provenance of Q' under Q''s constants; it can
// answer Q iff Q's provenance is guaranteed to be a subset. We accept:
//   * identical constants — always reusable;
//   * threshold comparisons where Q is at least as selective as Q':
//       - `x > c` / `x >= c`:  c_Q >= c_Q'
//       - `x < c` / `x <= c`:  c_Q <= c_Q'
//       - `x BETWEEN lo AND hi`: [lo_Q, hi_Q] ⊆ [lo_Q', hi_Q']
//     but only where every operator above keeps Q's provenance inside
//     Q''s: never under a top-k (a row Q' cut can move into Q's top k), and
//     below an aggregate only when its HAVING is absent or every conjunct
//     is `>`/`>=` over a SUM or COUNT (fewer input rows then only drop
//     groups). In a HAVING, x must itself be a SUM or COUNT output
//     (AVG/MIN/MAX thresholds require equality). Only AND and OR pass the
//     relaxation to their operands: under NOT or inside arithmetic a
//     constant must be equal;
//   * any other differing constant rejects reuse (a fresh sketch is
//     captured instead — the sketch store holds multiple sketches per
//     template).
// SUM arguments are assumed non-negative, as safety's rule R3 assumes.

#ifndef IMP_SKETCH_REUSE_H_
#define IMP_SKETCH_REUSE_H_

#include "algebra/plan.h"

namespace imp {

/// True iff the sketch captured for `captured` may answer `query`.
/// Precondition-free: also verifies the two plans share a template.
bool CanReuseSketch(const PlanPtr& captured, const PlanPtr& query);

}  // namespace imp

#endif  // IMP_SKETCH_REUSE_H_
