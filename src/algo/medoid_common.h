#ifndef METRICPROX_ALGO_MEDOID_COMMON_H_
#define METRICPROX_ALGO_MEDOID_COMMON_H_

#include <cstdint>
#include <span>
#include <vector>

#include "bounds/resolver.h"
#include "core/types.h"

namespace metricprox {

/// Output of a k-medoid clustering (PAM / CLARANS).
struct ClusteringResult {
  std::vector<ObjectId> medoids;
  /// assignment[j] = index into `medoids` of j's nearest medoid.
  std::vector<uint32_t> assignment;
  /// Sum over all objects of the distance to their nearest medoid (TD).
  double total_deviation = 0.0;
  /// Swap rounds executed (PAM) or accepted moves (CLARANS).
  uint32_t iterations = 0;
};

namespace medoid_internal {

/// Per-object nearest / second-nearest medoid bookkeeping used by the swap
/// evaluations of PAM and CLARANS. An object's two nearest medoids are the
/// two least under the order (distance, medoid id): the nearest takes a tie
/// on distance by the smaller medoid id, and so does the second-nearest.
struct AssignmentTable {
  /// Index into the medoid vector of the nearest medoid (for a medoid
  /// object: itself, unless another medoid at distance 0 has a smaller id).
  std::vector<uint32_t> nearest;
  /// Index into the medoid vector of the second-nearest medoid.
  std::vector<uint32_t> second;
  /// Distance to the nearest medoid (0 for medoids).
  std::vector<double> dist_nearest;
  /// Distance to the second-nearest medoid.
  std::vector<double> dist_second;
  /// The sum of dist_nearest, added in ascending object order.
  double total_deviation = 0.0;
};

/// Computes the table, resolving only the object-to-medoid distances that
/// can be among an object's two nearest. For each object j it folds in every
/// cached medoid distance (its own medoid reads 0), then orders the other
/// medoids by the lo of one BoundsFrom row (j, ·), ties to the smaller slot.
/// It then works in rounds of one ResolveAll each, at most one per medoid:
/// in a round, every object whose top two are still open skips each next
/// medoid proven farther than its current second-nearest distance ds (by
/// the row's lo under DecideGreaterThan's margin rule, or, once a round has
/// resolved something, by ProvenGreaterThan) and puts the first one not
/// proven into the round's batch. A skipped medoid lies beyond the current
/// ds, which is at least the final one, so it is neither of j's two
/// nearest; and the two least under (distance, medoid id) do not depend on
/// the order the distances arrive in. The table is therefore the one the
/// whole object x medoid grid gives, bit for bit. Under a scheme that proves
/// nothing, every pair is resolved, as the grid would be.
AssignmentTable ComputeAssignment(BoundedResolver* resolver,
                                  const std::vector<ObjectId>& medoids);

/// Brings `table`, computed for the medoids before slot `out` was changed,
/// up to date with `medoids`, whose slot `out` now holds the incoming medoid
/// h. An object whose nearest or second-nearest was slot `out` is
/// reassigned from scratch, as ComputeAssignment does. Every other object
/// keeps its two nearest unless h comes before its second-nearest: one
/// BoundsFrom row (h, ·) over those objects skips h where its lo proves h
/// farther than ds, and the rest send their (j, h) pair in the first
/// round's batch. The result equals ComputeAssignment(resolver, medoids).
void UpdateAssignment(BoundedResolver* resolver,
                      const std::vector<ObjectId>& medoids, uint32_t out,
                      AssignmentTable* table);

/// The bound behind every candidate pruning of PAM and CLARANS. Each of
/// their objectives adds up, over the objects j, what j pays once candidate
/// c is a medoid minus what j pays now: min(d(c, j), cap) - base, where cap
/// is what j pays when c does not serve it.
/// - BUILD 1, the distance sum: cap = infinity and base = 0.
/// - BUILD 2..k, the negated gain: cap = base = dn(j).
/// - SWAP of c into slot o: base = dn(j); cap = ds(j) for the objects that
///   o serves, dn(j) for the rest.
/// The term is non-decreasing in d(c, j), so putting in the lo of c's
/// bound row bounds it from below. The lo is first shaved by
/// BoundDecisionMargin and floored at 0, since a bound can stray a few ulps
/// above the distance; rounding is monotone, so the computed term stays at
/// or below the objective's computed term too.
double TermLowerBound(const Interval& bounds, double cap, double base);

/// What a lower bound summed from TermLowerBound terms gives up so that it
/// stays below the objective as the textbook loop adds it, in floating point.
/// The bound adds one term per object and at most one correction per object as
/// its pair resolves, each rounded once before it is added; the objective adds
/// one term per object. Recursive summation of r terms errs by at most gamma(r)
/// times their absolute sum, where gamma(r) = r u / (1 - r u) and
/// u = epsilon / 2 is the unit roundoff (Higham, Accuracy and Stability of
/// Numerical Algorithms, 2nd ed., 4.2). Let `magnitude` bound both the absolute
/// sum of the bound's terms and corrections and that of the objective's terms.
/// Then the bound errs by at most (gamma(2 objects) + u) magnitude, the
/// objective by at most gamma(objects) magnitude, and subtracting the margin
/// rounds once more, by at most u (magnitude + margin). For objects < 2^40 that
/// is under (3.01 objects + 2.01) u magnitude, which the margin,
/// 8 objects u magnitude, covers from one object up. When the objective's terms
/// all have one sign, its error is at most gamma(objects) times its own size,
/// and x - gamma |x| grows with x: since the exact objective is at least the
/// exact bound, the computed one stays at least bound - gamma(objects) |bound|,
/// and the bound's own terms and corrections are magnitude enough.
///
/// A bound proven for BUILD step s stays proven at every later step. BUILD
/// 2..k's terms min(d, dn) - dn are at most 0, and as a new medoid shrinks
/// dn they never decrease, computed or exact, since rounding is monotone;
/// an object that leaves the targets (dn falls to 0) drops a term that was
/// at most 0. So the exact sum of a later step's computed terms is at least
/// that of step s, which is at least the exact bound, and the one-signed
/// argument above applies with at most the objects of step s.
double SumMargin(size_t objects, double magnitude);

/// BUILD's argmins in one form (TermLowerBound): the candidate c of least
/// sum over `targets` (ascending ids) of min(d(c, j), cap[j]) - base[j],
/// ties to the smaller id. BUILD 1 passes cap = infinity and base = 0, which
/// makes the sum c's distance sum; BUILD 2..k passes cap = base = dn, which
/// makes it c's negated gain. `cap`, `base` and `keys` are indexed by
/// object; an object left out of `targets` must add nothing.
///
/// Candidates are visited best-first, from a min-heap on keys[c], a lower
/// bound on c's objective; -infinity stands for none. A popped candidate is
/// re-keyed from a fresh row, then dropped when its key proves it cannot
/// beat the incumbent, pushed back when the key is worse than the next one,
/// or else evaluated. The evaluation resolves the row's undecided pairs
/// widest term interval first (the bound gap hi - lo for BUILD 1; for BUILD
/// 2..k the smaller of the gap and the potential dn - lo) and abandons the
/// candidate as soon as its resolved terms plus the bounds of the rest rule
/// it out. A candidate evaluated to the end adds its terms in ascending j,
/// as the textbook loop does, so its rounding and its ties are the
/// textbook's.
///
/// On return keys[c] holds the tightest lower bound proven for each
/// candidate: its key on entry, its re-keyed row bound, its abandoned
/// partial sum or its evaluated objective, each of the last three less
/// SumMargin. BUILD 3..k pass the previous step's keys back in, which stay
/// bounds by SumMargin's carry-over clause; BUILD 2 starts from -infinity,
/// since BUILD 1's keys bound a different sum.
ObjectId BestFirstArgmin(BoundedResolver* resolver,
                         std::span<const ObjectId> candidates,
                         std::span<const ObjectId> targets,
                         std::span<const double> cap,
                         std::span<const double> base, std::span<double> keys);

/// The per-candidate buffers of SwapDeltas that grow with n. PAM and CLARANS
/// keep one across their candidates, so no candidate allocates in
/// proportion to n.
struct SwapScratch {
  std::vector<ObjectId> targets;  // 0 .. n-1: the row every candidate bounds
  std::vector<Interval> bounds;   // the candidate's row, indexed by object
};

/// Exact change in total deviation if non-medoid `h` takes medoid slot o,
/// written to deltas[o] for every slot o in [out_begin, out_end); no other
/// entry is written. One pass prices them all: a BoundsFrom row (h, ·),
/// then each object j in ascending order against t = ds(j) when its own
/// medoid is in the range, else dn(j). j is skipped when the row proves
/// d(j,h) >= t; otherwise LessThan(j, h, t) decides, and a true answer
/// resolves d(j,h) before the next object. This is the paper's re-authored
/// IF statement inside PAM/CLARANS: every delta adds the oracle-only
/// computation's terms in its order, so it equals that computation bit for
/// bit. `deltas` holds one entry per medoid.
///
/// Before any comparison, the same row bounds every slot's delta from below
/// (TermLowerBound, less SumMargin). When every slot's bound exceeds
/// `incumbent`, no slot can win against it: SwapDeltas then returns false
/// without a comparison or an oracle call, and the range holds those
/// bounds instead of the deltas. Otherwise it returns true. An infinite
/// incumbent prices every candidate.
bool SwapDeltas(BoundedResolver* resolver, const AssignmentTable& table,
                ObjectId h, uint32_t out_begin, uint32_t out_end,
                double incumbent, SwapScratch* scratch,
                std::span<double> deltas);

/// True if `object` appears in `medoids`.
bool IsMedoid(const std::vector<ObjectId>& medoids, ObjectId object);

}  // namespace medoid_internal

}  // namespace metricprox

#endif  // METRICPROX_ALGO_MEDOID_COMMON_H_
