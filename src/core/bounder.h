#ifndef METRICPROX_CORE_BOUNDER_H_
#define METRICPROX_CORE_BOUNDER_H_

#include <algorithm>
#include <cmath>
#include <optional>
#include <span>
#include <string_view>

#include "core/types.h"

namespace metricprox {

// Defined in check/certificate.h; the certified verbs below never touch it,
// so core stays independent of the certification subsystem.
struct BoundCertificate;

/// Safety margin for bound-based decisions. Bound intervals are computed
/// with a handful of floating-point additions, so they can stray a few ulps
/// outside the true mathematical interval; deciding a comparison only when
/// the bound clears the threshold by this (relative) margin keeps every
/// decision consistent with the exact distances. Near-ties inside the
/// margin simply fall back to the oracle — exactness is never sacrificed.
inline double BoundDecisionMargin(double scale) {
  return 1e-12 * (1.0 + std::abs(scale));
}

/// Relative width of a bound interval, the quantity the approximate mode's
/// slack decisions certify: (ub - max(lb, 0)) / ub, clamped to [0, 1].
/// Degenerate (exact) intervals report 0 even at value 0; unbounded or
/// otherwise unusable intervals report the maximal gap 1.
inline double SlackRelativeGap(const Interval& b) {
  if (!std::isfinite(b.hi)) return 1.0;
  if (b.lo == b.hi) return 0.0;
  if (b.hi <= 0.0) return 1.0;
  const double lb = std::max(b.lo, 0.0);
  return std::clamp((b.hi - lb) / b.hi, 0.0, 1.0);
}

/// The advertised error model of one weak-oracle answer: the weak estimate
/// `w` plus the multiplicative factor `alpha >= 1` and additive floor
/// `floor >= 0` the weak oracle claims to honor. Lives in core (not
/// src/oracle/) so the certification subsystem can recompute the implied
/// interval without depending on any oracle implementation.
struct WeakModel {
  double w = 0.0;
  double alpha = 1.0;
  double floor = 0.0;
};

/// The certified interval a WeakModel implies. The model promises
/// |w - d*m| <= floor for some factor m in [1/alpha, alpha] applied to the
/// true distance d, so d*m in [w - floor, w + floor] and therefore
/// d in [max(0, w - floor)/alpha, (w + floor)*alpha]. This holds even when
/// the weak answer was clamped up to 0 (clamping only raises w).
inline Interval WeakModelInterval(const WeakModel& m) {
  const double hi = (m.w + m.floor) * m.alpha;
  const double lo = std::max(0.0, m.w - m.floor) / m.alpha;
  return Interval(std::min(lo, hi), hi);
}

/// A bound scheme: the pluggable component that answers "what do the
/// already-resolved distances imply about this unknown distance?".
///
/// Implementations: TriBounder, SplubBounder, AdmBounder, LaesaBounder,
/// TlaesaBounder, DftBounder, NullBounder. A BoundedResolver consults the
/// bounder before every oracle call and notifies it after every resolution
/// (the paper's BOUNDS and UPDATE problems, Problems 1 and 2).
class Bounder {
 public:
  virtual ~Bounder() = default;

  /// Short identifier for reports, e.g. "tri" or "splub".
  virtual std::string_view name() const = 0;

  /// A [lb, ub] interval guaranteed to contain dist(i, j), derived without
  /// any oracle call. The caller guarantees i != j and that (i, j) is not
  /// already resolved (the resolver short-circuits known edges itself).
  ///
  /// Non-const because schemes may maintain internal caches.
  virtual Interval Bounds(ObjectId i, ObjectId j) = 0;

  /// One-to-many form of the BOUNDS problem over a row indexed by object
  /// id: row[v] = Bounds(q, v) for every v in `targets`. Entries outside
  /// `targets` are left untouched, and a repeated target is written with
  /// the same interval again. Rows (q, ·) bounded against an unchanged graph
  /// are the shape of kNN candidate ordering, PAM BUILD and the one-endpoint
  /// sweeps of Prim and PAM SWAP; a scheme whose per-pair cost has a part
  /// shared across the row overrides this to pay it once. The caller
  /// guarantees of Bounds() hold for every target (v != q, pair
  /// unresolved), and `row` has an entry for every object. The default
  /// loops Bounds(); overrides must be bit-identical to that loop.
  virtual void BoundsFrom(ObjectId q, std::span<const ObjectId> targets,
                          std::span<Interval> row) {
    for (const ObjectId v : targets) row[v] = Bounds(q, v);
  }

  /// Notification that dist(i, j) = d has been resolved and inserted into
  /// the shared PartialDistanceGraph (the UPDATE problem).
  virtual void OnEdgeResolved(ObjectId i, ObjectId j, double d) = 0;

  /// Batch form of the UPDATE problem: the resolver inserted all of `edges`
  /// into the shared graph in one bulk operation. The default forwards each
  /// edge to OnEdgeResolved; schemes with per-update cost (cache
  /// invalidation, incremental matrices) override this to amortize — e.g.
  /// one invalidation per batch instead of one per edge. Overrides must
  /// leave the scheme in the same state as the per-edge loop would.
  virtual void OnEdgesResolved(std::span<const ResolvedEdge> edges) {
    for (const ResolvedEdge& e : edges) OnEdgeResolved(e.u, e.v, e.weight);
  }

  /// Tries to decide `dist(i, j) < t` without the oracle. Returns nullopt
  /// when the scheme cannot decide. The default derives the answer from
  /// Bounds(); DFT overrides this with an LP feasibility test.
  virtual std::optional<bool> DecideLessThan(ObjectId i, ObjectId j,
                                             double t) {
    return DecideLessThanFrom(Bounds(i, j), t);
  }

  /// The interval rule behind the default DecideLessThan: `dist < t` is
  /// decided when `b` clears `t` by the safety margin. Batch overrides that
  /// obtain their intervals another way (BoundsFrom) apply this same rule.
  static std::optional<bool> DecideLessThanFrom(const Interval& b, double t) {
    const double margin = BoundDecisionMargin(t);
    if (b.hi < t - margin) return true;
    if (b.lo >= t + margin) return false;
    return std::nullopt;
  }

  /// Tries to decide `dist(i, j) > t` without the oracle (needed when the
  /// *left* side of a pair comparison is already resolved; note this is not
  /// the negation of DecideLessThan because of possible equality).
  virtual std::optional<bool> DecideGreaterThan(ObjectId i, ObjectId j,
                                                double t) {
    const Interval b = Bounds(i, j);
    const double margin = BoundDecisionMargin(t);
    if (b.lo > t + margin) return true;
    if (b.hi <= t - margin) return false;
    return std::nullopt;
  }

  /// Batch form of the BOUNDS problem: tries to decide
  /// `dist(pairs[k]) < thresholds[k]` for a whole sweep of comparisons at
  /// once, writing nullopt where the scheme cannot decide. The spans all
  /// have equal length; every pair is distinct-id, unresolved and in range
  /// (the resolver pre-filters). The default loops DecideLessThan in order;
  /// schemes whose query cost has a reusable part (a Dijkstra row, a pivot
  /// prefetch) override this to amortize it across the sweep. Overrides
  /// must produce exactly the decisions of the sequential loop, so the
  /// batched and scalar pipelines stay equivalent.
  virtual void DecideBatch(std::span<const IdPair> pairs,
                           std::span<const double> thresholds,
                           std::span<std::optional<bool>> out) {
    for (size_t k = 0; k < pairs.size(); ++k) {
      out[k] = DecideLessThan(pairs[k].i, pairs[k].j, thresholds[k]);
    }
  }

  /// Tries to decide `dist(i, j) < dist(k, l)` without the oracle. The
  /// default compares the two bound intervals (the paper's re-authored IF
  /// statement `LB(i,j) >= UB(k,l)` and its mirror).
  virtual std::optional<bool> DecidePairLess(ObjectId i, ObjectId j,
                                             ObjectId k, ObjectId l) {
    const Interval ij = Bounds(i, j);
    const Interval kl = Bounds(k, l);
    const double margin =
        BoundDecisionMargin(std::min(ij.hi, kl.hi) == kInfDistance
                                ? std::max(ij.lo, kl.lo)
                                : std::min(ij.hi, kl.hi));
    if (ij.hi < kl.lo - margin) return true;
    if (ij.lo >= kl.hi + margin) return false;
    return std::nullopt;
  }

  /// ------------------------------------------------------------------
  /// Certification channel (the audit pipeline; see check/certify.h).
  /// A scheme that can *prove* its bounds re-derives them together with
  /// constructive witnesses — a resolved-edge path for the upper bound, a
  /// wrapped edge for the lower bound — so a Verifier can confirm every
  /// bound-decided comparison using only known distances and arithmetic.
  /// ------------------------------------------------------------------

  /// Fills `cert` with an interval certificate whose witnesses reproduce
  /// Bounds(i, j). Returns false when the scheme has no certification
  /// support (the default); decisions by such a scheme are counted as
  /// `uncertified` by the audit, never as failures.
  virtual bool CertifyBounds(ObjectId /*i*/, ObjectId /*j*/,
                             BoundCertificate* /*cert*/) {
    return false;
  }

  /// Certified decision verbs: identical decisions to the plain verbs (the
  /// audit's output-parity guarantee hinges on this), optionally filling
  /// `cert` when the decision itself carries a proof the interval channel
  /// cannot express. The defaults delegate to the plain verbs and leave
  /// `cert` untouched — interval schemes are instead certified post hoc
  /// through CertifyBounds. DFT overrides these to capture the Farkas
  /// multipliers of the very LP solve that made the decision.
  virtual std::optional<bool> DecideLessThanCertified(
      ObjectId i, ObjectId j, double t, BoundCertificate* /*cert*/) {
    return DecideLessThan(i, j, t);
  }
  virtual std::optional<bool> DecideGreaterThanCertified(
      ObjectId i, ObjectId j, double t, BoundCertificate* /*cert*/) {
    return DecideGreaterThan(i, j, t);
  }
  virtual std::optional<bool> DecidePairLessCertified(
      ObjectId i, ObjectId j, ObjectId k, ObjectId l,
      BoundCertificate* /*cert*/) {
    return DecidePairLess(i, j, k, l);
  }

  /// ------------------------------------------------------------------
  /// Approximate-mode observation channel. When a ResolutionPolicy lets
  /// the resolver settle a comparison by slack (interval gap <= eps, or a
  /// budget-forced fallback), it reports the decision here so the audit
  /// shim can emit a slack certificate. The defaults do nothing; plain
  /// schemes never need to override these. `bounds` is the interval the
  /// decision was taken against (Interval::Exact(d) for a cached side of
  /// a pair comparison).
  /// ------------------------------------------------------------------
  virtual void ObserveSlackLessThan(ObjectId /*i*/, ObjectId /*j*/,
                                    double /*t*/, const Interval& /*bounds*/,
                                    double /*eps*/, bool /*outcome*/) {}
  virtual void ObserveSlackPairLess(ObjectId /*i*/, ObjectId /*j*/,
                                    ObjectId /*k*/, ObjectId /*l*/,
                                    const Interval& /*bij*/,
                                    const Interval& /*bkl*/, double /*eps*/,
                                    bool /*outcome*/) {}

  /// ------------------------------------------------------------------
  /// Dual-oracle observation channel. When a WeakBounder is installed and
  /// the resolver settles a comparison from the weak oracle's certified
  /// interval (intersected with the scheme's bounds), it reports the
  /// decision here together with the advertised error model, so the audit
  /// shim can emit a kWeak certificate the Verifier can recompute. The
  /// defaults do nothing. A GreaterOrEqual proof observed through this
  /// channel arrives as ObserveWeakLessThan with outcome=false (the same
  /// convention the scheme path uses: d >= t iff not d < t is provable).
  /// For pair comparisons a cached side is reported as the degenerate
  /// model {d, 1.0, 0.0}.
  /// ------------------------------------------------------------------
  virtual void ObserveWeakLessThan(ObjectId /*i*/, ObjectId /*j*/,
                                   double /*t*/, const WeakModel& /*model*/,
                                   bool /*outcome*/) {}
  virtual void ObserveWeakGreaterThan(ObjectId /*i*/, ObjectId /*j*/,
                                      double /*t*/,
                                      const WeakModel& /*model*/,
                                      bool /*outcome*/) {}
  virtual void ObserveWeakPairLess(ObjectId /*i*/, ObjectId /*j*/,
                                   ObjectId /*k*/, ObjectId /*l*/,
                                   const WeakModel& /*mij*/,
                                   const WeakModel& /*mkl*/,
                                   bool /*outcome*/) {}
};

/// The no-op scheme backing the "without plug" baselines: every bound is
/// [0, inf), so every comparison falls through to the oracle.
class NullBounder : public Bounder {
 public:
  std::string_view name() const override { return "none"; }
  Interval Bounds(ObjectId, ObjectId) override {
    return Interval::Unbounded();
  }
  void BoundsFrom(ObjectId, std::span<const ObjectId> targets,
                  std::span<Interval> row) override {
    for (const ObjectId v : targets) row[v] = Interval::Unbounded();
  }
  void OnEdgeResolved(ObjectId, ObjectId, double) override {}
};

}  // namespace metricprox

#endif  // METRICPROX_CORE_BOUNDER_H_
