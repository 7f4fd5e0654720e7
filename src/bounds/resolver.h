#ifndef METRICPROX_BOUNDS_RESOLVER_H_
#define METRICPROX_BOUNDS_RESOLVER_H_

#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/bounder.h"
#include "core/oracle.h"
#include "core/stats.h"
#include "core/status.h"
#include "core/types.h"
#include "graph/partial_graph.h"
#include "obs/telemetry.h"

namespace metricprox {

namespace internal {

/// Unwind vehicle for BoundedResolver::RunFallible: thrown by the resolver
/// when the oracle transport fails permanently inside a fallible scope, and
/// caught by RunFallible, which converts it back into a Status. Never
/// escapes the library — the public API stays exception-free.
struct OracleTransportError {
  Status status;
};

}  // namespace internal

class WeakBounder;

/// Approximate-resolution policy (ROADMAP item 4). With `eps > 0`, a
/// comparison verb (LessThan / PairLess / FilterLessThan) may settle
/// against the interval midpoint — without an oracle call — whenever the
/// bound interval's relative gap (SlackRelativeGap) is <= eps; every such
/// decision is counted in decided_by_slack and is consistent with *some*
/// distance within eps relative slack of the true one. With
/// `oracle_budget > 0`, at most that many pair resolutions may reach the
/// oracle: FilterLessThan ships the widest-gap pairs first (a wide
/// interval gains the most information per call), comparisons past the cap
/// are forced to slack (counted in budget_exhausted; their realized error
/// may exceed eps), and resolutions with no slack fallback surface
/// Status::ResourceExhausted through RunFallible. The default policy
/// (eps = 0, no budget) is the exact mode: every code path stays
/// byte-identical to a resolver without a policy. Proof verbs
/// (ProvenGreaterThan / ProvenGreaterOrEqual) are never slack-decided —
/// they are one-sided and already conservative — so eps alone cannot
/// change their callers' outputs; the budget still applies to every
/// resolution.
struct ResolutionPolicy {
  double eps = 0.0;            // relative slack; must be finite, in [0, 1)
  uint64_t oracle_budget = 0;  // max oracle pair resolutions; 0 = unlimited

  bool exact() const { return eps == 0.0 && oracle_budget == 0; }
};

/// The unified framework's engine: proximity algorithms issue distance
/// *comparisons* here instead of calling the oracle, and the resolver
/// decides each one as cheaply as possible —
///   1. from the cache of already-resolved distances (the partial graph),
///   2. from the plugged-in bound scheme (Tri, SPLUB, ADM, LAESA, TLAESA,
///      DFT, or none),
///   3. only then from the expensive oracle, recording the new edge and
///      notifying the bounder (the paper's UPDATE problem).
///
/// Because a bound-decided comparison is always consistent with the true
/// distances, an algorithm written against LessThan()/PairLess() produces
/// exactly the output of its oracle-only counterpart (tested property for
/// every shipped algorithm).
///
/// The resolver does not own the oracle, graph or bounder; a typical
/// experiment stacks them on the stack in that order.
class BoundedResolver {
 public:
  /// Starts with no scheme attached (NullBounder semantics).
  BoundedResolver(DistanceOracle* oracle, PartialDistanceGraph* graph);

  BoundedResolver(const BoundedResolver&) = delete;
  BoundedResolver& operator=(const BoundedResolver&) = delete;

  /// Attaches (or with nullptr, detaches) the bound scheme. Construction-
  /// time oracle calls a scheme performs through Distance() are charged to
  /// this resolver's stats.
  void SetBounder(Bounder* bounder);
  Bounder& bounder() { return *bounder_; }

  /// Installs the approximate-resolution policy and resets the budget
  /// spend. CHECKs eps is finite and in [0, 1). Setting the default
  /// (exact) policy restores exact resolution.
  void SetPolicy(const ResolutionPolicy& policy);
  const ResolutionPolicy& policy() const { return policy_; }

  /// Attaches (or with nullptr, detaches) the weak oracle as a third bound
  /// source. When attached, a comparison the scheme cannot decide consults
  /// the weak oracle's certified interval [max(0, w - floor)/alpha,
  /// (w + floor)*alpha], intersects it with the scheme's bounds, and
  /// decides without a strong-oracle call whenever the intersection clears
  /// the threshold — exact as long as the weak oracle honors its advertised
  /// error model (counted in decided_by_weak / weak_calls). Weak estimates
  /// also steer the oracle-budget ranking in FilterLessThan. A detected
  /// model violation (interval disjoint from the scheme's, or a resolved
  /// distance outside its advertised interval) fails the resolution with
  /// Status::FailedPrecondition instead of corrupting an answer. With
  /// nullptr (the default) every code path is byte-identical to a resolver
  /// without a weak oracle.
  void SetWeakBounder(WeakBounder* weak) { weak_ = weak; }
  WeakBounder* weak_bounder() const { return weak_; }

  /// Oracle pair resolutions charged against the budget since the last
  /// SetPolicy (maintained whether or not a cap is set).
  uint64_t budget_spent() const { return budget_spent_; }

  /// Exact distance; 0 for i == j. Calls the oracle only if the pair is not
  /// yet resolved, inserting the edge and notifying the bounder.
  double Distance(ObjectId i, ObjectId j);

  bool Known(ObjectId i, ObjectId j) const {
    return i == j || graph_->Has(i, j);
  }

  /// Current bound interval: exact for resolved pairs, else the scheme's.
  Interval Bounds(ObjectId i, ObjectId j);

  /// One-to-many Bounds over a row indexed by object id: row[v] is bit for
  /// bit Bounds(q, v) for every v in `targets` — Exact(0) for q itself,
  /// Exact(d) for resolved pairs — and entries outside `targets` are left
  /// untouched. One pass over the targets CHECKs each id, answers q and the
  /// cached pairs and lists the rest, which the scheme then writes straight
  /// into the row in one Bounder::BoundsFrom call. Counts one bound query
  /// per unresolved occurrence, repeats included, as the per-pair loop
  /// would. `row` has num_objects() entries. Cached pairs come from one
  /// merge with q's adjacency column while the targets ascend, and from one
  /// lookup each after that.
  void BoundsFrom(ObjectId q, std::span<const ObjectId> targets,
                  std::span<Interval> row);

  /// Truth of `dist(i, j) < t`, resolving the pair only when the scheme
  /// cannot decide (the paper's re-authored IF statement against a known
  /// threshold — the dominant pattern in Prim, k-NN and PAM/CLARANS).
  bool LessThan(ObjectId i, ObjectId j, double t);

  /// Truth of `dist(i, j) < dist(k, l)`, the general two-pair comparison.
  /// Falls back to resolving both pairs (up to two oracle calls).
  bool PairLess(ObjectId i, ObjectId j, ObjectId k, ObjectId l);

  /// True iff the cache or the scheme *proves* dist(i, j) > t — never calls
  /// the oracle. The one-sided IF form used by candidate-discard loops
  /// (k-NN: "provably farther than the current k-th neighbor"); a false
  /// return means "not proven", after which the caller typically resolves.
  bool ProvenGreaterThan(ObjectId i, ObjectId j, double t);

  /// True iff the cache or the scheme *proves* dist(i, j) >= t — never
  /// calls the oracle. The tie-loses discard form used by Borůvka: an edge
  /// provably no better than the incumbent (under the (weight, EdgeKey)
  /// total order) can be skipped without resolution.
  bool ProvenGreaterOrEqual(ObjectId i, ObjectId j, double t);

  /// ------------------------------------------------------------------
  /// Batch verbs (the batched resolution pipeline). Each verb performs one
  /// cache sweep, one bounder sweep and ships the undecided remainder to
  /// the oracle in a single BatchDistance call (or, with the batch
  /// transport disabled, a per-pair Distance loop). Decisions are made
  /// strictly before any resolution within a verb, so the two transports
  /// see identical bounder state and produce identical answers *and*
  /// identical oracle_calls — the property the equivalence tests pin down.
  /// ------------------------------------------------------------------

  /// Ensures every listed pair is resolved (present in the cache), issuing
  /// at most one oracle call per *unique unresolved* pair: symmetric and
  /// duplicate pairs are deduplicated, i == j and already-cached pairs are
  /// skipped, and the rest ship to the oracle through the active transport.
  /// Does not count comparisons (it is a resolution verb, like Distance).
  void ResolveAll(std::span<const IdPair> pairs);

  /// Batch of LessThan comparisons: out[k] is the truth of
  /// `dist(pairs[k]) < thresholds[k]`. Counts one comparison per pair.
  /// Sweep order: cache (and the t == +inf short-circuit), then one
  /// DecideBatch over the survivors, then one batched resolution of the
  /// still-undecided remainder.
  std::vector<bool> FilterLessThan(std::span<const IdPair> pairs,
                                   std::span<const double> thresholds);

  /// Convenience form with one shared threshold (range-style filters).
  std::vector<bool> FilterLessThan(std::span<const IdPair> pairs, double t);

  /// Whether batch verbs ship their undecided remainder through
  /// DistanceOracle::BatchDistance (true, the default) or through a
  /// sequential per-pair Distance loop (false). Decisions are unaffected —
  /// this flips only the transport, so outputs and oracle_calls are
  /// identical either way; only batch_calls / batch_resolved_pairs /
  /// batch_oracle_seconds and wall time differ.
  void SetBatchTransport(bool enabled) { batch_transport_ = enabled; }
  bool batch_transport() const { return batch_transport_; }

  ObjectId num_objects() const { return graph_->num_objects(); }
  PartialDistanceGraph& graph() { return *graph_; }
  const PartialDistanceGraph& graph() const { return *graph_; }
  DistanceOracle& oracle() { return *oracle_; }

  /// Failure-aware entry point: runs `body` (any code that issues
  /// comparisons against this resolver) and returns either its value or the
  /// Status of the oracle failure that stopped it. The resolver always
  /// resolves through the fallible oracle verbs; *outside* a RunFallible
  /// scope an exhausted oracle CHECK-aborts (the legacy contract for callers
  /// that never opted into failure handling), while *inside* one the run
  /// unwinds here and surfaces the Status instead. After a failure the
  /// partial graph keeps every edge resolved before the failing call, so a
  /// caller may repair the oracle and re-run against the same resolver
  /// without repaying them.
  StatusOr<double> RunFallible(
      const std::function<double(BoundedResolver*)>& body);

  /// Status of the oracle failure that aborted the last RunFallible (OK if
  /// it completed).
  const Status& oracle_status() const { return oracle_status_; }

  const ResolverStats& stats() const { return stats_; }
  void ResetStats() {
    stats_.Reset();
    StampKernelDispatch();
  }

  /// Attaches (or with nullptr, detaches) the telemetry bundle. Telemetry
  /// observes decisions without participating in them: it never issues an
  /// oracle call, never touches a stat counter, and with no bundle
  /// attached every instrumentation site reduces to one null check — so a
  /// traced run and an untraced run produce byte-identical outputs and
  /// identical counters (pinned by the trace equivalence test).
  void SetTelemetry(Telemetry* telemetry) { telemetry_ = telemetry; }
  Telemetry* telemetry() const { return telemetry_; }

 private:
  /// Records the active simd::Tier in stats_.kernel_dispatch so run reports
  /// carry the kernel tier that actually executed (see stats.h).
  void StampKernelDispatch();

  /// What a scalar comparison asks: dist(i, j) < t, > t or >= t.
  enum class Relation { kLess, kGreater, kGreaterOrEqual };

  /// The decision cascade every scalar comparison runs (FilterLessThan runs
  /// it per pair, with one DecideBatch in place of stage 2).
  /// Stage 1: CHECKs both ids, counts and traces the comparison, and
  /// answers t == +inf (true for kLess, false otherwise; decided_by_bounds)
  /// and self or cached pairs (decided_by_cache). nullopt = unresolved.
  std::optional<bool> DecideKnown(ObjectId i, ObjectId j, Relation rel,
                                  double t);
  /// Stage 2: one counted, timed scheme query — DecideLessThan for kLess,
  /// DecideGreaterThan for kGreater, the negated DecideLessThan for
  /// kGreaterOrEqual. Returns the scheme's truth value of the relation.
  std::optional<bool> DecideByScheme(ObjectId i, ObjectId j, Relation rel,
                                     double t);
  /// Stage 3: attributes the scheme's answer `by_scheme` (a proof verb
  /// counts a disproof as undecided, without consulting the weak oracle),
  /// then tries the weak-intersected interval and, for kLess under a
  /// policy, unforced slack. Reads the scheme interval only when a weak
  /// oracle is attached or for kLess under a policy; on nullopt `*b` holds
  /// that interval and `*eff` its weak intersection.
  std::optional<bool> DecideUnknown(ObjectId i, ObjectId j, Relation rel,
                                    double t, std::optional<bool> by_scheme,
                                    Interval* b, Interval* eff);
  /// ProvenGreaterThan / ProvenGreaterOrEqual: the cascade without an
  /// oracle stage; whatever it leaves open counts as undecided.
  bool Prove(ObjectId i, ObjectId j, Relation rel, double t);

  /// Ends the current resolution with `status`: throws
  /// internal::OracleTransportError inside a RunFallible scope (RunFallible
  /// returns the Status) and CHECK-aborts with `what` outside one.
  [[noreturn]] void Fail(Status status, const char* what);
  /// Fails because the oracle transport failed permanently for
  /// `failed_pairs` pairs, after recording them in oracle_failures.
  [[noreturn]] void FailTransport(Status status, uint64_t failed_pairs);

  /// Approximate-mode helpers (all inert under the default exact policy).
  bool SlackActive() const { return policy_.eps > 0.0; }
  bool BudgetActive() const { return policy_.oracle_budget > 0; }
  bool PolicyActive() const { return SlackActive() || BudgetActive(); }
  uint64_t BudgetRemaining() const {
    return policy_.oracle_budget > budget_spent_
               ? policy_.oracle_budget - budget_spent_
               : 0;
  }
  /// The surrogate value a slack decision compares in place of the exact
  /// distance: the midpoint of the (non-negative part of the) interval.
  static double SlackMidpoint(const Interval& b) {
    return 0.5 * (std::max(b.lo, 0.0) + b.hi);
  }
  /// Counted bounder read used by the slack paths (unlike ProbeBoundGap,
  /// which is stats-neutral: here the interval feeds the decision).
  Interval SlackBounds(ObjectId i, ObjectId j);
  /// Records a slack decision of relative gap `gap` (the realized error):
  /// counts decided_by_slack (plus budget_exhausted when `forced`), fills
  /// the realized-error histogram and traces with `threshold`.
  void RecordSlack(ObjectId i, ObjectId j, double threshold, double gap,
                   bool forced);
  /// Settles `dist(i, j) < t` by slack against interval `b` with relative
  /// gap `gap`: records it (RecordSlack) and reports the decision to the
  /// bounder's slack observation channel.
  bool DecideBySlack(ObjectId i, ObjectId j, double t, const Interval& b,
                     double gap, bool forced);
  /// Fails with Status::ResourceExhausted because the oracle budget cannot
  /// cover `requested` more pair resolutions. Not an oracle failure —
  /// oracle_failures stays put.
  [[noreturn]] void FailBudget(uint64_t requested);

  /// Weak-oracle helpers (all inert with no weak bounder attached).
  bool WeakActive() const { return weak_ != nullptr; }
  /// Counted weak consult: bumps weak_calls, records the interval's
  /// relative gap in the weak_interval_width histogram, and returns the
  /// advertised interval for the pair.
  Interval WeakQuery(ObjectId i, ObjectId j);
  /// Consults the weak oracle and intersects its advertised interval with
  /// the scheme interval `b`. Disjointness beyond BoundDecisionMargin is a
  /// detected model violation and fails the resolution (FailWeakModel);
  /// sub-margin fp-noise disjointness clamps to a point like HybridBounder.
  Interval WeakIntersect(ObjectId i, ObjectId j, const Interval& b);
  /// Settles the relation from the weak-intersected interval `eff` when it
  /// clears t by the decision margin (a proof verb only ever proves):
  /// counts decided_by_weak, traces, and reports the decision with its
  /// advertised error model to the bounder's weak observation channel.
  /// nullopt when the interval does not clear t.
  std::optional<bool> DecideByWeak(ObjectId i, ObjectId j, Relation rel,
                                   double t, const Interval& eff);
  /// Forwards a resolved edge to the weak bounder's violation cross-check
  /// and escalates a latched violation. No-op with no weak bounder.
  void NotifyWeakResolved(ObjectId i, ObjectId j, double d);
  /// Fails with Status::FailedPrecondition because the weak oracle
  /// violated its advertised error model.
  [[noreturn]] void FailWeakModel(const std::string& detail);

  /// Telemetry fast paths: the inline wrappers cost one predictable branch
  /// when telemetry is detached; the Slow variants do the actual work.
  void Trace(TraceEventKind kind, ObjectId i, ObjectId j, double threshold) {
    if (telemetry_ != nullptr) TraceSlow(kind, i, j, threshold);
  }
  void ProbeBoundGap(ObjectId i, ObjectId j, double threshold) {
    if (telemetry_ != nullptr) ProbeBoundGapSlow(i, j, threshold);
  }
  void TraceSlow(TraceEventKind kind, ObjectId i, ObjectId j,
                 double threshold);
  void ProbeBoundGapSlow(ObjectId i, ObjectId j, double threshold);

  DistanceOracle* oracle_;       // not owned
  PartialDistanceGraph* graph_;  // not owned
  NullBounder null_bounder_;
  Bounder* bounder_;  // not owned; never null (defaults to &null_bounder_)
  ResolverStats stats_;
  Telemetry* telemetry_ = nullptr;  // not owned; nullptr = telemetry off
  WeakBounder* weak_ = nullptr;     // not owned; nullptr = weak oracle off
  ResolutionPolicy policy_;         // default = exact mode
  uint64_t budget_spent_ = 0;
  bool batch_transport_ = true;
  // BoundsFrom scratch: the unresolved targets. Only its first entries are
  // live; the vector only grows.
  std::vector<ObjectId> row_targets_;
  // ResolveAll scratch: the open-addressed table of packed pair keys its
  // dedup probes, the unique unresolved pairs, and the batch transport's
  // replies and edges.
  std::vector<uint64_t> seen_;
  std::vector<IdPair> unique_;
  std::vector<double> distances_;
  std::vector<Status> statuses_;
  std::vector<ResolvedEdge> edges_;
  int fallible_depth_ = 0;
  // Picks the calls the per-pair timers (bounder_seconds, and
  // oracle_seconds on the scalar path) read the clock on.
  ClockSampler clock_sampler_;
  Status oracle_status_;
};

}  // namespace metricprox

#endif  // METRICPROX_BOUNDS_RESOLVER_H_
