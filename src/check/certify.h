#ifndef METRICPROX_CHECK_CERTIFY_H_
#define METRICPROX_CHECK_CERTIFY_H_

#include <string>
#include <vector>

#include "check/certificate.h"
#include "check/verifier.h"
#include "core/bounder.h"
#include "graph/partial_graph.h"

namespace metricprox {

class BoundedResolver;

/// Transparent audit shim around a bound scheme. It forwards every Bounder
/// verb to the wrapped scheme unchanged — decisions, bounds and update
/// notifications are bit-identical to running the scheme bare, which is what
/// makes the audit's "same outputs, same oracle_calls" guarantee possible —
/// and, for every comparison the scheme decides, obtains a certificate
/// (through the certified decision verbs for DFT, through CertifyBounds for
/// the interval schemes) and checks it on the spot with an independent
/// Verifier against the decision-time edge set.
///
/// Counters: every decided comparison increments exactly one of
///   emitted  -> then verified or failed   (scheme can certify)
///   uncertified                           (scheme has no certification)
/// A nonzero `failed` means a scheme produced a bound its own witnesses
/// cannot justify — a real bug, never fp noise (decision margins dwarf the
/// recomputation error of the witness values).
class CertifyingBounder : public Bounder {
 public:
  CertifyingBounder(Bounder* inner, const PartialDistanceGraph* graph,
                    const Verifier::Options& options)
      : inner_(inner),
        graph_(graph),
        verifier_(graph, options),
        name_(std::string(inner->name()) + "+audit") {}

  Bounder* inner() { return inner_; }
  const CertificationStats& stats() const { return stats_; }
  void ResetStats() { stats_ = CertificationStats(); }

  /// When enabled, every certified decision is also retained in log() —
  /// used by tests that want to inspect the certificates themselves.
  void set_keep_log(bool keep) { keep_log_ = keep; }
  const std::vector<CertifiedDecision>& log() const { return log_; }

  // --- transparent forwarding -----------------------------------------
  std::string_view name() const override { return name_; }
  Interval Bounds(ObjectId i, ObjectId j) override {
    return inner_->Bounds(i, j);
  }
  void BoundsFrom(ObjectId q, std::span<const ObjectId> targets,
                  std::span<Interval> row) override {
    inner_->BoundsFrom(q, targets, row);
  }
  void OnEdgeResolved(ObjectId i, ObjectId j, double d) override {
    inner_->OnEdgeResolved(i, j, d);
  }
  void OnEdgesResolved(std::span<const ResolvedEdge> edges) override {
    inner_->OnEdgesResolved(edges);
  }
  bool CertifyBounds(ObjectId i, ObjectId j, BoundCertificate* cert) override {
    return inner_->CertifyBounds(i, j, cert);
  }

  // --- intercepted decision verbs -------------------------------------
  std::optional<bool> DecideLessThan(ObjectId i, ObjectId j,
                                     double t) override;
  std::optional<bool> DecideGreaterThan(ObjectId i, ObjectId j,
                                        double t) override;
  std::optional<bool> DecidePairLess(ObjectId i, ObjectId j, ObjectId k,
                                     ObjectId l) override;
  /// Loops this shim's own DecideLessThan so every batched decision is
  /// certified too. The Bounder contract requires batch overrides to equal
  /// the sequential loop, so decisions (and therefore outputs and
  /// oracle_calls) are unchanged; only the scheme's batch amortization is
  /// bypassed while auditing.
  void DecideBatch(std::span<const IdPair> pairs,
                   std::span<const double> thresholds,
                   std::span<std::optional<bool>> out) override;

  /// Approximate-mode interception: every slack decision the resolver
  /// reports is wrapped in a kSlack certificate (with containment
  /// witnesses grafted from CertifyBounds when the scheme supports them),
  /// verified on the spot, and forwarded to the inner scheme.
  void ObserveSlackLessThan(ObjectId i, ObjectId j, double t,
                            const Interval& bounds, double eps,
                            bool outcome) override;
  void ObserveSlackPairLess(ObjectId i, ObjectId j, ObjectId k, ObjectId l,
                            const Interval& bij, const Interval& bkl,
                            double eps, bool outcome) override;

  /// Dual-oracle interception: every weak-decided comparison the resolver
  /// reports is wrapped in a kWeak certificate carrying the advertised
  /// error model (plus containment witnesses grafted from CertifyBounds
  /// when the scheme supports them), verified on the spot — the verifier
  /// recomputes the interval from the model, so an understated alpha is
  /// rejected, never silently trusted — and forwarded to the inner scheme.
  void ObserveWeakLessThan(ObjectId i, ObjectId j, double t,
                           const WeakModel& model, bool outcome) override;
  void ObserveWeakGreaterThan(ObjectId i, ObjectId j, double t,
                              const WeakModel& model, bool outcome) override;
  void ObserveWeakPairLess(ObjectId i, ObjectId j, ObjectId k, ObjectId l,
                           const WeakModel& mij, const WeakModel& mkl,
                           bool outcome) override;

 private:
  /// Completes certification of a decided comparison: fills interval
  /// certificates via CertifyBounds when the certified verb left none,
  /// verifies, and bumps the counters.
  void Record(const DecisionRecord& decision, BoundCertificate&& from_verb);

  /// Verifies an assembled certified decision and bumps the counters (the
  /// shared tail of Record and the slack observation hooks).
  void Finish(CertifiedDecision&& cd);

  /// Builds the kSlack certificate for one side of a slack decision.
  BoundCertificate MakeSlackCert(ObjectId i, ObjectId j, const Interval& b,
                                 double eps);

  /// Builds the kWeak certificate for one side of a weak decision.
  BoundCertificate MakeWeakCert(ObjectId i, ObjectId j,
                                const WeakModel& model);

  Bounder* inner_;                     // not owned
  const PartialDistanceGraph* graph_;  // not owned
  Verifier verifier_;
  std::string name_;
  CertificationStats stats_;
  bool keep_log_ = false;
  std::vector<CertifiedDecision> log_;
};

/// RAII installer: wraps whatever bounder a BoundedResolver currently has
/// with a CertifyingBounder for the lifetime of this object, restoring the
/// original scheme on destruction. The resolver's pipeline is untouched —
/// interception happens entirely behind its bounder pointer.
class CertifyingResolver {
 public:
  CertifyingResolver(BoundedResolver* resolver, double max_distance);
  ~CertifyingResolver();

  CertifyingResolver(const CertifyingResolver&) = delete;
  CertifyingResolver& operator=(const CertifyingResolver&) = delete;

  CertifyingBounder& shim() { return shim_; }
  const CertificationStats& stats() const { return shim_.stats(); }

 private:
  BoundedResolver* resolver_;  // not owned
  CertifyingBounder shim_;
};

}  // namespace metricprox

#endif  // METRICPROX_CHECK_CERTIFY_H_
