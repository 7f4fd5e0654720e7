#ifndef METRICPROX_BOUNDS_HYBRID_H_
#define METRICPROX_BOUNDS_HYBRID_H_

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "check/certificate.h"
#include "core/bounder.h"
#include "core/types.h"

namespace metricprox {

/// Intersection of two bound schemes: lb = max of the two lower bounds,
/// ub = min of the two upper bounds — valid whenever both inputs are, and
/// at least as tight as either. The practical combination is
/// Tri ∧ LAESA: LAESA contributes strong bounds from the first
/// comparison (its landmark table is global and static), Tri contributes
/// bounds that keep improving as the run resolves distances. Ablation 4
/// (`bench_ablation`) measures whether the combination pays for its double
/// query cost.
class HybridBounder : public Bounder {
 public:
  /// Takes ownership of both schemes. Decision hooks fall back to the
  /// interval defaults over the intersected bounds.
  HybridBounder(std::unique_ptr<Bounder> first,
                std::unique_ptr<Bounder> second)
      : first_(std::move(first)), second_(std::move(second)) {
    CHECK(first_ != nullptr);
    CHECK(second_ != nullptr);
    name_ = std::string(first_->name()) + "+" + std::string(second_->name());
  }

  std::string_view name() const override { return name_; }

  Interval Bounds(ObjectId i, ObjectId j) override {
    return Intersect(first_->Bounds(i, j), second_->Bounds(i, j));
  }

  /// Each child bounds the whole row once, the second into a row of its
  /// own; the rows are intersected target by target exactly as Bounds()
  /// intersects one pair. Intersecting a repeated target again changes
  /// nothing.
  void BoundsFrom(ObjectId q, std::span<const ObjectId> targets,
                  std::span<Interval> row) override {
    second_row_.resize(row.size());
    first_->BoundsFrom(q, targets, row);
    second_->BoundsFrom(q, targets, second_row_);
    for (const ObjectId v : targets) row[v] = Intersect(row[v], second_row_[v]);
  }

  void OnEdgeResolved(ObjectId i, ObjectId j, double d) override {
    first_->OnEdgeResolved(i, j, d);
    second_->OnEdgeResolved(i, j, d);
  }

  /// Certifiable only when both children are: the intersection mirrors
  /// Bounds() exactly (same ternaries, same tie-breaks), carrying over the
  /// winning child's witness per side. With one uncertifiable child we
  /// report no certificate at all rather than a witness for looser bounds —
  /// a hybrid-decided comparison must be provable at the hybrid's own
  /// tightness or any verification failure would be spurious.
  bool CertifyBounds(ObjectId i, ObjectId j,
                     BoundCertificate* cert) override {
    BoundCertificate ca, cb;
    if (!first_->CertifyBounds(i, j, &ca)) return false;
    if (!second_->CertifyBounds(i, j, &cb)) return false;
    const BoundCertificate& lo = ca.lb > cb.lb ? ca : cb;
    const BoundCertificate& up = ca.ub < cb.ub ? ca : cb;
    cert->kind = BoundCertificate::Kind::kInterval;
    cert->lb = lo.lb;
    cert->ub = up.ub;
    if (cert->lb > cert->ub) cert->lb = cert->ub;
    cert->has_upper = up.has_upper;
    cert->upper = up.upper;
    cert->has_lower = lo.has_lower;
    cert->lower = lo.lower;
    return true;
  }

 private:
  static Interval Intersect(const Interval& a, const Interval& b) {
    double lo = a.lo > b.lo ? a.lo : b.lo;
    const double hi = a.hi < b.hi ? a.hi : b.hi;
    // Disjoint only through floating-point noise: both contain the truth.
    if (lo > hi) lo = hi;
    return Interval(lo, hi);
  }

  std::unique_ptr<Bounder> first_;
  std::unique_ptr<Bounder> second_;
  std::string name_;
  std::vector<Interval> second_row_;  // BoundsFrom scratch
};

}  // namespace metricprox

#endif  // METRICPROX_BOUNDS_HYBRID_H_
