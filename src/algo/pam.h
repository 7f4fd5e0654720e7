#ifndef METRICPROX_ALGO_PAM_H_
#define METRICPROX_ALGO_PAM_H_

#include <cstdint>

#include "algo/medoid_common.h"
#include "bounds/resolver.h"

namespace metricprox {

struct PamOptions {
  /// Number of medoids (the paper's `l`; its experiments use 10).
  uint32_t num_medoids = 10;
  /// Cap on SWAP rounds (each round scans all medoid/non-medoid swaps).
  uint32_t max_swap_rounds = 64;
};

/// PAM (Kaufman & Rousseeuw) k-medoid clustering re-authored against the
/// bound framework (Figures 6c, 6d, 7b, 8a, 8c, 9b workloads).
///
/// BUILD takes the object of least distance sum, then, k - 1 times, the
/// non-medoid of greatest gain against the current nearest-medoid
/// distances, ties to the smaller id. Both argmins run best-first over the
/// candidates (medoid_internal::BestFirstArgmin): a candidate's bound row
/// bounds its whole sum (medoid_internal::TermLowerBound), so a candidate
/// whose row proves it cannot beat the incumbent is dropped without an
/// oracle call, and one that is evaluated is abandoned once its resolved
/// part rules it out. A gain only shrinks as medoids are added, so BUILD
/// 3..k start each candidate from the bound the previous step proved, and
/// the new nearest-medoid distances come from the winner's own evaluation.
/// SWAP repeatedly applies the best strictly-improving (medoid, non-medoid)
/// exchange, breaking ties toward the first exchange in
/// (medoid, non-medoid) order. It prices every exchange of one non-medoid
/// in a single pass with per-object pruning (medoid_internal::SwapDeltas),
/// and skips the non-medoid outright when that pass's row proves no slot
/// beats the best delta so far. The assignment resolves only the distances
/// that can be among an object's two nearest medoids
/// (medoid_internal::ComputeAssignment), and after a swap only those the
/// swap can change (medoid_internal::UpdateAssignment).
///
/// Every bound is a proven one, and a candidate's objective is compared as
/// the oracle-only loop adds it, so both phases pick what oracle-only PAM
/// picks: the medoids, assignment, rounds and total deviation are
/// identical, bit for bit.
ClusteringResult PamCluster(BoundedResolver* resolver,
                            const PamOptions& options);

}  // namespace metricprox

#endif  // METRICPROX_ALGO_PAM_H_
