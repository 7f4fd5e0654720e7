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
/// BUILD selects the first medoid by branch-and-bound over candidate
/// distance sums (early-abandoning a candidate once its partial sum plus the
/// remaining lower bounds reaches the incumbent) and each further medoid by
/// gain maximization, pruning objects whose lower bound proves they cannot
/// benefit. SWAP repeatedly applies the best strictly-improving
/// (medoid, non-medoid) exchange, pricing every exchange of one non-medoid
/// in a single pass with per-object pruning (medoid_internal::SwapDeltas),
/// and breaks ties toward the first exchange in (medoid, non-medoid) order.
///
/// Both phases make the same decisions as oracle-only PAM, so the medoids,
/// assignment and total deviation are identical.
ClusteringResult PamCluster(BoundedResolver* resolver,
                            const PamOptions& options);

}  // namespace metricprox

#endif  // METRICPROX_ALGO_PAM_H_
