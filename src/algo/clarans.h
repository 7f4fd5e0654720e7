#ifndef METRICPROX_ALGO_CLARANS_H_
#define METRICPROX_ALGO_CLARANS_H_

#include <cstdint>

#include "algo/medoid_common.h"
#include "bounds/resolver.h"

namespace metricprox {

struct ClaransOptions {
  /// Number of medoids (the paper's `l`).
  uint32_t num_medoids = 10;
  /// Independent randomized restarts (CLARANS `numlocal`).
  uint32_t num_local = 2;
  /// Consecutive non-improving random neighbors before a restart is
  /// declared a local optimum (CLARANS `maxneighbor`).
  uint32_t max_neighbor = 64;
  /// Seed for medoid initialization and neighbor sampling.
  uint64_t seed = 7;
};

/// CLARANS (Ng & Han 2002) re-authored against the bound framework
/// (Figures 7a, 7c, 8b, 8d, 9c workloads).
///
/// Each step samples a random (medoid, non-medoid) exchange and accepts it
/// iff its exact total-deviation delta is negative; the delta is evaluated
/// with the same per-object pruning as PAM's SWAP phase. The assignment of
/// each restart and its update after each accepted exchange resolve only
/// the distances that can be among an object's two nearest medoids, as in
/// PAM. Those are the two places the oracle calls are saved. Randomness is
/// fully seeded, and pruning never changes a delta or the assignment, so
/// for a fixed seed the search trajectory — and hence the output — is
/// identical to oracle-only CLARANS.
ClusteringResult ClaransCluster(BoundedResolver* resolver,
                                const ClaransOptions& options);

}  // namespace metricprox

#endif  // METRICPROX_ALGO_CLARANS_H_
