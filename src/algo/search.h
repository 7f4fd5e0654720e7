#ifndef METRICPROX_ALGO_SEARCH_H_
#define METRICPROX_ALGO_SEARCH_H_

#include <cstdint>
#include <vector>

#include "algo/knn_graph.h"
#include "bounds/resolver.h"
#include "core/types.h"

namespace metricprox {

/// Exact k-nearest-neighbor query for a single object — the workload LAESA
/// was originally designed for, re-authored against the bound framework.
/// One BoundsFrom pass bounds every candidate; they are then visited
/// lazily in ascending (lower bound, id) order, each admitted through a
/// proven-farther test, and the scan stops at the first candidate whose
/// ordering lower bound already clears the running k-th distance — so the
/// scheme discards most candidates without an oracle call, and most
/// without even a comparison.
///
/// Returns the k nearest (distance, id)-lexicographic neighbors of `query`,
/// ascending — identical to a brute-force scan.
std::vector<KnnNeighbor> KnnSearch(BoundedResolver* resolver, ObjectId query,
                                   uint32_t k);

/// Exact metric range query: every object within `radius` of `query`
/// (inclusive), ascending by (distance, id). Objects whose lower bound
/// provably exceeds the radius are discarded without an oracle call.
std::vector<KnnNeighbor> RangeSearch(BoundedResolver* resolver,
                                     ObjectId query, double radius);

/// A farthest pair found by the classic two-sweep heuristic (anchor ->
/// farthest-from-anchor p -> farthest-from-p q); its distance is a lower
/// bound on the true diameter and at least half of it. Sweeps prune
/// candidates whose upper bound proves they cannot beat the incumbent.
struct DiameterEstimate {
  ObjectId u = kInvalidObject;
  ObjectId v = kInvalidObject;
  double distance = 0.0;
};

DiameterEstimate ApproximateDiameter(BoundedResolver* resolver,
                                     ObjectId anchor = 0);

/// The globally closest pair of objects (exact). Candidates are scanned in
/// ascending current-lower-bound order with a shrinking incumbent, so the
/// scheme discards most pairs without an oracle call once one tight pair
/// has been resolved. Ties break toward the smaller (u, v).
WeightedEdge ClosestPair(BoundedResolver* resolver);

}  // namespace metricprox

#endif  // METRICPROX_ALGO_SEARCH_H_
