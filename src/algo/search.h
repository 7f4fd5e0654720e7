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
/// One BoundsFrom pass bounds every candidate, and the k with the smallest
/// lower bounds are resolved in one batch. The rest are then visited one at
/// a time in ascending (lower bound, id) order against the current k-th
/// distance: skipped when proven farther, otherwise resolved and admitted.
/// The scan stops at the first candidate whose lower bound already clears
/// the k-th distance, so the scheme discards most candidates without an
/// oracle call, and most without even a comparison; and since the k-th
/// distance is re-read after every admit, no candidate is resolved that
/// the sequential algorithm would have proven farther.
///
/// Returns the k nearest (distance, id)-lexicographic neighbors of `query`,
/// ascending — identical to a brute-force scan.
std::vector<KnnNeighbor> KnnSearch(BoundedResolver* resolver, ObjectId query,
                                   uint32_t k);

namespace internal {

struct KnnCandidate {
  double lower_bound;
  ObjectId id;
};

/// The per-query buffers of KnnSearch. A k-NN graph build keeps one across
/// its queries, so no query allocates them again.
struct KnnScratch {
  std::vector<ObjectId> targets;  // 0 .. n-1: the row every query bounds
  std::vector<Interval> bounds;   // the query's row, indexed by object
  std::vector<double> upper;      // the k smallest upper bounds, ascending
  // n slots: the candidates inside the horizon, then their heap.
  std::vector<KnnCandidate> candidates;
  std::vector<IdPair> seeds;      // the k pairs resolved in one batch
};

/// KnnSearch over caller-owned buffers.
std::vector<KnnNeighbor> KnnSearch(BoundedResolver* resolver, ObjectId query,
                                   uint32_t k, KnnScratch* scratch);

}  // namespace internal

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
