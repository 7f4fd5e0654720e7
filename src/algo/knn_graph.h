#ifndef METRICPROX_ALGO_KNN_GRAPH_H_
#define METRICPROX_ALGO_KNN_GRAPH_H_

#include <cstdint>
#include <vector>

#include "bounds/resolver.h"
#include "core/types.h"

namespace metricprox {

/// One directed k-NN edge.
struct KnnNeighbor {
  ObjectId id;
  double distance;

  friend bool operator==(const KnnNeighbor& a, const KnnNeighbor& b) {
    return a.id == b.id && a.distance == b.distance;
  }
};

/// result[u] = u's k nearest neighbors, sorted ascending by (distance, id).
using KnnGraph = std::vector<std::vector<KnnNeighbor>>;

struct KnnGraphOptions {
  uint32_t k = 5;
};

/// k-NN graph construction in the spirit of KNNrp (Paredes et al., WEA'06),
/// re-authored against the bound framework (Figures 6b, 9a).
///
/// For each object u, candidates are visited in ascending order of their
/// current lower bound, so near neighbors are resolved early and shrink the
/// running k-th-distance threshold t; each remaining candidate is skipped
/// when `ProvenGreaterThan(u, v, t)` holds, which lets the scheme discard
/// it without an oracle call once LB(u, v) > t, and is otherwise resolved
/// on its own, so t tightens after every admit (KnnSearch's sequential
/// scan). Distances resolved while scanning u are cached in the shared
/// graph and reused for free when scanning v (the symmetry the original
/// algorithm also exploits).
///
/// Output is exactly the brute-force k-NN graph (ties broken by id).
KnnGraph BuildKnnGraph(BoundedResolver* resolver,
                       const KnnGraphOptions& options);

}  // namespace metricprox

#endif  // METRICPROX_ALGO_KNN_GRAPH_H_
