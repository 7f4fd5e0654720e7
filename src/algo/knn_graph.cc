#include "algo/knn_graph.h"

#include "algo/search.h"
#include "core/logging.h"

namespace metricprox {

KnnGraph BuildKnnGraph(BoundedResolver* resolver,
                       const KnnGraphOptions& options) {
  CHECK(resolver != nullptr);
  CHECK_GE(options.k, 1u);
  const ObjectId n = resolver->num_objects();
  CHECK_GT(n, options.k) << "need more objects than neighbors";

  // One exact k-NN query per object, all reusing one set of KnnSearch
  // buffers; distances resolved while scanning u are cached in the shared
  // graph and reused for free when scanning v — the symmetry KNNrp also
  // exploits.
  KnnGraph graph(n);
  internal::KnnScratch scratch;
  for (ObjectId u = 0; u < n; ++u) {
    graph[u] = internal::KnnSearch(resolver, u, options.k, &scratch);
  }
  return graph;
}

}  // namespace metricprox
