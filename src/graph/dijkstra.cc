#include "graph/dijkstra.h"

#include "graph/indexed_heap.h"

namespace metricprox {

DijkstraSolver::DijkstraSolver(ObjectId num_objects)
    : num_objects_(num_objects) {
  touched_.reserve(num_objects);
}

void DijkstraSolver::Solve(const PartialDistanceGraph& graph, ObjectId source,
                           std::vector<double>* out) {
  Solve(graph, source, out, nullptr);
}

void DijkstraSolver::Solve(const PartialDistanceGraph& graph, ObjectId source,
                           std::vector<double>* out,
                           std::vector<ObjectId>* parent) {
  CHECK_EQ(graph.num_objects(), num_objects_);
  CHECK_LT(source, num_objects_);
  out->assign(num_objects_, kInfDistance);
  (*out)[source] = 0.0;
  if (parent != nullptr) parent->assign(num_objects_, kInvalidObject);

  IndexedMinHeap heap(num_objects_);
  heap.Push(source, 0.0);
  while (!heap.empty()) {
    const double du = heap.TopKey();
    const ObjectId u = heap.Pop();
    // Settled entries never re-enter the heap because we only push a node
    // when the relaxation strictly improves its tentative distance.
    const PartialDistanceGraph::AdjacencyColumns nbrs = graph.AdjacencyView(u);
    for (size_t k = 0; k < nbrs.ids.size(); ++k) {
      const ObjectId v = nbrs.ids[k];
      const double candidate = du + nbrs.distances[k];
      if (candidate < (*out)[v]) {
        (*out)[v] = candidate;
        if (parent != nullptr) (*parent)[v] = u;
        heap.PushOrDecrease(v, candidate);
      }
    }
  }
}

std::vector<double> DijkstraSolver::ShortestPaths(
    const PartialDistanceGraph& graph, ObjectId source) {
  DijkstraSolver solver(graph.num_objects());
  std::vector<double> out;
  solver.Solve(graph, source, &out);
  return out;
}

}  // namespace metricprox
