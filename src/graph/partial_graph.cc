#include "graph/partial_graph.h"

#include <algorithm>

namespace metricprox {

void PartialDistanceGraph::Insert(ObjectId i, ObjectId j, double d) {
  CHECK_NE(i, j) << "self-edge";
  CHECK_LT(i, num_objects());
  CHECK_LT(j, num_objects());
  CHECK_GE(d, 0.0) << "negative distance from oracle";
  CHECK(Find(i, j) == nullptr) << "duplicate edge (" << i << ", " << j << ")";
  const WeightedEdge e{i, j, d};
  const HalfEdge to_j{i, j, 0};
  const HalfEdge to_i{j, i, 0};
  MergeRun(std::span(&to_j, 1), std::span(&e, 1));
  MergeRun(std::span(&to_i, 1), std::span(&e, 1));
  edges_.push_back(e);
}

void PartialDistanceGraph::InsertEdges(std::span<const WeightedEdge> batch) {
  for (const WeightedEdge& e : batch) {
    CHECK_NE(e.u, e.v) << "self-edge";
    CHECK_LT(e.u, num_objects());
    CHECK_LT(e.v, num_objects());
    CHECK_GE(e.weight, 0.0) << "negative distance from oracle";
  }
  // Exact duplicates are no-ops so a warm-start bulk load composes with
  // edges the graph already holds (checkpoint resume, repeated loads).
  // A *conflicting* distance still dies: two values for one pair means
  // the edges come from different metric spaces.
  std::vector<bool> skip(batch.size(), false);
  std::vector<HalfEdge> halves;
  halves.reserve(2 * batch.size());
  for (size_t k = 0; k < batch.size(); ++k) {
    const WeightedEdge& e = batch[k];
    if (const double* known = Find(e.u, e.v)) {
      CHECK_EQ(*known, e.weight)
          << "conflicting duplicate edge (" << e.u << ", " << e.v << ")";
      skip[k] = true;
      continue;
    }
    halves.push_back(HalfEdge{e.u, e.v, k});
    halves.push_back(HalfEdge{e.v, e.u, k});
  }
  std::sort(halves.begin(), halves.end(),
            [](const HalfEdge& a, const HalfEdge& b) {
              if (a.node != b.node) return a.node < b.node;
              if (a.id != b.id) return a.id < b.id;
              return a.k < b.k;
            });
  // A pair repeated within the batch sorts into adjacent equal (node, id)
  // entries at both endpoints; keeping the lowest k makes the first
  // occurrence win at both.
  size_t kept = 0;
  for (const HalfEdge& h : halves) {
    if (kept > 0 && halves[kept - 1].node == h.node &&
        halves[kept - 1].id == h.id) {
      const WeightedEdge& e = batch[h.k];
      CHECK_EQ(batch[halves[kept - 1].k].weight, e.weight)
          << "conflicting duplicate edge (" << e.u << ", " << e.v << ")";
      skip[h.k] = true;
      continue;
    }
    halves[kept++] = h;
  }
  halves.resize(kept);
  for (size_t k = 0; k < batch.size(); ++k) {
    if (!skip[k]) edges_.push_back(batch[k]);
  }
  const std::span<const HalfEdge> sorted(halves);
  for (size_t begin = 0; begin < sorted.size();) {
    size_t end = begin + 1;
    while (end < sorted.size() && sorted[end].node == sorted[begin].node) {
      ++end;
    }
    MergeRun(sorted.subspan(begin, end - begin), batch);
    begin = end;
  }
}

void PartialDistanceGraph::MergeRun(std::span<const HalfEdge> run,
                                    std::span<const WeightedEdge> batch) {
  std::vector<ObjectId>& ids = ids_[run.front().node];
  std::vector<double>& distances = distances_[run.front().node];
  // Existing entries still to place are [0, old_end); the slots from `out`
  // up are final.
  size_t old_end = ids.size();
  size_t out = old_end + run.size();
  ids.resize(out);
  distances.resize(out);
  for (size_t r = run.size(); r-- > 0;) {
    const ObjectId id = run[r].id;
    // Appends (ids arriving in ascending order) skip the search.
    const size_t pos =
        old_end == 0 || ids[old_end - 1] < id
            ? old_end
            : static_cast<size_t>(
                  std::upper_bound(ids.begin(), ids.begin() + old_end, id) -
                  ids.begin());
    // The existing entries above `id` shift up in one block.
    std::move_backward(ids.begin() + pos, ids.begin() + old_end,
                       ids.begin() + out);
    std::move_backward(distances.begin() + pos, distances.begin() + old_end,
                       distances.begin() + out);
    out -= old_end - pos + 1;
    old_end = pos;
    ids[out] = id;
    distances[out] = batch[run[r].k].weight;
  }
}

}  // namespace metricprox
