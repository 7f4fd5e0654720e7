#ifndef METRICPROX_GRAPH_PARTIAL_GRAPH_H_
#define METRICPROX_GRAPH_PARTIAL_GRAPH_H_

#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/types.h"

namespace metricprox {

/// The evolving partial graph of resolved distances (the paper's data model,
/// Section 3.1): nodes are the n objects; an edge (i, j, d) exists once the
/// oracle has been asked for dist(i, j) = d.
///
/// One representation holds the whole graph: per node, two parallel
/// columns (neighbor ids[], distances[]) sorted ascending by id, plus an
/// append-only edge list for SPLUB's scan over known edges. The columns play
/// the role of the paper's balanced BSTs:
///  * Get/Has binary-search the id column of the lower-degree endpoint,
///    O(log min(deg_i, deg_j));
///  * the Tri Scheme intersects two columns with a linear merge,
///    O(deg_i + deg_j), and the bound kernels (core/simd.h) stream ids and
///    distances separately;
///  * a write merges the new entries into each touched node's columns from
///    the back, so every existing entry moves at most once per batch.
///
/// Each edge is stored three times (both endpoints' columns and the edge
/// list); there is no hash map.
class PartialDistanceGraph {
 public:
  /// One node's adjacency in SoA form: ids[k] and distances[k] describe the
  /// k-th resolved neighbor, sorted ascending by id. Spans point into the
  /// graph's own columns and are invalidated by any insert.
  struct AdjacencyColumns {
    std::span<const ObjectId> ids;
    std::span<const double> distances;
  };

  explicit PartialDistanceGraph(ObjectId num_objects)
      : ids_(num_objects), distances_(num_objects) {}

  ObjectId num_objects() const { return static_cast<ObjectId>(ids_.size()); }
  size_t num_edges() const { return edges_.size(); }

  /// False for i == j and for out-of-range ids.
  bool Has(ObjectId i, ObjectId j) const { return Find(i, j) != nullptr; }

  /// The resolved distance, or nullopt if (i, j) is still unknown (always
  /// for i == j and for out-of-range ids).
  std::optional<double> Get(ObjectId i, ObjectId j) const {
    const double* d = Find(i, j);
    if (d == nullptr) return std::nullopt;
    return *d;
  }

  /// Records dist(i, j) = d. CHECK-fails on duplicates, self-edges and
  /// negative distances (a metric oracle can never produce them).
  void Insert(ObjectId i, ObjectId j, double d);

  /// Bulk form of Insert for the batch resolution path and the store's
  /// warm start. Unlike Insert, an exact duplicate (same pair, same
  /// distance) — against the graph or within the batch — is skipped
  /// silently, so a warm-start load followed by a resolver insert of an
  /// already-known edge is a no-op; a duplicate with a *different* distance
  /// still CHECK-fails. The first occurrence of a pair wins, and edges()
  /// grows in batch order, so for duplicate-free batches the final state is
  /// identical to inserting the edges one by one. Cost per touched node is
  /// O(deg + b log b) for a batch of b edges.
  void InsertEdges(std::span<const WeightedEdge> batch);

  /// Number of resolved edges incident to i.
  size_t Degree(ObjectId i) const {
    DCHECK_LT(i, ids_.size());
    return ids_[i].size();
  }

  /// Node i's resolved neighbors as two parallel contiguous columns, sorted
  /// strictly ascending by id — the layout the dispatched bound kernels
  /// consume. partial_graph_test pins the invariants against a map model
  /// across every insert path.
  AdjacencyColumns AdjacencyView(ObjectId i) const {
    DCHECK_LT(i, ids_.size());
    return AdjacencyColumns{ids_[i], distances_[i]};
  }

  /// All resolved edges in insertion order.
  const std::vector<WeightedEdge>& edges() const { return edges_; }

  /// Calls fn(c, dist(i,c), dist(j,c)) for every common resolved neighbor c
  /// of i and j, i.e. every triangle whose missing edge is (i, j). Linear
  /// merge over the two id columns.
  template <typename Fn>
  void ForEachCommonNeighbor(ObjectId i, ObjectId j, Fn&& fn) const {
    const AdjacencyColumns a = AdjacencyView(i);
    const AdjacencyColumns b = AdjacencyView(j);
    size_t x = 0;
    size_t y = 0;
    while (x < a.ids.size() && y < b.ids.size()) {
      if (a.ids[x] == b.ids[y]) {
        fn(a.ids[x], a.distances[x], b.distances[y]);
        ++x;
        ++y;
      } else if (a.ids[x] < b.ids[y]) {
        ++x;
      } else {
        ++y;
      }
    }
  }

 private:
  /// A new adjacency entry for `node`: neighbor `id`, with the distance
  /// read from batch[k].weight.
  struct HalfEdge {
    ObjectId node;
    ObjectId id;
    size_t k;
  };

  /// The stored dist(i, j), or nullptr when unknown, i == j or out of
  /// range. Binary-searches the id column of the lower-degree endpoint.
  /// The search is branch-free (one conditional move per step): lookups
  /// land at unpredictable ranks, where a branching search mispredicts
  /// about every other step.
  const double* Find(ObjectId i, ObjectId j) const {
    if (i == j || i >= num_objects() || j >= num_objects()) return nullptr;
    if (ids_[j].size() < ids_[i].size()) std::swap(i, j);
    const std::vector<ObjectId>& ids = ids_[i];
    if (ids.empty()) return nullptr;
    // If j is present, it lies in [base, base + len).
    const ObjectId* base = ids.data();
    for (size_t len = ids.size(); len > 1;) {
      const size_t half = len / 2;
      base = base[half] <= j ? base + half : base;
      len -= half;
    }
    if (*base != j) return nullptr;
    return &distances_[i][static_cast<size_t>(base - ids.data())];
  }

  /// Merges `run` — new neighbors of one node, strictly ascending by id and
  /// absent from its columns — into the columns from the back: O(deg +
  /// |run| log deg), each existing entry moving at most once.
  void MergeRun(std::span<const HalfEdge> run,
                std::span<const WeightedEdge> batch);

  std::vector<std::vector<ObjectId>> ids_;
  std::vector<std::vector<double>> distances_;
  std::vector<WeightedEdge> edges_;
};

}  // namespace metricprox

#endif  // METRICPROX_GRAPH_PARTIAL_GRAPH_H_
