#ifndef METRICPROX_GRAPH_CONCURRENT_GRAPH_H_
#define METRICPROX_GRAPH_CONCURRENT_GRAPH_H_

#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/types.h"
#include "graph/partial_graph.h"

namespace metricprox {

/// A striped, thread-safe distance graph: the shared data plane of the
/// session layer (src/service/). Many concurrent sessions publish resolved
/// edges here and read each other's resolutions, while every session keeps
/// its own single-threaded PartialDistanceGraph for deterministic bound
/// scans — PartialDistanceGraph stays the exact single-threaded
/// specialization, byte-identical to before, and this class adds the
/// concurrent superset.
///
/// Layout and locking:
///  * the edge map is striped into N shards keyed by EdgeKeyHash, each a
///    mutex plus an EdgeKey -> distance hash map: Insert/Get/Has touch one
///    shard lock for O(1) under contention spread across shards;
///  * per-node adjacency is published as an immutable snapshot — a
///    shared_ptr<const NodeColumns> holding the node's sorted SoA columns
///    (ids[], distances[]) — replaced wholesale (copy-on-write) under the
///    node's shard lock. Readers briefly take the shard lock to copy the
///    shared_ptr and then scan entirely lock-free; an old epoch stays alive
///    for as long as any reader holds it, so bound scans never block a
///    writer and never observe a torn column pair.
///
/// Snapshot semantics (pinned by concurrent_graph_test):
///  * a snapshot's ids are strictly ascending and ids.size() ==
///    distances.size() — always, under any writer interleaving;
///  * InsertEdges publishes each touched node's additions in ONE swap, so a
///    snapshot observes all of a batch's edges for that node or none of
///    them (per-node batch atomicity; cross-node atomicity is deliberately
///    not promised — any subset of true metric edges yields valid bounds);
///  * an edge is visible in Get()/Has() no later than in the adjacency
///    snapshots: the edge-map emplace happens first, so the map is the
///    authority for duplicate detection, and a snapshot may briefly lag an
///    in-flight insert.
///
/// Duplicate semantics mirror PartialDistanceGraph::InsertEdges exactly:
/// an exact duplicate (same pair, same distance) — whether racing another
/// thread or replaying a warm start — is skipped silently; a *conflicting*
/// distance for a known pair CHECK-fails, as two values for one pair mean
/// the edges come from different metric spaces.
class ConcurrentDistanceGraph {
 public:
  /// One node's published adjacency epoch: immutable after publication.
  struct NodeColumns {
    std::vector<ObjectId> ids;
    std::vector<double> distances;

    /// Span view in the same shape the bound kernels consume.
    PartialDistanceGraph::AdjacencyColumns view() const {
      return PartialDistanceGraph::AdjacencyColumns{ids, distances};
    }
  };
  using Snapshot = std::shared_ptr<const NodeColumns>;

  explicit ConcurrentDistanceGraph(ObjectId num_objects,
                                   size_t num_shards = kDefaultShards);

  ConcurrentDistanceGraph(const ConcurrentDistanceGraph&) = delete;
  ConcurrentDistanceGraph& operator=(const ConcurrentDistanceGraph&) = delete;

  ObjectId num_objects() const { return num_objects_; }
  size_t num_shards() const { return num_shards_; }

  /// Shard owning node i's adjacency lock (exposed so tests can construct
  /// provably disjoint / deliberately colliding workloads).
  size_t NodeShardOf(ObjectId i) const { return i % num_shards_; }

  /// Thread-safe point lookups against the striped edge map. False/nullopt
  /// for i == j, like PartialDistanceGraph.
  bool Has(ObjectId i, ObjectId j) const;
  std::optional<double> Get(ObjectId i, ObjectId j) const;

  /// Records dist(i, j) = d. Returns true if the edge was fresh, false if
  /// an exact duplicate already existed (possibly inserted by a racing
  /// thread between the caller's Get and this Insert — the common benign
  /// race of two sessions resolving the same pair). CHECK-fails on
  /// self-edges, out-of-range ids, negative distances and conflicting
  /// duplicates, identical to the single-threaded graph.
  bool Insert(ObjectId i, ObjectId j, double d);

  /// Bulk insert with the same duplicate semantics; publishes each touched
  /// node's adjacency once (see the per-node batch atomicity note above).
  /// Returns the number of fresh (non-duplicate) edges recorded.
  size_t InsertEdges(std::span<const WeightedEdge> batch);

  /// The node's current adjacency epoch; never null (an untouched node
  /// yields a shared empty-columns instance). The returned snapshot is
  /// immutable and stays valid for as long as the caller holds it,
  /// regardless of concurrent writers.
  Snapshot AdjacencySnapshot(ObjectId i) const;

  /// Resolved-neighbor count of i (the size of its current snapshot).
  size_t Degree(ObjectId i) const { return AdjacencySnapshot(i)->ids.size(); }

  /// Total resolved edges (sums the shard maps under their locks; a racing
  /// writer may land just before or just after the sum).
  size_t num_edges() const;

  /// All resolved edges with u < v, sorted by (u, v): a deterministic
  /// value-snapshot regardless of the insertion interleaving (unlike
  /// PartialDistanceGraph::edges(), insertion order is meaningless under
  /// concurrency, so a canonical order is returned instead).
  std::vector<WeightedEdge> Edges() const;

  static constexpr size_t kDefaultShards = 16;

 private:
  struct EdgeShard {
    mutable std::mutex mu;
    std::unordered_map<EdgeKey, double, EdgeKeyHash> edges;
  };
  struct NodeShard {
    mutable std::mutex mu;
  };

  size_t EdgeShardOf(EdgeKey key) const {
    return EdgeKeyHash{}(key) % num_shards_;
  }

  /// Emplaces into the striped edge map. Returns true when fresh;
  /// CHECK-fails on a conflicting duplicate.
  bool EmplaceEdge(ObjectId i, ObjectId j, double d);

  /// Copy-on-write publication: splices the (id, d) entries (sorted by id,
  /// unique) into node `i`'s columns and swaps in the new epoch, all under
  /// the node's shard lock.
  void PublishNeighbors(ObjectId i,
                        std::span<const PartialDistanceGraph::Neighbor> add);

  void ValidateEdge(ObjectId i, ObjectId j, double d) const;

  ObjectId num_objects_;
  size_t num_shards_;
  std::vector<EdgeShard> edge_shards_;
  std::vector<NodeShard> node_shards_;
  /// columns_[i] is guarded by node_shards_[NodeShardOf(i)].mu; the pointee
  /// is immutable once published.
  std::vector<Snapshot> columns_;
};

}  // namespace metricprox

#endif  // METRICPROX_GRAPH_CONCURRENT_GRAPH_H_
