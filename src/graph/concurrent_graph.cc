#include "graph/concurrent_graph.h"

#include <algorithm>

namespace metricprox {

namespace {

/// The shared epoch returned for nodes that have never been touched, so
/// AdjacencySnapshot never hands out null.
const ConcurrentDistanceGraph::Snapshot& EmptyColumns() {
  static const ConcurrentDistanceGraph::Snapshot empty =
      std::make_shared<const ConcurrentDistanceGraph::NodeColumns>();
  return empty;
}

}  // namespace

ConcurrentDistanceGraph::ConcurrentDistanceGraph(ObjectId num_objects,
                                                 size_t num_shards)
    : num_objects_(num_objects),
      num_shards_(num_shards == 0 ? 1 : num_shards),
      edge_shards_(num_shards_),
      node_shards_(num_shards_),
      columns_(num_objects) {}

bool ConcurrentDistanceGraph::Has(ObjectId i, ObjectId j) const {
  return Get(i, j).has_value();
}

std::optional<double> ConcurrentDistanceGraph::Get(ObjectId i,
                                                   ObjectId j) const {
  // A self-pair is never an edge (and EdgeKey DCHECKs i != j).
  if (i == j) return std::nullopt;
  const EdgeKey key(i, j);
  const EdgeShard& shard = edge_shards_[EdgeShardOf(key)];
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.edges.find(key);
  if (it == shard.edges.end()) return std::nullopt;
  return it->second;
}

void ConcurrentDistanceGraph::ValidateEdge(ObjectId i, ObjectId j,
                                           double d) const {
  CHECK_NE(i, j) << "self-edge";
  CHECK_LT(i, num_objects_);
  CHECK_LT(j, num_objects_);
  CHECK_GE(d, 0.0) << "negative distance from oracle";
}

bool ConcurrentDistanceGraph::EmplaceEdge(ObjectId i, ObjectId j, double d) {
  const EdgeKey key(i, j);
  EdgeShard& shard = edge_shards_[EdgeShardOf(key)];
  std::lock_guard<std::mutex> lock(shard.mu);
  const auto [it, inserted] = shard.edges.emplace(key, d);
  if (!inserted) {
    CHECK_EQ(it->second, d)
        << "conflicting duplicate edge (" << i << ", " << j << ")";
  }
  return inserted;
}

void ConcurrentDistanceGraph::PublishNeighbors(
    ObjectId i, std::span<const PartialDistanceGraph::Neighbor> add) {
  if (add.empty()) return;
  NodeShard& shard = node_shards_[NodeShardOf(i)];
  std::lock_guard<std::mutex> lock(shard.mu);
  const Snapshot& current = columns_[i] ? columns_[i] : EmptyColumns();
  auto next = std::make_shared<NodeColumns>();
  next->ids.reserve(current->ids.size() + add.size());
  next->distances.reserve(current->distances.size() + add.size());
  // Linear merge of the existing (sorted) columns with the sorted additions
  // — one pass, and the new epoch is fully built before the swap below
  // makes it visible.
  size_t x = 0;
  size_t y = 0;
  while (x < current->ids.size() || y < add.size()) {
    const bool take_add =
        x == current->ids.size() ||
        (y < add.size() && add[y].id < current->ids[x]);
    if (take_add) {
      next->ids.push_back(add[y].id);
      next->distances.push_back(add[y].distance);
      ++y;
    } else {
      next->ids.push_back(current->ids[x]);
      next->distances.push_back(current->distances[x]);
      ++x;
    }
  }
  columns_[i] = std::move(next);
}

bool ConcurrentDistanceGraph::Insert(ObjectId i, ObjectId j, double d) {
  ValidateEdge(i, j, d);
  if (!EmplaceEdge(i, j, d)) return false;
  const PartialDistanceGraph::Neighbor to_i{j, d};
  const PartialDistanceGraph::Neighbor to_j{i, d};
  PublishNeighbors(i, std::span<const PartialDistanceGraph::Neighbor>(&to_i, 1));
  PublishNeighbors(j, std::span<const PartialDistanceGraph::Neighbor>(&to_j, 1));
  return true;
}

size_t ConcurrentDistanceGraph::InsertEdges(
    std::span<const WeightedEdge> batch) {
  // Claim edges in the striped map first (the authority for duplicates),
  // then group the fresh ones per node so each node's adjacency is
  // published in exactly one epoch swap.
  std::unordered_map<ObjectId,
                     std::vector<PartialDistanceGraph::Neighbor>>
      per_node;
  size_t fresh = 0;
  for (const WeightedEdge& e : batch) {
    ValidateEdge(e.u, e.v, e.weight);
    if (!EmplaceEdge(e.u, e.v, e.weight)) continue;
    ++fresh;
    per_node[e.u].push_back({e.v, e.weight});
    per_node[e.v].push_back({e.u, e.weight});
  }
  for (auto& [node, add] : per_node) {
    std::sort(add.begin(), add.end(),
              [](const PartialDistanceGraph::Neighbor& a,
                 const PartialDistanceGraph::Neighbor& b) {
                return a.id < b.id;
              });
    PublishNeighbors(node, add);
  }
  return fresh;
}

ConcurrentDistanceGraph::Snapshot ConcurrentDistanceGraph::AdjacencySnapshot(
    ObjectId i) const {
  DCHECK_LT(i, columns_.size());
  const NodeShard& shard = node_shards_[NodeShardOf(i)];
  std::lock_guard<std::mutex> lock(shard.mu);
  return columns_[i] ? columns_[i] : EmptyColumns();
}

size_t ConcurrentDistanceGraph::num_edges() const {
  size_t total = 0;
  for (const EdgeShard& shard : edge_shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.edges.size();
  }
  return total;
}

std::vector<WeightedEdge> ConcurrentDistanceGraph::Edges() const {
  std::vector<WeightedEdge> out;
  for (const EdgeShard& shard : edge_shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    out.reserve(out.size() + shard.edges.size());
    for (const auto& [key, d] : shard.edges) {
      out.push_back(WeightedEdge{key.lo(), key.hi(), d});
    }
  }
  std::sort(out.begin(), out.end(),
            [](const WeightedEdge& a, const WeightedEdge& b) {
              return EdgeKey(a.u, a.v) < EdgeKey(b.u, b.v);
            });
  return out;
}

}  // namespace metricprox
