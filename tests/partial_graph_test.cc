#include "graph/partial_graph.h"

#include <iterator>
#include <map>
#include <optional>
#include <random>
#include <set>
#include <vector>

#include <gtest/gtest.h>

namespace metricprox {
namespace {

TEST(PartialGraphTest, EmptyGraphHasNoEdges) {
  PartialDistanceGraph g(5);
  EXPECT_EQ(g.num_objects(), 5u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_FALSE(g.Has(0, 1));
  EXPECT_FALSE(g.Get(0, 1).has_value());
  EXPECT_TRUE(g.AdjacencyView(0).ids.empty());
}

TEST(PartialGraphTest, SelfPairAndOutOfRangeIdsAreUnknown) {
  PartialDistanceGraph g(4);
  g.Insert(0, 1, 0.5);
  g.Insert(1, 3, 0.25);
  for (ObjectId i = 0; i < 4; ++i) {
    EXPECT_FALSE(g.Has(i, i)) << i;
    EXPECT_FALSE(g.Get(i, i).has_value()) << i;
  }
  for (const ObjectId out : {ObjectId{4}, ObjectId{1000}, kInvalidObject}) {
    EXPECT_FALSE(g.Has(1, out)) << out;
    EXPECT_FALSE(g.Has(out, 1)) << out;
    EXPECT_FALSE(g.Get(1, out).has_value()) << out;
    EXPECT_FALSE(g.Get(out, 1).has_value()) << out;
    EXPECT_FALSE(g.Get(out, out).has_value()) << out;
  }
  EXPECT_EQ(g.Get(3, 1), 0.25);
}

TEST(PartialGraphTest, InsertIsSymmetric) {
  PartialDistanceGraph g(4);
  g.Insert(2, 0, 0.75);
  EXPECT_TRUE(g.Has(0, 2));
  EXPECT_TRUE(g.Has(2, 0));
  EXPECT_DOUBLE_EQ(*g.Get(0, 2), 0.75);
  EXPECT_DOUBLE_EQ(*g.Get(2, 0), 0.75);
  EXPECT_EQ(g.Degree(0), 1u);
  EXPECT_EQ(g.Degree(2), 1u);
  EXPECT_EQ(g.Degree(1), 0u);
}

TEST(PartialGraphTest, AdjacencySortedById) {
  PartialDistanceGraph g(6);
  g.Insert(3, 5, 0.1);
  g.Insert(3, 1, 0.2);
  g.Insert(3, 4, 0.3);
  g.Insert(3, 0, 0.4);
  const PartialDistanceGraph::AdjacencyColumns nbrs = g.AdjacencyView(3);
  ASSERT_EQ(nbrs.ids.size(), 4u);
  EXPECT_EQ(std::vector<ObjectId>(nbrs.ids.begin(), nbrs.ids.end()),
            (std::vector<ObjectId>{0, 1, 4, 5}));
  EXPECT_EQ(std::vector<double>(nbrs.distances.begin(), nbrs.distances.end()),
            (std::vector<double>{0.4, 0.2, 0.3, 0.1}));
}

TEST(PartialGraphTest, EdgesListPreservesInsertionOrder) {
  PartialDistanceGraph g(4);
  g.Insert(0, 1, 0.5);
  g.Insert(2, 3, 0.6);
  ASSERT_EQ(g.edges().size(), 2u);
  EXPECT_EQ(g.edges()[0].u, 0u);
  EXPECT_EQ(g.edges()[1].weight, 0.6);
}

TEST(PartialGraphTest, DuplicateInsertDies) {
  PartialDistanceGraph g(3);
  g.Insert(0, 1, 0.5);
  EXPECT_DEATH(g.Insert(1, 0, 0.7), "duplicate");
}

TEST(PartialGraphTest, NegativeDistanceDies) {
  PartialDistanceGraph g(3);
  EXPECT_DEATH(g.Insert(0, 1, -0.1), "negative");
}

TEST(PartialGraphTest, SelfEdgeDies) {
  PartialDistanceGraph g(3);
  EXPECT_DEATH(g.Insert(1, 1, 0.5), "self-edge");
}

TEST(PartialGraphTest, InsertEdgesMatchesSequentialInserts) {
  std::mt19937_64 rng(11);
  const ObjectId n = 25;
  std::vector<WeightedEdge> batch;
  std::set<std::pair<ObjectId, ObjectId>> used;
  while (batch.size() < 80) {
    ObjectId a = static_cast<ObjectId>(rng() % n);
    ObjectId b = static_cast<ObjectId>(rng() % n);
    if (a == b) continue;
    if (a > b) std::swap(a, b);
    if (!used.insert({a, b}).second) continue;
    batch.push_back(
        WeightedEdge{a, b, 0.01 * static_cast<double>(rng() % 100 + 1)});
  }

  PartialDistanceGraph bulk(n);
  bulk.InsertEdges(batch);
  PartialDistanceGraph sequential(n);
  for (const WeightedEdge& e : batch) sequential.Insert(e.u, e.v, e.weight);

  ASSERT_EQ(bulk.num_edges(), sequential.num_edges());
  for (size_t k = 0; k < batch.size(); ++k) {
    EXPECT_EQ(bulk.edges()[k], sequential.edges()[k]);
  }
  for (ObjectId i = 0; i < n; ++i) {
    const PartialDistanceGraph::AdjacencyColumns a = bulk.AdjacencyView(i);
    const PartialDistanceGraph::AdjacencyColumns b =
        sequential.AdjacencyView(i);
    ASSERT_EQ(a.ids.size(), b.ids.size()) << "node " << i;
    for (size_t k = 0; k < a.ids.size(); ++k) {
      EXPECT_EQ(a.ids[k], b.ids[k]);
      EXPECT_EQ(a.distances[k], b.distances[k]);
    }
    for (ObjectId j = 0; j < n; ++j) {
      if (i == j) continue;
      ASSERT_EQ(bulk.Get(i, j), sequential.Get(i, j));
    }
  }
}

TEST(PartialGraphTest, InsertEdgesExactDuplicateWithinBatchIsNoOp) {
  PartialDistanceGraph g(4);
  const std::vector<WeightedEdge> batch = {WeightedEdge{0, 1, 0.5},
                                           WeightedEdge{1, 0, 0.5}};
  g.InsertEdges(batch);
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.Get(0, 1), 0.5);
  EXPECT_EQ(g.Degree(0), 1u);
  EXPECT_EQ(g.Degree(1), 1u);
}

TEST(PartialGraphTest, InsertEdgesExactDuplicateOfExistingIsNoOp) {
  PartialDistanceGraph g(4);
  g.Insert(2, 3, 0.25);
  const std::vector<WeightedEdge> batch = {WeightedEdge{3, 2, 0.25},
                                           WeightedEdge{0, 2, 0.75}};
  g.InsertEdges(batch);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.Get(2, 3), 0.25);
  EXPECT_EQ(g.Get(0, 2), 0.75);
  // The adjacency columns stay sorted and duplicate-free after the skip.
  ASSERT_EQ(g.Degree(2), 2u);
  EXPECT_EQ(g.AdjacencyView(2).ids[0], 0u);
  EXPECT_EQ(g.AdjacencyView(2).ids[1], 3u);
}

TEST(PartialGraphTest, InsertEdgesRepeatedBulkLoadIsIdempotent) {
  // The store warm-start path loads the same edge set at every run; the
  // second load must leave the graph bit-for-bit unchanged.
  PartialDistanceGraph g(5);
  const std::vector<WeightedEdge> batch = {WeightedEdge{0, 1, 1.0},
                                           WeightedEdge{1, 2, 2.0},
                                           WeightedEdge{3, 4, 0.5}};
  g.InsertEdges(batch);
  g.InsertEdges(batch);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_EQ(g.edges().size(), 3u);
  EXPECT_EQ(g.Degree(1), 2u);
}

TEST(PartialGraphTest, InsertEdgesConflictingDuplicateDies) {
  PartialDistanceGraph g(4);
  g.Insert(2, 3, 0.25);
  const std::vector<WeightedEdge> batch = {WeightedEdge{3, 2, 0.75}};
  EXPECT_DEATH(g.InsertEdges(batch), "conflicting duplicate");
}

TEST(PartialGraphTest, InsertEdgesConflictingWithinBatchDies) {
  PartialDistanceGraph g(4);
  const std::vector<WeightedEdge> batch = {WeightedEdge{0, 1, 0.5},
                                           WeightedEdge{1, 0, 0.6}};
  EXPECT_DEATH(g.InsertEdges(batch), "conflicting duplicate");
}

// The adjacency columns (AdjacencyView) must stay well formed after every
// mutation path: they are the operand the SIMD tri-kernel reads, so a
// divergence would silently change bounds.
void ExpectViewConsistent(const PartialDistanceGraph& g) {
  size_t half_edges = 0;
  for (ObjectId i = 0; i < g.num_objects(); ++i) {
    const PartialDistanceGraph::AdjacencyColumns view = g.AdjacencyView(i);
    ASSERT_EQ(view.ids.size(), view.distances.size()) << "node " << i;
    ASSERT_EQ(view.ids.size(), g.Degree(i)) << "node " << i;
    half_edges += view.ids.size();
    for (size_t k = 0; k < view.ids.size(); ++k) {
      // Bitwise: each column slot is the stored distance, readable from
      // both endpoints.
      EXPECT_EQ(g.Get(i, view.ids[k]), view.distances[k])
          << "node " << i << " slot " << k;
      EXPECT_EQ(g.Get(view.ids[k], i), view.distances[k])
          << "node " << i << " slot " << k;
    }
    // Strictly ascending ids — the merge-intersection kernel requires it.
    for (size_t k = 1; k < view.ids.size(); ++k) {
      EXPECT_LT(view.ids[k - 1], view.ids[k]) << "node " << i;
    }
  }
  EXPECT_EQ(half_edges, 2 * g.num_edges());
}

TEST(PartialGraphTest, AdjacencyViewEmptyForIsolatedNodes) {
  PartialDistanceGraph g(3);
  for (ObjectId i = 0; i < 3; ++i) {
    const auto view = g.AdjacencyView(i);
    EXPECT_TRUE(view.ids.empty());
    EXPECT_TRUE(view.distances.empty());
  }
  g.Insert(0, 2, 0.5);
  EXPECT_TRUE(g.AdjacencyView(1).ids.empty());
  ASSERT_EQ(g.AdjacencyView(0).ids.size(), 1u);
  EXPECT_EQ(g.AdjacencyView(0).ids[0], 2u);
  EXPECT_EQ(g.AdjacencyView(0).distances[0], 0.5);
  ASSERT_EQ(g.AdjacencyView(2).ids.size(), 1u);
  EXPECT_EQ(g.AdjacencyView(2).ids[0], 0u);
}

TEST(PartialGraphTest, AdjacencyViewConsistentAfterInterleavedMutations) {
  // Interleave single inserts with bulk loads the way resolver + warm-start
  // do in a real run, checking the mirror after every step.
  std::mt19937_64 rng(23);
  const ObjectId n = 20;
  PartialDistanceGraph g(n);
  std::set<std::pair<ObjectId, ObjectId>> used;
  std::vector<WeightedEdge> pending;
  for (int step = 0; step < 120; ++step) {
    ObjectId a = static_cast<ObjectId>(rng() % n);
    ObjectId b = static_cast<ObjectId>(rng() % n);
    if (a == b) continue;
    if (a > b) std::swap(a, b);
    if (!used.insert({a, b}).second) continue;
    const double d = 0.01 * static_cast<double>(rng() % 100 + 1);
    if (rng() % 2 == 0) {
      g.Insert(a, b, d);
    } else {
      pending.push_back(WeightedEdge{a, b, d});
      if (pending.size() == 5) {
        g.InsertEdges(pending);
        pending.clear();
      }
    }
    if (step % 10 == 0) ExpectViewConsistent(g);
  }
  if (!pending.empty()) g.InsertEdges(pending);
  ExpectViewConsistent(g);
}

TEST(PartialGraphTest, AdjacencyViewConsistentThroughDuplicateSkip) {
  // The exact-duplicate skip path in InsertEdges must leave the mirror
  // untouched, including when the duplicate shares a batch with new edges.
  PartialDistanceGraph g(5);
  g.Insert(1, 3, 0.25);
  const std::vector<WeightedEdge> batch = {
      WeightedEdge{3, 1, 0.25}, WeightedEdge{1, 0, 0.5},
      WeightedEdge{0, 1, 0.5}};
  g.InsertEdges(batch);
  EXPECT_EQ(g.num_edges(), 2u);
  ExpectViewConsistent(g);
  ASSERT_EQ(g.AdjacencyView(1).ids.size(), 2u);
  EXPECT_EQ(g.AdjacencyView(1).ids[0], 0u);
  EXPECT_EQ(g.AdjacencyView(1).ids[1], 3u);
}

TEST(PartialGraphTest, AdjacencyViewConsistentAfterWarmStartReload) {
  // Store warm start bulk-loads the same edges every run; the second load
  // must leave the mirror bit-for-bit unchanged.
  const std::vector<WeightedEdge> batch = {WeightedEdge{0, 1, 1.0},
                                           WeightedEdge{1, 2, 2.0},
                                           WeightedEdge{3, 4, 0.5}};
  PartialDistanceGraph g(5);
  g.InsertEdges(batch);
  std::vector<std::vector<ObjectId>> ids_before(5);
  std::vector<std::vector<double>> dist_before(5);
  for (ObjectId i = 0; i < 5; ++i) {
    const auto view = g.AdjacencyView(i);
    ids_before[i].assign(view.ids.begin(), view.ids.end());
    dist_before[i].assign(view.distances.begin(), view.distances.end());
  }
  g.InsertEdges(batch);
  ExpectViewConsistent(g);
  for (ObjectId i = 0; i < 5; ++i) {
    const auto view = g.AdjacencyView(i);
    ASSERT_EQ(view.ids.size(), ids_before[i].size());
    for (size_t k = 0; k < view.ids.size(); ++k) {
      EXPECT_EQ(view.ids[k], ids_before[i][k]);
      EXPECT_EQ(view.distances[k], dist_before[i][k]);
    }
  }
}

/// Checks every observable of `g` against the model: the resolved pairs
/// with their distances, and the edges() order.
void ExpectMatchesModel(const PartialDistanceGraph& g,
                        const std::map<EdgeKey, double>& model,
                        const std::vector<WeightedEdge>& model_edges) {
  const ObjectId n = g.num_objects();
  ASSERT_EQ(g.num_edges(), model.size());
  ASSERT_EQ(g.edges(), model_edges);
  std::vector<std::vector<ObjectId>> ids(n);
  std::vector<std::vector<double>> distances(n);
  // Map order is (lo, hi) ascending, so each node's neighbors arrive sorted:
  // first those below it (keys (c, i), c ascending), then those above it
  // (keys (i, c), c ascending).
  for (const auto& [key, d] : model) {
    ids[key.lo()].push_back(key.hi());
    distances[key.lo()].push_back(d);
    ids[key.hi()].push_back(key.lo());
    distances[key.hi()].push_back(d);
  }
  for (ObjectId i = 0; i < n; ++i) {
    const PartialDistanceGraph::AdjacencyColumns view = g.AdjacencyView(i);
    EXPECT_EQ(g.Degree(i), ids[i].size()) << "node " << i;
    ASSERT_EQ(std::vector<ObjectId>(view.ids.begin(), view.ids.end()), ids[i])
        << "node " << i;
    ASSERT_EQ(std::vector<double>(view.distances.begin(),
                                  view.distances.end()),
              distances[i])
        << "node " << i;
    for (size_t k = 1; k < view.ids.size(); ++k) {
      ASSERT_LT(view.ids[k - 1], view.ids[k]) << "node " << i;
    }
    for (ObjectId j = 0; j < n; ++j) {
      std::optional<double> want;
      if (i != j) {
        const auto it = model.find(EdgeKey(i, j));
        if (it != model.end()) want = it->second;
      }
      ASSERT_EQ(g.Get(i, j), want) << "pair (" << i << ", " << j << ")";
      ASSERT_EQ(g.Has(i, j), want.has_value())
          << "pair (" << i << ", " << j << ")";
    }
  }
}

TEST(PartialGraphTest, RandomInsertsMatchMapModel) {
  // Random interleavings of Insert and InsertEdges against a map model.
  // Batches mix fresh edges with exact repeats of earlier batch entries
  // (same and flipped orientation) and of already-known edges; a mid-range
  // hub node takes a third of all edges, so merges land below, between and
  // above a long column's existing ids.
  const ObjectId n = 40;
  const ObjectId hub = 17;
  for (const uint64_t seed : {1, 2, 3, 4, 5, 6}) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    std::mt19937_64 rng(seed);
    PartialDistanceGraph g(n);
    std::map<EdgeKey, double> model;
    std::vector<WeightedEdge> model_edges;
    const auto pick = [&](ObjectId bound) {
      return static_cast<ObjectId>(rng() % bound);
    };
    // A random orientation of a pair absent from the model and from
    // `taken` (the current batch), or false when none turned up.
    const auto fresh_edge = [&](const std::set<EdgeKey>& taken,
                                WeightedEdge* e) {
      for (int attempt = 0; attempt < 50; ++attempt) {
        const ObjectId a = pick(3) == 0 ? hub : pick(n);
        const ObjectId b = pick(n);
        if (a == b || model.count(EdgeKey(a, b)) != 0 ||
            taken.count(EdgeKey(a, b)) != 0) {
          continue;
        }
        const double d = 0.125 * static_cast<double>(pick(64) + 1);
        *e = pick(2) == 0 ? WeightedEdge{a, b, d} : WeightedEdge{b, a, d};
        return true;
      }
      return false;
    };
    const auto any_orientation = [&](const WeightedEdge& e) {
      return pick(2) == 0 ? e : WeightedEdge{e.v, e.u, e.weight};
    };
    for (int step = 0; step < 80; ++step) {
      if (pick(3) == 0) {
        WeightedEdge e;
        if (!fresh_edge({}, &e)) continue;
        g.Insert(e.u, e.v, e.weight);
        model.emplace(EdgeKey(e.u, e.v), e.weight);
        model_edges.push_back(e);
      } else {
        std::vector<WeightedEdge> batch;
        std::set<EdgeKey> taken;
        const size_t size = pick(13);  // empty batches included
        while (batch.size() < size) {
          const ObjectId kind = pick(10);
          if (kind < 2 && !batch.empty()) {
            batch.push_back(any_orientation(batch[pick(
                static_cast<ObjectId>(batch.size()))]));
          } else if (kind < 4 && !model.empty()) {
            auto it = model.begin();
            std::advance(it, pick(static_cast<ObjectId>(model.size())));
            batch.push_back(any_orientation(
                WeightedEdge{it->first.lo(), it->first.hi(), it->second}));
          } else {
            WeightedEdge e;
            if (!fresh_edge(taken, &e)) break;
            taken.insert(EdgeKey(e.u, e.v));
            batch.push_back(e);
          }
        }
        g.InsertEdges(batch);
        for (const WeightedEdge& e : batch) {
          if (model.emplace(EdgeKey(e.u, e.v), e.weight).second) {
            model_edges.push_back(e);
          }
        }
      }
      ExpectMatchesModel(g, model, model_edges);
      if (testing::Test::HasFatalFailure()) return;
    }
    EXPECT_GT(g.Degree(hub), n / 2);
  }
}

TEST(PartialGraphTest, CommonNeighborMergeFindsExactlyTheTriangles) {
  PartialDistanceGraph g(7);
  // Common neighbors of (0, 1): 2 and 5. Neighbor 3 only touches 0,
  // neighbor 4 only touches 1.
  g.Insert(0, 2, 0.1);
  g.Insert(1, 2, 0.2);
  g.Insert(0, 3, 0.3);
  g.Insert(1, 4, 0.4);
  g.Insert(0, 5, 0.5);
  g.Insert(1, 5, 0.6);

  std::set<ObjectId> found;
  g.ForEachCommonNeighbor(0, 1, [&](ObjectId c, double d0, double d1) {
    found.insert(c);
    if (c == 2) {
      EXPECT_DOUBLE_EQ(d0, 0.1);
      EXPECT_DOUBLE_EQ(d1, 0.2);
    } else {
      EXPECT_DOUBLE_EQ(d0, 0.5);
      EXPECT_DOUBLE_EQ(d1, 0.6);
    }
  });
  EXPECT_EQ(found, (std::set<ObjectId>{2, 5}));
}

TEST(PartialGraphTest, CommonNeighborsMatchBruteForceOnRandomGraphs) {
  std::mt19937_64 rng(7);
  const ObjectId n = 30;
  PartialDistanceGraph g(n);
  std::set<std::pair<ObjectId, ObjectId>> inserted;
  for (int e = 0; e < 150; ++e) {
    ObjectId a = static_cast<ObjectId>(rng() % n);
    ObjectId b = static_cast<ObjectId>(rng() % n);
    if (a == b) continue;
    if (a > b) std::swap(a, b);
    if (!inserted.insert({a, b}).second) continue;
    g.Insert(a, b, 0.01 * static_cast<double>(rng() % 100 + 1));
  }
  for (ObjectId i = 0; i < n; ++i) {
    for (ObjectId j = i + 1; j < n; ++j) {
      std::set<ObjectId> merged;
      g.ForEachCommonNeighbor(i, j,
                              [&](ObjectId c, double, double) { merged.insert(c); });
      std::set<ObjectId> brute;
      for (ObjectId c = 0; c < n; ++c) {
        if (c != i && c != j && g.Has(i, c) && g.Has(j, c)) brute.insert(c);
      }
      ASSERT_EQ(merged, brute) << "pair (" << i << ", " << j << ")";
    }
  }
}

}  // namespace
}  // namespace metricprox
