// SharedDistanceCache: the striped pair cache a SessionPool's sessions
// share. These tests pin (a) the duplicate rule and CHECK messages it shares
// with the single-threaded PartialDistanceGraph, and (b) a linearizable
// final state under concurrent writers of disjoint and of overlapping pairs:
// each pair is won by exactly one Insert, and Get over every ordered pair
// then equals a PartialDistanceGraph built from the same edges. The last
// three tests are the regression layer for mutable state on the bound path:
// the SIMD dispatch tier is read concurrently with SetTier (fails under TSan
// on the pre-atomic layout), and per-bounder TriMergeBounds scratch no
// longer aliases across bounders sharing a thread.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <optional>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "bounds/tri.h"
#include "core/simd.h"
#include "core/types.h"
#include "graph/partial_graph.h"
#include "service/shared_cache.h"

namespace metricprox {
namespace {

/// Deterministic pseudo-distance for edge (u, v): strictly positive and a
/// pure function of the pair, so racing threads inserting the same edge
/// always agree (the exact-duplicate case, never the conflicting one).
double EdgeWeight(ObjectId u, ObjectId v) {
  const EdgeKey key(u, v);
  return 1.0 + static_cast<double>(key.lo()) * 0.25 +
         static_cast<double>(key.hi()) * 0.0625;
}

std::vector<WeightedEdge> CompleteGraphEdges(ObjectId n) {
  std::vector<WeightedEdge> edges;
  for (ObjectId u = 0; u < n; ++u) {
    for (ObjectId v = u + 1; v < n; ++v) {
      edges.push_back(WeightedEdge{u, v, EdgeWeight(u, v)});
    }
  }
  return edges;
}

/// Checks Get over every ordered pair, self-pairs included, against the
/// single-threaded graph built from the same edges.
void ExpectSameLookups(const SharedDistanceCache& got,
                       const PartialDistanceGraph& want) {
  for (ObjectId i = 0; i < want.num_objects(); ++i) {
    for (ObjectId j = 0; j < want.num_objects(); ++j) {
      EXPECT_EQ(got.Get(i, j), want.Get(i, j))
          << "pair (" << i << ", " << j << ")";
    }
  }
}

TEST(SharedDistanceCacheTest, DuplicateSemanticsMatchPartialGraph) {
  const ObjectId n = 24;
  SharedDistanceCache cache(n);
  PartialDistanceGraph reference(n);
  const double d12 = EdgeWeight(1, 2);
  EXPECT_EQ(cache.Get(1, 2), std::nullopt);
  EXPECT_TRUE(cache.Insert(1, 2, d12));
  reference.Insert(1, 2, d12);
  // Exact duplicate (either orientation): skipped, reported as stale.
  EXPECT_FALSE(cache.Insert(1, 2, d12));
  EXPECT_FALSE(cache.Insert(2, 1, d12));
  EXPECT_EQ(cache.Get(1, 2), d12);
  EXPECT_EQ(cache.Get(2, 1), d12);
  // A self-pair is never cached, not even after its endpoint is.
  EXPECT_EQ(cache.Get(1, 1), std::nullopt);
  EXPECT_EQ(cache.Get(2, 2), std::nullopt);
  // The rest of the complete graph: every fresh pair wins once, and a
  // replay of it, reversed, wins nothing.
  for (const WeightedEdge& e : CompleteGraphEdges(n)) {
    if (e.u == 1 && e.v == 2) continue;
    EXPECT_TRUE(cache.Insert(e.u, e.v, e.weight));
    reference.Insert(e.u, e.v, e.weight);
  }
  for (const WeightedEdge& e : CompleteGraphEdges(n)) {
    EXPECT_FALSE(cache.Insert(e.v, e.u, e.weight));
  }
  ExpectSameLookups(cache, reference);
}

TEST(SharedDistanceCacheDeathTest, ChecksKeepTheirMessages) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  SharedDistanceCache cache(8);
  ASSERT_TRUE(cache.Insert(1, 2, 3.5));
  EXPECT_DEATH(cache.Insert(1, 2, 4.0),
               "conflicting duplicate edge \\(1, 2\\)");
  EXPECT_DEATH(cache.Insert(2, 1, 4.0),
               "conflicting duplicate edge \\(2, 1\\)");
  EXPECT_DEATH(cache.Insert(3, 3, 1.0), "self-edge");
  EXPECT_DEATH(cache.Insert(8, 1, 1.0), "i < num_objects_");
  EXPECT_DEATH(cache.Insert(1, 8, 1.0), "j < num_objects_");
  EXPECT_DEATH(cache.Insert(1, 3, -1.0), "negative distance from oracle");
}

TEST(SharedDistanceCacheTest, ConcurrentDisjointWriters) {
  // Each worker owns a disjoint node range, so no two workers ever write
  // the same pair: the partitioned-write case. Every Insert must win.
  const ObjectId nodes_per_worker = 16;
  const unsigned workers = 4;
  const ObjectId n = nodes_per_worker * workers;
  SharedDistanceCache cache(n);
  std::vector<size_t> fresh(workers, 0);
  std::vector<std::thread> threads;
  for (unsigned w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      const ObjectId base = w * nodes_per_worker;
      for (ObjectId u = base; u < base + nodes_per_worker; ++u) {
        for (ObjectId v = u + 1; v < base + nodes_per_worker; ++v) {
          if (cache.Insert(u, v, EdgeWeight(u, v))) ++fresh[w];
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  PartialDistanceGraph reference(n);
  for (unsigned w = 0; w < workers; ++w) {
    const ObjectId base = w * nodes_per_worker;
    for (ObjectId u = base; u < base + nodes_per_worker; ++u) {
      for (ObjectId v = u + 1; v < base + nodes_per_worker; ++v) {
        reference.Insert(u, v, EdgeWeight(u, v));
      }
    }
    EXPECT_EQ(fresh[w], nodes_per_worker * (nodes_per_worker - 1) / 2u);
  }
  ExpectSameLookups(cache, reference);
}

TEST(SharedDistanceCacheTest, ConcurrentOverlappingExactDuplicates) {
  // Every worker inserts the SAME complete graph, half of them in reverse
  // order and orientation: the racing-sessions case. Exactly one Insert
  // wins each pair, the rest observe a silent skip, and the final state
  // equals a single sequential insertion.
  const ObjectId n = 20;
  const unsigned workers = 4;
  const std::vector<WeightedEdge> edges = CompleteGraphEdges(n);
  SharedDistanceCache cache(n);
  std::vector<size_t> fresh(workers, 0);
  std::vector<std::thread> threads;
  for (unsigned w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      std::vector<WeightedEdge> mine = edges;
      if (w % 2 == 1) {
        std::reverse(mine.begin(), mine.end());
        for (WeightedEdge& e : mine) std::swap(e.u, e.v);
      }
      for (const WeightedEdge& e : mine) {
        if (cache.Insert(e.u, e.v, e.weight)) ++fresh[w];
      }
    });
  }
  for (std::thread& t : threads) t.join();

  size_t total_fresh = 0;
  for (const size_t f : fresh) total_fresh += f;
  EXPECT_EQ(total_fresh, edges.size());  // each pair won exactly once
  PartialDistanceGraph reference(n);
  for (const WeightedEdge& e : edges) reference.Insert(e.u, e.v, e.weight);
  ExpectSameLookups(cache, reference);
}

// ---------------------------------------------------------------------------
// Regression layer: mutable state on the bound path.
// ---------------------------------------------------------------------------

// The SIMD dispatch tier is process-global and read on every bound scan;
// SetTier may legitimately run while other threads (concurrent sessions)
// are scanning. On the pre-fix layout the tier lived in a plain static and
// this test is a data race under TSan; with the atomic tier every reader
// observes either the old or the new tier — both valid kernel tables.
TEST(SimdDispatchRaceTest, ConcurrentSetTierAndBoundScans) {
  const simd::Tier original = simd::ActiveTier();
  PartialDistanceGraph graph(16);
  for (ObjectId u = 0; u < 16; ++u) {
    for (ObjectId v = u + 1; v < 16; ++v) {
      graph.Insert(u, v, EdgeWeight(u, v));
    }
  }
  // The unique correct answer, computed before any concurrency: tri merges
  // only the COMMON neighbors of (0, 1), so the interval is not a point
  // even though the direct edge exists — but it is bit-identical on every
  // tier, so scans racing a tier switch must reproduce it exactly.
  TriBounder reference_bounder(&graph);
  const Interval reference = reference_bounder.Bounds(0, 1);
  std::atomic<bool> done{false};
  std::atomic<uint64_t> scans{0};
  std::vector<std::thread> scanners;
  for (int t = 0; t < 3; ++t) {
    scanners.emplace_back([&] {
      TriBounder bounder(&graph);
      while (!done.load(std::memory_order_acquire)) {
        const simd::Tier tier = simd::ActiveTier();
        bool valid = false;
        for (const simd::Tier known : simd::kAllTiers) {
          valid = valid || tier == known;
        }
        // EXPECT (not ASSERT): a failing scanner must keep looping and
        // bumping `scans`, or the main thread below could spin forever.
        EXPECT_TRUE(valid);
        const Interval bounds = bounder.Bounds(0, 1);
        EXPECT_EQ(bounds.lo, reference.lo);
        EXPECT_EQ(bounds.hi, reference.hi);
        scans.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  // Keep flipping until every scanner had real work overlapping the flips —
  // otherwise fast main-thread scheduling ends the test before a single
  // racing scan happened and the assertions above are vacuous.
  int flip = 0;
  while (flip < 200 || scans.load(std::memory_order_relaxed) < 30) {
    simd::SetTier(simd::kAllTiers[flip % 3]);
    ++flip;
    if (flip >= 200) std::this_thread::yield();
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : scanners) t.join();
  EXPECT_GE(scans.load(), 30u);
  simd::SetTier(original);
}

// Two TriBounders driven alternately from ONE thread must not share merge
// scratch: with the old thread_local buffers both bounders aliased the same
// per-thread vectors (harmless then, a lifetime trap under sessions); the
// scratch is now owned per bounder instance. Interleaved scans must equal
// fresh isolated scans bit for bit.
TEST(TriScratchTest, InterleavedBoundersDoNotShareScratch) {
  PartialDistanceGraph a(8);
  PartialDistanceGraph b(8);
  for (ObjectId u = 0; u < 8; ++u) {
    for (ObjectId v = u + 1; v < 8; ++v) {
      if ((u + v) % 3 != 0) a.Insert(u, v, EdgeWeight(u, v));
      if ((u + v) % 2 != 0) b.Insert(u, v, 2.0 * EdgeWeight(u, v));
    }
  }
  TriBounder bounder_a(&a);
  TriBounder bounder_b(&b);
  for (ObjectId u = 0; u < 8; ++u) {
    for (ObjectId v = u + 1; v < 8; ++v) {
      const Interval ia = bounder_a.Bounds(u, v);
      const Interval ib = bounder_b.Bounds(u, v);  // interleaved on purpose
      TriBounder fresh_a(&a);
      TriBounder fresh_b(&b);
      const Interval ra = fresh_a.Bounds(u, v);
      const Interval rb = fresh_b.Bounds(u, v);
      EXPECT_EQ(ia.lo, ra.lo);
      EXPECT_EQ(ia.hi, ra.hi);
      EXPECT_EQ(ib.lo, rb.lo);
      EXPECT_EQ(ib.hi, rb.hi);
    }
  }
}

// And from MANY threads: one TriBounder per thread over a shared immutable
// graph, scanning concurrently while the dispatch tier flips. TSan-clean
// only with per-instance scratch and the atomic tier.
TEST(TriScratchTest, ConcurrentPerSessionBoundersAreRaceFree) {
  const simd::Tier original = simd::ActiveTier();
  const ObjectId n = 24;
  PartialDistanceGraph graph(n);
  for (ObjectId u = 0; u < n; ++u) {
    for (ObjectId v = u + 1; v < n; ++v) {
      if ((u * 7 + v) % 5 != 0) graph.Insert(u, v, EdgeWeight(u, v));
    }
  }
  // Reference intervals computed single-threaded.
  std::vector<Interval> want;
  {
    TriBounder bounder(&graph);
    for (ObjectId u = 0; u < n; ++u) {
      for (ObjectId v = u + 1; v < n; ++v) {
        want.push_back(bounder.Bounds(u, v));
      }
    }
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      TriBounder bounder(&graph);
      size_t k = 0;
      for (ObjectId u = 0; u < n; ++u) {
        for (ObjectId v = u + 1; v < n; ++v, ++k) {
          const Interval got = bounder.Bounds(u, v);
          ASSERT_EQ(got.lo, want[k].lo);
          ASSERT_EQ(got.hi, want[k].hi);
        }
      }
    });
  }
  std::thread flipper([&] {
    for (int flip = 0; flip < 100; ++flip) {
      simd::SetTier(simd::kAllTiers[flip % 3]);
    }
  });
  for (std::thread& t : threads) t.join();
  flipper.join();
  simd::SetTier(original);
}

}  // namespace
}  // namespace metricprox
