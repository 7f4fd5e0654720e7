#include <bit>
#include <cmath>
#include <memory>
#include <numeric>
#include <random>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "bounds/adm.h"
#include "bounds/adm_classic.h"
#include "bounds/hybrid.h"
#include "bounds/laesa.h"
#include "bounds/pivots.h"
#include "bounds/scheme.h"
#include "bounds/splub.h"
#include "bounds/tlaesa.h"
#include "bounds/tri.h"
#include "core/bounder.h"
#include "tests/test_util.h"

namespace metricprox {
namespace {

using testing_util::MakeRandomStack;
using testing_util::ReferenceBounds;
using testing_util::ResolveRandomPairs;
using testing_util::ResolverStack;

TEST(TriBounderTest, PaperRunningExampleEdge14) {
  // With dist(1,3) = 0.8 and dist(3,4) = 0.1 known, object 3 is the only
  // common neighbor of (1, 4): bounds are [0.7, 0.9] (Section 3.1).
  PartialDistanceGraph graph(7);
  graph.Insert(1, 3, 0.8);
  graph.Insert(3, 4, 0.1);
  TriBounder tri(&graph);
  const Interval b = tri.Bounds(1, 4);
  EXPECT_NEAR(b.lo, 0.7, 1e-12);
  EXPECT_NEAR(b.hi, 0.9, 1e-12);
}

TEST(TriBounderTest, NoCommonNeighborGivesUnboundedInterval) {
  PartialDistanceGraph graph(5);
  graph.Insert(0, 1, 0.2);
  graph.Insert(2, 3, 0.2);
  TriBounder tri(&graph);
  const Interval b = tri.Bounds(0, 3);
  EXPECT_DOUBLE_EQ(b.lo, 0.0);
  EXPECT_EQ(b.hi, kInfDistance);
}

TEST(TriBounderTest, PicksBestTriangleAmongSeveral) {
  PartialDistanceGraph graph(5);
  // Two triangles over (0, 1): via 2 -> [0.1, 0.9]; via 3 -> [0.3, 0.7].
  graph.Insert(0, 2, 0.5);
  graph.Insert(1, 2, 0.4);
  graph.Insert(0, 3, 0.5);
  graph.Insert(1, 3, 0.2);
  TriBounder tri(&graph);
  const Interval b = tri.Bounds(0, 1);
  EXPECT_NEAR(b.lo, 0.3, 1e-12);
  EXPECT_NEAR(b.hi, 0.7, 1e-12);
}

TEST(SplubBounderTest, UpperBoundIsShortestPathNotJustTriangle) {
  PartialDistanceGraph graph(4);
  // Path 0-2-3-1 of length 0.3 upper-bounds (0,1); Tri sees no triangle.
  graph.Insert(0, 2, 0.1);
  graph.Insert(2, 3, 0.1);
  graph.Insert(3, 1, 0.1);
  SplubBounder splub(&graph);
  EXPECT_NEAR(splub.Bounds(0, 1).hi, 0.3, 1e-12);
  TriBounder tri(&graph);
  EXPECT_EQ(tri.Bounds(0, 1).hi, kInfDistance);
}

TEST(SplubBounderTest, LowerBoundWrapsLongEdgeOverPaths) {
  PartialDistanceGraph graph(5);
  // Long known edge (0, 1) = 0.9; short hops 0-2 (0.1) and 1-3 (0.1).
  // Wrap: dist(2,3) >= 0.9 - 0.1 - 0.1 = 0.7 (paper Figure 2 geometry).
  graph.Insert(0, 1, 0.9);
  graph.Insert(0, 2, 0.1);
  graph.Insert(1, 3, 0.1);
  SplubBounder splub(&graph);
  EXPECT_NEAR(splub.Bounds(2, 3).lo, 0.7, 1e-12);
}

TEST(SplubBounderTest, BulkInsertEdgesInvalidatesMemoizedSourceRow) {
  PartialDistanceGraph graph(5);
  graph.Insert(0, 2, 0.4);
  graph.Insert(2, 1, 0.4);
  SplubBounder splub(&graph);
  // Warm the memoized source row for source 0: sp(0, 1) = 0.8 via 0-2-1.
  EXPECT_NEAR(splub.Bounds(0, 1).hi, 0.8, 1e-12);
  // Bulk-insert a 0-3-1 shortcut of length 0.2 through InsertEdges — the
  // batch pipeline's path, which bumps num_edges without touching the
  // bounder. The (source, num_edges) memo key must treat that as stale;
  // a bounder that kept the old row would report 0.8 and over-bound.
  const std::vector<ResolvedEdge> shortcut = {ResolvedEdge{0, 3, 0.1},
                                              ResolvedEdge{3, 1, 0.1}};
  graph.InsertEdges(shortcut);
  const Interval after = splub.Bounds(0, 1);
  EXPECT_NEAR(after.hi, 0.2, 1e-12);
  // And the recomputed row is bit-identical to a cold solve.
  SplubBounder fresh(&graph);
  const Interval reference = fresh.Bounds(0, 1);
  EXPECT_EQ(after.lo, reference.lo);
  EXPECT_EQ(after.hi, reference.hi);
}

// ---- Cross-scheme properties on random metric instances ----

struct SchemeCase {
  SchemeKind kind;
  // Bounds must be exactly the tightest (SPLUB/ADM) vs merely valid.
  bool tightest;
};

class BounderPropertyTest
    : public ::testing::TestWithParam<std::tuple<SchemeKind, uint64_t>> {};

TEST_P(BounderPropertyTest, BoundsAlwaysContainTrueDistance) {
  const auto [kind, seed] = GetParam();
  const ObjectId n = 24;
  ResolverStack stack = MakeRandomStack(n, seed);
  SchemeOptions options;
  options.seed = seed;
  auto bounder = MakeAndAttachScheme(kind, stack.resolver.get(), options);
  ASSERT_TRUE(bounder.ok()) << bounder.status();
  ResolveRandomPairs(stack.resolver.get(), 60, seed + 1);

  for (ObjectId i = 0; i < n; ++i) {
    for (ObjectId j = i + 1; j < n; ++j) {
      const double truth = stack.oracle->Distance(i, j);
      const Interval b = stack.resolver->Bounds(i, j);
      ASSERT_LE(b.lo, truth + 1e-9)
          << SchemeKindName(kind) << " lb broken at (" << i << "," << j << ")";
      ASSERT_GE(b.hi, truth - 1e-9)
          << SchemeKindName(kind) << " ub broken at (" << i << "," << j << ")";
    }
  }
}

// The one-to-many verb is the per-pair loop, bit for bit, over a row
// indexed by object id: through the resolver, every target's entry matches
// Bounds() and every other entry keeps its sentinel. The rows are the full
// one, an ascending subset with repeats (BUILD 2..k's shape) and, for every
// q, an unordered one holding q itself and q's cached pairs, each twice.
// bound_queries advances by one per unresolved occurrence, as the per-pair
// loop's does.
TEST_P(BounderPropertyTest, BoundsFromMatchesPerPairBounds) {
  const auto [kind, seed] = GetParam();
  const ObjectId n = 24;
  ResolverStack stack = MakeRandomStack(n, seed);
  SchemeOptions options;
  options.seed = seed;
  auto bounder = MakeAndAttachScheme(kind, stack.resolver.get(), options);
  ASSERT_TRUE(bounder.ok()) << bounder.status();
  ResolveRandomPairs(stack.resolver.get(), 60, seed + 1);

  std::vector<ObjectId> everyone(n);
  std::iota(everyone.begin(), everyone.end(), ObjectId{0});
  const std::vector<ObjectId> ascending = {0, 1, 1, 12, 17, 17, 23};
  const Interval sentinel = Interval::Exact(-1.0);
  const auto bits_equal = [](const Interval& a, const Interval& b) {
    return std::bit_cast<uint64_t>(a.lo) == std::bit_cast<uint64_t>(b.lo) &&
           std::bit_cast<uint64_t>(a.hi) == std::bit_cast<uint64_t>(b.hi);
  };
  const ResolverStats& stats = stack.resolver->stats();
  size_t cached_targets = 0;
  for (ObjectId q = 0; q < n; ++q) {
    // q's cached pairs ascend, so the merge answers them; the descent to 0
    // at the latest hands their repeats to the lookups.
    const std::span<const ObjectId> cached = stack.graph->AdjacencyView(q).ids;
    std::vector<ObjectId> unordered(cached.begin(), cached.end());
    for (const ObjectId v : {q, n - 1, ObjectId{0}, ObjectId{12}, q}) {
      unordered.push_back(v);
    }
    unordered.insert(unordered.end(), cached.begin(), cached.end());
    unordered.push_back(5);
    cached_targets += 2 * cached.size();
    const std::vector<ObjectId>* const rows[] = {&everyone, &ascending,
                                                 &unordered};
    for (const std::vector<ObjectId>* targets : rows) {
      std::vector<bool> in_targets(n, false);
      size_t unresolved = 0;
      for (const ObjectId v : *targets) {
        in_targets[v] = true;
        if (!stack.resolver->Known(q, v)) ++unresolved;
      }
      const uint64_t before = stats.bound_queries;
      std::vector<Interval> want(n);
      for (const ObjectId v : *targets) want[v] = stack.resolver->Bounds(q, v);
      const uint64_t per_pair = stats.bound_queries - before;
      EXPECT_EQ(per_pair, unresolved);
      std::vector<Interval> row(n, sentinel);
      stack.resolver->BoundsFrom(q, *targets, row);
      EXPECT_EQ(stats.bound_queries - before - per_pair, unresolved)
          << SchemeKindName(kind) << " q=" << q;
      for (ObjectId v = 0; v < n; ++v) {
        EXPECT_TRUE(bits_equal(row[v], in_targets[v] ? want[v] : sentinel))
            << SchemeKindName(kind) << " (" << q << "," << v
            << ") in targets=" << in_targets[v] << ": [" << row[v].lo << ", "
            << row[v].hi << "]";
      }
    }
  }
  EXPECT_GT(cached_targets, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, BounderPropertyTest,
    ::testing::Combine(::testing::Values(SchemeKind::kTri, SchemeKind::kSplub,
                                         SchemeKind::kAdm,
                                         SchemeKind::kAdmClassic,
                                         SchemeKind::kLaesa,
                                         SchemeKind::kTlaesa,
                                         SchemeKind::kHybrid,
                                         SchemeKind::kNone),
                       ::testing::Values(1001, 2002, 3003)));

class TightestBoundsTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TightestBoundsTest, SplubMatchesIndependentReference) {
  const ObjectId n = 20;
  ResolverStack stack = MakeRandomStack(n, GetParam());
  ResolveRandomPairs(stack.resolver.get(), 50, GetParam() + 5);
  SplubBounder splub(stack.graph.get());
  ReferenceBounds reference(*stack.graph);
  for (ObjectId i = 0; i < n; ++i) {
    for (ObjectId j = i + 1; j < n; ++j) {
      if (stack.graph->Has(i, j)) continue;
      const Interval b = splub.Bounds(i, j);
      if (reference.Tub(i, j) == kInfDistance) {
        EXPECT_EQ(b.hi, kInfDistance);
      } else {
        EXPECT_NEAR(b.hi, reference.Tub(i, j), 1e-12);
      }
      EXPECT_NEAR(b.lo, reference.Tlb(*stack.graph, i, j), 1e-12);
    }
  }
}

TEST_P(TightestBoundsTest, AdmProducesExactlySplubBounds) {
  // Paper Section 5.2(2): SPLUB produces *the exact* bounds as ADM.
  const ObjectId n = 20;
  ResolverStack stack = MakeRandomStack(n, GetParam() + 100);
  AdmBounder adm(stack.graph.get());
  stack.resolver->SetBounder(&adm);
  ResolveRandomPairs(stack.resolver.get(), 60, GetParam() + 6);
  SplubBounder splub(stack.graph.get());
  for (ObjectId i = 0; i < n; ++i) {
    for (ObjectId j = i + 1; j < n; ++j) {
      if (stack.graph->Has(i, j)) continue;
      const Interval a = adm.Bounds(i, j);
      const Interval s = splub.Bounds(i, j);
      if (s.hi == kInfDistance) {
        EXPECT_EQ(a.hi, kInfDistance);
      } else {
        ASSERT_NEAR(a.hi, s.hi, 1e-9) << "(" << i << "," << j << ")";
      }
      ASSERT_NEAR(a.lo, s.lo, 1e-9) << "(" << i << "," << j << ")";
    }
  }
}

TEST_P(TightestBoundsTest, TriIsNeverTighterThanSplub) {
  const ObjectId n = 20;
  ResolverStack stack = MakeRandomStack(n, GetParam() + 200);
  ResolveRandomPairs(stack.resolver.get(), 70, GetParam() + 7);
  TriBounder tri(stack.graph.get());
  SplubBounder splub(stack.graph.get());
  for (ObjectId i = 0; i < n; ++i) {
    for (ObjectId j = i + 1; j < n; ++j) {
      if (stack.graph->Has(i, j)) continue;
      const Interval t = tri.Bounds(i, j);
      const Interval s = splub.Bounds(i, j);
      ASSERT_LE(t.lo, s.lo + 1e-12);
      ASSERT_GE(t.hi, s.hi - 1e-12);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TightestBoundsTest,
                         ::testing::Values(31, 62, 93));

TEST(AdmBounderTest, FoldsEdgesResolvedBeforeAttachment) {
  ResolverStack stack = MakeRandomStack(10, 404);
  // Resolve some edges with no bounder attached, then attach ADM: its
  // constructor must fold the existing graph in.
  ResolveRandomPairs(stack.resolver.get(), 12, 3);
  AdmBounder adm(stack.graph.get());
  SplubBounder splub(stack.graph.get());
  for (ObjectId i = 0; i < 10; ++i) {
    for (ObjectId j = i + 1; j < 10; ++j) {
      if (stack.graph->Has(i, j)) continue;
      const Interval a = adm.Bounds(i, j);
      const Interval s = splub.Bounds(i, j);
      if (s.hi == kInfDistance) {
        EXPECT_EQ(a.hi, kInfDistance);
      } else {
        EXPECT_NEAR(a.hi, s.hi, 1e-9);
      }
    }
  }
}

TEST(LaesaBounderTest, PivotRowsGiveClassicPivotBounds) {
  ResolverStack stack = MakeRandomStack(12, 505);
  const ResolveFn resolve = [&](ObjectId a, ObjectId b) {
    return stack.oracle->Distance(a, b);
  };
  auto laesa = LaesaBounder::Build(12, 3, resolve, 1);
  ASSERT_EQ(laesa->num_pivots(), 3u);
  const PivotTable& table = laesa->table();
  for (ObjectId i = 0; i < 12; ++i) {
    for (ObjectId j = i + 1; j < 12; ++j) {
      double lb = 0.0;
      double ub = kInfDistance;
      for (uint32_t p = 0; p < 3; ++p) {
        lb = std::max(lb, std::abs(table.At(p, i) - table.At(p, j)));
        ub = std::min(ub, table.At(p, i) + table.At(p, j));
      }
      const Interval b = laesa->Bounds(i, j);
      EXPECT_DOUBLE_EQ(b.lo, std::min(lb, ub));
      EXPECT_DOUBLE_EQ(b.hi, ub);
    }
  }
}

TEST(TlaesaBounderTest, BoundsValidAndRootPivotShared) {
  ResolverStack stack = MakeRandomStack(40, 606);
  const ResolveFn resolve = [&](ObjectId a, ObjectId b) {
    return stack.oracle->Distance(a, b);
  };
  TlaesaBounder::Options options;
  options.leaf_size = 4;
  auto tlaesa = TlaesaBounder::Build(40, options, resolve);
  EXPECT_GT(tlaesa->table_entries(), 40u);  // deeper than just the root
  for (ObjectId i = 0; i < 40; ++i) {
    for (ObjectId j = i + 1; j < 40; ++j) {
      const Interval b = tlaesa->Bounds(i, j);
      const double truth = stack.oracle->Distance(i, j);
      ASSERT_LE(b.lo, truth + 1e-9);
      ASSERT_GE(b.hi, truth - 1e-9);
      // The root representative is a common ancestor of every pair, so the
      // upper bound is always finite.
      ASSERT_LT(b.hi, kInfDistance);
    }
  }
}

TEST(AdmClassicBounderTest, NeverTighterThanQueryTimeAdm) {
  // Classic incremental LBs can go stale but must stay valid and can never
  // beat the query-time tightest bounds.
  ResolverStack stack = MakeRandomStack(18, 505);
  AdmClassicBounder classic(stack.graph.get());
  stack.resolver->SetBounder(&classic);
  ResolveRandomPairs(stack.resolver.get(), 50, 6);
  AdmBounder tight(stack.graph.get());
  for (ObjectId i = 0; i < 18; ++i) {
    for (ObjectId j = i + 1; j < 18; ++j) {
      if (stack.graph->Has(i, j)) continue;
      const Interval c = classic.Bounds(i, j);
      const Interval t = tight.Bounds(i, j);
      ASSERT_LE(c.lo, t.lo + 1e-9) << "(" << i << "," << j << ")";
      // Upper bounds are exact shortest paths in both variants.
      if (t.hi == kInfDistance) {
        ASSERT_EQ(c.hi, kInfDistance);
      } else {
        ASSERT_NEAR(c.hi, t.hi, 1e-9);
      }
    }
  }
}

TEST(AdmClassicBounderTest, KnownEdgeBecomesExact) {
  PartialDistanceGraph graph(5);
  AdmClassicBounder classic(&graph);
  graph.Insert(1, 3, 0.4);
  classic.OnEdgeResolved(1, 3, 0.4);
  const Interval b = classic.Bounds(1, 3);
  EXPECT_TRUE(b.IsExact());
  EXPECT_DOUBLE_EQ(b.lo, 0.4);
}

TEST(HybridBounderTest, IntersectionIsAtLeastAsTightAsBothParts) {
  ResolverStack stack = MakeRandomStack(20, 606);
  SchemeOptions options;
  auto hybrid =
      MakeAndAttachScheme(SchemeKind::kHybrid, stack.resolver.get(), options);
  ASSERT_TRUE(hybrid.ok()) << hybrid.status();
  EXPECT_EQ((*hybrid)->name(), "tri+laesa");
  ResolveRandomPairs(stack.resolver.get(), 40, 7);

  // Rebuild the parts over the same graph/pivot seed for comparison.
  TriBounder tri(stack.graph.get());
  const ResolveFn raw = [&](ObjectId a, ObjectId b) {
    return stack.oracle->Distance(a, b);
  };
  auto laesa = LaesaBounder::Build(20, DefaultNumLandmarks(20), raw,
                                   options.seed);
  for (ObjectId i = 0; i < 20; ++i) {
    for (ObjectId j = i + 1; j < 20; ++j) {
      if (stack.graph->Has(i, j)) continue;
      const Interval h = (*hybrid)->Bounds(i, j);
      const double truth = stack.oracle->Distance(i, j);
      ASSERT_LE(h.lo, truth + 1e-9);
      ASSERT_GE(h.hi, truth - 1e-9);
      const Interval t = tri.Bounds(i, j);
      const Interval l = laesa->Bounds(i, j);
      ASSERT_GE(h.lo + 1e-12, std::max(t.lo, l.lo));
      ASSERT_LE(h.hi - 1e-12, std::min(t.hi, l.hi));
    }
  }
}

// With LAESA pivot rows that never reached the graph, both children
// contribute; the hybrid's row is still its per-pair intersection, bit for
// bit, whichever child comes first.
TEST(HybridBounderTest, BoundsFromIntersectsBothChildren) {
  const ObjectId n = 20;
  ResolverStack stack = MakeRandomStack(n, 607);
  ResolveRandomPairs(stack.resolver.get(), 40, 8);
  const ResolveFn raw = [&](ObjectId a, ObjectId b) {
    return stack.oracle->Distance(a, b);
  };
  for (const bool tri_first : {true, false}) {
    std::unique_ptr<Bounder> tri =
        std::make_unique<TriBounder>(stack.graph.get());
    std::unique_ptr<Bounder> laesa =
        LaesaBounder::Build(n, DefaultNumLandmarks(n), raw, 1);
    HybridBounder hybrid(tri_first ? std::move(tri) : std::move(laesa),
                         tri_first ? std::move(laesa) : std::move(tri));
    for (ObjectId q = 0; q < n; ++q) {
      std::vector<ObjectId> targets;
      for (ObjectId v = 0; v < n; ++v) {
        if (v != q && !stack.graph->Has(q, v)) targets.push_back(v);
      }
      std::vector<Interval> row(n);
      hybrid.BoundsFrom(q, targets, row);
      for (const ObjectId v : targets) {
        const Interval want = hybrid.Bounds(q, v);
        EXPECT_EQ(std::bit_cast<uint64_t>(row[v].lo),
                  std::bit_cast<uint64_t>(want.lo))
            << "tri_first=" << tri_first << " (" << q << "," << v << ")";
        EXPECT_EQ(std::bit_cast<uint64_t>(row[v].hi),
                  std::bit_cast<uint64_t>(want.hi))
            << "tri_first=" << tri_first << " (" << q << "," << v << ")";
      }
    }
  }
}

TEST(NullBounderTest, AlwaysUnbounded) {
  NullBounder null;
  EXPECT_EQ(null.Bounds(0, 1), Interval::Unbounded());
  EXPECT_FALSE(null.DecideLessThan(0, 1, 0.5).has_value());
  EXPECT_FALSE(null.DecidePairLess(0, 1, 2, 3).has_value());
  // Only a clearly negative threshold is decidable from [0, inf) — a
  // threshold of exactly 0 falls inside the fp-safety margin.
  EXPECT_FALSE(null.DecideLessThan(0, 1, 0.0).has_value());
  auto decided = null.DecideLessThan(0, 1, -0.5);
  ASSERT_TRUE(decided.has_value());
  EXPECT_FALSE(*decided);
}

TEST(SchemeFactoryTest, NamesRoundTrip) {
  for (SchemeKind kind :
       {SchemeKind::kNone, SchemeKind::kTri, SchemeKind::kSplub,
        SchemeKind::kAdm, SchemeKind::kAdmClassic, SchemeKind::kLaesa,
        SchemeKind::kTlaesa, SchemeKind::kDft, SchemeKind::kHybrid}) {
    auto parsed = ParseSchemeKind(SchemeKindName(kind));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(ParseSchemeKind("bogus").ok());
}

TEST(SchemeFactoryTest, LaesaConstructionChargesResolver) {
  ResolverStack stack = MakeRandomStack(16, 707);
  SchemeOptions options;
  options.num_landmarks = 4;
  auto bounder =
      MakeAndAttachScheme(SchemeKind::kLaesa, stack.resolver.get(), options);
  ASSERT_TRUE(bounder.ok());
  // 4 pivots x up-to-15 others, minus pivot-pivot pairs resolved once.
  EXPECT_GT(stack.resolver->stats().oracle_calls, 0u);
  EXPECT_EQ(stack.resolver->stats().oracle_calls, stack.graph->num_edges());
}

TEST(BootstrapTest, ResolvesLandmarkStarIntoGraph) {
  ResolverStack stack = MakeRandomStack(20, 808);
  const uint64_t calls = BootstrapWithLandmarks(stack.resolver.get(), 3, 9);
  EXPECT_EQ(calls, stack.graph->num_edges());
  EXPECT_GT(calls, 0u);
  // Each landmark's star is fully resolved: some node must now have a
  // degree of at least n-3 (a landmark reaches all but the other pivots'
  // shared pairs).
  size_t max_degree = 0;
  for (ObjectId v = 0; v < 20; ++v) {
    max_degree = std::max(max_degree, stack.graph->Degree(v));
  }
  EXPECT_GE(max_degree, 17u);
}

}  // namespace
}  // namespace metricprox
