#include "algo/search.h"

#include <algorithm>
#include <queue>
#include <vector>

#include <gtest/gtest.h>

#include "algo/reference.h"
#include "bounds/scheme.h"
#include "tests/test_util.h"

namespace metricprox {
namespace {

using testing_util::kAllMetricFamilies;
using testing_util::MakeFamilyStack;
using testing_util::MakeRandomStack;
using testing_util::MetricFamily;
using testing_util::MetricFamilyName;
using testing_util::ResolverStack;

TEST(KnnSearchTest, MatchesReferenceGraphRow) {
  const ObjectId n = 24;
  ResolverStack stack = MakeRandomStack(n, 81);
  const KnnGraph expected = ReferenceKnnGraph(stack.oracle.get(), 4);
  for (ObjectId q = 0; q < n; ++q) {
    ASSERT_EQ(KnnSearch(stack.resolver.get(), q, 4), expected[q]);
  }
}

class KnnSearchSchemeTest : public ::testing::TestWithParam<SchemeKind> {};

TEST_P(KnnSearchSchemeTest, SchemeIndependentResult) {
  const ObjectId n = 20;
  ResolverStack stack = MakeRandomStack(n, 82);
  const KnnGraph expected = ReferenceKnnGraph(stack.oracle.get(), 3);

  ResolverStack plugged = MakeRandomStack(n, 82);
  SchemeOptions options;
  auto bounder = MakeAndAttachScheme(GetParam(), plugged.resolver.get(), options);
  ASSERT_TRUE(bounder.ok());
  for (ObjectId q = 0; q < n; ++q) {
    ASSERT_EQ(KnnSearch(plugged.resolver.get(), q, 3), expected[q])
        << SchemeKindName(GetParam()) << " query " << q;
  }
}

// Reference triage for KnnSearch's lazy one: every candidate bounded pair
// by pair and fully sorted up front, and every one past the seed triaged
// through ProvenGreaterThan.
std::vector<KnnNeighbor> FullTriageKnnSearch(BoundedResolver* resolver,
                                             ObjectId query, uint32_t k) {
  struct Candidate {
    double lower_bound;
    ObjectId id;
  };
  const ObjectId n = resolver->num_objects();
  std::vector<Candidate> candidates;
  for (ObjectId v = 0; v < n; ++v) {
    if (v == query) continue;
    candidates.push_back(Candidate{resolver->Bounds(query, v).lo, v});
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.lower_bound != b.lower_bound) {
                return a.lower_bound < b.lower_bound;
              }
              return a.id < b.id;
            });
  const auto heap_less = [](const KnnNeighbor& a, const KnnNeighbor& b) {
    if (a.distance != b.distance) return a.distance < b.distance;
    return a.id < b.id;
  };
  std::priority_queue<KnnNeighbor, std::vector<KnnNeighbor>,
                      decltype(heap_less)>
      best(heap_less);
  std::vector<IdPair> batch;
  for (size_t c = 0; c < k; ++c) {
    batch.push_back(IdPair{query, candidates[c].id});
  }
  resolver->ResolveAll(batch);
  for (size_t c = 0; c < k; ++c) {
    const ObjectId v = candidates[c].id;
    best.push(KnnNeighbor{v, resolver->Distance(query, v)});
  }
  constexpr size_t kChunk = 32;
  std::vector<ObjectId> survivors;
  for (size_t begin = k; begin < candidates.size(); begin += kChunk) {
    const size_t end = std::min(candidates.size(), begin + kChunk);
    const double t = best.top().distance;
    batch.clear();
    survivors.clear();
    for (size_t c = begin; c < end; ++c) {
      const ObjectId v = candidates[c].id;
      if (resolver->ProvenGreaterThan(query, v, t)) continue;
      batch.push_back(IdPair{query, v});
      survivors.push_back(v);
    }
    resolver->ResolveAll(batch);
    for (const ObjectId v : survivors) {
      const double d = resolver->Distance(query, v);
      const double top = best.top().distance;
      const ObjectId tid = best.top().id;
      if (d < top || (d == top && v < tid)) {
        best.pop();
        best.push(KnnNeighbor{v, d});
      }
    }
  }
  std::vector<KnnNeighbor> out(best.size());
  for (size_t i = best.size(); i-- > 0;) {
    out[i] = best.top();
    best.pop();
  }
  return out;
}

// Stopping at the first candidate whose ordering lower bound clears the
// threshold drops only comparisons: over a whole k-NN graph, on both
// transports, the survivors — hence the output and oracle_calls — are the
// full triage's, query by query.
TEST_P(KnnSearchSchemeTest, LazyTriageMatchesFullTriage) {
  const ObjectId n = 64;
  const uint32_t k = 4;
  uint64_t lazy_comparisons = 0;
  uint64_t full_comparisons = 0;
  for (const MetricFamily family : kAllMetricFamilies) {
    for (const bool batch : {true, false}) {
      ResolverStack lazy = MakeFamilyStack(family, n, 95);
      ResolverStack full = MakeFamilyStack(family, n, 95);
      SchemeOptions options;
      auto lazy_bounder =
          MakeAndAttachScheme(GetParam(), lazy.resolver.get(), options);
      auto full_bounder =
          MakeAndAttachScheme(GetParam(), full.resolver.get(), options);
      ASSERT_TRUE(lazy_bounder.ok() && full_bounder.ok());
      lazy.resolver->SetBatchTransport(batch);
      full.resolver->SetBatchTransport(batch);
      const uint64_t lazy_before = lazy.resolver->stats().comparisons;
      const uint64_t full_before = full.resolver->stats().comparisons;
      for (ObjectId q = 0; q < n; ++q) {
        ASSERT_EQ(KnnSearch(lazy.resolver.get(), q, k),
                  FullTriageKnnSearch(full.resolver.get(), q, k))
            << SchemeKindName(GetParam()) << " "
            << MetricFamilyName(family) << " batch=" << batch << " q=" << q;
        ASSERT_EQ(lazy.resolver->stats().oracle_calls,
                  full.resolver->stats().oracle_calls)
            << SchemeKindName(GetParam()) << " "
            << MetricFamilyName(family) << " batch=" << batch << " q=" << q;
      }
      const uint64_t lazy_count =
          lazy.resolver->stats().comparisons - lazy_before;
      const uint64_t full_count =
          full.resolver->stats().comparisons - full_before;
      EXPECT_LE(lazy_count, full_count)
          << SchemeKindName(GetParam()) << " " << MetricFamilyName(family)
          << " batch=" << batch;
      lazy_comparisons += lazy_count;
      full_comparisons += full_count;
    }
  }
  // The early stop fires: some triage comparisons are never made.
  EXPECT_LT(lazy_comparisons, full_comparisons) << SchemeKindName(GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, KnnSearchSchemeTest,
                         ::testing::Values(SchemeKind::kTri,
                                           SchemeKind::kSplub,
                                           SchemeKind::kLaesa,
                                           SchemeKind::kTlaesa,
                                           SchemeKind::kHybrid,
                                           SchemeKind::kNone));

TEST(RangeSearchTest, MatchesBruteForce) {
  const ObjectId n = 26;
  ResolverStack stack = MakeRandomStack(n, 83);
  for (const double radius : {0.0, 0.3, 0.6, 0.9, 1.5}) {
    for (ObjectId q = 0; q < n; q += 5) {
      const auto hits = RangeSearch(stack.resolver.get(), q, radius);
      std::vector<KnnNeighbor> brute;
      for (ObjectId v = 0; v < n; ++v) {
        if (v == q) continue;
        const double d = stack.oracle->Distance(q, v);
        if (d <= radius) brute.push_back(KnnNeighbor{v, d});
      }
      std::sort(brute.begin(), brute.end(),
                [](const KnnNeighbor& a, const KnnNeighbor& b) {
                  if (a.distance != b.distance) return a.distance < b.distance;
                  return a.id < b.id;
                });
      ASSERT_EQ(hits, brute) << "q=" << q << " radius=" << radius;
    }
  }
}

TEST(RangeSearchTest, SchemeSavesCallsOnTightRadius) {
  const ObjectId n = 40;
  ResolverStack vanilla = MakeRandomStack(n, 84);
  RangeSearch(vanilla.resolver.get(), 0, 0.2);
  const uint64_t baseline = vanilla.resolver->stats().oracle_calls;

  ResolverStack plugged = MakeRandomStack(n, 84);
  BootstrapWithLandmarks(plugged.resolver.get(), 5, 1);
  SchemeOptions options;
  auto bounder =
      MakeAndAttachScheme(SchemeKind::kTri, plugged.resolver.get(), options);
  ASSERT_TRUE(bounder.ok());
  const uint64_t before = plugged.resolver->stats().oracle_calls;
  RangeSearch(plugged.resolver.get(), 0, 0.2);
  const uint64_t query_calls = plugged.resolver->stats().oracle_calls - before;
  // The query itself must resolve fewer pairs than the unpruned scan.
  EXPECT_LT(query_calls, baseline);
}

TEST(ApproximateDiameterTest, AtLeastHalfTheTrueDiameter) {
  for (uint64_t seed : {85ull, 86ull, 87ull}) {
    const ObjectId n = 30;
    ResolverStack stack = MakeRandomStack(n, seed);
    const DiameterEstimate est = ApproximateDiameter(stack.resolver.get());
    double diameter = 0.0;
    for (ObjectId i = 0; i < n; ++i) {
      for (ObjectId j = i + 1; j < n; ++j) {
        diameter = std::max(diameter, stack.oracle->Distance(i, j));
      }
    }
    EXPECT_DOUBLE_EQ(stack.oracle->Distance(est.u, est.v), est.distance);
    EXPECT_GE(est.distance, diameter / 2.0 - 1e-12);
    EXPECT_LE(est.distance, diameter + 1e-12);
  }
}

TEST(ApproximateDiameterTest, SchemeIndependentResult) {
  const ObjectId n = 26;
  ResolverStack vanilla = MakeRandomStack(n, 88);
  const DiameterEstimate expected = ApproximateDiameter(vanilla.resolver.get());

  ResolverStack plugged = MakeRandomStack(n, 88);
  SchemeOptions options;
  auto bounder =
      MakeAndAttachScheme(SchemeKind::kTri, plugged.resolver.get(), options);
  ASSERT_TRUE(bounder.ok());
  const DiameterEstimate got = ApproximateDiameter(plugged.resolver.get());
  EXPECT_EQ(got.u, expected.u);
  EXPECT_EQ(got.v, expected.v);
  EXPECT_DOUBLE_EQ(got.distance, expected.distance);
}

TEST(ClosestPairTest, MatchesBruteForce) {
  for (uint64_t seed : {90ull, 91ull, 92ull}) {
    const ObjectId n = 30;
    ResolverStack stack = MakeRandomStack(n, seed);
    const WeightedEdge got = ClosestPair(stack.resolver.get());
    WeightedEdge brute{kInvalidObject, kInvalidObject, kInfDistance};
    for (ObjectId u = 0; u < n; ++u) {
      for (ObjectId v = u + 1; v < n; ++v) {
        const double d = stack.oracle->Distance(u, v);
        if (d < brute.weight) brute = WeightedEdge{u, v, d};
      }
    }
    EXPECT_EQ(got.u, brute.u) << "seed " << seed;
    EXPECT_EQ(got.v, brute.v) << "seed " << seed;
    EXPECT_DOUBLE_EQ(got.weight, brute.weight);
  }
}

TEST(ClosestPairTest, SchemeIndependentAndSaves) {
  const ObjectId n = 64;
  ResolverStack vanilla = MakeRandomStack(n, 93);
  const WeightedEdge expected = ClosestPair(vanilla.resolver.get());
  const uint64_t baseline = vanilla.resolver->stats().oracle_calls;

  ResolverStack plugged = MakeRandomStack(n, 93);
  BootstrapWithLandmarks(plugged.resolver.get(), 6, 1);
  SchemeOptions options;
  auto bounder =
      MakeAndAttachScheme(SchemeKind::kTri, plugged.resolver.get(), options);
  ASSERT_TRUE(bounder.ok());
  const WeightedEdge got = ClosestPair(plugged.resolver.get());
  EXPECT_EQ(got.u, expected.u);
  EXPECT_EQ(got.v, expected.v);
  EXPECT_DOUBLE_EQ(got.weight, expected.weight);
  EXPECT_LT(plugged.resolver->stats().oracle_calls, baseline);
}

TEST(KnnSearchTest, InvalidArgumentsDie) {
  ResolverStack stack = MakeRandomStack(6, 89);
  EXPECT_DEATH(KnnSearch(stack.resolver.get(), 0, 6), "Check");
  EXPECT_DEATH(RangeSearch(stack.resolver.get(), 0, -1.0), "Check");
}

}  // namespace
}  // namespace metricprox
