#include "algo/search.h"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "algo/reference.h"
#include "bounds/scheme.h"
#include "data/synthetic.h"
#include "oracle/string_oracle.h"
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

struct KnnHeapLess {
  bool operator()(const KnnNeighbor& a, const KnnNeighbor& b) const {
    if (a.distance != b.distance) return a.distance < b.distance;
    return a.id < b.id;
  }
};

// Every candidate of `query`, bounded pair by pair and fully sorted by
// (lower bound, id).
std::vector<ObjectId> SortedCandidates(BoundedResolver* resolver,
                                       ObjectId query) {
  std::vector<std::pair<double, ObjectId>> order;
  for (ObjectId v = 0; v < resolver->num_objects(); ++v) {
    if (v != query) order.emplace_back(resolver->Bounds(query, v).lo, v);
  }
  std::sort(order.begin(), order.end());
  std::vector<ObjectId> ids;
  for (const auto& [lower_bound, v] : order) ids.push_back(v);
  return ids;
}

// Admits (d, v) into the k-nearest heap under the (distance, id) rule.
void Admit(std::vector<KnnNeighbor>* best, ObjectId v, double d) {
  const KnnNeighbor& top = best->front();
  if (d < top.distance || (d == top.distance && v < top.id)) {
    std::pop_heap(best->begin(), best->end(), KnnHeapLess());
    best->back() = KnnNeighbor{v, d};
    std::push_heap(best->begin(), best->end(), KnnHeapLess());
  }
}

std::vector<KnnNeighbor> Sorted(std::vector<KnnNeighbor> best) {
  std::sort_heap(best.begin(), best.end(), KnnHeapLess());
  return best;
}

// The sequential algorithm KnnSearch must equal: no early stop, no batch.
// The first k candidates are resolved one by one; every later one is
// triaged through ProvenGreaterThan against the k-th distance as it stands
// after the previous admit, then resolved and admitted.
std::vector<KnnNeighbor> FullTriageKnnSearch(BoundedResolver* resolver,
                                             ObjectId query, uint32_t k) {
  const std::vector<ObjectId> candidates = SortedCandidates(resolver, query);
  std::vector<KnnNeighbor> best;
  for (size_t c = 0; c < k; ++c) {
    best.push_back(KnnNeighbor{candidates[c],
                               resolver->Distance(query, candidates[c])});
  }
  std::make_heap(best.begin(), best.end(), KnnHeapLess());
  for (size_t c = k; c < candidates.size(); ++c) {
    const ObjectId v = candidates[c];
    if (resolver->ProvenGreaterThan(query, v, best.front().distance)) {
      continue;
    }
    Admit(&best, v, resolver->Distance(query, v));
  }
  return Sorted(std::move(best));
}

// The fixed-chunk loop KnnSearch once ran: 32 candidates triaged against a
// k-th distance frozen for the chunk, the survivors resolved in one batch.
// Exact, but it resolves candidates the sequential algorithm proves
// farther; it stays as the witness that KnnSearch spends no more calls.
std::vector<KnnNeighbor> ChunkedKnnSearch(BoundedResolver* resolver,
                                          ObjectId query, uint32_t k) {
  constexpr size_t kChunk = 32;
  const std::vector<ObjectId> candidates = SortedCandidates(resolver, query);
  std::vector<IdPair> batch;
  for (size_t c = 0; c < k; ++c) batch.push_back(IdPair{query, candidates[c]});
  resolver->ResolveAll(batch);
  std::vector<KnnNeighbor> best;
  for (const IdPair& p : batch) {
    best.push_back(KnnNeighbor{p.j, resolver->Distance(query, p.j)});
  }
  std::make_heap(best.begin(), best.end(), KnnHeapLess());
  for (size_t begin = k; begin < candidates.size(); begin += kChunk) {
    const size_t end = std::min(candidates.size(), begin + kChunk);
    const double t = best.front().distance;
    batch.clear();
    for (size_t c = begin; c < end; ++c) {
      if (!resolver->ProvenGreaterThan(query, candidates[c], t)) {
        batch.push_back(IdPair{query, candidates[c]});
      }
    }
    resolver->ResolveAll(batch);
    for (const IdPair& p : batch) {
      Admit(&best, p.j, resolver->Distance(query, p.j));
    }
  }
  return Sorted(std::move(best));
}

// The metric families the kNN contract runs over: the three random ones,
// plus edit distance, whose integer distances put exact ties on the
// k-th distance and on KnnSearch's candidate horizon.
constexpr int kKnnFamilies = 4;

const char* KnnFamilyName(int family) {
  return family < 3 ? MetricFamilyName(kAllMetricFamilies[family])
                    : "edit-distance";
}

ResolverStack MakeKnnFamilyStack(int family, ObjectId n, uint64_t seed) {
  if (family < 3) return MakeFamilyStack(kAllMetricFamilies[family], n, seed);
  ResolverStack stack;
  stack.oracle = std::make_unique<LevenshteinOracle>(DnaFamilyStrings(
      n, 24, /*num_families=*/4, /*mutations=*/3, seed));
  stack.graph = std::make_unique<PartialDistanceGraph>(n);
  stack.resolver =
      std::make_unique<BoundedResolver>(stack.oracle.get(), stack.graph.get());
  return stack;
}

// KnnSearch is the sequential algorithm: over a whole k-NN graph, on both
// transports, its output and oracle_calls are the full sequential
// triage's, query by query, while the early stop and the candidate horizon
// drop only comparisons. It never spends more calls than the fixed-chunk
// loop, and under Tri strictly fewer.
TEST_P(KnnSearchSchemeTest, LazyTriageMatchesFullTriage) {
  const ObjectId n = 64;
  const uint32_t k = 4;
  uint64_t lazy_comparisons = 0;
  uint64_t full_comparisons = 0;
  uint64_t lazy_calls = 0;
  uint64_t chunked_calls = 0;
  for (int family = 0; family < kKnnFamilies; ++family) {
    const std::string name = KnnFamilyName(family);
    for (const bool batch : {true, false}) {
      ResolverStack lazy = MakeKnnFamilyStack(family, n, 95);
      ResolverStack full = MakeKnnFamilyStack(family, n, 95);
      ResolverStack chunked = MakeKnnFamilyStack(family, n, 95);
      SchemeOptions options;
      auto lazy_bounder =
          MakeAndAttachScheme(GetParam(), lazy.resolver.get(), options);
      auto full_bounder =
          MakeAndAttachScheme(GetParam(), full.resolver.get(), options);
      auto chunked_bounder =
          MakeAndAttachScheme(GetParam(), chunked.resolver.get(), options);
      ASSERT_TRUE(lazy_bounder.ok() && full_bounder.ok() &&
                  chunked_bounder.ok());
      lazy.resolver->SetBatchTransport(batch);
      full.resolver->SetBatchTransport(batch);
      chunked.resolver->SetBatchTransport(batch);
      const uint64_t lazy_before = lazy.resolver->stats().comparisons;
      const uint64_t full_before = full.resolver->stats().comparisons;
      const uint64_t lazy_calls_before = lazy.resolver->stats().oracle_calls;
      const uint64_t chunked_calls_before =
          chunked.resolver->stats().oracle_calls;
      for (ObjectId q = 0; q < n; ++q) {
        const std::vector<KnnNeighbor> got =
            KnnSearch(lazy.resolver.get(), q, k);
        ASSERT_EQ(got, FullTriageKnnSearch(full.resolver.get(), q, k))
            << SchemeKindName(GetParam()) << " " << name
            << " batch=" << batch << " q=" << q;
        ASSERT_EQ(lazy.resolver->stats().oracle_calls,
                  full.resolver->stats().oracle_calls)
            << SchemeKindName(GetParam()) << " " << name
            << " batch=" << batch << " q=" << q;
        ASSERT_EQ(got, ChunkedKnnSearch(chunked.resolver.get(), q, k))
            << SchemeKindName(GetParam()) << " " << name
            << " batch=" << batch << " q=" << q;
      }
      const uint64_t lazy_count =
          lazy.resolver->stats().comparisons - lazy_before;
      const uint64_t full_count =
          full.resolver->stats().comparisons - full_before;
      EXPECT_LE(lazy_count, full_count)
          << SchemeKindName(GetParam()) << " " << name << " batch=" << batch;
      lazy_comparisons += lazy_count;
      full_comparisons += full_count;
      const uint64_t lazy_spent =
          lazy.resolver->stats().oracle_calls - lazy_calls_before;
      const uint64_t chunked_spent =
          chunked.resolver->stats().oracle_calls - chunked_calls_before;
      EXPECT_LE(lazy_spent, chunked_spent)
          << SchemeKindName(GetParam()) << " " << name << " batch=" << batch;
      lazy_calls += lazy_spent;
      chunked_calls += chunked_spent;
    }
  }
  // The early stop fires: some triage comparisons are never made.
  EXPECT_LT(lazy_comparisons, full_comparisons) << SchemeKindName(GetParam());
  if (GetParam() == SchemeKind::kTri) {
    EXPECT_LT(lazy_calls, chunked_calls);
  }
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
