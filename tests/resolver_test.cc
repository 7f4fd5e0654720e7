#include "bounds/resolver.h"

#include <cmath>
#include <limits>
#include <random>

#include <gtest/gtest.h>

#include "bounds/scheme.h"
#include "bounds/tri.h"
#include "tests/test_util.h"

namespace metricprox {
namespace {

using testing_util::MakeRandomStack;
using testing_util::ResolveRandomPairs;
using testing_util::ResolverStack;

TEST(ResolverTest, DistanceResolvesOnceAndCaches) {
  ResolverStack stack = MakeRandomStack(6, 1);
  const double d = stack.resolver->Distance(0, 1);
  EXPECT_EQ(stack.resolver->stats().oracle_calls, 1u);
  EXPECT_TRUE(stack.resolver->Known(0, 1));
  EXPECT_DOUBLE_EQ(stack.resolver->Distance(1, 0), d);
  EXPECT_EQ(stack.resolver->stats().oracle_calls, 1u);  // cache hit
}

TEST(ResolverTest, SelfDistanceIsZeroWithoutOracle) {
  ResolverStack stack = MakeRandomStack(6, 2);
  EXPECT_DOUBLE_EQ(stack.resolver->Distance(3, 3), 0.0);
  EXPECT_EQ(stack.resolver->stats().oracle_calls, 0u);
  EXPECT_TRUE(stack.resolver->Known(3, 3));
  EXPECT_EQ(stack.resolver->Bounds(3, 3), Interval::Exact(0.0));
}

TEST(ResolverTest, BoundsExactForKnownPairs) {
  ResolverStack stack = MakeRandomStack(6, 3);
  const double d = stack.resolver->Distance(2, 4);
  const Interval b = stack.resolver->Bounds(2, 4);
  EXPECT_TRUE(b.IsExact());
  EXPECT_DOUBLE_EQ(b.lo, d);
}

TEST(ResolverTest, NoBounderMeansEveryComparisonHitsOracle) {
  ResolverStack stack = MakeRandomStack(8, 4);
  const double truth = stack.oracle->Distance(0, 1);
  EXPECT_EQ(stack.resolver->LessThan(0, 1, truth + 0.1), true);
  EXPECT_EQ(stack.resolver->stats().decided_by_oracle, 1u);
  EXPECT_EQ(stack.resolver->stats().oracle_calls, 1u);
  // Second identical comparison is served by the cache.
  EXPECT_EQ(stack.resolver->LessThan(0, 1, truth + 0.1), true);
  EXPECT_EQ(stack.resolver->stats().decided_by_cache, 1u);
  EXPECT_EQ(stack.resolver->stats().oracle_calls, 1u);
}

TEST(ResolverTest, TriSchemeSavesProvableComparisons) {
  ResolverStack stack = MakeRandomStack(10, 5);
  TriBounder tri(stack.graph.get());
  stack.resolver->SetBounder(&tri);
  // Resolve two sides of a triangle; the third is then bounded.
  const double d01 = stack.resolver->Distance(0, 1);
  const double d02 = stack.resolver->Distance(0, 2);
  const double ub = d01 + d02;
  // dist(1,2) <= d01 + d02, so this comparison must be decided by bounds.
  EXPECT_TRUE(stack.resolver->LessThan(1, 2, ub + 0.001));
  EXPECT_EQ(stack.resolver->stats().decided_by_bounds, 1u);
  EXPECT_EQ(stack.resolver->stats().oracle_calls, 2u);  // no third call
}

TEST(ResolverTest, StatsComparisonsAddUp) {
  ResolverStack stack = MakeRandomStack(12, 6);
  TriBounder tri(stack.graph.get());
  stack.resolver->SetBounder(&tri);
  std::mt19937_64 rng(7);
  for (int t = 0; t < 300; ++t) {
    const ObjectId i = static_cast<ObjectId>(rng() % 12);
    const ObjectId j = static_cast<ObjectId>(rng() % 12);
    if (i == j) continue;
    const double threshold = 0.1 * static_cast<double>(rng() % 12);
    // Mix the two-sided comparison with the one-sided proof verbs so the
    // partition below also covers the undecided bucket.
    switch (t % 3) {
      case 0:
        stack.resolver->LessThan(i, j, threshold);
        break;
      case 1:
        stack.resolver->ProvenGreaterThan(i, j, threshold);
        break;
      default:
        stack.resolver->ProvenGreaterOrEqual(i, j, threshold);
        break;
    }
  }
  const ResolverStats& s = stack.resolver->stats();
  EXPECT_EQ(s.comparisons, s.decided_by_cache + s.decided_by_bounds +
                               s.decided_by_oracle + s.undecided);
  // Every comparison charged to the oracle really reached it: with no
  // batching in play here, decided_by_oracle can never exceed oracle_calls.
  EXPECT_LE(s.decided_by_oracle, s.oracle_calls);
}

// The core exactness property of the whole framework: under every scheme,
// LessThan and PairLess return the ground-truth comparison outcome.
class ResolverExactnessTest
    : public ::testing::TestWithParam<std::tuple<SchemeKind, uint64_t>> {};

TEST_P(ResolverExactnessTest, ComparisonsMatchGroundTruth) {
  const auto [kind, seed] = GetParam();
  // DFT solves one or two dense LPs per undecided comparison and rebuilds
  // its constraint system after every resolution; a smaller instance keeps
  // this test meaningful without dominating the suite (especially under
  // sanitizers).
  const bool lp_heavy = kind == SchemeKind::kDft;
  const ObjectId n = lp_heavy ? 10 : 14;
  const int trials = lp_heavy ? 150 : 400;
  ResolverStack stack = MakeRandomStack(n, seed);
  SchemeOptions options;
  options.seed = seed;
  options.max_distance = 1.0;
  auto bounder = MakeAndAttachScheme(kind, stack.resolver.get(), options);
  ASSERT_TRUE(bounder.ok()) << bounder.status();

  std::mt19937_64 rng(seed + 1);
  for (int t = 0; t < trials; ++t) {
    const ObjectId i = static_cast<ObjectId>(rng() % n);
    const ObjectId j = static_cast<ObjectId>(rng() % n);
    const ObjectId k = static_cast<ObjectId>(rng() % n);
    const ObjectId l = static_cast<ObjectId>(rng() % n);
    if (i == j || k == l) continue;
    const double truth_ij = stack.oracle->Distance(i, j);
    const double truth_kl = stack.oracle->Distance(k, l);
    if (t % 2 == 0) {
      const double threshold = 0.05 * static_cast<double>(rng() % 25);
      ASSERT_EQ(stack.resolver->LessThan(i, j, threshold),
                truth_ij < threshold)
          << SchemeKindName(kind) << " LessThan(" << i << "," << j << ","
          << threshold << ")";
    } else {
      ASSERT_EQ(stack.resolver->PairLess(i, j, k, l), truth_ij < truth_kl)
          << SchemeKindName(kind) << " PairLess(" << i << "," << j << ","
          << k << "," << l << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, ResolverExactnessTest,
    ::testing::Combine(::testing::Values(SchemeKind::kNone, SchemeKind::kTri,
                                         SchemeKind::kSplub, SchemeKind::kAdm,
                                         SchemeKind::kLaesa,
                                         SchemeKind::kTlaesa,
                                         SchemeKind::kDft),
                       ::testing::Values(11, 17)));

TEST(ResolverTest, ProvenGreaterThanNeverCallsOracle) {
  ResolverStack stack = MakeRandomStack(10, 8);
  TriBounder tri(stack.graph.get());
  stack.resolver->SetBounder(&tri);
  const double d01 = stack.resolver->Distance(0, 1);
  const double d02 = stack.resolver->Distance(0, 2);
  const uint64_t calls = stack.resolver->stats().oracle_calls;
  // Wrap bound: dist(1,2) >= |d01 - d02|; anything below that is proven.
  const double gap = std::abs(d01 - d02);
  if (gap > 0.01) {
    EXPECT_TRUE(stack.resolver->ProvenGreaterThan(1, 2, gap * 0.5));
    EXPECT_EQ(stack.resolver->stats().decided_by_bounds, 1u);
  }
  // An unprovable threshold returns false without resolving.
  EXPECT_FALSE(stack.resolver->ProvenGreaterThan(1, 2, d01 + d02));
  EXPECT_EQ(stack.resolver->stats().oracle_calls, calls);
  // Known pairs answer exactly from the cache.
  EXPECT_EQ(stack.resolver->ProvenGreaterThan(0, 1, d01 - 0.001), true);
  EXPECT_EQ(stack.resolver->ProvenGreaterThan(0, 1, d01), false);
}

TEST(ResolverTest, ProvenVerbsChargeUndecidedNotOracle) {
  ResolverStack stack = MakeRandomStack(10, 8);
  TriBounder tri(stack.graph.get());
  stack.resolver->SetBounder(&tri);
  const double d01 = stack.resolver->Distance(0, 1);
  const double d02 = stack.resolver->Distance(0, 2);
  stack.resolver->ResetStats();
  // Unprovable thresholds: both verbs fail to prove the discard without an
  // oracle call — that is an *undecided* comparison, not an oracle one.
  EXPECT_FALSE(stack.resolver->ProvenGreaterThan(1, 2, d01 + d02));
  EXPECT_FALSE(stack.resolver->ProvenGreaterOrEqual(1, 2, d01 + d02));
  const ResolverStats& s = stack.resolver->stats();
  EXPECT_EQ(s.undecided, 2u);
  EXPECT_EQ(s.decided_by_oracle, 0u);
  EXPECT_EQ(s.oracle_calls, 0u);
  EXPECT_EQ(s.comparisons, 2u);
}

// +inf never reaches the scheme (DFT's LP cannot take it): no finite
// distance exceeds it, so both proof verbs answer false from stage 1 as a
// bound decision, without a bound query.
TEST(ResolverTest, ProvenVerbsDecideInfiniteThresholdWithoutTheScheme) {
  for (const SchemeKind kind : {SchemeKind::kDft, SchemeKind::kNone}) {
    ResolverStack stack = MakeRandomStack(8, 11);
    SchemeOptions options;
    options.max_distance = 1.0;
    auto bounder = MakeAndAttachScheme(kind, stack.resolver.get(), options);
    ASSERT_TRUE(bounder.ok()) << bounder.status();
    stack.resolver->Distance(0, 1);
    stack.resolver->ResetStats();
    EXPECT_FALSE(stack.resolver->ProvenGreaterThan(2, 3, kInfDistance));
    EXPECT_FALSE(stack.resolver->ProvenGreaterOrEqual(2, 3, kInfDistance));
    const ResolverStats& s = stack.resolver->stats();
    EXPECT_EQ(s.comparisons, 2u) << SchemeKindName(kind);
    EXPECT_EQ(s.decided_by_bounds, 2u) << SchemeKindName(kind);
    EXPECT_EQ(s.undecided, 0u) << SchemeKindName(kind);
    EXPECT_EQ(s.bound_queries, 0u) << SchemeKindName(kind);
    EXPECT_EQ(s.oracle_calls, 0u) << SchemeKindName(kind);
  }
}

TEST(ResolverTest, PairLessWithBothKnownUsesCache) {
  ResolverStack stack = MakeRandomStack(6, 9);
  stack.resolver->Distance(0, 1);
  stack.resolver->Distance(2, 3);
  const uint64_t calls = stack.resolver->stats().oracle_calls;
  stack.resolver->PairLess(0, 1, 2, 3);
  EXPECT_EQ(stack.resolver->stats().oracle_calls, calls);
  EXPECT_EQ(stack.resolver->stats().decided_by_cache, 1u);
}

TEST(ResolverTest, MismatchedGraphSizeDies) {
  ResolverStack stack = MakeRandomStack(6, 10);
  PartialDistanceGraph wrong(7);
  EXPECT_DEATH({ BoundedResolver r(stack.oracle.get(), &wrong); }, "Check");
}

TEST(ResolverBatchTest, ResolveAllDeduplicatesBeforeTheOracle) {
  ResolverStack stack = MakeRandomStack(8, 20);
  // (0,1) four times — twice reversed — plus a self pair: one oracle call.
  const std::vector<IdPair> pairs = {IdPair{0, 1}, IdPair{1, 0}, IdPair{3, 3},
                                     IdPair{0, 1}, IdPair{1, 0}};
  stack.resolver->ResolveAll(pairs);
  EXPECT_EQ(stack.resolver->stats().oracle_calls, 1u);
  EXPECT_EQ(stack.resolver->stats().batch_calls, 1u);
  EXPECT_EQ(stack.resolver->stats().batch_resolved_pairs, 1u);
  EXPECT_TRUE(stack.resolver->Known(0, 1));
  // Already-cached pairs never reach the oracle again (no double billing).
  stack.resolver->ResolveAll(std::vector<IdPair>{IdPair{1, 0}, IdPair{0, 1}});
  EXPECT_EQ(stack.resolver->stats().oracle_calls, 1u);
  EXPECT_EQ(stack.resolver->stats().batch_calls, 1u);
}

TEST(ResolverBatchTest, ResolveAllValuesMatchOracle) {
  ResolverStack stack = MakeRandomStack(10, 21);
  std::vector<IdPair> pairs;
  for (ObjectId i = 0; i < 10; ++i) {
    for (ObjectId j = i + 1; j < 10; ++j) pairs.push_back(IdPair{i, j});
  }
  stack.resolver->ResolveAll(pairs);
  for (const IdPair& p : pairs) {
    EXPECT_DOUBLE_EQ(stack.resolver->Distance(p.i, p.j),
                     stack.oracle->Distance(p.i, p.j));
  }
  EXPECT_EQ(stack.resolver->stats().oracle_calls, pairs.size());
}

TEST(ResolverBatchTest, StatsInvariantsHoldForBatchVerbs) {
  ResolverStack stack = MakeRandomStack(12, 22);
  TriBounder tri(stack.graph.get());
  stack.resolver->SetBounder(&tri);
  std::mt19937_64 rng(23);
  for (int round = 0; round < 20; ++round) {
    std::vector<IdPair> pairs;
    std::vector<double> thresholds;
    for (int k = 0; k < 15; ++k) {
      pairs.push_back(IdPair{static_cast<ObjectId>(rng() % 12),
                             static_cast<ObjectId>(rng() % 12)});
      thresholds.push_back(0.1 * static_cast<double>(rng() % 14));
    }
    stack.resolver->FilterLessThan(pairs, thresholds);
    const ResolverStats& s = stack.resolver->stats();
    // The decided-by partition covers every comparison, batch or scalar...
    ASSERT_EQ(s.comparisons, s.decided_by_cache + s.decided_by_bounds +
                                 s.decided_by_oracle + s.undecided);
    // ...and each batch-resolved pair is also billed as an oracle call.
    ASSERT_LE(s.batch_resolved_pairs, s.oracle_calls);
  }
  EXPECT_GT(stack.resolver->stats().batch_calls, 0u);
}

TEST(ResolverBatchTest, FilterLessThanInfThresholdDecidedByBounds) {
  ResolverStack stack = MakeRandomStack(6, 24);
  const std::vector<IdPair> pairs = {IdPair{0, 1}};
  const std::vector<bool> out =
      stack.resolver->FilterLessThan(pairs, kInfDistance);
  EXPECT_TRUE(out[0]);
  EXPECT_EQ(stack.resolver->stats().decided_by_bounds, 1u);
  EXPECT_EQ(stack.resolver->stats().oracle_calls, 0u);
}

TEST(ResolverBatchTest, FilterLessThanDuplicateAndSymmetricPairsBillOnce) {
  ResolverStack stack = MakeRandomStack(8, 30);
  const double truth = stack.oracle->Distance(0, 1);
  // The same unordered pair three times — once reversed — in one batch:
  // exactly one resolution happens, so exactly one comparison may be
  // attributed to the oracle; the repeats are answered by the cache the
  // scalar loop would have hit.
  const std::vector<IdPair> pairs = {IdPair{0, 1}, IdPair{1, 0}, IdPair{0, 1}};
  const std::vector<bool> out =
      stack.resolver->FilterLessThan(pairs, truth + 0.1);
  EXPECT_EQ(out, std::vector<bool>({true, true, true}));
  const ResolverStats& s = stack.resolver->stats();
  EXPECT_EQ(s.oracle_calls, 1u);
  EXPECT_EQ(s.decided_by_oracle, 1u);
  EXPECT_EQ(s.decided_by_cache, 2u);
  EXPECT_EQ(s.comparisons, 3u);
  EXPECT_EQ(s.comparisons, s.decided_by_cache + s.decided_by_bounds +
                               s.decided_by_oracle + s.undecided);
}

TEST(ResolverBatchTest, FilterLessThanNanThresholdIsAlwaysFalse) {
  ResolverStack stack = MakeRandomStack(8, 31);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // No comparison against NaN holds, including the self pair's 0 < NaN.
  const std::vector<IdPair> pairs = {IdPair{0, 1}, IdPair{2, 2}, IdPair{3, 4}};
  for (const bool batch_transport : {true, false}) {
    stack.resolver->SetBatchTransport(batch_transport);
    const std::vector<bool> out = stack.resolver->FilterLessThan(pairs, nan);
    EXPECT_EQ(out, std::vector<bool>({false, false, false}));
  }
}

TEST(ResolverBatchTest, FilterLessThanNegativeAndZeroThresholds) {
  ResolverStack stack = MakeRandomStack(8, 32);
  // Metric distances are positive for distinct objects and zero for self
  // pairs, so nothing is below a zero or negative threshold.
  const std::vector<IdPair> pairs = {IdPair{0, 1}, IdPair{2, 2}, IdPair{3, 4}};
  EXPECT_EQ(stack.resolver->FilterLessThan(pairs, 0.0),
            std::vector<bool>({false, false, false}));
  EXPECT_EQ(stack.resolver->FilterLessThan(pairs, -1.0),
            std::vector<bool>({false, false, false}));
  // The verb still answers exactly, not heuristically: a threshold above a
  // resolved distance flips back to true.
  const double truth = stack.oracle->Distance(0, 1);
  EXPECT_EQ(stack.resolver->FilterLessThan(
                std::vector<IdPair>{IdPair{0, 1}}, truth + 1.0),
            std::vector<bool>({true}));
}

TEST(ResolverBatchTest, OutOfRangeIdsDie) {
  ResolverStack stack = MakeRandomStack(6, 25);
  EXPECT_DEATH(stack.resolver->Distance(0, 6), "Check");
  EXPECT_DEATH(
      stack.resolver->ResolveAll(std::vector<IdPair>{IdPair{0, 6}}),
      "Check");
  EXPECT_DEATH(stack.resolver->FilterLessThan(
                   std::vector<IdPair>{IdPair{6, 0}}, 1.0),
               "Check");
  // The scalar verbs check too, before any id reaches the scheme's
  // per-object tables.
  TriBounder tri(stack.graph.get());
  stack.resolver->SetBounder(&tri);
  stack.resolver->Distance(0, 1);
  EXPECT_DEATH(stack.resolver->LessThan(0, 6, 0.5), "Check");
  EXPECT_DEATH(stack.resolver->ProvenGreaterThan(6, 1, 0.5), "Check");
  EXPECT_DEATH(stack.resolver->ProvenGreaterOrEqual(1, 6, 0.5), "Check");
  EXPECT_DEATH(stack.resolver->PairLess(0, 1, 2, 6), "Check");
  EXPECT_DEATH(stack.resolver->PairLess(6, 2, 0, 1), "Check");
  // So does the row verb, for the source, for every target and for the
  // row's length. The row has an entry per object, so the first two die on
  // the id they name.
  std::vector<Interval> row(6);
  EXPECT_DEATH(
      stack.resolver->BoundsFrom(6, std::vector<ObjectId>{0, 1}, row),
      "Check failed: q < n \\(6 vs 6\\)");
  EXPECT_DEATH(
      stack.resolver->BoundsFrom(0, std::vector<ObjectId>{2, 6}, row),
      "Check failed: v < n \\(6 vs 6\\)");
  std::vector<Interval> short_row(2);
  EXPECT_DEATH(
      stack.resolver->BoundsFrom(0, std::vector<ObjectId>{1}, short_row),
      "Check failed: row.size\\(\\) == n \\(2 vs 6\\)");
}

// Batched comparisons must return ground truth under every scheme — and
// flipping the transport (one BatchDistance round-trip vs a per-pair
// Distance loop) must change neither the answers nor a single counter.
class ResolverBatchExactnessTest
    : public ::testing::TestWithParam<std::tuple<SchemeKind, bool>> {};

TEST_P(ResolverBatchExactnessTest, FilterLessThanMatchesGroundTruth) {
  const auto [kind, batch_transport] = GetParam();
  const ObjectId n = 12;
  ResolverStack stack = MakeRandomStack(n, 26);
  SchemeOptions options;
  options.seed = 26;
  options.max_distance = 1.0;
  auto bounder = MakeAndAttachScheme(kind, stack.resolver.get(), options);
  ASSERT_TRUE(bounder.ok()) << bounder.status();
  stack.resolver->SetBatchTransport(batch_transport);

  std::mt19937_64 rng(27);
  for (int round = 0; round < 12; ++round) {
    std::vector<IdPair> pairs;
    std::vector<double> thresholds;
    for (int k = 0; k < 10; ++k) {
      pairs.push_back(IdPair{static_cast<ObjectId>(rng() % n),
                             static_cast<ObjectId>(rng() % n)});
      thresholds.push_back(0.05 * static_cast<double>(rng() % 25));
    }
    const std::vector<bool> out =
        stack.resolver->FilterLessThan(pairs, thresholds);
    for (size_t k = 0; k < pairs.size(); ++k) {
      const double truth = pairs[k].i == pairs[k].j
                               ? 0.0
                               : stack.oracle->Distance(pairs[k].i, pairs[k].j);
      ASSERT_EQ(out[k], truth < thresholds[k])
          << SchemeKindName(kind) << " pair (" << pairs[k].i << ","
          << pairs[k].j << ") vs " << thresholds[k];
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, ResolverBatchExactnessTest,
    ::testing::Combine(::testing::Values(SchemeKind::kNone, SchemeKind::kTri,
                                         SchemeKind::kSplub, SchemeKind::kAdm,
                                         SchemeKind::kLaesa,
                                         SchemeKind::kTlaesa,
                                         SchemeKind::kDft),
                       ::testing::Bool()));

TEST(ResolverBatchTest, TransportsAgreeOnAnswersAndCounters) {
  const ObjectId n = 14;
  auto run = [&](bool batch_transport) {
    ResolverStack stack = MakeRandomStack(n, 28);
    TriBounder tri(stack.graph.get());
    stack.resolver->SetBounder(&tri);
    stack.resolver->SetBatchTransport(batch_transport);
    std::vector<std::vector<bool>> outcomes;
    std::mt19937_64 rng(29);
    for (int round = 0; round < 15; ++round) {
      std::vector<IdPair> pairs;
      std::vector<double> thresholds;
      for (int k = 0; k < 12; ++k) {
        pairs.push_back(IdPair{static_cast<ObjectId>(rng() % n),
                               static_cast<ObjectId>(rng() % n)});
        thresholds.push_back(0.08 * static_cast<double>(rng() % 16));
      }
      outcomes.push_back(stack.resolver->FilterLessThan(pairs, thresholds));
    }
    return std::make_pair(outcomes, stack.resolver->stats());
  };
  const auto [batched, batched_stats] = run(true);
  const auto [scalar, scalar_stats] = run(false);
  EXPECT_EQ(batched, scalar);
  EXPECT_EQ(batched_stats.oracle_calls, scalar_stats.oracle_calls);
  EXPECT_EQ(batched_stats.comparisons, scalar_stats.comparisons);
  EXPECT_EQ(batched_stats.decided_by_bounds, scalar_stats.decided_by_bounds);
  EXPECT_EQ(batched_stats.decided_by_cache, scalar_stats.decided_by_cache);
  EXPECT_EQ(batched_stats.decided_by_oracle, scalar_stats.decided_by_oracle);
  EXPECT_EQ(batched_stats.bound_queries, scalar_stats.bound_queries);
  // Only the transport-attribution counters may differ.
  EXPECT_GT(batched_stats.batch_calls, 0u);
  EXPECT_EQ(scalar_stats.batch_calls, 0u);
  EXPECT_EQ(scalar_stats.batch_resolved_pairs, 0u);
}

}  // namespace
}  // namespace metricprox
