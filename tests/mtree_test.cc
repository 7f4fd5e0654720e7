#include "index/mtree.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "algo/reference.h"
#include "bounds/resolver.h"
#include "data/synthetic.h"
#include "oracle/string_oracle.h"
#include "tests/test_util.h"

namespace metricprox {
namespace {

using testing_util::MakeRandomStack;
using testing_util::ResolverStack;

ResolveFn RawResolve(DistanceOracle* oracle) {
  return [oracle](ObjectId a, ObjectId b) { return oracle->Distance(a, b); };
}

class MTreeCapacityTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(MTreeCapacityTest, InvariantsHoldAfterBulkBuild) {
  const ObjectId n = 60;
  ResolverStack stack = MakeRandomStack(n, 41);
  const ResolveFn resolve = RawResolve(stack.oracle.get());
  MTreeOptions options;
  options.node_capacity = GetParam();
  MTree tree(n, options, resolve);
  EXPECT_GT(tree.num_nodes(), 1u);
  EXPECT_GE(tree.height(), 2u);
  tree.ValidateInvariants(n, resolve);
}

INSTANTIATE_TEST_SUITE_P(Capacities, MTreeCapacityTest,
                         ::testing::Values(2u, 4u, 8u, 16u));

TEST(MTreeTest, KnnMatchesReferenceForEveryQuery) {
  const ObjectId n = 44;
  ResolverStack stack = MakeRandomStack(n, 42);
  const ResolveFn resolve = RawResolve(stack.oracle.get());
  MTree tree(n, MTreeOptions{}, resolve);
  for (const uint32_t k : {1u, 4u, 9u}) {
    const KnnGraph expected = ReferenceKnnGraph(stack.oracle.get(), k);
    for (ObjectId q = 0; q < n; ++q) {
      ASSERT_EQ(tree.Knn(q, k, resolve), expected[q])
          << "k=" << k << " query " << q;
    }
  }
}

TEST(MTreeTest, RangeMatchesBruteForce) {
  // A continuous metric, then a tie-heavy integer one whose integer radii
  // equal distances: an object exactly at the radius is in the range.
  ResolverStack stack = MakeRandomStack(36, 43);
  LevenshteinOracle dna(
      DnaFamilyStrings(30, 16, /*num_families=*/3, /*mutations=*/2, 67));
  const struct {
    DistanceOracle* oracle;
    std::vector<double> radii;
  } inputs[] = {{stack.oracle.get(), {0.0, 0.3, 0.6, 1.0}},
                {&dna, {0.0, 1.0, 2.0, 3.0, 5.0, 9.0}}};
  uint64_t dna_ties = 0;
  for (const auto& input : inputs) {
    const ObjectId n = input.oracle->num_objects();
    const ResolveFn resolve = RawResolve(input.oracle);
    MTree tree(n, MTreeOptions{}, resolve);
    for (const double radius : input.radii) {
      for (ObjectId q = 0; q < n; ++q) {
        std::vector<KnnNeighbor> brute;
        for (ObjectId v = 0; v < n; ++v) {
          if (v == q) continue;
          const double d = input.oracle->Distance(q, v);
          if (d <= radius) brute.push_back(KnnNeighbor{v, d});
          if (input.oracle == &dna && d == radius) ++dna_ties;
        }
        std::sort(brute.begin(), brute.end(),
                  [](const KnnNeighbor& a, const KnnNeighbor& b) {
                    if (a.distance != b.distance) {
                      return a.distance < b.distance;
                    }
                    return a.id < b.id;
                  });
        ASSERT_EQ(tree.Range(q, radius, resolve), brute)
            << input.oracle->name() << " q=" << q << " radius=" << radius;
      }
    }
  }
  EXPECT_GT(dna_ties, 0u);
}

TEST(MTreeTest, TieHeavyIntegerMetricStillExact) {
  std::vector<std::string> strings =
      DnaFamilyStrings(32, 20, /*num_families=*/3, /*mutations=*/2, 44);
  LevenshteinOracle oracle(strings);
  const ResolveFn resolve = RawResolve(&oracle);
  MTreeOptions options;
  options.node_capacity = 4;
  MTree tree(32, options, resolve);
  tree.ValidateInvariants(32, resolve);
  const KnnGraph expected = ReferenceKnnGraph(&oracle, 5);
  for (ObjectId q = 0; q < 32; ++q) {
    ASSERT_EQ(tree.Knn(q, 5, resolve), expected[q]) << "query " << q;
  }
}

TEST(MTreeTest, ParentDistancePruningSavesCallsOnRangeQueries) {
  // Route calls through a resolver so the counter only grows on genuinely
  // new pairs, then compare a tight-range query against the n-1 scan.
  const ObjectId n = 120;
  ResolverStack stack = MakeRandomStack(n, 45, /*roughness=*/0.9);
  MTree tree(n, MTreeOptions{}, RawResolve(stack.oracle.get()));
  uint64_t calls = 0;
  const ResolveFn counting = [&](ObjectId a, ObjectId b) {
    ++calls;
    return stack.oracle->Distance(a, b);
  };
  tree.Range(3, 0.2, counting);
  EXPECT_LT(calls, static_cast<uint64_t>(n - 1));
}

TEST(MTreeTest, SharedResolverMakesRepeatQueriesFree) {
  const ObjectId n = 40;
  ResolverStack stack = MakeRandomStack(n, 46);
  const ResolveFn resolve = [&](ObjectId a, ObjectId b) {
    return stack.resolver->Distance(a, b);
  };
  MTree tree(n, MTreeOptions{}, resolve);
  tree.Knn(7, 3, resolve);
  const uint64_t after_first = stack.resolver->stats().oracle_calls;
  tree.Knn(7, 3, resolve);
  EXPECT_EQ(stack.resolver->stats().oracle_calls, after_first);
}

TEST(MTreeTest, TinyCapacityDeepTree) {
  const ObjectId n = 50;
  ResolverStack stack = MakeRandomStack(n, 47);
  const ResolveFn resolve = RawResolve(stack.oracle.get());
  MTreeOptions options;
  options.node_capacity = 2;
  MTree tree(n, options, resolve);
  EXPECT_GE(tree.height(), 4u);
  tree.ValidateInvariants(n, resolve);
}

}  // namespace
}  // namespace metricprox
