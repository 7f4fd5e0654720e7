#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "algo/reference.h"
#include "bounds/resolver.h"
#include "data/synthetic.h"
#include "index/vptree.h"
#include "oracle/string_oracle.h"
#include "tests/test_util.h"

namespace metricprox {
namespace {

using testing_util::MakeRandomStack;
using testing_util::ResolverStack;

ResolveFn RawResolve(DistanceOracle* oracle) {
  return [oracle](ObjectId a, ObjectId b) { return oracle->Distance(a, b); };
}

// ---- VP-tree ----

class VpTreeKnnTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(VpTreeKnnTest, MatchesReferenceForEveryQuery) {
  const ObjectId n = 40;
  ResolverStack stack = MakeRandomStack(n, 61);
  const ResolveFn resolve = RawResolve(stack.oracle.get());
  VpTree tree(n, VpTreeOptions{4, 9}, resolve);
  const uint32_t k = GetParam();
  const KnnGraph expected = ReferenceKnnGraph(stack.oracle.get(), k);
  for (ObjectId q = 0; q < n; ++q) {
    ASSERT_EQ(tree.Knn(q, k, resolve), expected[q]) << "query " << q;
  }
}

INSTANTIATE_TEST_SUITE_P(Ks, VpTreeKnnTest, ::testing::Values(1u, 3u, 8u));

TEST(VpTreeTest, RangeMatchesBruteForce) {
  // A continuous metric, then a tie-heavy integer one whose integer radii
  // equal distances: an object exactly at the radius is in the range.
  ResolverStack stack = MakeRandomStack(32, 62);
  LevenshteinOracle dna(
      DnaFamilyStrings(28, 18, /*num_families=*/3, /*mutations=*/2, 172));
  const struct {
    DistanceOracle* oracle;
    std::vector<double> radii;
  } inputs[] = {{stack.oracle.get(), {0.2, 0.5, 0.8}},
                {&dna, {0.0, 1.0, 2.0, 3.0, 5.0, 7.0}}};
  uint64_t dna_ties = 0;
  for (const auto& input : inputs) {
    const ObjectId n = input.oracle->num_objects();
    const ResolveFn resolve = RawResolve(input.oracle);
    VpTree tree(n, VpTreeOptions{}, resolve);
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

TEST(VpTreeTest, SearchThroughResolverPrunesRepeatQueries) {
  // Routing the tree's calls through a BoundedResolver shares the cache:
  // a repeated query is nearly free.
  const ObjectId n = 48;
  ResolverStack stack = MakeRandomStack(n, 63);
  const ResolveFn resolve = [&](ObjectId a, ObjectId b) {
    return stack.resolver->Distance(a, b);
  };
  VpTree tree(n, VpTreeOptions{}, resolve);
  tree.Knn(5, 3, resolve);
  const uint64_t after_first = stack.resolver->stats().oracle_calls;
  tree.Knn(5, 3, resolve);
  EXPECT_EQ(stack.resolver->stats().oracle_calls, after_first);
}

TEST(VpTreeTest, BuildCostIsSubquadratic) {
  const ObjectId n = 256;
  ResolverStack stack = MakeRandomStack(n, 64);
  uint64_t calls = 0;
  const ResolveFn counting = [&](ObjectId a, ObjectId b) {
    ++calls;
    return stack.oracle->Distance(a, b);
  };
  VpTree tree(n, VpTreeOptions{}, counting);
  // ~n log2(n/leaf) levels of partitioning, far below n^2/2 = 32640.
  EXPECT_LT(calls, static_cast<uint64_t>(n) * 16);
  EXPECT_GT(tree.num_nodes(), 1u);
}

TEST(VpTreeTest, TieHeavyMetricStillExact) {
  std::vector<std::string> strings =
      DnaFamilyStrings(28, 20, /*num_families=*/3, /*mutations=*/2, 65);
  LevenshteinOracle oracle(strings);
  const ResolveFn resolve = RawResolve(&oracle);
  VpTree tree(28, VpTreeOptions{3, 1}, resolve);
  const KnnGraph expected = ReferenceKnnGraph(&oracle, 4);
  for (ObjectId q = 0; q < 28; ++q) {
    ASSERT_EQ(tree.Knn(q, 4, resolve), expected[q]) << "query " << q;
  }
}

}  // namespace
}  // namespace metricprox
