#include <cmath>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "oracle/matrix_oracle.h"
#include "oracle/string_oracle.h"
#include "oracle/vector_oracle.h"
#include "oracle/wrappers.h"

namespace metricprox {
namespace {

// ---- Vector oracles ----

PointSet TinyPoints() {
  return {{0.0, 0.0}, {3.0, 4.0}, {1.0, 1.0}};
}

TEST(VectorOracleTest, EuclideanMatchesHand) {
  VectorOracle oracle(TinyPoints(), VectorMetric::kEuclidean);
  EXPECT_DOUBLE_EQ(oracle.Distance(0, 1), 5.0);
  EXPECT_DOUBLE_EQ(oracle.Distance(0, 2), std::sqrt(2.0));
  EXPECT_EQ(oracle.num_objects(), 3u);
  EXPECT_EQ(oracle.name(), "euclidean");
}

TEST(VectorOracleTest, ManhattanMatchesHand) {
  VectorOracle oracle(TinyPoints(), VectorMetric::kManhattan);
  EXPECT_DOUBLE_EQ(oracle.Distance(0, 1), 7.0);
  EXPECT_DOUBLE_EQ(oracle.Distance(1, 2), 2.0 + 3.0);
}

TEST(VectorOracleTest, ChebyshevMatchesHand) {
  VectorOracle oracle(TinyPoints(), VectorMetric::kChebyshev);
  EXPECT_DOUBLE_EQ(oracle.Distance(0, 1), 4.0);
  EXPECT_DOUBLE_EQ(oracle.Distance(1, 2), 3.0);
}

TEST(VectorOracleTest, SymmetricByConstruction) {
  VectorOracle oracle(TinyPoints(), VectorMetric::kEuclidean);
  EXPECT_DOUBLE_EQ(oracle.Distance(0, 2), oracle.Distance(2, 0));
}

TEST(VectorOracleTest, RaggedPointSetDies) {
  PointSet ragged = {{0.0, 0.0}, {1.0}};
  EXPECT_DEATH({ VectorOracle o(std::move(ragged), VectorMetric::kEuclidean); },
               "ragged");
}

// Metric property sweep across all three vector metrics.
class VectorMetricPropertyTest
    : public ::testing::TestWithParam<VectorMetric> {};

TEST_P(VectorMetricPropertyTest, SampledTriangleInequalityHolds) {
  std::mt19937_64 rng(5);
  PointSet points(40, std::vector<double>(6));
  std::uniform_real_distribution<double> coord(-2.0, 2.0);
  for (auto& p : points) {
    for (double& c : p) c = coord(rng);
  }
  VectorOracle oracle(std::move(points), GetParam());
  for (int t = 0; t < 400; ++t) {
    const ObjectId i = static_cast<ObjectId>(rng() % 40);
    const ObjectId j = static_cast<ObjectId>(rng() % 40);
    const ObjectId k = static_cast<ObjectId>(rng() % 40);
    if (i == j || j == k || i == k) continue;
    const double dij = oracle.Distance(i, j);
    EXPECT_GE(dij, 0.0);
    EXPECT_DOUBLE_EQ(dij, oracle.Distance(j, i));
    EXPECT_LE(dij, oracle.Distance(i, k) + oracle.Distance(k, j) + 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(AllMetrics, VectorMetricPropertyTest,
                         ::testing::Values(VectorMetric::kEuclidean,
                                           VectorMetric::kManhattan,
                                           VectorMetric::kChebyshev,
                                           VectorMetric::kAngular));

TEST(VectorOracleTest, AngularMatchesHand) {
  PointSet points = {{1.0, 0.0}, {0.0, 2.0}, {-3.0, 0.0}, {1.0, 1.0}};
  VectorOracle oracle(std::move(points), VectorMetric::kAngular);
  const double pi = std::acos(-1.0);
  EXPECT_NEAR(oracle.Distance(0, 1), pi / 2.0, 1e-12);   // orthogonal
  EXPECT_NEAR(oracle.Distance(0, 2), pi, 1e-12);         // opposite
  EXPECT_NEAR(oracle.Distance(0, 3), pi / 4.0, 1e-12);   // 45 degrees
  // Magnitude is irrelevant: only the direction matters.
  EXPECT_NEAR(oracle.Distance(1, 3), pi / 4.0, 1e-12);
  EXPECT_EQ(oracle.name(), "angular");
}

// ---- Levenshtein oracle ----

TEST(LevenshteinTest, HandCases) {
  EXPECT_EQ(LevenshteinOracle::EditDistance("kitten", "sitting"), 3u);
  EXPECT_EQ(LevenshteinOracle::EditDistance("", "abc"), 3u);
  EXPECT_EQ(LevenshteinOracle::EditDistance("abc", ""), 3u);
  EXPECT_EQ(LevenshteinOracle::EditDistance("same", "same"), 0u);
  EXPECT_EQ(LevenshteinOracle::EditDistance("flaw", "lawn"), 2u);
}

TEST(LevenshteinTest, SymmetricAndTriangle) {
  std::vector<std::string> strings = {"ACGTACGT", "ACGTTCGT", "TTTTACGT",
                                      "ACG",      "GGGGGGGG", "ACGTACGA"};
  LevenshteinOracle oracle(strings);
  const ObjectId n = oracle.num_objects();
  for (ObjectId i = 0; i < n; ++i) {
    for (ObjectId j = 0; j < n; ++j) {
      if (i == j) continue;
      const double dij = oracle.Distance(i, j);
      EXPECT_GT(dij, 0.0);  // strings are pairwise distinct
      EXPECT_DOUBLE_EQ(dij, oracle.Distance(j, i));
      for (ObjectId k = 0; k < n; ++k) {
        if (k == i || k == j) continue;
        EXPECT_LE(dij, oracle.Distance(i, k) + oracle.Distance(k, j));
      }
    }
  }
}

// ---- Matrix oracle ----

TEST(MatrixOracleTest, CreateValidatesSymmetry) {
  std::vector<double> m = {0, 1, 2, 0};  // 2x2 asymmetric (m[1]=1, m[2]=2)
  auto result = MatrixOracle::Create(std::move(m), 2);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(MatrixOracleTest, CreateValidatesTriangle) {
  // d(0,2)=5 > d(0,1)+d(1,2)=2: violates the triangle inequality.
  std::vector<double> m = {0, 1, 5,  //
                           1, 0, 1,  //
                           5, 1, 0};
  auto result = MatrixOracle::Create(std::move(m), 3);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("triangle"), std::string::npos);
}

TEST(MatrixOracleTest, CreateValidatesDiagonalAndSize) {
  std::vector<double> bad_diag = {0.5, 1, 1, 0};
  EXPECT_FALSE(MatrixOracle::Create(std::move(bad_diag), 2).ok());
  std::vector<double> bad_size = {0, 1, 1};
  EXPECT_FALSE(MatrixOracle::Create(std::move(bad_size), 2).ok());
}

TEST(MatrixOracleTest, AcceptsValidMetricAndServesLookups) {
  std::vector<double> m = {0, 1, 2,  //
                           1, 0, 1,  //
                           2, 1, 0};
  auto result = MatrixOracle::Create(std::move(m), 3);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_DOUBLE_EQ(result->Distance(0, 2), 2.0);
  EXPECT_DOUBLE_EQ(result->At(1, 2), 1.0);
}

// ---- Wrappers ----

TEST(CountingOracleTest, CountsEveryCall) {
  VectorOracle base(TinyPoints(), VectorMetric::kEuclidean);
  CountingOracle counting(&base);
  EXPECT_EQ(counting.calls(), 0u);
  counting.Distance(0, 1);
  counting.Distance(0, 1);  // repeated calls still count
  counting.Distance(1, 2);
  EXPECT_EQ(counting.calls(), 3u);
  counting.ResetCalls();
  EXPECT_EQ(counting.calls(), 0u);
  EXPECT_EQ(counting.num_objects(), base.num_objects());
}

TEST(SimulatedCostOracleTest, AccumulatesVirtualLatency) {
  VectorOracle base(TinyPoints(), VectorMetric::kEuclidean);
  SimulatedCostOracle costed(&base, 1.2);
  costed.Distance(0, 1);
  costed.Distance(1, 2);
  EXPECT_DOUBLE_EQ(costed.simulated_seconds(), 2.4);
  EXPECT_DOUBLE_EQ(costed.Distance(0, 2), base.Distance(0, 2));
  costed.Reset();
  EXPECT_DOUBLE_EQ(costed.simulated_seconds(), 0.0);
}

TEST(VerifyingOracleTest, PassesThroughAValidMetric) {
  VectorOracle base(TinyPoints(), VectorMetric::kEuclidean);
  VerifyingOracle verified(&base, /*check_every=*/1);
  for (int round = 0; round < 10; ++round) {
    EXPECT_DOUBLE_EQ(verified.Distance(0, 1), base.Distance(0, 1));
    verified.Distance(1, 2);
    verified.Distance(0, 2);
  }
  EXPECT_GT(verified.checks_performed(), 0u);
}

namespace {

// A deliberately broken "oracle": asymmetric distances.
class AsymmetricOracle : public DistanceOracle {
 public:
  double Distance(ObjectId i, ObjectId j) override {
    return i < j ? 1.0 : 2.0;
  }
  ObjectId num_objects() const override { return 4; }
  std::string_view name() const override { return "asymmetric"; }
};

// Violates the triangle inequality: one pair is far beyond any detour.
class NonTriangleOracle : public DistanceOracle {
 public:
  double Distance(ObjectId i, ObjectId j) override {
    const EdgeKey key(i, j);
    return (key.lo() == 0 && key.hi() == 1) ? 100.0 : 1.0;
  }
  ObjectId num_objects() const override { return 4; }
  std::string_view name() const override { return "non-triangle"; }
};

}  // namespace

TEST(VerifyingOracleTest, CatchesAsymmetry) {
  AsymmetricOracle bad;
  VerifyingOracle verified(&bad, /*check_every=*/1);
  EXPECT_DEATH(verified.Distance(0, 1), "asymmetric");
}

TEST(VerifyingOracleTest, CatchesTriangleViolation) {
  NonTriangleOracle bad;
  VerifyingOracle verified(&bad, /*check_every=*/1);
  EXPECT_DEATH(
      {
        for (int round = 0; round < 32; ++round) {
          verified.Distance(0, 1);  // eventually samples a witness k
        }
      },
      "triangle");
}

// ---- BatchDistance ----

// Every pair, both orientations, plus repeats: the batch entry point must
// return bit-identical values to the scalar one regardless of the oracle's
// internal parallel grain.
std::vector<IdPair> AllOrientedPairs(ObjectId n) {
  std::vector<IdPair> pairs;
  for (ObjectId i = 0; i < n; ++i) {
    for (ObjectId j = 0; j < n; ++j) {
      if (i != j) pairs.push_back(IdPair{i, j});
    }
  }
  pairs.push_back(IdPair{0, 1});  // duplicate entries are legal
  return pairs;
}

void ExpectBatchMatchesScalar(DistanceOracle* oracle) {
  const std::vector<IdPair> pairs = AllOrientedPairs(oracle->num_objects());
  std::vector<double> out(pairs.size());
  oracle->BatchDistance(pairs, out);
  for (size_t k = 0; k < pairs.size(); ++k) {
    EXPECT_DOUBLE_EQ(out[k], oracle->Distance(pairs[k].i, pairs[k].j))
        << "pair (" << pairs[k].i << ", " << pairs[k].j << ")";
  }
}

TEST(VectorOracleTest, BatchDistanceMatchesScalar) {
  std::mt19937_64 rng(23);
  PointSet points(130, std::vector<double>(5));
  std::uniform_real_distribution<double> coord(-1.0, 1.0);
  for (auto& p : points) {
    for (double& x : p) x = coord(rng);
  }
  VectorOracle oracle(std::move(points), VectorMetric::kEuclidean);
  // 130 objects -> well past the parallel grain of 64 pairs.
  ExpectBatchMatchesScalar(&oracle);
}

TEST(LevenshteinTest, BatchDistanceMatchesScalar) {
  std::vector<std::string> strings = {"ACGTACGT", "ACGTTCGT", "TTTTACGT",
                                      "ACG",      "GGGGGGGG", "ACGTACGA",
                                      "CCCCACGT", "ACGTCCCC"};
  LevenshteinOracle oracle(strings);
  ExpectBatchMatchesScalar(&oracle);
}

TEST(MatrixOracleTest, BatchDistanceMatchesScalar) {
  // 4-point metric: unit square with diagonals sqrt(2).
  const double r2 = std::sqrt(2.0);
  std::vector<double> m = {0, 1, r2, 1,   //
                           1, 0, 1,  r2,  //
                           r2, 1, 0, 1,   //
                           1, r2, 1, 0};
  auto result = MatrixOracle::Create(std::move(m), 4);
  ASSERT_TRUE(result.ok());
  ExpectBatchMatchesScalar(&*result);
}

TEST(CountingOracleTest, BatchBillsEveryPair) {
  VectorOracle base(TinyPoints(), VectorMetric::kEuclidean);
  CountingOracle counting(&base);
  const std::vector<IdPair> pairs = {{0, 1}, {1, 2}, {0, 1}};
  std::vector<double> out(pairs.size());
  counting.BatchDistance(pairs, out);
  EXPECT_EQ(counting.calls(), 3u);  // duplicates still count
  EXPECT_DOUBLE_EQ(out[0], base.Distance(0, 1));
  EXPECT_DOUBLE_EQ(out[1], base.Distance(1, 2));
}

TEST(SimulatedCostOracleTest, BatchAccumulatesPerPairLatency) {
  VectorOracle base(TinyPoints(), VectorMetric::kEuclidean);
  SimulatedCostOracle costed(&base, 0.5);
  const std::vector<IdPair> pairs = {{0, 1}, {1, 2}, {0, 2}};
  std::vector<double> out(pairs.size());
  costed.BatchDistance(pairs, out);
  EXPECT_DOUBLE_EQ(costed.simulated_seconds(), 1.5);
  EXPECT_DOUBLE_EQ(out[2], base.Distance(0, 2));
}

}  // namespace
}  // namespace metricprox
