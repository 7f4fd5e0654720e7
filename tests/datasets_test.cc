#include "data/datasets.h"

#include <random>

#include <gtest/gtest.h>

namespace metricprox {
namespace {

// Samples symmetry, positivity, triangle inequality and the max_distance
// bound on a generated dataset.
void CheckDatasetIsMetric(Dataset* dataset, ObjectId n, uint64_t seed) {
  ASSERT_EQ(dataset->oracle->num_objects(), n);
  std::mt19937_64 rng(seed);
  for (int t = 0; t < 300; ++t) {
    const ObjectId i = static_cast<ObjectId>(rng() % n);
    const ObjectId j = static_cast<ObjectId>(rng() % n);
    const ObjectId k = static_cast<ObjectId>(rng() % n);
    if (i == j || j == k || i == k) continue;
    const double dij = dataset->oracle->Distance(i, j);
    ASSERT_GT(dij, 0.0) << dataset->name;
    ASSERT_LE(dij, dataset->max_distance) << dataset->name;
    ASSERT_DOUBLE_EQ(dij, dataset->oracle->Distance(j, i)) << dataset->name;
    ASSERT_LE(dij, dataset->oracle->Distance(i, k) +
                       dataset->oracle->Distance(k, j) + 1e-9)
        << dataset->name;
  }
}

TEST(DatasetsTest, SfPoiLikeIsMetric) {
  Dataset d = MakeSfPoiLike(60, 1);
  EXPECT_EQ(d.name, "sf-poi-like");
  ASSERT_NE(d.network, nullptr);
  CheckDatasetIsMetric(&d, 60, 11);
}

TEST(DatasetsTest, UrbanGbLikeIsMetric) {
  Dataset d = MakeUrbanGbLike(60, 2);
  EXPECT_EQ(d.name, "urbangb-like");
  CheckDatasetIsMetric(&d, 60, 12);
}

TEST(DatasetsTest, RoadCapacityIsTheGridsJunctionCount) {
  EXPECT_EQ(MakeSfPoiLike(60, 1).network->num_nodes(), kSfPoiCapacity);
  EXPECT_EQ(MakeUrbanGbLike(60, 2).network->num_nodes(), kUrbanGbCapacity);
  EXPECT_EQ(kSfPoiCapacity, 2304u);
  EXPECT_EQ(kUrbanGbCapacity, 5184u);
  EXPECT_TRUE(CheckRoadCapacity("sf", kSfPoiCapacity, kSfPoiCapacity).ok());
  const Status past = CheckRoadCapacity("sf", kSfPoiCapacity + 1,
                                        kSfPoiCapacity);
  EXPECT_EQ(past.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(past.message().find("at most 2304"), std::string::npos)
      << past.message();
}

TEST(DatasetsTest, FlickrLikeIsMetric) {
  Dataset d = MakeFlickrLike(50, 64, 3);
  EXPECT_EQ(d.name, "flickr-like");
  CheckDatasetIsMetric(&d, 50, 13);
}

TEST(DatasetsTest, DnaLikeIsMetric) {
  Dataset d = MakeDnaLike(40, 48, 4);
  EXPECT_EQ(d.name, "dna-like");
  CheckDatasetIsMetric(&d, 40, 14);
}

TEST(DatasetsTest, ClusteredEuclideanIsMetric) {
  Dataset d = MakeClusteredEuclidean(40, 2, 3, 0.04, 6);
  EXPECT_EQ(d.name, "clustered-euclidean");
  CheckDatasetIsMetric(&d, 40, 16);
}

TEST(DatasetsTest, RandomMetricIsMetric) {
  Dataset d = MakeRandomMetric(30, 5);
  CheckDatasetIsMetric(&d, 30, 15);
  EXPECT_DOUBLE_EQ(d.max_distance, 1.0);
}

TEST(DatasetsTest, GeneratorsAreDeterministic) {
  Dataset a = MakeSfPoiLike(40, 9);
  Dataset b = MakeSfPoiLike(40, 9);
  std::mt19937_64 rng(1);
  for (int t = 0; t < 50; ++t) {
    const ObjectId i = static_cast<ObjectId>(rng() % 40);
    const ObjectId j = static_cast<ObjectId>(rng() % 40);
    if (i == j) continue;
    EXPECT_DOUBLE_EQ(a.oracle->Distance(i, j), b.oracle->Distance(i, j));
  }
}

TEST(DatasetsTest, DifferentSeedsDiffer) {
  Dataset a = MakeFlickrLike(20, 8, 10);
  Dataset b = MakeFlickrLike(20, 8, 11);
  bool any_diff = false;
  for (ObjectId j = 1; j < 20 && !any_diff; ++j) {
    any_diff = a.oracle->Distance(0, j) != b.oracle->Distance(0, j);
  }
  EXPECT_TRUE(any_diff);
}

}  // namespace
}  // namespace metricprox
