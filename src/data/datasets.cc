#include "data/datasets.h"

#include <algorithm>
#include <cmath>
#include <random>
#include <unordered_set>
#include <vector>

#include "core/logging.h"
#include "data/synthetic.h"
#include "oracle/matrix_oracle.h"
#include "oracle/string_oracle.h"
#include "oracle/vector_oracle.h"

namespace metricprox {

namespace {

// Snaps `n` cluster-distributed planar points to distinct road junctions.
// A `background_fraction` of the points is scattered uniformly (stray POIs
// between towns), which real POI datasets exhibit and which static
// landmark tables cover poorly.
std::vector<uint32_t> SnapClusteredObjects(const RoadNetwork& network,
                                           ObjectId n, uint32_t num_clusters,
                                           double cluster_spread,
                                           double background_fraction,
                                           uint64_t seed) {
  CHECK_LE(n, network.num_nodes())
      << "more objects than junctions to pin them to";
  std::mt19937_64 rng(seed);
  const auto& coords = network.coordinates();
  double max_x = 0.0;
  double max_y = 0.0;
  for (const auto& [x, y] : coords) {
    max_x = std::max(max_x, x);
    max_y = std::max(max_y, y);
  }
  std::uniform_real_distribution<double> ux(0.0, max_x);
  std::uniform_real_distribution<double> uy(0.0, max_y);
  std::vector<std::pair<double, double>> centers(num_clusters);
  for (auto& c : centers) c = {ux(rng), uy(rng)};

  std::normal_distribution<double> spread(0.0, cluster_spread);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::unordered_set<uint32_t> used;
  std::vector<uint32_t> nodes;
  nodes.reserve(n);
  while (nodes.size() < n) {
    uint32_t node;
    if (unit(rng) < background_fraction) {
      node = network.NearestNode(ux(rng), uy(rng));
    } else {
      const auto& center = centers[rng() % num_clusters];
      node = network.NearestNode(center.first + spread(rng),
                                 center.second + spread(rng));
    }
    if (used.insert(node).second) {
      nodes.push_back(node);
    } else if (used.size() > network.num_nodes() / 2) {
      // Dense occupancy: fall back to scanning for any free junction so we
      // terminate even when clusters are saturated.
      for (uint32_t v = 0; v < network.num_nodes() && nodes.size() < n; ++v) {
        if (used.insert(v).second) nodes.push_back(v);
      }
    }
  }
  return nodes;
}

Dataset MakeRoadDataset(std::string name, ObjectId n,
                        const RoadNetworkConfig& config,
                        uint32_t num_clusters, double cluster_spread,
                        double background_fraction, uint64_t seed) {
  Dataset dataset;
  dataset.name = std::move(name);
  dataset.network = std::make_shared<RoadNetwork>(RoadNetwork::Generate(config));
  std::vector<uint32_t> nodes = SnapClusteredObjects(
      *dataset.network, n, num_clusters, cluster_spread, background_fraction,
      seed + 1);
  dataset.oracle = std::make_unique<RoadNetworkOracle>(dataset.network.get(),
                                                       std::move(nodes));
  // Conservative diameter: the grid diagonal stretched by the worst detour
  // is an upper bound on any shortest path between junctions.
  const double diag = std::hypot(static_cast<double>(config.grid_width),
                                 static_cast<double>(config.grid_height));
  dataset.max_distance = diag * config.detour_max * 4.0;
  return dataset;
}

}  // namespace

Dataset MakeSfPoiLike(ObjectId n, uint64_t seed) {
  RoadNetworkConfig config;
  config.grid_width = kSfPoiGridSide;
  config.grid_height = kSfPoiGridSide;
  config.edge_keep_probability = 0.82;
  config.detour_min = 1.1;
  config.detour_max = 2.2;
  config.highway_fraction = 0.08;
  config.seed = seed;
  // One dense city: neighborhood count grows with the POI count (a fixed
  // handful of landmarks covers an ever-shrinking fraction of town, as in
  // the real dataset), plus stray POIs between neighborhoods.
  const uint32_t clusters = std::max<uint32_t>(12, n / 24);
  return MakeRoadDataset("sf-poi-like", n, config, clusters,
                         /*cluster_spread=*/3.0,
                         /*background_fraction=*/0.15, seed);
}

Dataset MakeUrbanGbLike(ObjectId n, uint64_t seed) {
  RoadNetworkConfig config;
  config.grid_width = kUrbanGbGridSide;
  config.grid_height = kUrbanGbGridSide;
  config.edge_keep_probability = 0.78;
  config.detour_min = 1.2;
  config.detour_max = 3.0;
  config.highway_fraction = 0.06;
  config.seed = seed;
  // Great-Britain-style: many separated towns whose count grows with n,
  // on a bigger map with long inter-town hauls.
  const uint32_t clusters = std::max<uint32_t>(8, n / 32);
  return MakeRoadDataset("urbangb-like", n, config, clusters,
                         /*cluster_spread=*/2.0,
                         /*background_fraction=*/0.10, seed);
}

Dataset MakeFlickrLike(ObjectId n, uint32_t dim, uint64_t seed) {
  Dataset dataset;
  dataset.name = "flickr-like";
  // Real image descriptors are high-dimensional but have low *intrinsic*
  // dimension; isotropic 256-d Gaussians would concentrate all pairwise
  // distances and make every bound scheme useless (which real Flickr
  // features are not). Generate a clustered low-dimensional latent space
  // and embed it with a fixed random linear map plus small ambient noise.
  constexpr uint32_t kLatentDim = 8;
  const uint32_t latent_dim = std::min(kLatentDim, dim);
  PointSet latent = GaussianMixturePoints(n, latent_dim, /*num_clusters=*/32,
                                          /*range=*/4.0, /*spread=*/0.25,
                                          seed);
  std::mt19937_64 rng(seed ^ 0x5eedf11c);
  std::normal_distribution<double> gauss(0.0, 1.0);
  std::vector<double> embedding(static_cast<size_t>(dim) * latent_dim);
  for (double& v : embedding) v = gauss(rng) / std::sqrt(latent_dim);
  std::normal_distribution<double> ambient(0.0, 0.02);

  PointSet points(n, std::vector<double>(dim));
  for (ObjectId i = 0; i < n; ++i) {
    for (uint32_t d = 0; d < dim; ++d) {
      double acc = ambient(rng);
      for (uint32_t l = 0; l < latent_dim; ++l) {
        acc += embedding[d * latent_dim + l] * latent[i][l];
      }
      points[i][d] = acc;
    }
  }
  // Latent diameter ~ range * sqrt(latent_dim); the random map roughly
  // preserves norms (rows ~ unit length in expectation); pad generously.
  dataset.max_distance =
      4.0 * std::sqrt(static_cast<double>(latent_dim)) * 6.0 +
      std::sqrt(static_cast<double>(dim)) * 0.5;
  dataset.oracle =
      std::make_unique<VectorOracle>(std::move(points), VectorMetric::kEuclidean);
  return dataset;
}

Dataset MakeDnaLike(ObjectId n, size_t length, uint64_t seed) {
  Dataset dataset;
  dataset.name = "dna-like";
  std::vector<std::string> strings = DnaFamilyStrings(
      n, length, /*num_families=*/std::max<uint32_t>(2, n / 24),
      /*mutations=*/static_cast<uint32_t>(length / 8), seed);
  // Edit distance never exceeds the longer string; mutations add at most
  // length/8 insertions each.
  dataset.max_distance = static_cast<double>(length + length / 4);
  dataset.oracle = std::make_unique<LevenshteinOracle>(std::move(strings));
  return dataset;
}

Dataset MakeRandomMetric(ObjectId n, uint64_t seed) {
  Dataset dataset;
  dataset.name = "random-metric";
  dataset.max_distance = 1.0;
  dataset.oracle = std::make_unique<MatrixOracle>(
      RandomShortestPathMetric(n, /*roughness=*/0.9, seed), n);
  return dataset;
}

Dataset MakeClusteredEuclidean(ObjectId n, uint32_t dim,
                               uint32_t num_clusters, double spread,
                               uint64_t seed) {
  Dataset dataset;
  dataset.name = "clustered-euclidean";
  PointSet points =
      GaussianMixturePoints(n, dim, num_clusters, /*range=*/1.0, spread, seed);
  // Gaussian tails extend past the unit box; bound the diameter generously.
  dataset.max_distance =
      std::sqrt(static_cast<double>(dim)) * (1.0 + 12.0 * spread);
  dataset.oracle =
      std::make_unique<VectorOracle>(std::move(points), VectorMetric::kEuclidean);
  return dataset;
}

}  // namespace metricprox
