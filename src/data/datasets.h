#ifndef METRICPROX_DATA_DATASETS_H_
#define METRICPROX_DATA_DATASETS_H_

#include <memory>
#include <string>
#include <string_view>

#include "core/oracle.h"
#include "core/status.h"
#include "core/types.h"
#include "oracle/road_network.h"

namespace metricprox {

/// A self-owning workload: the oracle plus whatever backing storage it
/// needs (road network, point matrix, ...), and the normalization bound the
/// DFT scheme requires.
struct Dataset {
  std::string name;
  std::unique_ptr<DistanceOracle> oracle;
  /// Conservative upper bound on any pairwise distance.
  double max_distance = 1.0;
  /// Keep-alive for road-backed oracles.
  std::shared_ptr<RoadNetwork> network;
};

/// The road datasets pin every object to its own junction of a fixed
/// square grid, so each holds at most side × side objects.
inline constexpr uint32_t kSfPoiGridSide = 48;    // 2,304 junctions
inline constexpr uint32_t kUrbanGbGridSide = 72;  // 5,184 junctions
inline constexpr ObjectId kSfPoiCapacity = kSfPoiGridSide * kSfPoiGridSide;
inline constexpr ObjectId kUrbanGbCapacity =
    kUrbanGbGridSide * kUrbanGbGridSide;

/// InvalidArgument naming the limit when `n` objects do not fit on a road
/// dataset of `capacity` junctions; the generators CHECK-fail past it.
inline Status CheckRoadCapacity(std::string_view dataset, ObjectId n,
                                ObjectId capacity) {
  if (n <= capacity) return Status::OK();
  return Status::InvalidArgument(
      "the " + std::string(dataset) + " dataset holds at most " +
      std::to_string(capacity) +
      " objects (one per road junction); asked for " + std::to_string(n));
}

/// SF-POI-like (paper Table 1 row 1): points-of-interest clustered inside
/// one city, distances = shortest paths over a synthetic road network
/// (stand-in for the Google Maps API; see DESIGN.md §4). Holds at most
/// kSfPoiCapacity objects.
Dataset MakeSfPoiLike(ObjectId n, uint64_t seed);

/// UrbanGB-like (Table 1 row 3): POIs spread over several towns on a larger
/// road network — longer inter-cluster hauls than SF-POI. Holds at most
/// kUrbanGbCapacity objects.
Dataset MakeUrbanGbLike(ObjectId n, uint64_t seed);

/// Flickr1M-like (Table 1 row 2): `dim`-dimensional Gaussian-mixture
/// feature vectors under Euclidean distance.
Dataset MakeFlickrLike(ObjectId n, uint32_t dim, uint64_t seed);

/// DNA-like strings under Levenshtein distance (the paper's bioinformatics
/// application class).
Dataset MakeDnaLike(ObjectId n, size_t length, uint64_t seed);

/// Dense random shortest-path-closure metric, normalized into (0, 1] — the
/// workhorse of tests and of the tiny-graph DFT experiments.
Dataset MakeRandomMetric(ObjectId n, uint64_t seed);

/// Tightly clustered low-dimensional Euclidean points (cluster spread is a
/// fraction of the unit range). Cluster structure is what makes triangle
/// bounds decisive, so this generator is used where schemes must visibly
/// differentiate on small instances (e.g. the DFT experiments).
Dataset MakeClusteredEuclidean(ObjectId n, uint32_t dim,
                               uint32_t num_clusters, double spread,
                               uint64_t seed);

}  // namespace metricprox

#endif  // METRICPROX_DATA_DATASETS_H_
