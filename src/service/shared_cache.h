#ifndef METRICPROX_SERVICE_SHARED_CACHE_H_
#define METRICPROX_SERVICE_SHARED_CACHE_H_

#include <array>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "core/types.h"

namespace metricprox {

/// The session pool's shared pair cache: every distance any session of the
/// pool has resolved, keyed by the unordered pair. A session asks it before
/// the store and the base oracle, and the pool writes every resolution back.
/// Bound scans never read it (each session's private PartialDistanceGraph
/// serves those), so it keeps no adjacency, only EdgeKey -> distance.
///
/// Thread-safe: the map is striped into kStripes hash maps, each behind its
/// own mutex, so Get and Insert take one stripe lock each and sessions
/// asking for different pairs rarely contend.
///
/// Duplicates follow PartialDistanceGraph::InsertEdges: an exact duplicate
/// (same pair, same distance, either orientation), typically a racing
/// session that resolved the same pair, is skipped and reported; a
/// conflicting distance for a known pair CHECK-fails, because two values for
/// one pair mean the replies come from different metric spaces.
class SharedDistanceCache {
 public:
  explicit SharedDistanceCache(ObjectId num_objects)
      : num_objects_(num_objects) {}

  SharedDistanceCache(const SharedDistanceCache&) = delete;
  SharedDistanceCache& operator=(const SharedDistanceCache&) = delete;

  /// The cached distance, or nullopt if no session has resolved (i, j) yet
  /// (always for i == j).
  std::optional<double> Get(ObjectId i, ObjectId j) const;

  /// Records dist(i, j) = d. Returns true if the pair was fresh, false if an
  /// exact duplicate was already cached. CHECK-fails on self-edges,
  /// out-of-range ids, negative distances and conflicting duplicates.
  bool Insert(ObjectId i, ObjectId j, double d);

 private:
  static constexpr size_t kStripes = 16;

  struct Stripe {
    mutable std::mutex mu;
    std::unordered_map<EdgeKey, double, EdgeKeyHash> distances;
  };

  static size_t StripeOf(EdgeKey key) { return EdgeKeyHash{}(key) % kStripes; }

  ObjectId num_objects_;
  std::array<Stripe, kStripes> stripes_;
};

}  // namespace metricprox

#endif  // METRICPROX_SERVICE_SHARED_CACHE_H_
