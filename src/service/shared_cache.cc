#include "service/shared_cache.h"

#include "core/logging.h"

namespace metricprox {

std::optional<double> SharedDistanceCache::Get(ObjectId i, ObjectId j) const {
  // A self-pair is never cached (and EdgeKey DCHECKs i != j).
  if (i == j) return std::nullopt;
  const EdgeKey key(i, j);
  const Stripe& stripe = stripes_[StripeOf(key)];
  std::lock_guard<std::mutex> lock(stripe.mu);
  const auto it = stripe.distances.find(key);
  if (it == stripe.distances.end()) return std::nullopt;
  return it->second;
}

bool SharedDistanceCache::Insert(ObjectId i, ObjectId j, double d) {
  CHECK_NE(i, j) << "self-edge";
  CHECK_LT(i, num_objects_);
  CHECK_LT(j, num_objects_);
  CHECK_GE(d, 0.0) << "negative distance from oracle";
  const EdgeKey key(i, j);
  Stripe& stripe = stripes_[StripeOf(key)];
  std::lock_guard<std::mutex> lock(stripe.mu);
  const auto [it, inserted] = stripe.distances.emplace(key, d);
  if (!inserted) {
    CHECK_EQ(it->second, d)
        << "conflicting duplicate edge (" << i << ", " << j << ")";
  }
  return inserted;
}

}  // namespace metricprox
