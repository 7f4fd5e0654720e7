#include "algo/pam.h"

#include <numeric>
#include <vector>

#include "core/logging.h"

namespace metricprox {

using medoid_internal::AssignmentTable;
using medoid_internal::ComputeAssignment;
using medoid_internal::IsMedoid;
using medoid_internal::SwapDeltas;
using medoid_internal::SwapScratch;

namespace {

// A lower bound shaved by the fp-safety margin, so early-abandon sums can
// never discard a candidate that mathematically ties the incumbent.
double Shaved(double lo) {
  const double safe = lo - BoundDecisionMargin(lo);
  return safe > 0.0 ? safe : 0.0;
}

// BUILD step 1: the object minimizing its distance sum to everything,
// with branch-and-bound early abandon on partial sums.
ObjectId SelectFirstMedoid(BoundedResolver* resolver) {
  const ObjectId n = resolver->num_objects();
  ObjectId best = kInvalidObject;
  double best_sum = kInfDistance;
  std::vector<ObjectId> everyone(n);
  std::iota(everyone.begin(), everyone.end(), ObjectId{0});
  std::vector<Interval> bounds(n);
  std::vector<double> lbs(n);

  for (ObjectId c = 0; c < n; ++c) {
    resolver->BoundsFrom(c, everyone, bounds);  // [0, 0] for j == c
    double remaining_lb = 0.0;
    for (ObjectId j = 0; j < n; ++j) {
      lbs[j] = Shaved(bounds[j].lo);
      remaining_lb += lbs[j];
    }
    double sum = 0.0;
    bool abandoned = false;
    for (ObjectId j = 0; j < n; ++j) {
      remaining_lb -= lbs[j];
      if (j != c) sum += resolver->Distance(c, j);
      if (sum + remaining_lb >= best_sum) {
        abandoned = true;  // cannot be strictly better than the incumbent
        break;
      }
    }
    if (!abandoned && sum < best_sum) {
      best_sum = sum;
      best = c;
    }
  }
  CHECK_NE(best, kInvalidObject);
  return best;
}

// BUILD steps 2..k: add the candidate maximizing the total-deviation gain
// against the current nearest-medoid distances `dn`, pruning per object and
// early-abandoning per candidate.
ObjectId SelectNextMedoid(BoundedResolver* resolver,
                          const std::vector<ObjectId>& medoids,
                          const std::vector<double>& dn) {
  const ObjectId n = resolver->num_objects();
  ObjectId best = kInvalidObject;
  double best_gain = -1.0;  // a valid candidate always has gain >= 0
  // Objects already served at cost 0 can gain nothing; the rest, ascending.
  std::vector<ObjectId> unserved;
  for (ObjectId j = 0; j < n; ++j) {
    if (dn[j] > 0.0) unserved.push_back(j);
  }
  std::vector<Interval> bounds(unserved.size());
  std::vector<double> lbs(n, 0.0);

  for (ObjectId c = 0; c < n; ++c) {
    if (IsMedoid(medoids, c)) continue;
    resolver->BoundsFrom(c, unserved, bounds);  // [0, 0] for j == c
    double potential = 0.0;
    for (size_t u = 0; u < unserved.size(); ++u) {
      const ObjectId j = unserved[u];
      lbs[j] = Shaved(bounds[u].lo);
      const double p = dn[j] - lbs[j];
      if (p > 0.0) potential += p;
    }
    double gain = 0.0;
    bool abandoned = false;
    for (ObjectId j = 0; j < n; ++j) {
      if (dn[j] <= 0.0) continue;  // already served at cost 0
      const double p = dn[j] - lbs[j];
      if (p > 0.0) potential -= p;
      if (resolver->LessThan(c, j, dn[j])) {
        gain += dn[j] - resolver->Distance(c, j);
      }
      if (gain + potential <= best_gain) {
        abandoned = true;
        break;
      }
    }
    if (!abandoned && gain > best_gain) {
      best_gain = gain;
      best = c;
    }
  }
  CHECK_NE(best, kInvalidObject);
  return best;
}

}  // namespace

ClusteringResult PamCluster(BoundedResolver* resolver,
                            const PamOptions& options) {
  CHECK(resolver != nullptr);
  CHECK_GE(options.num_medoids, 2u);
  const ObjectId n = resolver->num_objects();
  CHECK_GT(n, options.num_medoids);

  // ---- BUILD ----
  std::vector<ObjectId> medoids;
  medoids.reserve(options.num_medoids);
  medoids.push_back(SelectFirstMedoid(resolver));

  std::vector<double> dn(n);
  for (ObjectId j = 0; j < n; ++j) {
    dn[j] = resolver->Distance(medoids[0], j);
  }
  while (medoids.size() < options.num_medoids) {
    const ObjectId next = SelectNextMedoid(resolver, medoids, dn);
    medoids.push_back(next);
    for (ObjectId j = 0; j < n; ++j) {
      // `LessThan == false` proves the minimum is unchanged — no call.
      if (resolver->LessThan(next, j, dn[j])) {
        dn[j] = resolver->Distance(next, j);
      }
    }
  }

  // ---- SWAP ----
  ClusteringResult result;
  AssignmentTable table = ComputeAssignment(resolver, medoids);
  const uint32_t k = options.num_medoids;
  SwapScratch scratch;
  std::vector<double> deltas(k);
  for (uint32_t round = 0; round < options.max_swap_rounds; ++round) {
    double best_delta = 0.0;
    uint32_t best_out = 0;
    ObjectId best_h = kInvalidObject;
    for (ObjectId h = 0; h < n; ++h) {
      if (IsMedoid(medoids, h)) continue;
      SwapDeltas(resolver, table, h, 0, k, &scratch, deltas);
      for (uint32_t out = 0; out < k; ++out) {
        // The smallest strictly improving delta; a tie goes to the first
        // pair in (out, h) order. h ascends, so an equal delta displaces the
        // incumbent only from an earlier slot.
        if (deltas[out] < best_delta ||
            (best_h != kInvalidObject && deltas[out] == best_delta &&
             out < best_out)) {
          best_delta = deltas[out];
          best_out = out;
          best_h = h;
        }
      }
    }
    if (best_h == kInvalidObject) break;  // local optimum
    medoids[best_out] = best_h;
    table = ComputeAssignment(resolver, medoids);
    ++result.iterations;
  }

  result.medoids = medoids;
  result.assignment = table.nearest;
  result.total_deviation = table.total_deviation;
  return result;
}

}  // namespace metricprox
