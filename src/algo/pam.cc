#include "algo/pam.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <numeric>
#include <queue>
#include <span>
#include <utility>
#include <vector>

#include "core/logging.h"

namespace metricprox {

using medoid_internal::AssignmentTable;
using medoid_internal::BestFirstArgmin;
using medoid_internal::ComputeAssignment;
using medoid_internal::IsMedoid;
using medoid_internal::SwapDeltas;
using medoid_internal::SwapScratch;
using medoid_internal::UpdateAssignment;

namespace medoid_internal {

ObjectId BestFirstArgmin(BoundedResolver* resolver,
                         std::span<const ObjectId> candidates,
                         std::span<const ObjectId> targets,
                         std::span<const double> cap,
                         std::span<const double> base, std::span<double> keys) {
  const size_t m = targets.size();
  std::vector<Interval> row(resolver->num_objects());  // indexed by object
  std::vector<double> lower(m);
  std::vector<double> term(m);
  std::vector<double> width(m);
  std::vector<size_t> undecided;

  // A lower bound on c's objective from a fresh row, left in row and lower.
  const auto key_of = [&](ObjectId c) {
    resolver->BoundsFrom(c, targets, row);
    double sum = 0.0;
    double magnitude = 0.0;
    for (size_t u = 0; u < m; ++u) {
      const ObjectId j = targets[u];
      lower[u] = TermLowerBound(row[j], cap[j], base[j]);
      sum += lower[u];
      magnitude += std::abs(lower[u]);
    }
    return sum - SumMargin(m, magnitude);
  };

  ObjectId best = kInvalidObject;
  double best_objective = kInfDistance;
  // Whether a lower bound on c's objective proves that c cannot beat the
  // incumbent; a tie goes to the smaller id.
  const auto rules_out = [&](double bound, ObjectId c) {
    return bound > best_objective || (bound == best_objective && c > best);
  };

  using Entry = std::pair<double, ObjectId>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  for (const ObjectId c : candidates) heap.emplace(keys[c], c);
  while (!heap.empty()) {
    const auto [stale, c] = heap.top();
    // Every later key is at least as large, with a larger id on a tie.
    if (rules_out(stale, c)) break;
    heap.pop();
    const double key = std::max(stale, key_of(c));
    keys[c] = key;
    if (rules_out(key, c)) continue;
    if (!heap.empty() && Entry{key, c} > heap.top()) {
      heap.emplace(key, c);
      continue;
    }

    // The terms the cache or the row decides, and a bound for the rest.
    double bound = 0.0;
    double magnitude = 0.0;
    undecided.clear();
    for (size_t u = 0; u < m; ++u) {
      const ObjectId j = targets[u];
      if (resolver->Known(c, j)) {
        term[u] = std::min(resolver->Distance(c, j), cap[j]) - base[j];
      } else if (!Bounder::DecideLessThanFrom(row[j], cap[j]).value_or(true)) {
        term[u] = cap[j] - base[j];  // the row proves d(c, j) >= cap
      } else {
        term[u] = lower[u];
        width[u] = std::min(row[j].hi, cap[j]) - base[j] - lower[u];
        undecided.push_back(u);
      }
      bound += term[u];
      magnitude += std::abs(term[u]);
    }
    std::sort(undecided.begin(), undecided.end(), [&](size_t a, size_t b) {
      return width[a] > width[b] || (width[a] == width[b] && a < b);
    });
    double proven = bound - SumMargin(m, magnitude);
    bool abandoned = rules_out(proven, c);
    for (size_t i = 0; i < undecided.size() && !abandoned; ++i) {
      const size_t u = undecided[i];
      const ObjectId j = targets[u];
      // d(c, j) < cap needs no comparison when the cap is infinite or the
      // row proves it.
      const bool below =
          cap[j] == kInfDistance ||
          Bounder::DecideLessThanFrom(row[j], cap[j]).value_or(false) ||
          resolver->LessThan(c, j, cap[j]);
      term[u] = below ? resolver->Distance(c, j) - base[j] : cap[j] - base[j];
      const double correction = term[u] - lower[u];
      bound += correction;
      magnitude += std::abs(correction);
      proven = bound - SumMargin(m, magnitude);
      abandoned = rules_out(proven, c);
    }
    if (abandoned) {
      keys[c] = std::max(key, proven);
      continue;
    }

    double objective = 0.0;
    for (size_t u = 0; u < m; ++u) objective += term[u];
    keys[c] = std::max(key, objective - SumMargin(m, magnitude));
    if (objective < best_objective ||
        (objective == best_objective && c < best)) {
      best_objective = objective;
      best = c;
    }
  }
  CHECK_NE(best, kInvalidObject);
  return best;
}

}  // namespace medoid_internal

ClusteringResult PamCluster(BoundedResolver* resolver,
                            const PamOptions& options) {
  CHECK(resolver != nullptr);
  CHECK_GE(options.num_medoids, 2u);
  const ObjectId n = resolver->num_objects();
  CHECK_GT(n, options.num_medoids);

  // ---- BUILD ----
  std::vector<ObjectId> everyone(n);
  std::iota(everyone.begin(), everyone.end(), ObjectId{0});
  std::vector<double> keys(n, -kInfDistance);
  std::vector<ObjectId> medoids;
  medoids.reserve(options.num_medoids);
  medoids.push_back(BestFirstArgmin(resolver, everyone, everyone,
                                    std::vector<double>(n, kInfDistance),
                                    std::vector<double>(n, 0.0), keys));

  std::vector<double> dn(n);
  for (ObjectId j = 0; j < n; ++j) {
    dn[j] = resolver->Distance(medoids[0], j);
  }
  // BUILD 1's keys bound the distance sum, not a gain: BUILD 2 keys afresh.
  std::fill(keys.begin(), keys.end(), -kInfDistance);
  std::vector<ObjectId> candidates;
  std::vector<ObjectId> unserved;
  while (medoids.size() < options.num_medoids) {
    candidates.clear();
    unserved.clear();
    for (ObjectId j = 0; j < n; ++j) {
      if (!IsMedoid(medoids, j)) candidates.push_back(j);
      // An object served at cost 0 can gain nothing.
      if (dn[j] > 0.0) unserved.push_back(j);
    }
    const ObjectId next =
        BestFirstArgmin(resolver, candidates, unserved, dn, dn, keys);
    medoids.push_back(next);
    // `next` was evaluated to the end against cap = dn: every pair it left
    // unresolved is proven at least dn, so only cached pairs can lower dn.
    for (ObjectId j = 0; j < n; ++j) {
      if (resolver->Known(next, j)) {
        dn[j] = std::min(dn[j], resolver->Distance(next, j));
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
      // A row that proves every slot's delta above best_delta settles h.
      if (!SwapDeltas(resolver, table, h, 0, k, best_delta, &scratch,
                      deltas)) {
        continue;
      }
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
    UpdateAssignment(resolver, medoids, best_out, &table);
    ++result.iterations;
  }

  result.medoids = medoids;
  result.assignment = table.nearest;
  result.total_deviation = table.total_deviation;
  return result;
}

}  // namespace metricprox
