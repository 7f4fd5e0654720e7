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
using medoid_internal::ComputeAssignment;
using medoid_internal::IsMedoid;
using medoid_internal::SumMargin;
using medoid_internal::SwapDeltas;
using medoid_internal::SwapScratch;
using medoid_internal::TermLowerBound;

namespace {

// BUILD's argmins in one form (TermLowerBound): the candidate c of least
// sum over `targets` (ascending ids) of min(d(c, j), cap[j]) - base[j],
// ties to the smaller id. BUILD 1 passes cap = infinity and base = 0, which
// makes the sum c's distance sum; BUILD 2..k passes cap = base = dn, which
// makes it c's negated gain. `cap` and `base` are indexed by object; an
// object left out of `targets` must add nothing.
//
// Candidates are visited best-first, from a min-heap on a lower bound of
// their objective; a stale key stays a valid bound, since the distances it
// bounds never change. A popped candidate is re-keyed from a fresh row, then
// dropped when its key proves it cannot beat the incumbent, pushed back
// when the key is worse than the next stale one, or else evaluated. The
// evaluation resolves the row's undecided pairs widest term interval first
// (the bound gap hi - lo for BUILD 1; for BUILD 2..k the smaller of the gap
// and the potential dn - lo) and abandons the candidate as soon as its
// resolved terms plus the bounds of the rest rule it out. A candidate
// evaluated to the end adds its terms in ascending j, as the textbook loop
// does, so its rounding and its ties are the textbook's.
ObjectId BestFirstArgmin(BoundedResolver* resolver,
                         std::span<const ObjectId> candidates,
                         std::span<const ObjectId> targets,
                         std::span<const double> cap,
                         std::span<const double> base) {
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
  for (const ObjectId c : candidates) heap.emplace(key_of(c), c);
  while (!heap.empty()) {
    const auto [stale, c] = heap.top();
    // Every later key is at least as large, with a larger id on a tie.
    if (rules_out(stale, c)) break;
    heap.pop();
    const double key = key_of(c);
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
    bool abandoned = rules_out(bound - SumMargin(m, magnitude), c);
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
      abandoned = rules_out(bound - SumMargin(m, magnitude), c);
    }
    if (abandoned) continue;

    double objective = 0.0;
    for (size_t u = 0; u < m; ++u) objective += term[u];
    if (objective < best_objective ||
        (objective == best_objective && c < best)) {
      best_objective = objective;
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
  std::vector<ObjectId> everyone(n);
  std::iota(everyone.begin(), everyone.end(), ObjectId{0});
  std::vector<ObjectId> medoids;
  medoids.reserve(options.num_medoids);
  medoids.push_back(BestFirstArgmin(resolver, everyone, everyone,
                                    std::vector<double>(n, kInfDistance),
                                    std::vector<double>(n, 0.0)));

  std::vector<double> dn(n);
  for (ObjectId j = 0; j < n; ++j) {
    dn[j] = resolver->Distance(medoids[0], j);
  }
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
        BestFirstArgmin(resolver, candidates, unserved, dn, dn);
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
    table = ComputeAssignment(resolver, medoids);
    ++result.iterations;
  }

  result.medoids = medoids;
  result.assignment = table.nearest;
  result.total_deviation = table.total_deviation;
  return result;
}

}  // namespace metricprox
