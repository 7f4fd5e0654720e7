#include "algo/search.h"

#include <algorithm>
#include <numeric>

#include "core/logging.h"

namespace metricprox {

namespace {

using internal::KnnCandidate;

// Heap order for std::make_heap / std::pop_heap: the top is the smallest
// (lower bound, id), so pops come out in ascending total order.
struct CandidateAfter {
  bool operator()(const KnnCandidate& a, const KnnCandidate& b) const {
    if (a.lower_bound != b.lower_bound) return a.lower_bound > b.lower_bound;
    return a.id > b.id;
  }
};

struct HeapLess {
  bool operator()(const KnnNeighbor& a, const KnnNeighbor& b) const {
    if (a.distance != b.distance) return a.distance < b.distance;
    return a.id < b.id;
  }
};

}  // namespace

std::vector<KnnNeighbor> KnnSearch(BoundedResolver* resolver, ObjectId query,
                                   uint32_t k) {
  internal::KnnScratch scratch;
  return internal::KnnSearch(resolver, query, k, &scratch);
}

std::vector<KnnNeighbor> internal::KnnSearch(BoundedResolver* resolver,
                                             ObjectId query, uint32_t k,
                                             KnnScratch* scratch) {
  CHECK(resolver != nullptr);
  CHECK(scratch != nullptr);
  CHECK_GE(k, 1u);
  const ObjectId n = resolver->num_objects();
  CHECK_GT(n, k);
  CHECK_LT(query, n);

  // One bound pass over the row (query, ·). The targets are every object,
  // the query included (BoundsFrom answers it Exact(0)), so the list is the
  // same ascending one for every query.
  std::vector<ObjectId>& targets = scratch->targets;
  if (targets.size() != n) {
    targets.resize(n);
    std::iota(targets.begin(), targets.end(), ObjectId{0});
  }
  std::vector<Interval>& bounds = scratch->bounds;
  bounds.resize(n);
  resolver->BoundsFrom(query, targets, bounds);

  // U_k, the k-th smallest upper bound in the row, by insertion into k
  // sorted slots, and the candidate horizon H = h(U_k), with
  // h(u) = r + margin(r) for r = u + margin(u). Only candidates with
  // lb <= H enter the heap, and the scan is still the unfiltered one, with
  // the same output, comparisons, bound queries and oracle calls:
  // - The k candidates achieving U_k have lb <= U_k <= H, so they are
  //   popped before any candidate outside the horizon.
  // - Once they are popped, t <= U_k: either they are the k nearest, each
  //   at d <= U_k, or one of them was skipped, rejected or evicted when
  //   t <= d <= U_k, and t only shrinks.
  // - t + margin(t) is monotone in t, so the scan stops at or before the
  //   first candidate outside the horizon.
  // An upper bound may undershoot its distance by rounding, which the
  // verbs' decision margin absorbs; so only t <= U_k + margin(U_k) is
  // certain, and H adds the margin once more on top of that. U_k = +inf
  // (say, the first query on an empty graph) filters nothing.
  //
  // Both come from one pass over the row. The pass collects against the
  // horizon of the running U_k, then drops from that short list what lies
  // beyond the final H. The running U_k only falls and h is monotone, so
  // every running horizon is at least H: the kept candidates are exactly
  // those with lb <= H, in ascending id order as before.
  const auto horizon_of = [](double u) {
    const double reach = u + BoundDecisionMargin(u);
    return reach + BoundDecisionMargin(reach);
  };
  std::vector<double>& upper = scratch->upper;
  upper.assign(k, kInfDistance);
  double kth = kInfDistance;
  double horizon = horizon_of(kth);
  std::vector<KnnCandidate>& candidates = scratch->candidates;
  candidates.resize(n);
  KnnCandidate* const collected = candidates.data();
  const Interval* const row = bounds.data();
  size_t size = 0;
  for (ObjectId v = 0; v < n; ++v) {
    if (v == query) continue;
    const Interval b = row[v];
    // Every candidate is written and only one inside the horizon is kept,
    // so the pass takes no branch on the horizon.
    collected[size] = KnnCandidate{b.lo, v};
    size += b.lo <= horizon ? 1 : 0;
    if (!(b.hi < kth)) continue;
    size_t s = k - 1;
    for (; s > 0 && upper[s - 1] > b.hi; --s) upper[s] = upper[s - 1];
    upper[s] = b.hi;
    kth = upper[k - 1];
    horizon = horizon_of(kth);
  }
  const size_t within_running_horizon = size;
  size = 0;
  for (size_t x = 0; x < within_running_horizon; ++x) {
    const KnnCandidate c = collected[x];
    collected[size] = c;
    size += c.lower_bound <= horizon ? 1 : 0;
  }
  std::make_heap(collected, collected + size, CandidateAfter());
  const auto pop_nearest = [collected, &size] {
    std::pop_heap(collected, collected + size, CandidateAfter());
    return collected[--size];
  };

  // The first k candidates are admitted unconditionally: resolve them in
  // one batch.
  std::vector<IdPair>& seeds = scratch->seeds;
  seeds.clear();
  for (uint32_t c = 0; c < k; ++c) {
    seeds.push_back(IdPair{query, pop_nearest().id});
  }
  resolver->ResolveAll(seeds);
  std::vector<KnnNeighbor> best;
  best.reserve(k);
  for (const IdPair& p : seeds) {
    best.push_back(KnnNeighbor{p.j, resolver->Distance(query, p.j)});
  }
  std::make_heap(best.begin(), best.end(), HeapLess());

  // The sequential scan, against the k-th distance t as it stands after
  // every admit. The first candidate whose ordering lower bound already
  // clears t ends it: every later one has a lower bound at least as large,
  // and t only shrinks, so all of them are farther.
  while (size > 0) {
    const double t = best.front().distance;
    const KnnCandidate next = pop_nearest();
    if (next.lower_bound > t + BoundDecisionMargin(t)) break;
    if (resolver->ProvenGreaterThan(query, next.id, t)) continue;
    const double d = resolver->Distance(query, next.id);
    if (d < t || (d == t && next.id < best.front().id)) {
      std::pop_heap(best.begin(), best.end(), HeapLess());
      best.back() = KnnNeighbor{next.id, d};
      std::push_heap(best.begin(), best.end(), HeapLess());
    }
  }

  std::sort_heap(best.begin(), best.end(), HeapLess());
  return best;
}

std::vector<KnnNeighbor> RangeSearch(BoundedResolver* resolver,
                                     ObjectId query, double radius) {
  CHECK(resolver != nullptr);
  CHECK_GE(radius, 0.0);
  const ObjectId n = resolver->num_objects();
  CHECK_LT(query, n);

  // The radius is fixed, so the whole query is one triage sweep plus one
  // batched resolution of everything not provably outside the ball.
  std::vector<IdPair> batch;
  std::vector<ObjectId> survivors;
  for (ObjectId v = 0; v < n; ++v) {
    if (v == query) continue;
    // Provably outside the ball: no oracle call.
    if (resolver->ProvenGreaterThan(query, v, radius)) continue;
    batch.push_back(IdPair{query, v});
    survivors.push_back(v);
  }
  resolver->ResolveAll(batch);
  std::vector<KnnNeighbor> hits;
  for (const ObjectId v : survivors) {
    const double d = resolver->Distance(query, v);
    if (d <= radius) hits.push_back(KnnNeighbor{v, d});
  }
  std::sort(hits.begin(), hits.end(),
            [](const KnnNeighbor& a, const KnnNeighbor& b) {
              if (a.distance != b.distance) return a.distance < b.distance;
              return a.id < b.id;
            });
  return hits;
}

DiameterEstimate ApproximateDiameter(BoundedResolver* resolver,
                                     ObjectId anchor) {
  CHECK(resolver != nullptr);
  const ObjectId n = resolver->num_objects();
  CHECK_GE(n, 2u);
  CHECK_LT(anchor, n);

  // One farthest-point sweep: skip candidates whose upper bound proves
  // they cannot beat the incumbent (LessThan decided true by bounds).
  const auto sweep = [resolver, n](ObjectId from) {
    ObjectId arg = kInvalidObject;
    double best = -1.0;
    for (ObjectId v = 0; v < n; ++v) {
      if (v == from) continue;
      if (best >= 0.0 && resolver->LessThan(from, v, best)) continue;
      const double d = resolver->Distance(from, v);
      if (d > best) {
        best = d;
        arg = v;
      }
    }
    return std::pair<ObjectId, double>{arg, best};
  };

  const auto [p, dp] = sweep(anchor);
  const auto [q, dq] = sweep(p);
  DiameterEstimate out;
  if (dq >= dp) {
    out.u = p;
    out.v = q;
    out.distance = dq;
  } else {
    out.u = anchor;
    out.v = p;
    out.distance = dp;
  }
  return out;
}

WeightedEdge ClosestPair(BoundedResolver* resolver) {
  CHECK(resolver != nullptr);
  const ObjectId n = resolver->num_objects();
  CHECK_GE(n, 2u);

  // All pairs, ascending by current lower bound: near pairs resolve first
  // and collapse the incumbent quickly.
  struct PairCandidate {
    double lower_bound;
    ObjectId u;
    ObjectId v;
  };
  std::vector<PairCandidate> candidates;
  candidates.reserve(static_cast<size_t>(n) * (n - 1) / 2);
  for (ObjectId u = 0; u < n; ++u) {
    for (ObjectId v = u + 1; v < n; ++v) {
      candidates.push_back(PairCandidate{resolver->Bounds(u, v).lo, u, v});
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const PairCandidate& a, const PairCandidate& b) {
              if (a.lower_bound != b.lower_bound) {
                return a.lower_bound < b.lower_bound;
              }
              return EdgeKey(a.u, a.v) < EdgeKey(b.u, b.v);
            });

  WeightedEdge best{kInvalidObject, kInvalidObject, kInfDistance};
  for (const PairCandidate& c : candidates) {
    // Provably not closer: skip without an oracle call. (A tie cannot win
    // unless its pair key is smaller, which ProvenGreaterThan's strictness
    // already leaves to the resolve path below.)
    if (best.u != kInvalidObject &&
        resolver->ProvenGreaterThan(c.u, c.v, best.weight)) {
      continue;
    }
    const double d = resolver->Distance(c.u, c.v);
    if (d < best.weight ||
        (d == best.weight && EdgeKey(c.u, c.v) < EdgeKey(best.u, best.v))) {
      best = WeightedEdge{c.u, c.v, d};
    }
  }
  return best;
}

}  // namespace metricprox
