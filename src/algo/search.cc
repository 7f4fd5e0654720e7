#include "algo/search.h"

#include <algorithm>
#include <queue>

#include "core/logging.h"

namespace metricprox {

namespace {

struct Candidate {
  double lower_bound;
  ObjectId id;
};

// Heap order for std::make_heap / std::pop_heap: the top is the smallest
// (lower bound, id), so pops come out in ascending total order.
struct CandidateAfter {
  bool operator()(const Candidate& a, const Candidate& b) const {
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

// Candidates triaged between two oracle round-trips. The running k-th
// distance only shrinks, so a candidate proven farther at triage time stays
// discardable after later admits — chunking never costs exactness, it only
// trades incumbent freshness for batch size.
constexpr size_t kKnnChunk = 32;

}  // namespace

std::vector<KnnNeighbor> KnnSearch(BoundedResolver* resolver, ObjectId query,
                                   uint32_t k) {
  CHECK(resolver != nullptr);
  CHECK_GE(k, 1u);
  const ObjectId n = resolver->num_objects();
  CHECK_GT(n, k);
  CHECK_LT(query, n);

  // One bound pass over the row (query, ·) orders every candidate; the
  // heap hands them out lazily, in (lower bound, id) order.
  std::vector<ObjectId> targets;
  targets.reserve(n - 1);
  for (ObjectId v = 0; v < n; ++v) {
    if (v != query) targets.push_back(v);
  }
  std::vector<Interval> bounds(targets.size());
  resolver->BoundsFrom(query, targets, bounds);
  std::vector<Candidate> candidates(targets.size());
  for (size_t c = 0; c < targets.size(); ++c) {
    candidates[c] = Candidate{bounds[c].lo, targets[c]};
  }
  std::make_heap(candidates.begin(), candidates.end(), CandidateAfter());
  const auto pop_nearest = [&candidates] {
    std::pop_heap(candidates.begin(), candidates.end(), CandidateAfter());
    const Candidate next = candidates.back();
    candidates.pop_back();
    return next;
  };

  // Seed the heap with the first k candidates, resolved in one batch.
  std::priority_queue<KnnNeighbor, std::vector<KnnNeighbor>, HeapLess> best;
  std::vector<IdPair> batch;
  for (uint32_t c = 0; c < k; ++c) {
    batch.push_back(IdPair{query, pop_nearest().id});
  }
  resolver->ResolveAll(batch);
  for (const IdPair& p : batch) {
    best.push(KnnNeighbor{p.j, resolver->Distance(query, p.j)});
  }

  // Chunked rounds over the remaining candidates: a bounds-only sweep
  // against the current k-th distance, one batched resolution of the
  // survivors, then sequential admits under the (distance, id) tie rule.
  // The first candidate whose ordering lower bound already clears the
  // threshold ends the scan: every later one has a lower bound at least as
  // large, and the threshold only shrinks, so all of them are farther.
  std::vector<ObjectId> survivors;
  bool rest_farther = false;
  while (!candidates.empty() && !rest_farther) {
    const double t = best.top().distance;
    const double cutoff = t + BoundDecisionMargin(t);
    batch.clear();
    survivors.clear();
    for (size_t c = 0; c < kKnnChunk && !candidates.empty(); ++c) {
      const Candidate next = pop_nearest();
      if (next.lower_bound > cutoff) {
        rest_farther = true;
        break;
      }
      if (resolver->ProvenGreaterThan(query, next.id, t)) continue;
      batch.push_back(IdPair{query, next.id});
      survivors.push_back(next.id);
    }
    resolver->ResolveAll(batch);
    for (const ObjectId v : survivors) {
      const double d = resolver->Distance(query, v);
      const double top = best.top().distance;
      const ObjectId tid = best.top().id;
      if (d < top || (d == top && v < tid)) {
        best.pop();
        best.push(KnnNeighbor{v, d});
      }
    }
  }

  std::vector<KnnNeighbor> out(best.size());
  for (size_t i = best.size(); i-- > 0;) {
    out[i] = best.top();
    best.pop();
  }
  return out;
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
