#include "algo/medoid_common.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <optional>

#include "core/logging.h"

namespace metricprox {
namespace medoid_internal {

bool IsMedoid(const std::vector<ObjectId>& medoids, ObjectId object) {
  return std::find(medoids.begin(), medoids.end(), object) != medoids.end();
}

AssignmentTable ComputeAssignment(BoundedResolver* resolver,
                                  const std::vector<ObjectId>& medoids) {
  const ObjectId n = resolver->num_objects();
  CHECK_GE(medoids.size(), 2u) << "second-nearest undefined for k < 2";
  AssignmentTable table;
  table.nearest.assign(n, 0);
  table.dist_nearest.assign(n, kInfDistance);
  table.dist_second.assign(n, kInfDistance);

  // Every object-to-medoid distance is needed, so ship the whole j x m grid
  // to the oracle in one batch (already-cached pairs cost nothing), then run
  // the nearest / second-nearest bookkeeping on cache reads.
  std::vector<IdPair> grid;
  grid.reserve(static_cast<size_t>(n) * medoids.size());
  for (ObjectId j = 0; j < n; ++j) {
    for (const ObjectId m : medoids) {
      grid.push_back(IdPair{j, m});
    }
  }
  resolver->ResolveAll(grid);

  for (ObjectId j = 0; j < n; ++j) {
    for (uint32_t m = 0; m < medoids.size(); ++m) {
      const double d = resolver->Distance(j, medoids[m]);  // 0 for j itself
      if (d < table.dist_nearest[j] ||
          (d == table.dist_nearest[j] && medoids[m] < medoids[table.nearest[j]])) {
        table.dist_second[j] = table.dist_nearest[j];
        table.dist_nearest[j] = d;
        table.nearest[j] = m;
      } else if (d < table.dist_second[j]) {
        table.dist_second[j] = d;
      }
    }
    table.total_deviation += table.dist_nearest[j];
  }
  return table;
}

double TermLowerBound(const Interval& bounds, double cap, double base) {
  const double shaved = bounds.lo - BoundDecisionMargin(bounds.lo);
  return std::min(shaved > 0.0 ? shaved : 0.0, cap) - base;
}

double SumMargin(size_t objects, double magnitude) {
  return 4.0 * static_cast<double>(objects) *
         std::numeric_limits<double>::epsilon() * magnitude;
}

bool SwapDeltas(BoundedResolver* resolver, const AssignmentTable& table,
                ObjectId h, uint32_t out_begin, uint32_t out_end,
                double incumbent, SwapScratch* scratch,
                std::span<double> deltas) {
  CHECK(scratch != nullptr);
  CHECK_LT(out_begin, out_end);
  CHECK_LE(out_end, deltas.size());
  const ObjectId n = resolver->num_objects();
  CHECK_LT(h, n);

  // One bound pass over the row (h, ·), with h itself answered Exact(0), so
  // the targets are the same ascending list for every candidate.
  std::vector<ObjectId>& targets = scratch->targets;
  if (targets.size() != n) {
    targets.resize(n);
    std::iota(targets.begin(), targets.end(), ObjectId{0});
  }
  std::vector<Interval>& row = scratch->bounds;
  row.resize(n);
  resolver->BoundsFrom(h, targets, row);

  // Every slot's delta bounded from the row (TermLowerBound): `kept` adds
  // each object's term with cap dn, and a slot adds, for the objects it
  // serves, what the cap ds puts on top. j = h comes out as -dn(h), its
  // row entry being Exact(0). Every term of a delta and of its bound, and
  // every correction, is at most ds(j) in size.
  const auto slots = deltas.subspan(out_begin, out_end - out_begin);
  std::fill(slots.begin(), slots.end(), 0.0);
  double kept = 0.0;
  double magnitude = 0.0;
  for (ObjectId j = 0; j < n; ++j) {
    const double dn = table.dist_nearest[j];
    const double ds = table.dist_second[j];
    const double term = TermLowerBound(row[j], dn, dn);
    kept += term;
    magnitude += ds;
    const uint32_t own = table.nearest[j];
    if (own >= out_begin && own < out_end) {
      deltas[own] += TermLowerBound(row[j], ds, dn) - term;
    }
  }
  const double margin = SumMargin(n, magnitude);
  bool beaten = true;
  for (double& bound : slots) {
    bound = kept + bound - margin;
    beaten = beaten && bound > incumbent;
  }
  if (beaten) return false;

  std::fill(slots.begin(), slots.end(), 0.0);
  for (ObjectId j = 0; j < n; ++j) {
    const double dn = table.dist_nearest[j];
    if (j == h) {
      // h becomes a medoid: its old contribution disappears.
      for (double& delta : slots) delta -= dn;
      continue;
    }
    const uint32_t own = table.nearest[j];
    const bool loses = own >= out_begin && own < out_end;
    const double ds = table.dist_second[j];
    const double t = loses ? ds : dn;
    // The row was bounded before this pass resolved anything, and bounds
    // only tighten as edges land: what it proves, LessThan would too.
    const std::optional<bool> by_row = Bounder::DecideLessThanFrom(row[j], t);
    const bool moves =
        (!by_row.has_value() || *by_row) && resolver->LessThan(j, h, t);
    const double d = moves ? resolver->Distance(j, h) : 0.0;
    if (loses) {
      // j loses its medoid: it moves to h or to its old second-nearest.
      // (The outgoing medoid itself falls in this case with dn = 0.)
      deltas[own] += moves ? d - dn : ds - dn;
    }
    if (moves && d < dn) {
      // Every other slot keeps j's medoid, and h is strictly closer.
      for (uint32_t o = out_begin; o < out_end; ++o) {
        if (o != own) deltas[o] += d - dn;
      }
    }
  }
  return true;
}

}  // namespace medoid_internal
}  // namespace metricprox
