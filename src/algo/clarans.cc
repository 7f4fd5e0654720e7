#include "algo/clarans.h"

#include <algorithm>
#include <random>
#include <vector>

#include "core/logging.h"

namespace metricprox {

using medoid_internal::AssignmentTable;
using medoid_internal::ComputeAssignment;
using medoid_internal::IsMedoid;
using medoid_internal::SwapDeltas;
using medoid_internal::SwapScratch;
using medoid_internal::UpdateAssignment;

namespace {

std::vector<ObjectId> SampleDistinct(ObjectId n, uint32_t k,
                                     std::mt19937_64* rng) {
  std::vector<ObjectId> picked;
  picked.reserve(k);
  while (picked.size() < k) {
    const ObjectId candidate = static_cast<ObjectId>((*rng)() % n);
    if (std::find(picked.begin(), picked.end(), candidate) == picked.end()) {
      picked.push_back(candidate);
    }
  }
  return picked;
}

}  // namespace

ClusteringResult ClaransCluster(BoundedResolver* resolver,
                                const ClaransOptions& options) {
  CHECK(resolver != nullptr);
  CHECK_GE(options.num_medoids, 2u);
  CHECK_GE(options.num_local, 1u);
  const ObjectId n = resolver->num_objects();
  CHECK_GT(n, options.num_medoids);

  std::mt19937_64 rng(options.seed);
  SwapScratch scratch;
  std::vector<double> deltas(options.num_medoids);
  ClusteringResult best;
  best.total_deviation = kInfDistance;

  for (uint32_t local = 0; local < options.num_local; ++local) {
    std::vector<ObjectId> medoids =
        SampleDistinct(n, options.num_medoids, &rng);
    AssignmentTable table = ComputeAssignment(resolver, medoids);
    uint32_t accepted = 0;

    uint32_t stale = 0;
    while (stale < options.max_neighbor) {
      const uint32_t out = static_cast<uint32_t>(rng() % medoids.size());
      ObjectId h = static_cast<ObjectId>(rng() % n);
      if (IsMedoid(medoids, h)) {
        // Draw again without counting the draw toward `stale`. The stream
        // depends on no distance, so plugged and oracle-only runs draw alike.
        continue;
      }
      // Only a strictly negative delta is taken, so a row that proves the
      // delta exceeds 0 settles the draw without a comparison.
      if (SwapDeltas(resolver, table, h, out, out + 1, /*incumbent=*/0.0,
                     &scratch, deltas) &&
          deltas[out] < 0.0) {
        medoids[out] = h;
        UpdateAssignment(resolver, medoids, out, &table);
        ++accepted;
        stale = 0;
      } else {
        ++stale;
      }
    }

    if (table.total_deviation < best.total_deviation) {
      best.medoids = medoids;
      best.assignment = table.nearest;
      best.total_deviation = table.total_deviation;
      best.iterations = accepted;
    }
  }
  return best;
}

}  // namespace metricprox
