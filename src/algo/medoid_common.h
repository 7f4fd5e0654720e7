#ifndef METRICPROX_ALGO_MEDOID_COMMON_H_
#define METRICPROX_ALGO_MEDOID_COMMON_H_

#include <cstdint>
#include <span>
#include <vector>

#include "bounds/resolver.h"
#include "core/types.h"

namespace metricprox {

/// Output of a k-medoid clustering (PAM / CLARANS).
struct ClusteringResult {
  std::vector<ObjectId> medoids;
  /// assignment[j] = index into `medoids` of j's nearest medoid.
  std::vector<uint32_t> assignment;
  /// Sum over all objects of the distance to their nearest medoid (TD).
  double total_deviation = 0.0;
  /// Swap rounds executed (PAM) or accepted moves (CLARANS).
  uint32_t iterations = 0;
};

namespace medoid_internal {

/// Per-object nearest / second-nearest medoid bookkeeping used by the swap
/// evaluations of PAM and CLARANS.
struct AssignmentTable {
  /// Index into the medoid vector of the nearest medoid (for a medoid
  /// object: itself).
  std::vector<uint32_t> nearest;
  /// Distance to the nearest medoid (0 for medoids).
  std::vector<double> dist_nearest;
  /// Distance to the second-nearest medoid.
  std::vector<double> dist_second;
  double total_deviation = 0.0;
};

/// Computes the table by resolving object-to-medoid distances (cached in the
/// shared graph, so successive rounds only pay for new medoids).
AssignmentTable ComputeAssignment(BoundedResolver* resolver,
                                  const std::vector<ObjectId>& medoids);

/// The per-candidate buffers of SwapDeltas that grow with n. PAM and CLARANS
/// keep one across their candidates, so no candidate allocates in
/// proportion to n.
struct SwapScratch {
  std::vector<ObjectId> targets;  // 0 .. n-1: the row every candidate bounds
  std::vector<Interval> bounds;   // the candidate's row, indexed by object
};

/// Exact change in total deviation if non-medoid `h` takes medoid slot o,
/// written to deltas[o] for every slot o in [out_begin, out_end); no other
/// entry is written. One pass prices them all: a BoundsFrom row (h, ·),
/// then each object j in ascending order against t = ds(j) when its own
/// medoid is in the range, else dn(j). j is skipped when the row proves
/// d(j,h) >= t; otherwise LessThan(j, h, t) decides, and a true answer
/// resolves d(j,h) before the next object. This is the paper's re-authored
/// IF statement inside PAM/CLARANS: every delta adds the oracle-only
/// computation's terms in its order, so it equals that computation bit for
/// bit. `deltas` holds one entry per medoid.
void SwapDeltas(BoundedResolver* resolver, const AssignmentTable& table,
                ObjectId h, uint32_t out_begin, uint32_t out_end,
                SwapScratch* scratch, std::span<double> deltas);

/// True if `object` appears in `medoids`.
bool IsMedoid(const std::vector<ObjectId>& medoids, ObjectId object);

}  // namespace medoid_internal

}  // namespace metricprox

#endif  // METRICPROX_ALGO_MEDOID_COMMON_H_
