#ifndef METRICPROX_CORE_SIMD_H_
#define METRICPROX_CORE_SIMD_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "core/status.h"
#include "core/types.h"

namespace metricprox {
namespace simd {

/// The instruction-set tiers the bound kernels are compiled for. Tiers are
/// ordered: a higher tier strictly implies the lower ones on any x86-64
/// host (AVX2 machines all have SSE2), so clamping an override to the
/// detected tier is always safe.
enum class Tier : uint8_t {
  kScalar = 0,
  kSse2 = 1,
  kAvx2 = 2,
};

inline constexpr Tier kAllTiers[] = {Tier::kScalar, Tier::kSse2, Tier::kAvx2};

std::string_view TierName(Tier tier);
StatusOr<Tier> ParseTier(std::string_view text);  // "scalar"|"sse2"|"avx2"

/// Highest tier the running CPU supports, probed once with cpuid (via
/// __builtin_cpu_supports). Non-x86 builds report kScalar.
Tier DetectedTier();

/// The tier whose kernel table ActiveKernels() currently returns. Resolved
/// on first use: the METRICPROX_SIMD environment variable ("scalar",
/// "sse2", "avx2", or "auto", the default) clamped to DetectedTier() — a
/// request the hardware cannot honor silently degrades (with a WARN log)
/// rather than faulting, so one pinned config works across a fleet of
/// heterogeneous hosts. An unparseable value CHECK-fails.
Tier ActiveTier();

/// Re-points ActiveKernels() at `tier` (clamped to DetectedTier(); the
/// clamped tier is returned). Used by the `mpx --simd=` flag and by
/// kernel_equivalence_test to A/B the tiers inside one process. The tier
/// variable itself is atomic, so a switch concurrent with in-flight kernel
/// calls is a race-free (TSan-clean) read of either the old or the new
/// tier — but for reproducible accounting still switch only between runs.
Tier SetTier(Tier tier);

/// Distance functions the batch-distance kernel can evaluate over flat
/// row-major coordinate matrices. Mirrors the vector-oracle metrics that
/// admit a bit-exact vector form; the angular (acos-based) metric does not
/// and stays on the oracle's scalar path.
enum class DistanceKind : uint8_t {
  kL2 = 0,         // sqrt of the summed squared diffs
  kSquaredL2 = 1,  // summed squared diffs
  kL1 = 2,         // summed absolute diffs
  kLinf = 3,       // max absolute diff
};

/// The runtime-dispatched kernel table. Every entry has a scalar reference
/// implementation, and every SIMD implementation is bit-identical to it by
/// construction:
///   * pivot_scan / tri_merge only combine lanes through max/min, which are
///     associative and commutative over the non-NaN doubles that reach
///     them, so lane order cannot change the result;
///   * batch_distance vectorizes ACROSS pairs — each SIMD lane accumulates
///     one pair's sum in the same dimension order as the scalar loop — so
///     per-pair rounding is untouched (a dimension-wise vectorization would
///     reassociate the sum and drift by ulps).
/// kernel_equivalence_test pins the bit-identity for every tier the host
/// supports, and the audit matrix proves decisions/counters match end to
/// end.
struct KernelTable {
  /// LAESA/TLAESA pivot scan over two contiguous pivot-distance rows
  /// (a[p] = D(pivot p, i), b[p] = D(pivot p, j)):
  ///   lb = max_p |a[p] - b[p]|,  ub = min_p (a[p] + b[p]),
  /// clamped to lb <= ub. k == 0 yields [0, +inf).
  Interval (*pivot_scan)(const double* a, const double* b, size_t k);

  /// Tri-scheme reduction over the matched columns of a merge-intersection
  /// (di[m], dj[m] = the two known sides of triangle m):
  ///   lb = max_m max(di/rho - dj, dj/rho - di),  ub = min_m rho*(di + dj),
  /// clamped to lb <= ub. Callers pass inv_rho = 1.0/rho so every tier
  /// multiplies by the same precomputed reciprocal.
  Interval (*tri_reduce)(const double* di, const double* dj, size_t m,
                         double rho, double inv_rho);

  /// Batch point-to-point distances over a flat row-major n x dim matrix:
  ///   out[p] = kind(points[pairs[p].i * dim ..], points[pairs[p].j * dim ..]).
  /// Pair ids must be in range; i == j is allowed (distance 0).
  void (*batch_distance)(const double* points, size_t dim,
                         const IdPair* pairs, size_t count, double* out,
                         DistanceKind kind);
};

/// Kernel table of the active tier (see ActiveTier()).
const KernelTable& ActiveKernels();

/// Kernel table of a specific tier, clamped to DetectedTier(). Lets tests
/// and benches compare tiers side by side without flipping the global.
const KernelTable& KernelsForTier(Tier tier);

/// Caller-owned scratch for the Tri bound strategies below. Callers
/// (TriBounder holds one per instance) reuse the same scratch across calls
/// so every capacity is paid once; distinct resolvers/sessions own distinct
/// scratch, so concurrent bound scans never share mutable state through
/// this layer (the previous function-local `thread_local` hid per-thread
/// buffers that outlived the bounders using them and coupled every resolver
/// on a thread).
struct TriScratch {
  /// The matched triangle sides of one intersection, kept contiguous so the
  /// reduction clamps once over the whole of it (TriMergeBounds and
  /// TriGatherBounds).
  std::vector<double> di;
  std::vector<double> dj;
  /// TriScatterBounds' per-object accumulators, indexed by object id.
  std::vector<Interval> acc;
  /// TriGatherBounds' dense copy of the source's column, indexed by object
  /// id, with in_column[c] = 1 exactly for the source's neighbors.
  std::vector<double> column;
  std::vector<uint8_t> in_column;
};

/// Convenience wrapper for the Tri bounder: merge-intersects two adjacency
/// columns sorted ascending by id (the graph's CSR view) into `scratch`
/// and feeds the matched distance pairs through the active tri_reduce
/// kernel. The merge itself is branchy pointer-chasing (never worth
/// vectorizing at proximity-graph degrees); the arithmetic reduction is
/// where the SIMD tiers differ.
Interval TriMergeBounds(const ObjectId* ids_a, const double* dist_a,
                        size_t na, const ObjectId* ids_b,
                        const double* dist_b, size_t nb, double rho,
                        TriScratch* scratch);

/// One node's adjacency column in the graph's SoA layout: `size` neighbor
/// ids sorted strictly ascending, with their distances alongside.
struct TriColumn {
  const ObjectId* ids = nullptr;
  const double* distances = nullptr;
  size_t size = 0;
};

/// The two one-to-many strategies behind TriBounder::BoundsFrom: for a
/// source column `q` and every target v, row[v] is exactly what
/// TriMergeBounds(q, column of v) returns on any tier; entries of `row`
/// outside the targets are left untouched, and a repeated target is
/// written twice with the same interval. Both visit each target's common
/// neighbors with q in ascending id order and reduce them with the
/// reference rule, so the choice between them is a cost decision only.
/// Object ids index `row` and the scratch arrays, all of `num_objects`
/// entries.
///
/// Scatter walks each neighbor c of q and c's own column once,
/// max/min-reducing every triangle (q, c, v) into per-object accumulators:
/// O(Σ_{c ∈ N(q)} deg c), independent of the number of targets.
/// `neighbor_columns[x]` is the column of node q.ids[x].
void TriScatterBounds(TriColumn q, std::span<const TriColumn> neighbor_columns,
                      std::span<const ObjectId> targets, double rho,
                      size_t num_objects, TriScratch* scratch,
                      std::span<Interval> row);

/// Gather expands q's column into a dense one once, then walks each target's
/// column against it without branching and hands the matched sides to the
/// active tri_reduce kernel: O(deg q + Σ_v deg v). `target_columns[k]` is
/// the column of targets[k].
void TriGatherBounds(TriColumn q, std::span<const TriColumn> target_columns,
                     std::span<const ObjectId> targets, double rho,
                     size_t num_objects, TriScratch* scratch,
                     std::span<Interval> row);

}  // namespace simd
}  // namespace metricprox

#endif  // METRICPROX_CORE_SIMD_H_
