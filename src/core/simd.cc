#include "core/simd.h"

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/logging.h"

#if defined(__x86_64__) || defined(_M_X64)
#define METRICPROX_SIMD_X86 1
#include <emmintrin.h>  // SSE2 (baseline on x86-64)
#include <immintrin.h>  // AVX2 (used only inside target("avx2") functions)
#else
#define METRICPROX_SIMD_X86 0
#endif

namespace metricprox {
namespace simd {

namespace {

/// Shared epilogue of the reduction kernels: the same defensive clamp the
/// scalar bounders have always applied (a maximally tight witness can push
/// lb past ub by floating-point noise only).
Interval FinishInterval(double lb, double ub) {
  if (lb > ub) lb = ub;
  return Interval(lb, ub);
}

// ---------------------------------------------------------------------------
// Scalar reference kernels. These are the semantics; the SIMD tiers below
// must reproduce them bit for bit. The conditional-update form (`if (gap >
// lb)`) is the historical bounder loop verbatim, and it also keeps the
// reference loops scalar under GCC's -O2 cost model so bench comparisons
// measure dispatch honestly.
// ---------------------------------------------------------------------------

Interval PivotScanScalar(const double* a, const double* b, size_t k) {
  double lb = 0.0;
  double ub = kInfDistance;
  for (size_t p = 0; p < k; ++p) {
    const double di = a[p];
    const double dj = b[p];
    const double gap = di > dj ? di - dj : dj - di;
    if (gap > lb) lb = gap;
    const double sum = di + dj;
    if (sum < ub) ub = sum;
  }
  return FinishInterval(lb, ub);
}

Interval TriReduceScalar(const double* di, const double* dj, size_t m,
                         double rho, double inv_rho) {
  double lb = 0.0;
  double ub = kInfDistance;
  for (size_t t = 0; t < m; ++t) {
    const double a = di[t];
    const double b = dj[t];
    const double gap_ij = a * inv_rho - b;
    const double gap_ji = b * inv_rho - a;
    const double gap = gap_ij > gap_ji ? gap_ij : gap_ji;
    if (gap > lb) lb = gap;
    const double sum = rho * (a + b);
    if (sum < ub) ub = sum;
  }
  return FinishInterval(lb, ub);
}

/// One pair, one metric — the exact accumulation pattern of
/// VectorOracle::Distance (same expression forms, same dimension order).
double PairDistanceScalar(const double* x, const double* y, size_t dim,
                          DistanceKind kind) {
  double acc = 0.0;
  switch (kind) {
    case DistanceKind::kL2:
    case DistanceKind::kSquaredL2:
      for (size_t d = 0; d < dim; ++d) {
        const double diff = x[d] - y[d];
        acc += diff * diff;
      }
      return kind == DistanceKind::kL2 ? std::sqrt(acc) : acc;
    case DistanceKind::kL1:
      for (size_t d = 0; d < dim; ++d) {
        acc += std::abs(x[d] - y[d]);
      }
      return acc;
    case DistanceKind::kLinf:
      for (size_t d = 0; d < dim; ++d) {
        const double diff = std::abs(x[d] - y[d]);
        if (diff > acc) acc = diff;
      }
      return acc;
  }
  LOG(Fatal) << "unreachable distance kind";
  return 0.0;
}

void BatchDistanceScalar(const double* points, size_t dim, const IdPair* pairs,
                         size_t count, double* out, DistanceKind kind) {
  for (size_t p = 0; p < count; ++p) {
    const double* x = points + static_cast<size_t>(pairs[p].i) * dim;
    const double* y = points + static_cast<size_t>(pairs[p].j) * dim;
    out[p] = PairDistanceScalar(x, y, dim, kind);
  }
}

const KernelTable kScalarKernels{PivotScanScalar, TriReduceScalar,
                                 BatchDistanceScalar};

#if METRICPROX_SIMD_X86

// ---------------------------------------------------------------------------
// SSE2 tier (unconditionally available on x86-64). Two lanes of doubles.
// Bit-identity with the scalar reference:
//  * |di - dj| via andnot(-0.0, di - dj): IEEE negation is exact, so the
//    branchy scalar form and the sign-cleared subtraction agree bitwise;
//  * lane accumulators start at the scalar identities (0 for the max,
//    +inf for the min), so folding lanes into the scalar tail accumulator
//    is just more applications of the same associative max/min.
// ---------------------------------------------------------------------------

double HorizontalMaxSse2(__m128d v) {
  const __m128d hi = _mm_unpackhi_pd(v, v);
  return _mm_cvtsd_f64(_mm_max_sd(v, hi));
}

double HorizontalMinSse2(__m128d v) {
  const __m128d hi = _mm_unpackhi_pd(v, v);
  return _mm_cvtsd_f64(_mm_min_sd(v, hi));
}

Interval PivotScanSse2(const double* a, const double* b, size_t k) {
  const __m128d neg_zero = _mm_set1_pd(-0.0);
  __m128d lbv = _mm_setzero_pd();
  __m128d ubv = _mm_set1_pd(kInfDistance);
  size_t p = 0;
  for (; p + 2 <= k; p += 2) {
    const __m128d va = _mm_loadu_pd(a + p);
    const __m128d vb = _mm_loadu_pd(b + p);
    const __m128d gap = _mm_andnot_pd(neg_zero, _mm_sub_pd(va, vb));
    lbv = _mm_max_pd(lbv, gap);
    ubv = _mm_min_pd(ubv, _mm_add_pd(va, vb));
  }
  double lb = HorizontalMaxSse2(lbv);
  double ub = HorizontalMinSse2(ubv);
  for (; p < k; ++p) {
    const double di = a[p];
    const double dj = b[p];
    const double gap = di > dj ? di - dj : dj - di;
    if (gap > lb) lb = gap;
    const double sum = di + dj;
    if (sum < ub) ub = sum;
  }
  return FinishInterval(lb, ub);
}

Interval TriReduceSse2(const double* di, const double* dj, size_t m,
                       double rho, double inv_rho) {
  const __m128d vrho = _mm_set1_pd(rho);
  const __m128d vinv = _mm_set1_pd(inv_rho);
  __m128d lbv = _mm_setzero_pd();
  __m128d ubv = _mm_set1_pd(kInfDistance);
  size_t t = 0;
  for (; t + 2 <= m; t += 2) {
    const __m128d va = _mm_loadu_pd(di + t);
    const __m128d vb = _mm_loadu_pd(dj + t);
    const __m128d gap_ij = _mm_sub_pd(_mm_mul_pd(va, vinv), vb);
    const __m128d gap_ji = _mm_sub_pd(_mm_mul_pd(vb, vinv), va);
    lbv = _mm_max_pd(lbv, _mm_max_pd(gap_ij, gap_ji));
    ubv = _mm_min_pd(ubv, _mm_mul_pd(vrho, _mm_add_pd(va, vb)));
  }
  double lb = HorizontalMaxSse2(lbv);
  double ub = HorizontalMinSse2(ubv);
  for (; t < m; ++t) {
    const double a = di[t];
    const double b = dj[t];
    const double gap_ij = a * inv_rho - b;
    const double gap_ji = b * inv_rho - a;
    const double gap = gap_ij > gap_ji ? gap_ij : gap_ji;
    if (gap > lb) lb = gap;
    const double sum = rho * (a + b);
    if (sum < ub) ub = sum;
  }
  return FinishInterval(lb, ub);
}

/// Two pairs per iteration, one pair per lane. The inner loop walks the
/// dimensions in scalar order, so each lane's accumulation sequence — and
/// therefore its rounding — is exactly the scalar reference's; no FMA can
/// appear because the translation unit is compiled without the fma ISA.
/// _mm_sqrt_pd is correctly rounded and thus agrees with std::sqrt.
void BatchDistanceSse2(const double* points, size_t dim, const IdPair* pairs,
                       size_t count, double* out, DistanceKind kind) {
  const __m128d neg_zero = _mm_set1_pd(-0.0);
  size_t p = 0;
  for (; p + 2 <= count; p += 2) {
    const double* x0 = points + static_cast<size_t>(pairs[p].i) * dim;
    const double* y0 = points + static_cast<size_t>(pairs[p].j) * dim;
    const double* x1 = points + static_cast<size_t>(pairs[p + 1].i) * dim;
    const double* y1 = points + static_cast<size_t>(pairs[p + 1].j) * dim;
    __m128d acc = _mm_setzero_pd();
    switch (kind) {
      case DistanceKind::kL2:
      case DistanceKind::kSquaredL2:
        for (size_t d = 0; d < dim; ++d) {
          const __m128d diff = _mm_sub_pd(_mm_set_pd(x1[d], x0[d]),
                                          _mm_set_pd(y1[d], y0[d]));
          acc = _mm_add_pd(acc, _mm_mul_pd(diff, diff));
        }
        if (kind == DistanceKind::kL2) acc = _mm_sqrt_pd(acc);
        break;
      case DistanceKind::kL1:
        for (size_t d = 0; d < dim; ++d) {
          const __m128d diff = _mm_sub_pd(_mm_set_pd(x1[d], x0[d]),
                                          _mm_set_pd(y1[d], y0[d]));
          acc = _mm_add_pd(acc, _mm_andnot_pd(neg_zero, diff));
        }
        break;
      case DistanceKind::kLinf:
        for (size_t d = 0; d < dim; ++d) {
          const __m128d diff = _mm_sub_pd(_mm_set_pd(x1[d], x0[d]),
                                          _mm_set_pd(y1[d], y0[d]));
          acc = _mm_max_pd(acc, _mm_andnot_pd(neg_zero, diff));
        }
        break;
    }
    _mm_storeu_pd(out + p, acc);
  }
  if (p < count) {
    BatchDistanceScalar(points, dim, pairs + p, count - p, out + p, kind);
  }
}

const KernelTable kSse2Kernels{PivotScanSse2, TriReduceSse2,
                               BatchDistanceSse2};

// ---------------------------------------------------------------------------
// AVX2 tier: four lanes of doubles, compiled per-function via the target
// attribute (the build has no global -m flags, so nothing outside these
// functions can emit AVX instructions and trip an older host). The target
// enables avx2 but deliberately NOT fma: without the fma ISA the compiler
// cannot contract mul+add pairs, which keeps batch-distance accumulation
// bit-identical to the scalar reference.
// ---------------------------------------------------------------------------

__attribute__((target("avx2"))) double HorizontalMaxAvx2(__m256d v) {
  const __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  const __m128d m = _mm_max_pd(lo, hi);
  return _mm_cvtsd_f64(_mm_max_sd(m, _mm_unpackhi_pd(m, m)));
}

__attribute__((target("avx2"))) double HorizontalMinAvx2(__m256d v) {
  const __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  const __m128d m = _mm_min_pd(lo, hi);
  return _mm_cvtsd_f64(_mm_min_sd(m, _mm_unpackhi_pd(m, m)));
}

__attribute__((target("avx2"))) Interval PivotScanAvx2(const double* a,
                                                       const double* b,
                                                       size_t k) {
  const __m256d neg_zero = _mm256_set1_pd(-0.0);
  __m256d lbv = _mm256_setzero_pd();
  __m256d ubv = _mm256_set1_pd(kInfDistance);
  size_t p = 0;
  for (; p + 4 <= k; p += 4) {
    const __m256d va = _mm256_loadu_pd(a + p);
    const __m256d vb = _mm256_loadu_pd(b + p);
    const __m256d gap = _mm256_andnot_pd(neg_zero, _mm256_sub_pd(va, vb));
    lbv = _mm256_max_pd(lbv, gap);
    ubv = _mm256_min_pd(ubv, _mm256_add_pd(va, vb));
  }
  double lb = HorizontalMaxAvx2(lbv);
  double ub = HorizontalMinAvx2(ubv);
  for (; p < k; ++p) {
    const double di = a[p];
    const double dj = b[p];
    const double gap = di > dj ? di - dj : dj - di;
    if (gap > lb) lb = gap;
    const double sum = di + dj;
    if (sum < ub) ub = sum;
  }
  return FinishInterval(lb, ub);
}

__attribute__((target("avx2"))) Interval TriReduceAvx2(const double* di,
                                                       const double* dj,
                                                       size_t m, double rho,
                                                       double inv_rho) {
  const __m256d vrho = _mm256_set1_pd(rho);
  const __m256d vinv = _mm256_set1_pd(inv_rho);
  __m256d lbv = _mm256_setzero_pd();
  __m256d ubv = _mm256_set1_pd(kInfDistance);
  size_t t = 0;
  for (; t + 4 <= m; t += 4) {
    const __m256d va = _mm256_loadu_pd(di + t);
    const __m256d vb = _mm256_loadu_pd(dj + t);
    const __m256d gap_ij = _mm256_sub_pd(_mm256_mul_pd(va, vinv), vb);
    const __m256d gap_ji = _mm256_sub_pd(_mm256_mul_pd(vb, vinv), va);
    lbv = _mm256_max_pd(lbv, _mm256_max_pd(gap_ij, gap_ji));
    ubv = _mm256_min_pd(ubv, _mm256_mul_pd(vrho, _mm256_add_pd(va, vb)));
  }
  double lb = HorizontalMaxAvx2(lbv);
  double ub = HorizontalMinAvx2(ubv);
  for (; t < m; ++t) {
    const double a = di[t];
    const double b = dj[t];
    const double gap_ij = a * inv_rho - b;
    const double gap_ji = b * inv_rho - a;
    const double gap = gap_ij > gap_ji ? gap_ij : gap_ji;
    if (gap > lb) lb = gap;
    const double sum = rho * (a + b);
    if (sum < ub) ub = sum;
  }
  return FinishInterval(lb, ub);
}

__attribute__((target("avx2"))) void BatchDistanceAvx2(
    const double* points, size_t dim, const IdPair* pairs, size_t count,
    double* out, DistanceKind kind) {
  const __m256d neg_zero = _mm256_set1_pd(-0.0);
  size_t p = 0;
  for (; p + 4 <= count; p += 4) {
    const double* x[4];
    const double* y[4];
    for (int l = 0; l < 4; ++l) {
      x[l] = points + static_cast<size_t>(pairs[p + l].i) * dim;
      y[l] = points + static_cast<size_t>(pairs[p + l].j) * dim;
    }
    __m256d acc = _mm256_setzero_pd();
    switch (kind) {
      case DistanceKind::kL2:
      case DistanceKind::kSquaredL2:
        for (size_t d = 0; d < dim; ++d) {
          const __m256d diff =
              _mm256_sub_pd(_mm256_set_pd(x[3][d], x[2][d], x[1][d], x[0][d]),
                            _mm256_set_pd(y[3][d], y[2][d], y[1][d], y[0][d]));
          acc = _mm256_add_pd(acc, _mm256_mul_pd(diff, diff));
        }
        if (kind == DistanceKind::kL2) acc = _mm256_sqrt_pd(acc);
        break;
      case DistanceKind::kL1:
        for (size_t d = 0; d < dim; ++d) {
          const __m256d diff =
              _mm256_sub_pd(_mm256_set_pd(x[3][d], x[2][d], x[1][d], x[0][d]),
                            _mm256_set_pd(y[3][d], y[2][d], y[1][d], y[0][d]));
          acc = _mm256_add_pd(acc, _mm256_andnot_pd(neg_zero, diff));
        }
        break;
      case DistanceKind::kLinf:
        for (size_t d = 0; d < dim; ++d) {
          const __m256d diff =
              _mm256_sub_pd(_mm256_set_pd(x[3][d], x[2][d], x[1][d], x[0][d]),
                            _mm256_set_pd(y[3][d], y[2][d], y[1][d], y[0][d]));
          acc = _mm256_max_pd(acc, _mm256_andnot_pd(neg_zero, diff));
        }
        break;
    }
    _mm256_storeu_pd(out + p, acc);
  }
  if (p < count) {
    BatchDistanceScalar(points, dim, pairs + p, count - p, out + p, kind);
  }
}

const KernelTable kAvx2Kernels{PivotScanAvx2, TriReduceAvx2,
                               BatchDistanceAvx2};

#endif  // METRICPROX_SIMD_X86

Tier ClampToDetected(Tier tier) {
  const Tier cap = DetectedTier();
  return static_cast<uint8_t>(tier) <= static_cast<uint8_t>(cap) ? tier : cap;
}

/// Resolves the startup tier: METRICPROX_SIMD if set (clamped with a
/// warning when the hardware cannot honor it), otherwise the probe.
Tier ResolveInitialTier() {
  const char* env = std::getenv("METRICPROX_SIMD");
  if (env == nullptr || env[0] == '\0' ||
      std::string_view(env) == "auto") {
    return DetectedTier();
  }
  StatusOr<Tier> parsed = ParseTier(env);
  CHECK(parsed.ok()) << "METRICPROX_SIMD=" << env << ": "
                     << parsed.status().ToString();
  const Tier clamped = ClampToDetected(*parsed);
  if (clamped != *parsed) {
    LOG(Warning) << "METRICPROX_SIMD=" << env
                 << " not supported by this CPU; degrading to "
                 << TierName(clamped);
  }
  return clamped;
}

/// The active tier, readable concurrently with SetTier: bound scans from
/// concurrent resolver sessions read this on every kernel dispatch, so the
/// cell is atomic (relaxed — the tier is a self-contained value, nothing
/// is published through it).
std::atomic<Tier>& ActiveTierRef() {
  static std::atomic<Tier> tier{ResolveInitialTier()};
  return tier;
}

}  // namespace

std::string_view TierName(Tier tier) {
  switch (tier) {
    case Tier::kScalar:
      return "scalar";
    case Tier::kSse2:
      return "sse2";
    case Tier::kAvx2:
      return "avx2";
  }
  return "unknown";
}

StatusOr<Tier> ParseTier(std::string_view text) {
  if (text == "scalar") return Tier::kScalar;
  if (text == "sse2") return Tier::kSse2;
  if (text == "avx2") return Tier::kAvx2;
  return Status::InvalidArgument("unknown SIMD tier (want scalar|sse2|avx2): " +
                                 std::string(text));
}

Tier DetectedTier() {
#if METRICPROX_SIMD_X86
  static const Tier detected = [] {
    if (__builtin_cpu_supports("avx2")) return Tier::kAvx2;
    // SSE2 is architecturally guaranteed on x86-64, but probe anyway so the
    // answer is honest if this unit is ever compiled for 32-bit x86.
    if (__builtin_cpu_supports("sse2")) return Tier::kSse2;
    return Tier::kScalar;
  }();
  return detected;
#else
  return Tier::kScalar;
#endif
}

Tier ActiveTier() { return ActiveTierRef().load(std::memory_order_relaxed); }

Tier SetTier(Tier tier) {
  const Tier clamped = ClampToDetected(tier);
  ActiveTierRef().store(clamped, std::memory_order_relaxed);
  return clamped;
}

const KernelTable& KernelsForTier(Tier tier) {
  switch (ClampToDetected(tier)) {
    case Tier::kScalar:
      break;
#if METRICPROX_SIMD_X86
    case Tier::kSse2:
      return kSse2Kernels;
    case Tier::kAvx2:
      return kAvx2Kernels;
#else
    case Tier::kSse2:
    case Tier::kAvx2:
      break;  // unreachable: DetectedTier() is kScalar off x86
#endif
  }
  return kScalarKernels;
}

const KernelTable& ActiveKernels() { return KernelsForTier(ActiveTier()); }

Interval TriMergeBounds(const ObjectId* ids_a, const double* dist_a, size_t na,
                        const ObjectId* ids_b, const double* dist_b, size_t nb,
                        double rho, TriScratch* scratch) {
  // The caller-owned scratch is reused across calls: common-neighbor counts
  // vary wildly (a few in sparse phases, O(n) after a warm start), and the
  // reduction kernel wants the whole intersection contiguous so the clamp
  // happens once, not per chunk (per-chunk clamping would change lb near
  // crossing intervals).
  std::vector<double>& di_scratch = scratch->di;
  std::vector<double>& dj_scratch = scratch->dj;
  di_scratch.clear();
  dj_scratch.clear();
  size_t x = 0;
  size_t y = 0;
  while (x < na && y < nb) {
    if (ids_a[x] == ids_b[y]) {
      di_scratch.push_back(dist_a[x]);
      dj_scratch.push_back(dist_b[y]);
      ++x;
      ++y;
    } else if (ids_a[x] < ids_b[y]) {
      ++x;
    } else {
      ++y;
    }
  }
  return ActiveKernels().tri_reduce(di_scratch.data(), dj_scratch.data(),
                                    di_scratch.size(), rho, 1.0 / rho);
}

void TriScatterBounds(TriColumn q, std::span<const TriColumn> neighbor_columns,
                      std::span<const ObjectId> targets, double rho,
                      size_t num_objects, TriScratch* scratch,
                      std::span<Interval> row) {
  DCHECK_EQ(neighbor_columns.size(), q.size);
  DCHECK_EQ(row.size(), num_objects);
  std::vector<Interval>& acc = scratch->acc;
  if (acc.size() < num_objects) acc.resize(num_objects);
  for (const ObjectId v : targets) acc[v] = Interval::Unbounded();
  // Every entry of every walked column is reduced, target or not: a
  // membership test would cost a branch per entry, a non-target's
  // accumulator is never read, and a target's is reset above on every
  // call. The update is the reference rule (`if (gap > lb) lb = gap`) in
  // conditional-move form.
  const double inv_rho = 1.0 / rho;
  for (size_t x = 0; x < q.size; ++x) {
    const double a = q.distances[x];
    const TriColumn& c = neighbor_columns[x];
    for (size_t y = 0; y < c.size; ++y) {
      const ObjectId v = c.ids[y];
      const double b = c.distances[y];
      const double gap_ij = a * inv_rho - b;
      const double gap_ji = b * inv_rho - a;
      const double gap = gap_ij > gap_ji ? gap_ij : gap_ji;
      Interval& bound = acc[v];
      bound.lo = gap > bound.lo ? gap : bound.lo;
      const double sum = rho * (a + b);
      bound.hi = sum < bound.hi ? sum : bound.hi;
    }
  }
  for (const ObjectId v : targets) {
    row[v] = FinishInterval(acc[v].lo, acc[v].hi);
  }
}

void TriGatherBounds(TriColumn q, std::span<const TriColumn> target_columns,
                     std::span<const ObjectId> targets, double rho,
                     size_t num_objects, TriScratch* scratch,
                     std::span<Interval> row) {
  DCHECK_EQ(target_columns.size(), targets.size());
  DCHECK_EQ(row.size(), num_objects);
  std::vector<double>& column = scratch->column;
  std::vector<uint8_t>& in_column = scratch->in_column;
  if (column.size() < num_objects) {
    column.resize(num_objects, 0.0);
    in_column.resize(num_objects, 0);
  }
  for (size_t x = 0; x < q.size; ++x) {
    column[q.ids[x]] = q.distances[x];
    in_column[q.ids[x]] = 1;
  }
  std::vector<double>& di = scratch->di;
  std::vector<double>& dj = scratch->dj;
  const auto tri_reduce = ActiveKernels().tri_reduce;
  const double inv_rho = 1.0 / rho;
  for (size_t k = 0; k < target_columns.size(); ++k) {
    const TriColumn& v = target_columns[k];
    if (di.size() < v.size) {
      di.resize(v.size);
      dj.resize(v.size);
    }
    // Every entry is written; only a common neighbor advances the cursor,
    // so the matched sides land contiguously in ascending id order.
    size_t m = 0;
    for (size_t y = 0; y < v.size; ++y) {
      const ObjectId c = v.ids[y];
      di[m] = column[c];
      dj[m] = v.distances[y];
      m += in_column[c];
    }
    row[targets[k]] = tri_reduce(di.data(), dj.data(), m, rho, inv_rho);
  }
  for (size_t x = 0; x < q.size; ++x) in_column[q.ids[x]] = 0;
}

}  // namespace simd
}  // namespace metricprox
