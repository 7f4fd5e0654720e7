// Metamorphic tests: apply an output-predictable transformation to the
// input metric — relabel the objects, scale every distance by an exact
// power of two, duplicate a point — and assert the workloads respond
// exactly as the transformation dictates, both without a scheme and with
// bound schemes plugged in.

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "algo/knn_graph.h"
#include "algo/pam.h"
#include "algo/prim.h"
#include "harness/experiment.h"
#include "oracle/matrix_oracle.h"
#include "tests/test_util.h"

namespace metricprox {
namespace {

using testing_util::FamilyMetric;
using testing_util::MetricFamily;

constexpr ObjectId kN = 24;
constexpr uint64_t kSeed = 13;

std::vector<ObjectId> RandomPermutation(ObjectId n, uint64_t seed) {
  std::vector<ObjectId> perm(n);
  std::iota(perm.begin(), perm.end(), 0u);
  std::mt19937_64 rng(seed);
  std::shuffle(perm.begin(), perm.end(), rng);
  return perm;
}

/// m'[perm[i]][perm[j]] = m[i][j]: the same metric space with new ids.
std::vector<double> PermuteMatrix(const std::vector<double>& m, ObjectId n,
                                  const std::vector<ObjectId>& perm) {
  std::vector<double> out(m.size());
  for (ObjectId i = 0; i < n; ++i) {
    for (ObjectId j = 0; j < n; ++j) {
      out[perm[i] * n + perm[j]] = m[i * n + j];
    }
  }
  return out;
}

/// The same space with object `src` present twice (the new copy is id n).
/// The result is a pseudo-metric: d(src, n) = 0 between distinct ids.
std::vector<double> DuplicateMatrix(const std::vector<double>& m, ObjectId n,
                                    ObjectId src) {
  const ObjectId nn = n + 1;
  std::vector<double> out(static_cast<size_t>(nn) * nn, 0.0);
  for (ObjectId i = 0; i < n; ++i) {
    for (ObjectId j = 0; j < n; ++j) out[i * nn + j] = m[i * n + j];
  }
  for (ObjectId i = 0; i < n; ++i) {
    out[i * nn + n] = m[i * n + src];
    out[n * nn + i] = m[src * n + i];
  }
  return out;
}

WorkloadResult RunOn(const std::vector<double>& matrix, ObjectId n,
                   SchemeKind scheme, const Workload& workload,
                   double max_distance = 1.0) {
  MatrixOracle oracle(matrix, n);
  WorkloadConfig config;
  config.scheme = scheme;
  config.bootstrap = scheme != SchemeKind::kNone;
  config.max_distance = max_distance;
  return RunWorkload(&oracle, config, workload);
}

const Workload kMst = [](BoundedResolver* r) {
  return PrimMst(r).total_weight;
};
const Workload kPam = [](BoundedResolver* r) {
  return PamCluster(r, {.num_medoids = 3}).total_deviation;
};

// ---------------------------------------------------------------------------
// Id permutation: outputs are preserved modulo relabeling; oracle_calls are
// permutation-invariant only without a scheme (landmark choices and
// tie-breaks inside the schemes legitimately depend on ids), and for
// workloads whose visit order does not depend on ids (PAM's best-first
// BUILD breaks ties between cached sums by id).
// ---------------------------------------------------------------------------

TEST(MetamorphicPermutationTest, MstWeightInvariant) {
  const std::vector<double> base = FamilyMetric(MetricFamily::kUniform, kN, kSeed);
  const std::vector<ObjectId> perm = RandomPermutation(kN, 99);
  const std::vector<double> permuted = PermuteMatrix(base, kN, perm);

  const WorkloadResult a = RunOn(base, kN, SchemeKind::kNone, kMst);
  const WorkloadResult b = RunOn(permuted, kN, SchemeKind::kNone, kMst);
  EXPECT_NEAR(a.value, b.value, 1e-9);
  EXPECT_EQ(a.stats.oracle_calls, b.stats.oracle_calls);

  for (SchemeKind scheme : {SchemeKind::kTri, SchemeKind::kSplub}) {
    const WorkloadResult sa = RunOn(base, kN, scheme, kMst);
    const WorkloadResult sb = RunOn(permuted, kN, scheme, kMst);
    EXPECT_NEAR(sa.value, a.value, 1e-9);
    EXPECT_NEAR(sb.value, b.value, 1e-9);
  }
}

TEST(MetamorphicPermutationTest, KnnGraphMapsThroughThePermutation) {
  const std::vector<double> base = FamilyMetric(MetricFamily::kUniform, kN, kSeed);
  const std::vector<ObjectId> perm = RandomPermutation(kN, 7);
  const std::vector<double> permuted = PermuteMatrix(base, kN, perm);

  MatrixOracle oracle_a(base, kN);
  MatrixOracle oracle_b(permuted, kN);
  KnnGraph ga, gb;
  {
    PartialDistanceGraph graph(kN);
    BoundedResolver r(&oracle_a, &graph);
    ga = BuildKnnGraph(&r, {.k = 3});
  }
  {
    PartialDistanceGraph graph(kN);
    BoundedResolver r(&oracle_b, &graph);
    gb = BuildKnnGraph(&r, {.k = 3});
  }
  for (ObjectId u = 0; u < kN; ++u) {
    ASSERT_EQ(ga[u].size(), gb[perm[u]].size());
    // Map u's base neighbors through the permutation; the permuted run must
    // list exactly those (distances are exact oracle reads, so equality is
    // exact; neighbor order may differ because ties break by new ids).
    std::vector<KnnNeighbor> mapped;
    for (const KnnNeighbor& nb : ga[u]) mapped.push_back({perm[nb.id], nb.distance});
    std::vector<KnnNeighbor> theirs = gb[perm[u]];
    auto by_id = [](const KnnNeighbor& x, const KnnNeighbor& y) {
      return x.id < y.id;
    };
    std::sort(mapped.begin(), mapped.end(), by_id);
    std::sort(theirs.begin(), theirs.end(), by_id);
    EXPECT_EQ(mapped, theirs) << "node " << u;
  }
}

TEST(MetamorphicPermutationTest, PamDeviationInvariant) {
  const std::vector<double> base = FamilyMetric(MetricFamily::kUniform, kN, kSeed);
  const std::vector<ObjectId> perm = RandomPermutation(kN, 21);
  const std::vector<double> permuted = PermuteMatrix(base, kN, perm);
  const WorkloadResult a = RunOn(base, kN, SchemeKind::kNone, kPam);
  const WorkloadResult b = RunOn(permuted, kN, SchemeKind::kNone, kPam);
  EXPECT_NEAR(a.value, b.value, 1e-9);
  EXPECT_LE(a.stats.oracle_calls, uint64_t{kN} * (kN - 1) / 2);
  EXPECT_LE(b.stats.oracle_calls, uint64_t{kN} * (kN - 1) / 2);
}

// ---------------------------------------------------------------------------
// Global scaling by 4.0: multiplying every distance by an exact power of two
// scales every floating-point sum and comparison operand exactly, so every
// decision — and therefore every counter — is identical, and the outputs
// are bitwise 4x the originals.
// ---------------------------------------------------------------------------

TEST(MetamorphicScalingTest, ScaleBy4IsExactAcrossSchemes) {
  const std::vector<double> base = FamilyMetric(MetricFamily::kUniform, kN, kSeed);
  std::vector<double> scaled = base;
  for (double& v : scaled) v *= 4.0;

  for (SchemeKind scheme :
       {SchemeKind::kNone, SchemeKind::kTri, SchemeKind::kSplub}) {
    SCOPED_TRACE(SchemeKindName(scheme));
    for (const Workload& w : {kMst, kPam}) {
      const WorkloadResult a = RunOn(base, kN, scheme, w, /*max_distance=*/1.0);
      const WorkloadResult b =
          RunOn(scaled, kN, scheme, w, /*max_distance=*/4.0);
      EXPECT_EQ(b.value, 4.0 * a.value);  // exact, not approximate
      EXPECT_EQ(a.stats.oracle_calls, b.stats.oracle_calls);
      EXPECT_EQ(a.stats.comparisons, b.stats.comparisons);
      EXPECT_EQ(a.stats.decided_by_bounds, b.stats.decided_by_bounds);
    }
  }
}

// ---------------------------------------------------------------------------
// Duplicate-point insertion: adding an exact copy of an object (a
// pseudo-metric: one zero distance between distinct ids) changes outputs in
// fully predictable ways, and the schemes stay exact on it.
// ---------------------------------------------------------------------------

TEST(MetamorphicDuplicateTest, MstWeightGainsExactlyAZeroEdge) {
  const std::vector<double> base = FamilyMetric(MetricFamily::kUniform, kN, kSeed);
  const std::vector<double> dup = DuplicateMatrix(base, kN, /*src=*/0);
  const WorkloadResult a = RunOn(base, kN, SchemeKind::kNone, kMst);
  const WorkloadResult b = RunOn(dup, kN + 1, SchemeKind::kNone, kMst);
  // The duplicate connects through its 0-weight edge; every other MST edge
  // is unchanged.
  EXPECT_NEAR(a.value, b.value, 1e-12);
}

TEST(MetamorphicDuplicateTest, KnnDistancesNeverGrow) {
  const std::vector<double> base = FamilyMetric(MetricFamily::kUniform, kN, kSeed);
  const std::vector<double> dup = DuplicateMatrix(base, kN, /*src=*/0);
  MatrixOracle oracle_a(base, kN);
  MatrixOracle oracle_b(dup, kN + 1);
  KnnGraph ga, gb;
  {
    PartialDistanceGraph graph(kN);
    BoundedResolver r(&oracle_a, &graph);
    ga = BuildKnnGraph(&r, {.k = 3});
  }
  {
    PartialDistanceGraph graph(kN + 1);
    BoundedResolver r(&oracle_b, &graph);
    gb = BuildKnnGraph(&r, {.k = 3});
  }
  // A new candidate can only tighten a neighbor list: the j-th nearest
  // distance of every original node is <= its original value.
  for (ObjectId u = 0; u < kN; ++u) {
    ASSERT_EQ(ga[u].size(), gb[u].size());
    for (size_t j = 0; j < ga[u].size(); ++j) {
      EXPECT_LE(gb[u][j].distance, ga[u][j].distance) << "node " << u;
    }
  }
  // The duplicate and its source are each other's zero-distance neighbor.
  ASSERT_FALSE(gb[0].empty());
  ASSERT_FALSE(gb[kN].empty());
  EXPECT_EQ(gb[0][0].id, kN);
  EXPECT_EQ(gb[0][0].distance, 0.0);
  EXPECT_EQ(gb[kN][0].id, 0u);
  EXPECT_EQ(gb[kN][0].distance, 0.0);
}

TEST(MetamorphicDuplicateTest, SchemesStayExactOnThePseudoMetric) {
  // The zero edge makes the space a pseudo-metric; triangle-inequality
  // bounds remain valid there, so plugged runs must still reproduce the
  // vanilla outputs exactly.
  const std::vector<double> base = FamilyMetric(MetricFamily::kUniform, kN, kSeed);
  const std::vector<double> dup = DuplicateMatrix(base, kN, /*src=*/0);
  for (const Workload& w : {kMst, kPam}) {
    const WorkloadResult vanilla = RunOn(dup, kN + 1, SchemeKind::kNone, w);
    for (SchemeKind scheme : {SchemeKind::kTri, SchemeKind::kSplub}) {
      const WorkloadResult plugged = RunOn(dup, kN + 1, scheme, w);
      EXPECT_NEAR(plugged.value, vanilla.value, 1e-9)
          << SchemeKindName(scheme);
    }
  }
}

}  // namespace
}  // namespace metricprox
