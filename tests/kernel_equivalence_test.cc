// Kernel-tier equivalence: the runtime-dispatched SIMD bound kernels
// (core/simd.h) must be drop-in replacements for their scalar references —
// bit-identical intervals from the kernels themselves, and byte-identical
// outputs, decisions and counters from full workload runs under every tier
// the host supports. Two layers of pinning:
//
//  1. Direct kernel A/B: random operands through pivot_scan / tri_reduce /
//     batch_distance on every supported tier, compared to the scalar tier
//     as raw doubles (EXPECT_EQ, no tolerance). Lengths sweep across the
//     vector width so full blocks, tails and empty inputs are all hit. The
//     Tri strategies (per-pair merge, one-to-many scatter and gather) are
//     pinned against the historical lambda walk on every tier the same way.
//  2. The audit-matrix discipline of trace_equivalence_test: each
//     kNN/Prim/Borůvka/PAM x Tri/SPLUB/LAESA cell runs once per tier from
//     a fresh graph, and the scalar run's output blob and every decision
//     counter must match exactly. TLAESA rides along as a fifth scheme
//     since its base scan shares the pivot kernel.
//
// Tiers the hardware cannot execute are skipped (SetTier clamps), so the
// test is green on any host while proving as much as the host allows.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "algo/boruvka.h"
#include "algo/knn_graph.h"
#include "algo/pam.h"
#include "algo/prim.h"
#include "bounds/resolver.h"
#include "bounds/scheme.h"
#include "bounds/tri.h"
#include "core/logging.h"
#include "core/simd.h"
#include "data/datasets.h"
#include "graph/partial_graph.h"

namespace metricprox {
namespace {

/// Restores the entry tier on scope exit so tier switches cannot leak into
/// other tests in the same process.
class TierGuard {
 public:
  TierGuard() : saved_(simd::ActiveTier()) {}
  ~TierGuard() { simd::SetTier(saved_); }

 private:
  simd::Tier saved_;
};

std::vector<simd::Tier> SupportedTiers() {
  std::vector<simd::Tier> tiers;
  for (const simd::Tier tier : simd::kAllTiers) {
    if (tier <= simd::DetectedTier()) tiers.push_back(tier);
  }
  return tiers;
}

std::vector<double> RandomRow(std::mt19937_64* rng, size_t len) {
  std::uniform_real_distribution<double> dist(0.0, 2.0);
  std::vector<double> row(len);
  for (double& v : row) v = dist(*rng);
  // Sprinkle exact ties and zeros — the regime where a sloppy kernel's
  // -0.0 or NaN handling would surface.
  if (len > 2) {
    row[len / 2] = row[0];
    row[len - 1] = 0.0;
  }
  return row;
}

TEST(KernelBitIdentityTest, PivotScanMatchesScalarOnEveryTier) {
  const simd::KernelTable& scalar = simd::KernelsForTier(simd::Tier::kScalar);
  std::mt19937_64 rng(7);
  for (size_t len = 0; len <= 67; ++len) {
    const std::vector<double> a = RandomRow(&rng, len);
    const std::vector<double> b = RandomRow(&rng, len);
    const Interval want = scalar.pivot_scan(a.data(), b.data(), len);
    for (const simd::Tier tier : SupportedTiers()) {
      const Interval got =
          simd::KernelsForTier(tier).pivot_scan(a.data(), b.data(), len);
      EXPECT_EQ(got.lo, want.lo) << simd::TierName(tier) << " len=" << len;
      EXPECT_EQ(got.hi, want.hi) << simd::TierName(tier) << " len=" << len;
    }
  }
}

TEST(KernelBitIdentityTest, TriReduceMatchesScalarOnEveryTier) {
  const simd::KernelTable& scalar = simd::KernelsForTier(simd::Tier::kScalar);
  std::mt19937_64 rng(11);
  for (const double rho : {1.0, 2.0}) {
    const double inv_rho = 1.0 / rho;
    for (size_t len = 0; len <= 67; ++len) {
      const std::vector<double> di = RandomRow(&rng, len);
      const std::vector<double> dj = RandomRow(&rng, len);
      const Interval want =
          scalar.tri_reduce(di.data(), dj.data(), len, rho, inv_rho);
      for (const simd::Tier tier : SupportedTiers()) {
        const Interval got = simd::KernelsForTier(tier).tri_reduce(
            di.data(), dj.data(), len, rho, inv_rho);
        EXPECT_EQ(got.lo, want.lo)
            << simd::TierName(tier) << " len=" << len << " rho=" << rho;
        EXPECT_EQ(got.hi, want.hi)
            << simd::TierName(tier) << " len=" << len << " rho=" << rho;
      }
    }
  }
}

TEST(KernelBitIdentityTest, BatchDistanceMatchesScalarOnEveryTier) {
  const simd::KernelTable& scalar = simd::KernelsForTier(simd::Tier::kScalar);
  std::mt19937_64 rng(13);
  std::uniform_real_distribution<double> coord(-1.0, 1.0);
  for (const size_t dim : {1u, 2u, 3u, 7u, 16u}) {
    const ObjectId n = 10;
    std::vector<double> points(static_cast<size_t>(n) * dim);
    for (double& v : points) v = coord(rng);
    for (const size_t count : {0u, 1u, 2u, 3u, 4u, 5u, 9u, 33u}) {
      std::vector<IdPair> pairs(count);
      for (IdPair& p : pairs) {
        p.i = static_cast<ObjectId>(rng() % n);
        p.j = static_cast<ObjectId>(rng() % n);
      }
      for (const simd::DistanceKind kind :
           {simd::DistanceKind::kL2, simd::DistanceKind::kSquaredL2,
            simd::DistanceKind::kL1, simd::DistanceKind::kLinf}) {
        std::vector<double> want(count, -1.0);
        scalar.batch_distance(points.data(), dim, pairs.data(), count,
                              want.data(), kind);
        for (const simd::Tier tier : SupportedTiers()) {
          std::vector<double> got(count, -2.0);
          simd::KernelsForTier(tier).batch_distance(
              points.data(), dim, pairs.data(), count, got.data(), kind);
          for (size_t k = 0; k < count; ++k) {
            EXPECT_EQ(got[k], want[k])
                << simd::TierName(tier) << " dim=" << dim
                << " count=" << count << " kind=" << static_cast<int>(kind)
                << " k=" << k;
          }
        }
      }
    }
  }
}

/// A partially resolved graph with overlapping neighborhoods over objects
/// 0..23, plus object 24 with no edge at all and object 25, a hub resolved
/// to every object but 24.
PartialDistanceGraph TriTestGraph() {
  const ObjectId n = 26;
  const ObjectId isolated = 24;
  const ObjectId hub = 25;
  PartialDistanceGraph graph(n);
  std::mt19937_64 rng(17);
  std::uniform_real_distribution<double> dist(0.1, 1.0);
  for (ObjectId i = 0; i < isolated; ++i) {
    for (ObjectId j = i + 1; j < isolated; ++j) {
      if (rng() % 3 != 0) continue;
      graph.Insert(i, j, dist(rng));
    }
  }
  for (ObjectId i = 0; i < isolated; ++i) graph.Insert(i, hub, dist(rng));
  return graph;
}

simd::TriColumn ColumnOf(const PartialDistanceGraph& graph, ObjectId i) {
  const PartialDistanceGraph::AdjacencyColumns c = graph.AdjacencyView(i);
  return simd::TriColumn{c.ids.data(), c.distances.data(), c.ids.size()};
}

/// The historical templated lambda walk, verbatim: the reference every Tri
/// strategy must reproduce bit for bit.
Interval LambdaWalk(const PartialDistanceGraph& graph, ObjectId i, ObjectId j,
                    double rho) {
  const double inv_rho = 1.0 / rho;
  double lb = 0.0;
  double ub = kInfDistance;
  graph.ForEachCommonNeighbor(i, j, [&](ObjectId, double di, double dj) {
    const double gap_ij = di * inv_rho - dj;
    const double gap_ji = dj * inv_rho - di;
    const double gap = gap_ij > gap_ji ? gap_ij : gap_ji;
    if (gap > lb) lb = gap;
    const double sum = rho * (di + dj);
    if (sum < ub) ub = sum;
  });
  if (lb > ub) lb = ub;
  return Interval(lb, ub);
}

TEST(KernelBitIdentityTest, TriMergeBoundsMatchesLambdaWalkOnEveryTier) {
  TierGuard guard;
  const PartialDistanceGraph graph = TriTestGraph();
  const ObjectId n = graph.num_objects();
  simd::TriScratch scratch;
  for (const double rho : {1.0, 2.0}) {
    for (ObjectId i = 0; i < n; ++i) {
      for (ObjectId j = i + 1; j < n; ++j) {
        const Interval want = LambdaWalk(graph, i, j, rho);
        for (const simd::Tier tier : SupportedTiers()) {
          simd::SetTier(tier);
          const simd::TriColumn a = ColumnOf(graph, i);
          const simd::TriColumn b = ColumnOf(graph, j);
          const Interval got =
              simd::TriMergeBounds(a.ids, a.distances, a.size, b.ids,
                                   b.distances, b.size, rho, &scratch);
          EXPECT_EQ(got.lo, want.lo) << simd::TierName(tier) << " (" << i
                                     << "," << j << ") rho=" << rho;
          EXPECT_EQ(got.hi, want.hi) << simd::TierName(tier) << " (" << i
                                     << "," << j << ") rho=" << rho;
        }
      }
    }
  }

  // The one-to-many strategies, each called directly, from every source —
  // the isolated object and the hub included — over every other object and
  // over a subset with a repeat. Each writes its row by object id and leaves
  // the entries of non-targets as they were. One scratch serves every call,
  // so state a call leaves behind would surface in a later one.
  const std::vector<ObjectId> subset = {24, 3, 25, 3, 11, 0};
  const Interval sentinel = Interval::Exact(-1.0);
  std::vector<simd::TriColumn> columns;
  for (const double rho : {1.0, 2.0}) {
    for (ObjectId q = 0; q < n; ++q) {
      std::vector<ObjectId> others;
      for (ObjectId v = 0; v < n; ++v) {
        if (v != q) others.push_back(v);
      }
      const std::vector<ObjectId>* const rows[] = {&others, &subset};
      for (const std::vector<ObjectId>* targets : rows) {
        const simd::TriColumn source = ColumnOf(graph, q);
        for (const simd::Tier tier : SupportedTiers()) {
          simd::SetTier(tier);
          std::vector<Interval> scattered(n, sentinel);
          columns.clear();
          for (size_t x = 0; x < source.size; ++x) {
            columns.push_back(ColumnOf(graph, source.ids[x]));
          }
          simd::TriScatterBounds(source, columns, *targets, rho, n, &scratch,
                                 scattered);
          std::vector<Interval> gathered(n, sentinel);
          columns.clear();
          for (const ObjectId v : *targets) {
            columns.push_back(ColumnOf(graph, v));
          }
          simd::TriGatherBounds(source, columns, *targets, rho, n, &scratch,
                                gathered);
          std::vector<bool> in_targets(n, false);
          for (const ObjectId v : *targets) in_targets[v] = true;
          for (ObjectId v = 0; v < n; ++v) {
            const Interval want =
                in_targets[v] ? LambdaWalk(graph, q, v, rho) : sentinel;
            EXPECT_EQ(scattered[v].lo, want.lo)
                << "scatter " << simd::TierName(tier) << " (" << q << "," << v
                << ") rho=" << rho;
            EXPECT_EQ(scattered[v].hi, want.hi)
                << "scatter " << simd::TierName(tier) << " (" << q << "," << v
                << ") rho=" << rho;
            EXPECT_EQ(gathered[v].lo, want.lo)
                << "gather " << simd::TierName(tier) << " (" << q << "," << v
                << ") rho=" << rho;
            EXPECT_EQ(gathered[v].hi, want.hi)
                << "gather " << simd::TierName(tier) << " (" << q << "," << v
                << ") rho=" << rho;
          }
        }
      }
    }
  }
}

/// Thresholds straddling the two decision edges of DecideLessThanFrom for
/// interval `b` — `b.hi < t - margin(t)` and `b.lo >= t + margin(t)` — by
/// at most one ulp on either side. `which` picks one of the six.
double NearEdgeThreshold(const Interval& b, int which) {
  const double unit = BoundDecisionMargin(0.0);  // margin(t) = unit*(1 + t)
  const double edge = which < 3 ? (b.hi + unit) / (1.0 - unit)
                                : (b.lo - unit) / (1.0 + unit);
  if (!std::isfinite(edge)) return b.lo + 0.5;
  switch (which % 3) {
    case 0:
      return std::nextafter(edge, -kInfDistance);
    case 1:
      return edge;
    default:
      return std::nextafter(edge, kInfDistance);
  }
}

// Tri's DecideBatch takes one BoundsFrom row when every pair shares an
// endpoint and the per-pair loop otherwise; either way its decisions are
// the DecideLessThan loop's, also at thresholds one ulp from a flip.
TEST(KernelBitIdentityTest, TriDecideBatchMatchesDecideLessThanLoop) {
  TierGuard guard;
  const PartialDistanceGraph graph = TriTestGraph();
  const ObjectId n = graph.num_objects();
  std::vector<std::vector<IdPair>> batches;
  std::vector<IdPair> unshared;
  for (ObjectId q = 0; q < n; ++q) {
    std::vector<IdPair> as_i;
    std::vector<IdPair> as_j;
    for (ObjectId v = 0; v < n; ++v) {
      if (v == q || graph.Has(q, v)) continue;
      as_i.push_back(IdPair{q, v});
      as_j.push_back(IdPair{v, q});
      if (q < v) unshared.push_back(IdPair{q, v});
    }
    if (as_i.empty()) continue;
    // The whole row, and a short prefix: a different strategy may win.
    batches.push_back(as_i);
    batches.push_back(as_j);
    batches.emplace_back(as_i.begin(), as_i.begin() + std::min<size_t>(
                                                         3, as_i.size()));
    batches.emplace_back(as_j.begin(), as_j.begin() + std::min<size_t>(
                                                         3, as_j.size()));
  }
  batches.push_back(unshared);

  size_t decided = 0;
  size_t undecided = 0;
  for (const double rho : {1.0, 2.0}) {
    TriBounder batch_tri(&graph, rho);
    TriBounder loop_tri(&graph, rho);
    for (const simd::Tier tier : SupportedTiers()) {
      simd::SetTier(tier);
      for (const std::vector<IdPair>& pairs : batches) {
        for (int which = 0; which < 6; ++which) {
          std::vector<double> thresholds(pairs.size());
          for (size_t k = 0; k < pairs.size(); ++k) {
            thresholds[k] = NearEdgeThreshold(
                loop_tri.Bounds(pairs[k].i, pairs[k].j), which);
          }
          std::vector<std::optional<bool>> got(pairs.size());
          batch_tri.DecideBatch(pairs, thresholds, got);
          for (size_t k = 0; k < pairs.size(); ++k) {
            const std::optional<bool> want =
                loop_tri.DecideLessThan(pairs[k].i, pairs[k].j, thresholds[k]);
            EXPECT_EQ(got[k], want)
                << simd::TierName(tier) << " (" << pairs[k].i << ","
                << pairs[k].j << ") t=" << thresholds[k] << " rho=" << rho;
            if (want.has_value()) {
              ++decided;
            } else {
              ++undecided;
            }
          }
        }
      }
    }
  }
  // The near-edge thresholds land on both sides of a flip.
  EXPECT_GT(decided, 0u);
  EXPECT_GT(undecided, 0u);
}

TEST(KernelDispatchTest, EnvOverrideParsesAndClamps) {
  TierGuard guard;
  EXPECT_EQ(simd::TierName(simd::Tier::kScalar), "scalar");
  EXPECT_EQ(simd::TierName(simd::Tier::kSse2), "sse2");
  EXPECT_EQ(simd::TierName(simd::Tier::kAvx2), "avx2");
  ASSERT_TRUE(simd::ParseTier("scalar").ok());
  ASSERT_TRUE(simd::ParseTier("sse2").ok());
  ASSERT_TRUE(simd::ParseTier("avx2").ok());
  EXPECT_FALSE(simd::ParseTier("auto").ok());  // "auto" is the caller's job
  EXPECT_FALSE(simd::ParseTier("AVX2").ok());
  EXPECT_FALSE(simd::ParseTier("").ok());
  // SetTier clamps to the hardware and reports what it applied.
  const simd::Tier applied = simd::SetTier(simd::Tier::kAvx2);
  EXPECT_LE(applied, simd::DetectedTier());
  EXPECT_EQ(applied, simd::ActiveTier());
  EXPECT_EQ(simd::SetTier(simd::Tier::kScalar), simd::Tier::kScalar);
  EXPECT_EQ(simd::ActiveTier(), simd::Tier::kScalar);
}

// ---------------------------------------------------------------------------
// Workload matrix: full runs per tier, compared to the scalar run.
// ---------------------------------------------------------------------------

struct RunOutput {
  std::vector<double> blob;  // flattened algorithm output
  ResolverStats stats;
};

RunOutput RunOnce(const Dataset& dataset, const std::string& algorithm,
                  SchemeKind scheme, uint64_t seed) {
  PartialDistanceGraph graph(dataset.oracle->num_objects());
  BoundedResolver resolver(dataset.oracle.get(), &graph);
  // Batch transport so vector datasets route undecided pairs through the
  // batch-distance kernel, not just the bounder-side kernels.
  resolver.SetBatchTransport(true);

  RunOutput run;
  auto push_edge = [&run](const WeightedEdge& e) {
    run.blob.push_back(e.u);
    run.blob.push_back(e.v);
    run.blob.push_back(e.weight);
  };
  std::unique_ptr<Bounder> bounder_keepalive;
  const StatusOr<double> outcome =
      resolver.RunFallible([&](BoundedResolver* r) -> double {
        SchemeOptions options;
        options.seed = seed;
        options.max_distance = dataset.max_distance;
        StatusOr<std::unique_ptr<Bounder>> bounder =
            MakeAndAttachScheme(scheme, r, options);
        CHECK(bounder.ok()) << bounder.status();
        bounder_keepalive = std::move(bounder).value();

        if (algorithm == "prim") {
          for (const WeightedEdge& e : PrimMst(r).edges) push_edge(e);
        } else if (algorithm == "boruvka") {
          for (const WeightedEdge& e : BoruvkaMst(r).edges) push_edge(e);
        } else if (algorithm == "knn") {
          for (const auto& row : BuildKnnGraph(r, KnnGraphOptions{3})) {
            for (const KnnNeighbor& nb : row) {
              run.blob.push_back(nb.id);
              run.blob.push_back(nb.distance);
            }
          }
        } else {  // pam
          PamOptions options_pam;
          options_pam.num_medoids = 4;
          const ClusteringResult c = PamCluster(r, options_pam);
          for (const ObjectId m : c.medoids) run.blob.push_back(m);
          for (const uint32_t a : c.assignment) run.blob.push_back(a);
          run.blob.push_back(c.total_deviation);
        }
        return 0.0;
      });
  CHECK(outcome.ok()) << outcome.status();
  run.stats = resolver.stats();
  return run;
}

void ExpectIdentical(const RunOutput& scalar, const RunOutput& tiered,
                     simd::Tier tier, const std::string& context) {
  // Byte-identical outputs: compare the raw doubles, not within tolerance.
  ASSERT_EQ(scalar.blob.size(), tiered.blob.size()) << context;
  for (size_t k = 0; k < scalar.blob.size(); ++k) {
    EXPECT_EQ(scalar.blob[k], tiered.blob[k])
        << context << " blob[" << k << "]";
  }
  const ResolverStats& a = scalar.stats;
  const ResolverStats& b = tiered.stats;
  EXPECT_EQ(a.oracle_calls, b.oracle_calls) << context;
  EXPECT_EQ(a.comparisons, b.comparisons) << context;
  EXPECT_EQ(a.decided_by_bounds, b.decided_by_bounds) << context;
  EXPECT_EQ(a.decided_by_cache, b.decided_by_cache) << context;
  EXPECT_EQ(a.decided_by_oracle, b.decided_by_oracle) << context;
  EXPECT_EQ(a.undecided, b.undecided) << context;
  EXPECT_EQ(a.bound_queries, b.bound_queries) << context;
  EXPECT_EQ(a.batch_calls, b.batch_calls) << context;
  EXPECT_EQ(a.batch_resolved_pairs, b.batch_resolved_pairs) << context;
  // The one field that SHOULD differ: it records the executed tier.
  EXPECT_EQ(a.kernel_dispatch,
            static_cast<uint64_t>(simd::Tier::kScalar)) << context;
  EXPECT_EQ(b.kernel_dispatch, static_cast<uint64_t>(tier)) << context;
}

Dataset MakeNamedDataset(const std::string& name, ObjectId n, uint64_t seed) {
  if (name == "sf") return MakeSfPoiLike(n, seed);
  return MakeRandomMetric(n, seed);
}

class KernelEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>> {
};

TEST_P(KernelEquivalenceTest, TierSwitchIsByteIdentical) {
  TierGuard guard;
  const std::string dataset_name = std::get<0>(GetParam());
  const std::string algorithm = std::get<1>(GetParam());
  const uint64_t seed = 42;
  // "sf" is a vector-space (Euclidean) oracle, so its batch path exercises
  // the batch-distance kernel; "random" is a matrix oracle, isolating the
  // bounder-side kernels.
  const ObjectId n = dataset_name == "sf" ? 40 : 32;
  const Dataset dataset = MakeNamedDataset(dataset_name, n, seed);

  for (const SchemeKind scheme :
       {SchemeKind::kTri, SchemeKind::kSplub, SchemeKind::kLaesa,
        SchemeKind::kTlaesa}) {
    const std::string scheme_name(SchemeKindName(scheme));
    ASSERT_EQ(simd::SetTier(simd::Tier::kScalar), simd::Tier::kScalar);
    const RunOutput scalar = RunOnce(dataset, algorithm, scheme, seed);
    for (const simd::Tier tier : SupportedTiers()) {
      if (tier == simd::Tier::kScalar) continue;
      ASSERT_EQ(simd::SetTier(tier), tier);
      const RunOutput tiered = RunOnce(dataset, algorithm, scheme, seed);
      ExpectIdentical(scalar, tiered, tier,
                      dataset_name + "/" + algorithm + "/" + scheme_name +
                          "/" + std::string(simd::TierName(tier)));
    }
  }
  if (SupportedTiers().size() == 1) {
    GTEST_SKIP() << "host has no SIMD tier; scalar-only run proves nothing";
  }
}

INSTANTIATE_TEST_SUITE_P(
    AuditMatrix, KernelEquivalenceTest,
    ::testing::Combine(::testing::Values("sf", "random"),
                       ::testing::Values("prim", "boruvka", "knn", "pam")),
    [](const ::testing::TestParamInfo<KernelEquivalenceTest::ParamType>&
           info) {
      return std::get<0>(info.param) + "_" + std::get<1>(info.param);
    });

}  // namespace
}  // namespace metricprox
