#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <numeric>
#include <random>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "algo/clarans.h"
#include "algo/pam.h"
#include "bounds/scheme.h"
#include "data/datasets.h"
#include "data/synthetic.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "oracle/matrix_oracle.h"
#include "oracle/vector_oracle.h"
#include "tests/test_util.h"

namespace metricprox {
namespace {

using testing_util::MakeRandomStack;
using testing_util::ResolverStack;

// The value SwapDeltas must leave in a slot outside its range.
constexpr double kUnwritten = std::numeric_limits<double>::quiet_NaN();

ResolverStack MakeClusteredStack(ObjectId n, uint64_t seed) {
  ResolverStack stack;
  stack.oracle = std::make_unique<VectorOracle>(
      GaussianMixturePoints(n, 2, /*num_clusters=*/4, /*range=*/100.0,
                            /*spread=*/2.0, seed),
      VectorMetric::kEuclidean);
  stack.graph = std::make_unique<PartialDistanceGraph>(n);
  stack.resolver =
      std::make_unique<BoundedResolver>(stack.oracle.get(), stack.graph.get());
  return stack;
}

double BruteTotalDeviation(DistanceOracle* oracle,
                           const std::vector<ObjectId>& medoids) {
  double td = 0.0;
  for (ObjectId j = 0; j < oracle->num_objects(); ++j) {
    double best = kInfDistance;
    for (ObjectId m : medoids) {
      best = std::min(best, j == m ? 0.0 : oracle->Distance(j, m));
    }
    td += best;
  }
  return td;
}

TEST(PamTest, TotalDeviationMatchesBruteForceRecount) {
  ResolverStack stack = MakeClusteredStack(40, 1);
  PamOptions options;
  options.num_medoids = 4;
  const ClusteringResult result = PamCluster(stack.resolver.get(), options);
  ASSERT_EQ(result.medoids.size(), 4u);
  EXPECT_NEAR(result.total_deviation,
              BruteTotalDeviation(stack.oracle.get(), result.medoids), 1e-9);
}

TEST(PamTest, AssignmentPointsToNearestMedoid) {
  ResolverStack stack = MakeClusteredStack(30, 2);
  PamOptions options;
  options.num_medoids = 3;
  const ClusteringResult result = PamCluster(stack.resolver.get(), options);
  for (ObjectId j = 0; j < 30; ++j) {
    const ObjectId assigned = result.medoids[result.assignment[j]];
    const double d_assigned =
        j == assigned ? 0.0 : stack.oracle->Distance(j, assigned);
    for (ObjectId m : result.medoids) {
      const double dm = j == m ? 0.0 : stack.oracle->Distance(j, m);
      EXPECT_LE(d_assigned, dm + 1e-9);
    }
  }
}

TEST(PamTest, SwapPhaseReachesALocalOptimum) {
  ResolverStack stack = MakeClusteredStack(30, 3);
  PamOptions options;
  options.num_medoids = 3;
  const ClusteringResult result = PamCluster(stack.resolver.get(), options);
  // No single swap may improve the deviation (checked brute force).
  const double td = result.total_deviation;
  for (uint32_t out = 0; out < result.medoids.size(); ++out) {
    for (ObjectId h = 0; h < 30; ++h) {
      if (std::find(result.medoids.begin(), result.medoids.end(), h) !=
          result.medoids.end()) {
        continue;
      }
      std::vector<ObjectId> swapped = result.medoids;
      swapped[out] = h;
      EXPECT_GE(BruteTotalDeviation(stack.oracle.get(), swapped), td - 1e-9);
    }
  }
}

class PamSchemeEquivalenceTest
    : public ::testing::TestWithParam<SchemeKind> {};

TEST_P(PamSchemeEquivalenceTest, IdenticalMedoidsUnderEveryScheme) {
  const SchemeKind kind = GetParam();
  ResolverStack vanilla = MakeClusteredStack(36, 4);
  PamOptions options;
  options.num_medoids = 4;
  const ClusteringResult expected = PamCluster(vanilla.resolver.get(), options);

  ResolverStack plugged = MakeClusteredStack(36, 4);
  SchemeOptions scheme_options;
  auto bounder = MakeAndAttachScheme(kind, plugged.resolver.get(), scheme_options);
  ASSERT_TRUE(bounder.ok()) << bounder.status();
  const ClusteringResult got = PamCluster(plugged.resolver.get(), options);

  EXPECT_EQ(got.medoids, expected.medoids)
      << "scheme " << SchemeKindName(kind);
  EXPECT_NEAR(got.total_deviation, expected.total_deviation, 1e-9);
  EXPECT_EQ(got.assignment, expected.assignment);
  EXPECT_EQ(got.iterations, expected.iterations);
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, PamSchemeEquivalenceTest,
                         ::testing::Values(SchemeKind::kTri,
                                           SchemeKind::kSplub,
                                           SchemeKind::kLaesa,
                                           SchemeKind::kTlaesa));

TEST(PamTest, TriSavesCallsVsWithoutPlug) {
  ResolverStack vanilla = MakeClusteredStack(48, 5);
  PamOptions options;
  options.num_medoids = 4;
  PamCluster(vanilla.resolver.get(), options);
  const uint64_t baseline = vanilla.resolver->stats().oracle_calls;

  ResolverStack plugged = MakeClusteredStack(48, 5);
  SchemeOptions scheme_options;
  auto bounder =
      MakeAndAttachScheme(SchemeKind::kTri, plugged.resolver.get(), scheme_options);
  ASSERT_TRUE(bounder.ok());
  PamCluster(plugged.resolver.get(), options);
  EXPECT_LT(plugged.resolver->stats().oracle_calls, baseline);
}

TEST(ClaransTest, DeterministicForFixedSeed) {
  ResolverStack a = MakeClusteredStack(40, 6);
  ResolverStack b = MakeClusteredStack(40, 6);
  ClaransOptions options;
  options.num_medoids = 4;
  options.seed = 123;
  const ClusteringResult ra = ClaransCluster(a.resolver.get(), options);
  const ClusteringResult rb = ClaransCluster(b.resolver.get(), options);
  EXPECT_EQ(ra.medoids, rb.medoids);
  EXPECT_DOUBLE_EQ(ra.total_deviation, rb.total_deviation);
}

TEST(ClaransTest, TotalDeviationMatchesBruteForce) {
  ResolverStack stack = MakeClusteredStack(40, 7);
  ClaransOptions options;
  options.num_medoids = 4;
  const ClusteringResult result = ClaransCluster(stack.resolver.get(), options);
  EXPECT_NEAR(result.total_deviation,
              BruteTotalDeviation(stack.oracle.get(), result.medoids), 1e-9);
}

class ClaransSchemeEquivalenceTest
    : public ::testing::TestWithParam<SchemeKind> {};

TEST_P(ClaransSchemeEquivalenceTest, SameTrajectoryUnderEveryScheme) {
  const SchemeKind kind = GetParam();
  ClaransOptions options;
  options.num_medoids = 4;
  options.seed = 321;
  ResolverStack vanilla = MakeClusteredStack(36, 8);
  const ClusteringResult expected =
      ClaransCluster(vanilla.resolver.get(), options);

  ResolverStack plugged = MakeClusteredStack(36, 8);
  SchemeOptions scheme_options;
  auto bounder = MakeAndAttachScheme(kind, plugged.resolver.get(), scheme_options);
  ASSERT_TRUE(bounder.ok());
  const ClusteringResult got = ClaransCluster(plugged.resolver.get(), options);
  EXPECT_EQ(got.medoids, expected.medoids)
      << "scheme " << SchemeKindName(kind);
  EXPECT_NEAR(got.total_deviation, expected.total_deviation, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, ClaransSchemeEquivalenceTest,
                         ::testing::Values(SchemeKind::kTri,
                                           SchemeKind::kSplub,
                                           SchemeKind::kLaesa,
                                           SchemeKind::kTlaesa));

TEST(ClaransTest, TriSavesCallsVsWithoutPlug) {
  ClaransOptions options;
  options.num_medoids = 4;
  ResolverStack vanilla = MakeClusteredStack(48, 9);
  ClaransCluster(vanilla.resolver.get(), options);
  const uint64_t baseline = vanilla.resolver->stats().oracle_calls;

  ResolverStack plugged = MakeClusteredStack(48, 9);
  SchemeOptions scheme_options;
  auto bounder =
      MakeAndAttachScheme(SchemeKind::kTri, plugged.resolver.get(), scheme_options);
  ASSERT_TRUE(bounder.ok());
  ClaransCluster(plugged.resolver.get(), options);
  EXPECT_LT(plugged.resolver->stats().oracle_calls, baseline);
}

TEST(MedoidCommonTest, SwapDeltaMatchesBruteForceDifference) {
  const std::vector<ObjectId> medoids = {1, 7, 15};
  const uint32_t k = static_cast<uint32_t>(medoids.size());
  // The full range, then every single-slot range.
  std::vector<std::pair<uint32_t, uint32_t>> ranges = {{0, k}};
  for (uint32_t out = 0; out < k; ++out) ranges.emplace_back(out, out + 1);
  for (const SchemeKind kind : {SchemeKind::kNone, SchemeKind::kTri}) {
    ResolverStack stack = MakeClusteredStack(24, 10);
    SchemeOptions scheme_options;
    auto bounder =
        MakeAndAttachScheme(kind, stack.resolver.get(), scheme_options);
    ASSERT_TRUE(bounder.ok());
    const auto table =
        medoid_internal::ComputeAssignment(stack.resolver.get(), medoids);
    medoid_internal::SwapScratch scratch;
    for (ObjectId h = 0; h < 24; ++h) {
      if (medoid_internal::IsMedoid(medoids, h)) continue;
      std::vector<double> full;
      for (const auto& [begin, end] : ranges) {
        std::vector<double> deltas(k, kUnwritten);
        ASSERT_TRUE(medoid_internal::SwapDeltas(stack.resolver.get(), table,
                                                h, begin, end, kInfDistance,
                                                &scratch, deltas));
        for (uint32_t out = 0; out < k; ++out) {
          if (out < begin || out >= end) {
            EXPECT_TRUE(std::isnan(deltas[out]))
                << "slot " << out << " written for range [" << begin << ", "
                << end << ")";
            continue;
          }
          std::vector<ObjectId> swapped = medoids;
          swapped[out] = h;
          const double expected =
              BruteTotalDeviation(stack.oracle.get(), swapped) -
              BruteTotalDeviation(stack.oracle.get(), medoids);
          ASSERT_NEAR(deltas[out], expected, 1e-9)
              << SchemeKindName(kind) << " out=" << out << " h=" << h;
          // Each slot adds the same terms in the same order whatever the
          // range, so a single-slot delta is the full-range one bit for bit.
          if (end - begin == k) {
            full = deltas;
          } else {
            EXPECT_EQ(std::bit_cast<uint64_t>(deltas[out]),
                      std::bit_cast<uint64_t>(full[out]));
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Sequential references: PAM and CLARANS give the outputs of their
// sequential algorithm and spend no more oracle calls than it does.
// ---------------------------------------------------------------------------

// The dataset's distances as a symmetric matrix read from its upper triangle,
// so that every consumer sees one value per pair whatever the orientation.
std::vector<double> SymmetricMatrix(DistanceOracle* oracle) {
  const ObjectId n = oracle->num_objects();
  std::vector<double> d(static_cast<size_t>(n) * n, 0.0);
  for (ObjectId i = 0; i < n; ++i) {
    for (ObjectId j = i + 1; j < n; ++j) {
      d[static_cast<size_t>(i) * n + j] = oracle->Distance(i, j);
      d[static_cast<size_t>(j) * n + i] = d[static_cast<size_t>(i) * n + j];
    }
  }
  return d;
}

enum class Input { kClustered, kSf, kCycle };

const char* InputName(Input input) {
  switch (input) {
    case Input::kClustered:
      return "clustered";
    case Input::kSf:
      return "sf";
    case Input::kCycle:
      return "cycle";
  }
  return "?";
}

// On a cycle, d(i, j) = min(|i - j|, n - |i - j|): every distance sum is the
// same, many gains are, and every object ties with its mirror image.
std::vector<double> CycleMatrix(ObjectId n) {
  std::vector<double> matrix(static_cast<size_t>(n) * n);
  for (ObjectId i = 0; i < n; ++i) {
    for (ObjectId j = 0; j < n; ++j) {
      const ObjectId gap = i > j ? i - j : j - i;
      matrix[static_cast<size_t>(i) * n + j] = std::min(gap, n - gap);
    }
  }
  return matrix;
}

std::vector<double> InputMatrix(Input input, ObjectId n, uint64_t seed) {
  if (input == Input::kCycle) return CycleMatrix(n);
  const Dataset dataset = input == Input::kClustered
                              ? MakeClusteredEuclidean(n, 3, 6, 0.05, seed)
                              : MakeSfPoiLike(n, seed);
  return SymmetricMatrix(dataset.oracle.get());
}

// A resolver over the matrix with `kind` attached (a null bounder for none).
struct MatrixStack {
  MatrixStack(const std::vector<double>& matrix, ObjectId n, SchemeKind kind)
      : oracle(matrix, n), graph(n), resolver(&oracle, &graph) {
    SchemeOptions options;
    auto made = MakeAndAttachScheme(kind, &resolver, options);
    CHECK(made.ok()) << made.status();
    bounder = std::move(made).value();
  }
  MatrixOracle oracle;
  PartialDistanceGraph graph;
  BoundedResolver resolver;
  std::unique_ptr<Bounder> bounder;
};

// The textbook's change in total deviation when non-medoid h takes slot
// `out`, added over j in ascending order: an object keeps its medoid unless
// h is strictly closer, and one that loses its medoid moves to h when h is
// strictly closer than its second-nearest medoid.
double TextbookDelta(const std::vector<double>& matrix, ObjectId n,
                     const std::vector<uint32_t>& nearest,
                     const std::vector<double>& dn,
                     const std::vector<double>& ds, uint32_t out, ObjectId h) {
  double delta = 0.0;
  for (ObjectId j = 0; j < n; ++j) {
    const double d = matrix[static_cast<size_t>(j) * n + h];
    if (j == h) {
      delta -= dn[j];
    } else if (nearest[j] == out) {
      delta += d < ds[j] ? d - dn[j] : ds[j] - dn[j];
    } else if (d < dn[j]) {
      delta += d - dn[j];
    }
  }
  return delta;
}

// Textbook PAM over the full distance matrix, oracle only. BUILD takes the
// object of least distance sum, then, k - 1 times, the non-medoid of
// greatest gain (ties to the smaller id). SWAP applies the best strictly
// improving exchange (TextbookDelta), scanning (out, h) in out-major order,
// until none is left.
ClusteringResult TextbookPam(const std::vector<double>& matrix, ObjectId n,
                             uint32_t k, uint32_t max_swap_rounds) {
  const auto dist = [&](ObjectId i, ObjectId j) {
    return matrix[static_cast<size_t>(i) * n + j];
  };
  ObjectId first = kInvalidObject;
  double best_sum = kInfDistance;
  for (ObjectId c = 0; c < n; ++c) {
    double sum = 0.0;
    for (ObjectId j = 0; j < n; ++j) {
      if (j != c) sum += dist(c, j);
    }
    if (sum < best_sum) {
      best_sum = sum;
      first = c;
    }
  }
  std::vector<ObjectId> medoids = {first};
  std::vector<double> dn(n);
  for (ObjectId j = 0; j < n; ++j) dn[j] = dist(first, j);
  while (medoids.size() < k) {
    ObjectId next = kInvalidObject;
    double best_gain = -1.0;
    for (ObjectId c = 0; c < n; ++c) {
      if (medoid_internal::IsMedoid(medoids, c)) continue;
      double gain = 0.0;
      for (ObjectId j = 0; j < n; ++j) {
        if (dn[j] > 0.0 && dist(c, j) < dn[j]) gain += dn[j] - dist(c, j);
      }
      if (gain > best_gain) {
        best_gain = gain;
        next = c;
      }
    }
    medoids.push_back(next);
    for (ObjectId j = 0; j < n; ++j) dn[j] = std::min(dn[j], dist(next, j));
  }

  struct Table {
    std::vector<uint32_t> nearest;
    std::vector<double> dn, ds;
    double td = 0.0;
  };
  const auto assign = [&] {
    Table t{std::vector<uint32_t>(n, 0), std::vector<double>(n, kInfDistance),
            std::vector<double>(n, kInfDistance), 0.0};
    for (ObjectId j = 0; j < n; ++j) {
      for (uint32_t m = 0; m < k; ++m) {
        const double d = dist(j, medoids[m]);
        if (d < t.dn[j] ||
            (d == t.dn[j] && medoids[m] < medoids[t.nearest[j]])) {
          t.ds[j] = t.dn[j];
          t.dn[j] = d;
          t.nearest[j] = m;
        } else if (d < t.ds[j]) {
          t.ds[j] = d;
        }
      }
      t.td += t.dn[j];
    }
    return t;
  };

  ClusteringResult result;
  Table table = assign();
  for (uint32_t round = 0; round < max_swap_rounds; ++round) {
    double best_delta = 0.0;
    uint32_t best_out = 0;
    ObjectId best_h = kInvalidObject;
    for (uint32_t out = 0; out < k; ++out) {
      for (ObjectId h = 0; h < n; ++h) {
        if (medoid_internal::IsMedoid(medoids, h)) continue;
        const double delta =
            TextbookDelta(matrix, n, table.nearest, table.dn, table.ds, out, h);
        if (delta < best_delta) {
          best_delta = delta;
          best_out = out;
          best_h = h;
        }
      }
    }
    if (best_h == kInvalidObject) break;
    medoids[best_out] = best_h;
    table = assign();
    ++result.iterations;
  }
  result.medoids = medoids;
  result.assignment = table.nearest;
  result.total_deviation = table.td;
  return result;
}

void ExpectSameClustering(const ClusteringResult& got,
                          const ClusteringResult& want) {
  EXPECT_EQ(got.medoids, want.medoids);
  EXPECT_EQ(got.assignment, want.assignment);
  EXPECT_EQ(got.iterations, want.iterations);
  EXPECT_EQ(std::bit_cast<uint64_t>(got.total_deviation),
            std::bit_cast<uint64_t>(want.total_deviation));
}

TEST(PamReferenceTest, MatchesTextbookPamBitForBit) {
  constexpr ObjectId kN = 40;
  constexpr uint32_t kK = 4;
  constexpr uint32_t kRounds = 64;
  for (const Input input : {Input::kClustered, Input::kSf}) {
    for (const uint64_t seed : {1u, 2u, 3u}) {
      const std::vector<double> matrix = InputMatrix(input, kN, seed);
      const ClusteringResult want = TextbookPam(matrix, kN, kK, kRounds);
      ASSERT_LT(want.iterations, kRounds) << "the reference must converge";
      for (const SchemeKind kind :
           {SchemeKind::kNone, SchemeKind::kTri, SchemeKind::kLaesa,
            SchemeKind::kTlaesa, SchemeKind::kSplub}) {
        SCOPED_TRACE(::testing::Message() << InputName(input) << " seed="
                                          << seed << " "
                                          << SchemeKindName(kind));
        MatrixStack stack(matrix, kN, kind);
        ExpectSameClustering(
            PamCluster(&stack.resolver,
                       {.num_medoids = kK, .max_swap_rounds = kRounds}),
            want);
      }
    }
  }
}

TEST(PamReferenceTest, MatchesTextbookPamOnTiedDeltas) {
  // Distinct cells of a 4 x 4 grid under the L1 metric: swaps often tie on
  // their delta, and several of these inputs tie on the best swap, where
  // only the textbook's out-major first-wins order picks the same one.
  constexpr ObjectId kN = 12;
  constexpr uint32_t kK = 3;
  for (uint64_t seed = 0; seed < 600; ++seed) {
    std::mt19937_64 rng(seed);
    std::vector<int> cells(16);
    std::iota(cells.begin(), cells.end(), 0);
    std::shuffle(cells.begin(), cells.end(), rng);
    std::vector<double> matrix(kN * kN, 0.0);
    for (ObjectId i = 0; i < kN; ++i) {
      for (ObjectId j = 0; j < kN; ++j) {
        matrix[i * kN + j] = std::abs(cells[i] % 4 - cells[j] % 4) +
                             std::abs(cells[i] / 4 - cells[j] / 4);
      }
    }
    const ClusteringResult want = TextbookPam(matrix, kN, kK, 64);
    for (const SchemeKind kind : {SchemeKind::kNone, SchemeKind::kTri}) {
      SCOPED_TRACE(::testing::Message() << "seed=" << seed << " "
                                        << SchemeKindName(kind));
      MatrixStack stack(matrix, kN, kind);
      ExpectSameClustering(PamCluster(&stack.resolver, {.num_medoids = kK}),
                           want);
    }
  }
}

TEST(PamReferenceTest, MatchesTextbookPamWhenEveryBuildObjectiveTies) {
  // On a cycle every distance sum is the same and many gains are, so only
  // the textbook's smaller-id rule picks BUILD's medoids.
  for (const ObjectId n : {12u, 13u, 30u}) {
    const std::vector<double> matrix = CycleMatrix(n);
    for (const uint32_t k : {2u, 3u, 5u}) {
      const ClusteringResult build = TextbookPam(matrix, n, k, 0);
      const ClusteringResult want = TextbookPam(matrix, n, k, 64);
      for (const SchemeKind kind : {SchemeKind::kNone, SchemeKind::kTri,
                                    SchemeKind::kLaesa, SchemeKind::kSplub}) {
        SCOPED_TRACE(::testing::Message() << "n=" << n << " k=" << k << " "
                                          << SchemeKindName(kind));
        MatrixStack build_only(matrix, n, kind);
        ExpectSameClustering(
            PamCluster(&build_only.resolver,
                       {.num_medoids = k, .max_swap_rounds = 0}),
            build);
        MatrixStack stack(matrix, n, kind);
        ExpectSameClustering(PamCluster(&stack.resolver, {.num_medoids = k}),
                             want);
      }
    }
  }
}

TEST(PamReferenceTest, SwapSlotBoundsNeverExceedTheTextbookDelta) {
  // Every slot bound a candidate's row gives is at most the textbook's
  // delta, and a candidate that the bound skips in a SWAP round is never
  // that round's textbook winner.
  constexpr ObjectId kN = 40;
  constexpr uint32_t kK = 4;
  uint64_t skipped = 0;
  for (const Input input : {Input::kClustered, Input::kSf}) {
    const std::vector<double> matrix = InputMatrix(input, kN, 7);
    for (const SchemeKind kind :
         {SchemeKind::kNone, SchemeKind::kTri, SchemeKind::kLaesa,
          SchemeKind::kTlaesa, SchemeKind::kSplub}) {
      SCOPED_TRACE(::testing::Message() << InputName(input) << " "
                                        << SchemeKindName(kind));
      MatrixStack stack(matrix, kN, kind);
      // BUILD's resolved pairs give the rows something to bound with.
      const std::vector<ObjectId> medoids =
          PamCluster(&stack.resolver, {.num_medoids = kK, .max_swap_rounds = 0})
              .medoids;
      const auto table =
          medoid_internal::ComputeAssignment(&stack.resolver, medoids);
      const auto textbook_delta = [&](uint32_t out, ObjectId h) {
        return TextbookDelta(matrix, kN, table.nearest, table.dist_nearest,
                             table.dist_second, out, h);
      };
      // The round's textbook winner: the first strict minimum in (out, h)
      // order.
      double want_delta = 0.0;
      uint32_t want_out = 0;
      ObjectId want_h = kInvalidObject;
      for (uint32_t out = 0; out < kK; ++out) {
        for (ObjectId h = 0; h < kN; ++h) {
          if (medoid_internal::IsMedoid(medoids, h)) continue;
          if (textbook_delta(out, h) < want_delta) {
            want_delta = textbook_delta(out, h);
            want_out = out;
            want_h = h;
          }
        }
      }

      // PAM's round, with the bounds checked on the way.
      medoid_internal::SwapScratch scratch;
      std::vector<double> deltas(kK);
      double best_delta = 0.0;
      uint32_t best_out = 0;
      ObjectId best_h = kInvalidObject;
      for (ObjectId h = 0; h < kN; ++h) {
        if (medoid_internal::IsMedoid(medoids, h)) continue;
        // An incumbent below every finite bound skips h and leaves the slot
        // bounds in `deltas`.
        ASSERT_FALSE(medoid_internal::SwapDeltas(&stack.resolver, table, h, 0,
                                                 kK, -kInfDistance, &scratch,
                                                 deltas));
        for (uint32_t out = 0; out < kK; ++out) {
          EXPECT_LE(deltas[out], textbook_delta(out, h))
              << "out=" << out << " h=" << h;
        }
        if (!medoid_internal::SwapDeltas(&stack.resolver, table, h, 0, kK,
                                         best_delta, &scratch, deltas)) {
          ++skipped;
          EXPECT_NE(h, want_h) << "the bound skipped the winner";
          continue;
        }
        for (uint32_t out = 0; out < kK; ++out) {
          if (deltas[out] < best_delta ||
              (best_h != kInvalidObject && deltas[out] == best_delta &&
               out < best_out)) {
            best_delta = deltas[out];
            best_out = out;
            best_h = h;
          }
        }
      }
      EXPECT_EQ(best_h, want_h);
      EXPECT_EQ(best_out, want_out);
    }
  }
  EXPECT_GT(skipped, 0u);
}

// SwapDeltas without its row pre-filter and without its candidate bound:
// every object is compared through LessThan, so each decision is the one
// the sequential algorithm makes.
void SequentialSwapDeltas(BoundedResolver* resolver,
                          const medoid_internal::AssignmentTable& table,
                          ObjectId h, uint32_t out_begin, uint32_t out_end,
                          std::vector<double>* deltas) {
  for (uint32_t o = out_begin; o < out_end; ++o) (*deltas)[o] = 0.0;
  for (ObjectId j = 0; j < resolver->num_objects(); ++j) {
    const double dn = table.dist_nearest[j];
    if (j == h) {
      for (uint32_t o = out_begin; o < out_end; ++o) (*deltas)[o] -= dn;
      continue;
    }
    const uint32_t own = table.nearest[j];
    const bool loses = own >= out_begin && own < out_end;
    const double ds = table.dist_second[j];
    const bool moves = resolver->LessThan(j, h, loses ? ds : dn);
    const double d = moves ? resolver->Distance(j, h) : 0.0;
    if (loses) (*deltas)[own] += moves ? d - dn : ds - dn;
    if (moves && d < dn) {
      for (uint32_t o = out_begin; o < out_end; ++o) {
        if (o != own) (*deltas)[o] += d - dn;
      }
    }
  }
}

// PamCluster's SWAP over SequentialSwapDeltas, after PamCluster's own BUILD.
ClusteringResult SequentialPam(BoundedResolver* resolver, uint32_t k) {
  std::vector<ObjectId> medoids =
      PamCluster(resolver, {.num_medoids = k, .max_swap_rounds = 0}).medoids;
  const ObjectId n = resolver->num_objects();
  ClusteringResult result;
  auto table = medoid_internal::ComputeAssignment(resolver, medoids);
  std::vector<double> deltas(k);
  for (uint32_t round = 0; round < PamOptions{}.max_swap_rounds; ++round) {
    double best_delta = 0.0;
    uint32_t best_out = 0;
    ObjectId best_h = kInvalidObject;
    for (ObjectId h = 0; h < n; ++h) {
      if (medoid_internal::IsMedoid(medoids, h)) continue;
      SequentialSwapDeltas(resolver, table, h, 0, k, &deltas);
      for (uint32_t out = 0; out < k; ++out) {
        if (deltas[out] < best_delta ||
            (best_h != kInvalidObject && deltas[out] == best_delta &&
             out < best_out)) {
          best_delta = deltas[out];
          best_out = out;
          best_h = h;
        }
      }
    }
    if (best_h == kInvalidObject) break;
    medoids[best_out] = best_h;
    table = medoid_internal::ComputeAssignment(resolver, medoids);
    ++result.iterations;
  }
  result.medoids = medoids;
  result.assignment = table.nearest;
  result.total_deviation = table.total_deviation;
  return result;
}

// ClaransCluster over SequentialSwapDeltas: the same draws from the same
// stream, restart for restart.
ClusteringResult SequentialClarans(BoundedResolver* resolver,
                                   const ClaransOptions& options) {
  const ObjectId n = resolver->num_objects();
  std::mt19937_64 rng(options.seed);
  std::vector<double> deltas(options.num_medoids);
  ClusteringResult best;
  best.total_deviation = kInfDistance;
  for (uint32_t local = 0; local < options.num_local; ++local) {
    std::vector<ObjectId> medoids;
    while (medoids.size() < options.num_medoids) {
      const ObjectId candidate = static_cast<ObjectId>(rng() % n);
      if (!medoid_internal::IsMedoid(medoids, candidate)) {
        medoids.push_back(candidate);
      }
    }
    auto table = medoid_internal::ComputeAssignment(resolver, medoids);
    uint32_t accepted = 0;
    uint32_t stale = 0;
    while (stale < options.max_neighbor) {
      const uint32_t out = static_cast<uint32_t>(rng() % medoids.size());
      const ObjectId h = static_cast<ObjectId>(rng() % n);
      if (medoid_internal::IsMedoid(medoids, h)) continue;
      SequentialSwapDeltas(resolver, table, h, out, out + 1, &deltas);
      if (deltas[out] < 0.0) {
        medoids[out] = h;
        table = medoid_internal::ComputeAssignment(resolver, medoids);
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

constexpr SchemeKind kPlugSchemes[] = {SchemeKind::kTri, SchemeKind::kLaesa,
                                       SchemeKind::kTlaesa, SchemeKind::kSplub};

// The row pre-filter and the candidate bound only drop comparisons that the
// sequential SWAP loop makes (both runs share PamCluster's BUILD), so no
// case spends more calls; over all cases the candidate bound saves some.
TEST(PamReferenceTest, RowBoundsSpendAtMostTheSequentialLoopsCalls) {
  constexpr ObjectId kN = 48;
  constexpr uint32_t kK = 5;
  uint64_t framework_calls = 0;
  uint64_t sequential_calls = 0;
  for (const Input input : {Input::kClustered, Input::kSf}) {
    const std::vector<double> matrix = InputMatrix(input, kN, 4);
    for (const SchemeKind kind : kPlugSchemes) {
      SCOPED_TRACE(::testing::Message() << InputName(input) << " "
                                        << SchemeKindName(kind));
      MatrixStack sequential(matrix, kN, kind);
      const ClusteringResult want = SequentialPam(&sequential.resolver, kK);
      MatrixStack framework(matrix, kN, kind);
      ExpectSameClustering(
          PamCluster(&framework.resolver, {.num_medoids = kK}), want);
      EXPECT_LE(framework.resolver.stats().oracle_calls,
                sequential.resolver.stats().oracle_calls);
      framework_calls += framework.resolver.stats().oracle_calls;
      sequential_calls += sequential.resolver.stats().oracle_calls;
    }
  }
  EXPECT_LT(framework_calls, sequential_calls);
}

TEST(ClaransReferenceTest, RowBoundsSpendAtMostTheSequentialLoopsCalls) {
  constexpr ObjectId kN = 48;
  const ClaransOptions options{.num_medoids = 5, .num_local = 2,
                               .max_neighbor = 48, .seed = 17};
  uint64_t framework_calls = 0;
  uint64_t sequential_calls = 0;
  for (const Input input : {Input::kClustered, Input::kSf}) {
    const std::vector<double> matrix = InputMatrix(input, kN, 5);
    for (const SchemeKind kind : kPlugSchemes) {
      SCOPED_TRACE(::testing::Message() << InputName(input) << " "
                                        << SchemeKindName(kind));
      MatrixStack sequential(matrix, kN, kind);
      const ClusteringResult want =
          SequentialClarans(&sequential.resolver, options);
      MatrixStack framework(matrix, kN, kind);
      ExpectSameClustering(ClaransCluster(&framework.resolver, options),
                           want);
      EXPECT_LE(framework.resolver.stats().oracle_calls,
                sequential.resolver.stats().oracle_calls);
      framework_calls += framework.resolver.stats().oracle_calls;
      sequential_calls += sequential.resolver.stats().oracle_calls;
    }
  }
  EXPECT_LT(framework_calls, sequential_calls);
}

// Records the ordered pair of every comparison the resolver is asked.
class ComparisonLog final : public TraceSink {
 public:
  void Emit(const TraceEvent& event) override {
    if (event.kind == TraceEventKind::kComparison) {
      pairs.push_back(uint64_t{event.i} << 32 | event.j);
    }
  }
  std::vector<uint64_t> pairs;
};

TEST(PamReferenceTest, OneSwapRoundComparesEachCandidateRowOnce) {
  // A round prices every (out, h) swap from one pass per candidate h: each
  // (j, h) is compared at most once, (n - k)(n - 1) comparisons at most,
  // where one comparison per (out, h, j) would be k times that.
  constexpr ObjectId kN = 48;
  constexpr uint32_t kK = 5;
  const std::vector<double> matrix = InputMatrix(Input::kSf, kN, 6);
  for (const SchemeKind kind : {SchemeKind::kNone, SchemeKind::kTri}) {
    SCOPED_TRACE(SchemeKindName(kind));
    MatrixStack build_only(matrix, kN, kind);
    PamCluster(&build_only.resolver, {.num_medoids = kK, .max_swap_rounds = 0});
    MatrixStack one_round(matrix, kN, kind);
    ComparisonLog log;
    Telemetry telemetry;
    telemetry.sink = &log;
    one_round.resolver.SetTelemetry(&telemetry);
    PamCluster(&one_round.resolver, {.num_medoids = kK, .max_swap_rounds = 1});
    ASSERT_EQ(log.pairs.size(), one_round.resolver.stats().comparisons);
    // BUILD is deterministic: its comparisons come first.
    std::vector<uint64_t> swap(
        log.pairs.begin() +
            static_cast<ptrdiff_t>(build_only.resolver.stats().comparisons),
        log.pairs.end());
    EXPECT_GT(swap.size(), 0u);
    EXPECT_LE(swap.size(), uint64_t{kN - kK} * (kN - 1));
    std::sort(swap.begin(), swap.end());
    EXPECT_TRUE(std::adjacent_find(swap.begin(), swap.end()) == swap.end())
        << "a (j, h) pair was compared twice in one round";
  }
}

TEST(PamReferenceTest, OneSwapRoundBoundsEachCandidateRowOnce) {
  // A round bounds one row per candidate h, over its pairs not yet resolved
  // (at most n - 1), and the comparisons after it query the scheme only for
  // pairs that row left undecided. On this input a round stays within
  // (n - k)(n - 1) bound queries under every scheme; bounding each row twice
  // exceeds that under every scheme.
  constexpr ObjectId kN = 48;
  constexpr uint32_t kK = 5;
  const std::vector<double> matrix = InputMatrix(Input::kSf, kN, 6);
  for (const SchemeKind kind : kPlugSchemes) {
    SCOPED_TRACE(SchemeKindName(kind));
    MatrixStack build_only(matrix, kN, kind);
    PamCluster(&build_only.resolver, {.num_medoids = kK, .max_swap_rounds = 0});
    MatrixStack one_round(matrix, kN, kind);
    PamCluster(&one_round.resolver, {.num_medoids = kK, .max_swap_rounds = 1});
    const uint64_t round_queries = one_round.resolver.stats().bound_queries -
                                   build_only.resolver.stats().bound_queries;
    EXPECT_GT(round_queries, 0u);
    EXPECT_LE(round_queries, uint64_t{kN - kK} * (kN - 1));
  }
}

// ---------------------------------------------------------------------------
// The assignment: only each object's two nearest medoids are resolved, in at
// most k rounds, and an update after a swap gives the recomputed table.
// ---------------------------------------------------------------------------

constexpr SchemeKind kAllSchemes[] = {SchemeKind::kNone, SchemeKind::kTri,
                                      SchemeKind::kLaesa, SchemeKind::kTlaesa,
                                      SchemeKind::kSplub};

using medoid_internal::AssignmentTable;

double MatrixAt(const std::vector<double>& matrix, ObjectId n, ObjectId i,
                ObjectId j) {
  return matrix[static_cast<size_t>(i) * n + j];
}

// Each object's two least medoids under (distance, medoid id), read from the
// matrix, with the deviation added in ascending object order.
AssignmentTable BruteTable(const std::vector<double>& matrix, ObjectId n,
                           const std::vector<ObjectId>& medoids) {
  AssignmentTable table;
  std::vector<uint32_t> slots(medoids.size());
  for (ObjectId j = 0; j < n; ++j) {
    std::iota(slots.begin(), slots.end(), uint32_t{0});
    std::sort(slots.begin(), slots.end(), [&](uint32_t a, uint32_t b) {
      const double da = MatrixAt(matrix, n, j, medoids[a]);
      const double db = MatrixAt(matrix, n, j, medoids[b]);
      return da < db || (da == db && medoids[a] < medoids[b]);
    });
    table.nearest.push_back(slots[0]);
    table.second.push_back(slots[1]);
    table.dist_nearest.push_back(MatrixAt(matrix, n, j, medoids[slots[0]]));
    table.dist_second.push_back(MatrixAt(matrix, n, j, medoids[slots[1]]));
    table.total_deviation += table.dist_nearest.back();
  }
  return table;
}

void ExpectSameTable(const AssignmentTable& got, const AssignmentTable& want) {
  EXPECT_EQ(got.nearest, want.nearest);
  EXPECT_EQ(got.second, want.second);
  EXPECT_EQ(got.dist_nearest, want.dist_nearest);
  EXPECT_EQ(got.dist_second, want.dist_second);
  EXPECT_EQ(std::bit_cast<uint64_t>(got.total_deviation),
            std::bit_cast<uint64_t>(want.total_deviation));
}

// Distinct medoids drawn from `rng`.
std::vector<ObjectId> DrawMedoids(ObjectId n, uint32_t k,
                                  std::mt19937_64* rng) {
  std::vector<ObjectId> medoids;
  while (medoids.size() < k) {
    const ObjectId m = static_cast<ObjectId>((*rng)() % n);
    if (!medoid_internal::IsMedoid(medoids, m)) medoids.push_back(m);
  }
  return medoids;
}

// The distinct object-medoid pairs not yet resolved.
uint64_t UnresolvedGridPairs(const BoundedResolver& resolver,
                             const std::vector<ObjectId>& medoids) {
  std::vector<uint64_t> pairs;
  for (ObjectId j = 0; j < resolver.num_objects(); ++j) {
    for (const ObjectId m : medoids) {
      if (resolver.Known(j, m)) continue;
      pairs.push_back(uint64_t{std::min(j, m)} << 32 | std::max(j, m));
    }
  }
  std::sort(pairs.begin(), pairs.end());
  return static_cast<uint64_t>(
      std::unique(pairs.begin(), pairs.end()) - pairs.begin());
}

// ComputeAssignment's rule one object at a time: j's row orders its
// unresolved medoids, and each one j asks is resolved before the next is
// asked, so every proof sees all that j has resolved so far.
AssignmentTable SequentialAssignment(BoundedResolver* resolver,
                                     const std::vector<ObjectId>& medoids) {
  const ObjectId n = resolver->num_objects();
  const uint32_t k = static_cast<uint32_t>(medoids.size());
  AssignmentTable table;
  table.nearest.assign(n, k);
  table.second.assign(n, k);
  table.dist_nearest.assign(n, kInfDistance);
  table.dist_second.assign(n, kInfDistance);
  const auto fold = [&](ObjectId j, uint32_t m, double d) {
    const auto precedes = [&](double other_d, uint32_t other) {
      return d < other_d ||
             (d == other_d && (other == k || medoids[m] < medoids[other]));
    };
    if (precedes(table.dist_nearest[j], table.nearest[j])) {
      table.second[j] = table.nearest[j];
      table.dist_second[j] = table.dist_nearest[j];
      table.nearest[j] = m;
      table.dist_nearest[j] = d;
    } else if (precedes(table.dist_second[j], table.second[j])) {
      table.second[j] = m;
      table.dist_second[j] = d;
    }
  };
  std::vector<Interval> row(n);
  for (ObjectId j = 0; j < n; ++j) {
    std::vector<ObjectId> targets;
    std::vector<uint32_t> slots;
    for (uint32_t m = 0; m < k; ++m) {
      if (resolver->Known(j, medoids[m])) {
        fold(j, m, resolver->Distance(j, medoids[m]));
      } else {
        slots.push_back(m);
      }
    }
    for (const uint32_t m : slots) targets.push_back(medoids[m]);
    resolver->BoundsFrom(j, targets, row);
    std::sort(slots.begin(), slots.end(), [&](uint32_t a, uint32_t b) {
      const double la = row[medoids[a]].lo;
      const double lb = row[medoids[b]].lo;
      return la < lb || (la == lb && a < b);
    });
    bool resolved = false;
    for (const uint32_t m : slots) {
      const double ds = table.dist_second[j];
      if (row[medoids[m]].lo > ds + BoundDecisionMargin(ds)) break;
      if (resolved && ds != kInfDistance &&
          resolver->ProvenGreaterThan(j, medoids[m], ds)) {
        continue;
      }
      resolved = resolved || !resolver->Known(j, medoids[m]);
      fold(j, m, resolver->Distance(j, medoids[m]));
    }
  }
  for (const double d : table.dist_nearest) table.total_deviation += d;
  return table;
}

TEST(MedoidAssignmentTest, AssignmentMatchesBruteForceTable) {
  // Cold: medoids drawn on a fresh stack. Warm: a second draw after a PAM
  // BUILD and its assignment have resolved part of the grid. Twin stacks
  // with the same history run the rounds and the sequential reference.
  constexpr uint32_t kK = 5;
  uint64_t tri_calls = 0;
  uint64_t tri_unresolved = 0;
  uint64_t round_calls = 0;
  uint64_t sequential_calls = 0;
  for (const Input input : {Input::kClustered, Input::kSf, Input::kCycle}) {
    const ObjectId n = input == Input::kCycle ? 30 : 40;
    const std::vector<double> matrix = InputMatrix(input, n, 8);
    for (const SchemeKind kind : kAllSchemes) {
      for (const bool warm : {false, true}) {
        SCOPED_TRACE(::testing::Message() << InputName(input) << " "
                                          << SchemeKindName(kind)
                                          << (warm ? " warm" : " cold"));
        MatrixStack rounds(matrix, n, kind);
        MatrixStack sequential(matrix, n, kind);
        std::mt19937_64 rng(n + (warm ? 1 : 0));
        if (warm) {
          const PamOptions build = {.num_medoids = kK, .max_swap_rounds = 0};
          PamCluster(&rounds.resolver, build);
          PamCluster(&sequential.resolver, build);
        }
        const std::vector<ObjectId> medoids = DrawMedoids(n, kK, &rng);
        const AssignmentTable want = BruteTable(matrix, n, medoids);
        const uint64_t unresolved =
            UnresolvedGridPairs(rounds.resolver, medoids);
        const ResolverStats before = rounds.resolver.stats();
        ExpectSameTable(medoid_internal::ComputeAssignment(&rounds.resolver,
                                                           medoids),
                        want);
        const uint64_t calls =
            rounds.resolver.stats().oracle_calls - before.oracle_calls;
        EXPECT_LE(calls, unresolved);
        EXPECT_LE(rounds.resolver.stats().batch_calls - before.batch_calls,
                  kK);

        const uint64_t sequential_before =
            sequential.resolver.stats().oracle_calls;
        ExpectSameTable(SequentialAssignment(&sequential.resolver, medoids),
                        want);
        round_calls += calls;
        sequential_calls +=
            sequential.resolver.stats().oracle_calls - sequential_before;
        if (kind == SchemeKind::kTri) {
          tri_calls += calls;
          tri_unresolved += unresolved;
        }
      }
    }
  }
  EXPECT_LT(tri_calls, tri_unresolved);
  // Batching a round asks each object's next medoid before the round's
  // distances land, which may cost a proof the sequential order would have
  // had; summed over the cases that costs at most 0.1% more calls.
  EXPECT_LE(round_calls * 1000, sequential_calls * 1001)
      << round_calls << " calls in rounds, " << sequential_calls
      << " one object at a time";
}

TEST(MedoidAssignmentTest, UpdateMatchesRecompute) {
  // Along PAM's and CLARANS's trajectories, the table updated after each
  // swap is the one ComputeAssignment gives on a fresh stack.
  constexpr uint32_t kK = 5;
  uint64_t swaps = 0;
  uint64_t second_held = 0;
  for (const Input input : {Input::kClustered, Input::kSf, Input::kCycle}) {
    const ObjectId n = input == Input::kCycle ? 30 : 40;
    const std::vector<double> matrix = InputMatrix(input, n, 9);
    for (const SchemeKind kind : kAllSchemes) {
      SCOPED_TRACE(::testing::Message() << InputName(input) << " "
                                        << SchemeKindName(kind));
      const auto swap = [&](MatrixStack* stack, std::vector<ObjectId>* medoids,
                            uint32_t out, ObjectId h, AssignmentTable* table) {
        for (ObjectId j = 0; j < n; ++j) {
          if (table->second[j] == out) ++second_held;
        }
        (*medoids)[out] = h;
        medoid_internal::UpdateAssignment(&stack->resolver, *medoids, out,
                                          table);
        MatrixStack fresh(matrix, n, kind);
        ExpectSameTable(*table, medoid_internal::ComputeAssignment(
                                    &fresh.resolver, *medoids));
        ExpectSameTable(*table, BruteTable(matrix, n, *medoids));
        for (ObjectId j = 0; j < n; ++j) {
          EXPECT_NE(table->second[j], table->nearest[j]) << "j=" << j;
          EXPECT_EQ(MatrixAt(matrix, n, j, (*medoids)[table->second[j]]),
                    table->dist_second[j])
              << "j=" << j;
        }
        ++swaps;
      };

      // PAM: the best strictly improving swap of each round.
      MatrixStack pam(matrix, n, kind);
      std::vector<ObjectId> medoids =
          PamCluster(&pam.resolver, {.num_medoids = kK, .max_swap_rounds = 0})
              .medoids;
      AssignmentTable table =
          medoid_internal::ComputeAssignment(&pam.resolver, medoids);
      medoid_internal::SwapScratch scratch;
      std::vector<double> deltas(kK);
      for (int round = 0; round < 64; ++round) {
        double best_delta = 0.0;
        uint32_t best_out = 0;
        ObjectId best_h = kInvalidObject;
        for (ObjectId h = 0; h < n; ++h) {
          if (medoid_internal::IsMedoid(medoids, h)) continue;
          medoid_internal::SwapDeltas(&pam.resolver, table, h, 0, kK,
                                      kInfDistance, &scratch, deltas);
          for (uint32_t out = 0; out < kK; ++out) {
            if (deltas[out] < best_delta) {
              best_delta = deltas[out];
              best_out = out;
              best_h = h;
            }
          }
        }
        if (best_h == kInvalidObject) break;
        swap(&pam, &medoids, best_out, best_h, &table);
      }

      // CLARANS: every improving draw from a fixed stream.
      MatrixStack clarans(matrix, n, kind);
      std::mt19937_64 rng(n);
      medoids = DrawMedoids(n, kK, &rng);
      table = medoid_internal::ComputeAssignment(&clarans.resolver, medoids);
      for (int draw = 0; draw < 200; ++draw) {
        const uint32_t out = static_cast<uint32_t>(rng() % kK);
        const ObjectId h = static_cast<ObjectId>(rng() % n);
        if (medoid_internal::IsMedoid(medoids, h)) continue;
        medoid_internal::SwapDeltas(&clarans.resolver, table, h, out, out + 1,
                                    kInfDistance, &scratch, deltas);
        if (deltas[out] < 0.0) swap(&clarans, &medoids, out, h, &table);
      }
    }
  }
  EXPECT_GT(swaps, 0u);
  // Some swaps take an object's second-nearest medoid.
  EXPECT_GT(second_held, 0u);
}

// -T for the textbook's gain T of candidate c against dn: what BUILD 2..k
// minimizes, added in ascending j.
double TextbookBuildObjective(const std::vector<double>& matrix, ObjectId n,
                              const std::vector<double>& dn, ObjectId c) {
  double gain = 0.0;
  for (ObjectId j = 0; j < n; ++j) {
    const double d = MatrixAt(matrix, n, c, j);
    if (dn[j] > 0.0 && d < dn[j]) gain += dn[j] - d;
  }
  return -gain;
}

TEST(PamBuildTest, CarriedKeysStayBelowTheNextStepsObjective) {
  // BUILD run step by step: every key BestFirstArgmin leaves for step s + 1
  // is at most the candidate's textbook objective there, and every step
  // picks the textbook's medoid.
  constexpr uint32_t kK = 6;
  uint64_t finite_keys = 0;
  for (const Input input : {Input::kCycle, Input::kSf}) {
    const ObjectId n = input == Input::kCycle ? 30 : 40;
    const std::vector<double> matrix = InputMatrix(input, n, 10);
    const std::vector<ObjectId> want = TextbookPam(matrix, n, kK, 0).medoids;
    for (const SchemeKind kind :
         {SchemeKind::kTri, SchemeKind::kLaesa, SchemeKind::kSplub}) {
      SCOPED_TRACE(::testing::Message() << InputName(input) << " "
                                        << SchemeKindName(kind));
      MatrixStack stack(matrix, n, kind);
      std::vector<ObjectId> everyone(n);
      std::iota(everyone.begin(), everyone.end(), ObjectId{0});
      std::vector<double> keys(n, -kInfDistance);
      std::vector<ObjectId> medoids = {medoid_internal::BestFirstArgmin(
          &stack.resolver, everyone, everyone,
          std::vector<double>(n, kInfDistance), std::vector<double>(n, 0.0),
          keys)};
      std::vector<double> dn(n);
      for (ObjectId j = 0; j < n; ++j) {
        dn[j] = MatrixAt(matrix, n, medoids[0], j);
      }
      std::fill(keys.begin(), keys.end(), -kInfDistance);
      while (medoids.size() < kK) {
        std::vector<ObjectId> candidates;
        std::vector<ObjectId> unserved;
        for (ObjectId j = 0; j < n; ++j) {
          if (!medoid_internal::IsMedoid(medoids, j)) candidates.push_back(j);
          if (dn[j] > 0.0) unserved.push_back(j);
        }
        const ObjectId next = medoid_internal::BestFirstArgmin(
            &stack.resolver, candidates, unserved, dn, dn, keys);
        medoids.push_back(next);
        for (ObjectId j = 0; j < n; ++j) {
          dn[j] = std::min(dn[j], MatrixAt(matrix, n, next, j));
        }
        for (const ObjectId c : candidates) {
          if (c == next) continue;
          EXPECT_LE(keys[c], TextbookBuildObjective(matrix, n, dn, c))
              << "step " << medoids.size() << " c=" << c;
          if (keys[c] != -kInfDistance) ++finite_keys;
        }
      }
      EXPECT_EQ(medoids, want);
    }
  }
  EXPECT_GT(finite_keys, 0u);
}

}  // namespace
}  // namespace metricprox
