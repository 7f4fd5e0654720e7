// Reproduces paper Figure 3: quality and cost of the bound schemes.
//  (a) relative error of each scheme's bounds vs ADM's exact bounds
//      (SPLUB must be 0; Tri much tighter than LAESA/TLAESA),
//  (b) Tri Scheme's LB-UB gap shrinking as the number of resolved edges
//      grows,
//  (c) per-query / per-update CPU time (ADM not scalable; SPLUB exact but
//      slower than Tri; Tri orders of magnitude faster).
//
// Flags: --n=384  --queries=1500  --seed=42

#include <algorithm>
#include <cstdio>
#include <random>
#include <vector>

#include "bench/common.h"
#include "bounds/adm.h"
#include "bounds/laesa.h"
#include "bounds/pivots.h"
#include "bounds/resolver.h"
#include "bounds/scheme.h"
#include "bounds/splub.h"
#include "bounds/tlaesa.h"
#include "bounds/tri.h"
#include "core/stats.h"
#include "harness/flags.h"
#include "harness/table.h"

namespace metricprox {
namespace {

// The LAESA and TLAESA tables resolve through the shared resolver: every
// pair that touches one of the ceil(log2 n) pivots, and up to 16 objects
// TLAESA's single leaf adds none. Below 4 objects that leaves no pair
// unresolved to sample.
constexpr ObjectId kMinObjects = 4;

struct QueryPair {
  ObjectId i;
  ObjectId j;
};

// Resolves random extra pairs so the shared partial graph looks like a
// mid-run proximity algorithm's.
void FillWithRandomEdges(BoundedResolver* resolver, size_t target_edges,
                         uint64_t seed) {
  std::mt19937_64 rng(seed + 1);
  const ObjectId n = resolver->num_objects();
  while (resolver->graph().num_edges() < target_edges) {
    const ObjectId i = static_cast<ObjectId>(rng() % n);
    const ObjectId j = static_cast<ObjectId>(rng() % n);
    if (i == j || resolver->Known(i, j)) continue;
    resolver->Distance(i, j);
  }
}

std::vector<QueryPair> SampleUnknownPairs(const PartialDistanceGraph& graph,
                                          size_t count, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<QueryPair> pairs;
  const ObjectId n = graph.num_objects();
  while (pairs.size() < count) {
    const ObjectId i = static_cast<ObjectId>(rng() % n);
    const ObjectId j = static_cast<ObjectId>(rng() % n);
    if (i == j || graph.Has(i, j)) continue;
    pairs.push_back(QueryPair{i, j});
  }
  return pairs;
}

struct QualityRow {
  double lb_rel_err = 0.0;   // mean (lb_adm - lb) / lb_adm over lb_adm > 0
  double ub_rel_err = 0.0;   // mean (ub - ub_adm) / ub_adm
  double micros_per_query = 0.0;
};

QualityRow MeasureScheme(Bounder* bounder, const std::vector<QueryPair>& q,
                         const std::vector<Interval>& adm_bounds) {
  QualityRow row;
  size_t lb_samples = 0;
  Stopwatch watch;
  for (size_t idx = 0; idx < q.size(); ++idx) {
    const Interval b = bounder->Bounds(q[idx].i, q[idx].j);
    const Interval& exact = adm_bounds[idx];
    if (exact.lo > 1e-12) {
      row.lb_rel_err += (exact.lo - b.lo) / exact.lo;
      ++lb_samples;
    }
    if (exact.hi > 1e-12 && b.hi != kInfDistance) {
      row.ub_rel_err += (b.hi - exact.hi) / exact.hi;
    }
  }
  row.micros_per_query =
      watch.ElapsedSeconds() * 1e6 / static_cast<double>(q.size());
  if (lb_samples > 0) row.lb_rel_err /= static_cast<double>(lb_samples);
  row.ub_rel_err /= static_cast<double>(q.size());
  return row;
}

}  // namespace
}  // namespace metricprox

int main(int argc, char** argv) {
  using namespace metricprox;
  auto flags = Flags::Parse(argc, argv);
  if (!flags.ok()) {
    std::fprintf(stderr, "%s\n", flags.status().ToString().c_str());
    return 1;
  }
  const StatusOr<ObjectId> n_flag = benchutil::CheckObjectCount(
      "--n", flags->GetInt("n", 384), "sf", kMinObjects);
  const int64_t queries_raw = flags->GetInt("queries", 1500);
  const uint64_t seed = static_cast<uint64_t>(flags->GetInt("seed", 42));
  // The samples draw with replacement from the unresolved pairs; more
  // draws than there are pairs add nothing.
  const ObjectId n = n_flag.ok() ? *n_flag : kMinObjects;
  for (const Status& s :
       {flags->FailOnUnused(), n_flag.status(),
        benchutil::CheckIntInRange(
            "--queries", queries_raw, 1,
            static_cast<int64_t>(benchutil::PairCount(n)))}) {
    if (!s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
  }
  const size_t queries = static_cast<size_t>(queries_raw);

  Dataset dataset = MakeSfPoiLike(n, seed);
  PartialDistanceGraph graph(n);
  BoundedResolver resolver(dataset.oracle.get(), &graph);

  // Baseline construction is routed through the resolver so every distance
  // the landmark schemes precompute is also visible to the graph-reading
  // schemes — ADM's bounds are then tightest by construction, and relative
  // errors are guaranteed non-negative (an apples-to-apples information
  // budget).
  const ResolveFn via_resolver = [&](ObjectId a, ObjectId b) {
    return resolver.Distance(a, b);
  };
  auto laesa =
      LaesaBounder::Build(n, DefaultNumLandmarks(n), via_resolver, seed);
  TlaesaBounder::Options tl_options;
  tl_options.seed = seed;
  auto tlaesa = TlaesaBounder::Build(n, tl_options, via_resolver);

  const size_t target_edges = benchutil::PairCount(n) / 20;  // 5% resolved
  FillWithRandomEdges(&resolver, target_edges, seed);
  const std::vector<QueryPair> q =
      SampleUnknownPairs(graph, queries, seed + 2);

  // --- (a) bound quality vs ADM + (c) per-query time ---
  Stopwatch adm_build_watch;
  AdmBounder adm(&graph);
  const double adm_update_seconds = adm_build_watch.ElapsedSeconds();

  std::vector<Interval> adm_bounds;
  adm_bounds.reserve(q.size());
  Stopwatch adm_query_watch;
  for (const QueryPair& p : q) adm_bounds.push_back(adm.Bounds(p.i, p.j));
  const double adm_micros =
      adm_query_watch.ElapsedSeconds() * 1e6 / static_cast<double>(q.size());

  SplubBounder splub(&graph);
  TriBounder tri(&graph);

  const QualityRow splub_row = MeasureScheme(&splub, q, adm_bounds);
  const QualityRow tri_row = MeasureScheme(&tri, q, adm_bounds);
  const QualityRow laesa_row = MeasureScheme(laesa.get(), q, adm_bounds);
  const QualityRow tlaesa_row = MeasureScheme(tlaesa.get(), q, adm_bounds);

  TablePrinter quality({"scheme", "LB rel.err vs ADM", "UB rel.err vs ADM",
                        "us/query"});
  quality.NewRow().AddCell("adm").AddDouble(0.0, 4).AddDouble(0.0, 4).AddDouble(
      adm_micros, 2);
  quality.NewRow()
      .AddCell("splub")
      .AddDouble(splub_row.lb_rel_err, 4)
      .AddDouble(splub_row.ub_rel_err, 4)
      .AddDouble(splub_row.micros_per_query, 2);
  quality.NewRow()
      .AddCell("tri")
      .AddDouble(tri_row.lb_rel_err, 4)
      .AddDouble(tri_row.ub_rel_err, 4)
      .AddDouble(tri_row.micros_per_query, 2);
  quality.NewRow()
      .AddCell("laesa")
      .AddDouble(laesa_row.lb_rel_err, 4)
      .AddDouble(laesa_row.ub_rel_err, 4)
      .AddDouble(laesa_row.micros_per_query, 2);
  quality.NewRow()
      .AddCell("tlaesa")
      .AddDouble(tlaesa_row.lb_rel_err, 4)
      .AddDouble(tlaesa_row.ub_rel_err, 4)
      .AddDouble(tlaesa_row.micros_per_query, 2);
  quality.Print(
      "Figure 3a/3c — bound quality vs ADM and per-query CPU time "
      "(SF-like, 5% of pairs resolved)");
  std::printf("ADM one-time matrix construction: %.3f s (O(n^2) per update)\n\n",
              adm_update_seconds);

  // SPLUB must equal ADM exactly (paper Section 5.2(2)).
  for (size_t idx = 0; idx < q.size(); ++idx) {
    const Interval s = splub.Bounds(q[idx].i, q[idx].j);
    benchutil::CheckSameResult(adm_bounds[idx].lo, s.lo, "fig3 splub lb");
    if (adm_bounds[idx].hi != kInfDistance) {
      benchutil::CheckSameResult(adm_bounds[idx].hi, s.hi, "fig3 splub ub");
    }
  }

  // --- (b) Tri gap vs number of resolved edges ---
  TablePrinter gap({"# resolved edges", "% of pairs", "Tri mean LB", "Tri mean UB",
                    "mean (UB-LB) gap"});
  for (const double fraction : {0.01, 0.02, 0.05, 0.10, 0.20}) {
    PartialDistanceGraph g2(n);
    BoundedResolver r2(dataset.oracle.get(), &g2);
    const size_t target =
        static_cast<size_t>(fraction * static_cast<double>(benchutil::PairCount(n)));
    FillWithRandomEdges(&r2, target, seed);
    TriBounder tri2(&g2);
    const std::vector<QueryPair> q2 = SampleUnknownPairs(g2, queries, seed + 3);
    double mean_lb = 0.0;
    double mean_ub = 0.0;
    double mean_gap = 0.0;
    size_t finite = 0;
    for (const QueryPair& p : q2) {
      const Interval b = tri2.Bounds(p.i, p.j);
      if (b.hi == kInfDistance) continue;
      mean_lb += b.lo;
      mean_ub += b.hi;
      mean_gap += b.hi - b.lo;
      ++finite;
    }
    if (finite > 0) {
      mean_lb /= static_cast<double>(finite);
      mean_ub /= static_cast<double>(finite);
      mean_gap /= static_cast<double>(finite);
    }
    gap.NewRow()
        .AddUint(g2.num_edges())
        .AddPercent(fraction)
        .AddDouble(mean_lb, 3)
        .AddDouble(mean_ub, 3)
        .AddDouble(mean_gap, 3);
  }
  gap.Print("Figure 3b — Tri Scheme LB-UB gap vs resolved edges (SF-like)");
  return 0;
}
