// Ablations beyond the paper's figures, probing the design choices
// DESIGN.md calls out:
//  (1) bootstrap landmark count for the Tri Scheme (0 = TS-NB) — how many
//      seed triangles are worth their construction cost,
//  (2) construction-cost breakdown per scheme (what each plug-in pays
//      before the proximity algorithm starts),
//  (3) the same Tri-vs-baselines comparison across *all five* proximity
//      algorithms on one dataset, to show the plug-in is workload-agnostic.
//
// Flags: --n=256  --seed=42

#include <algorithm>
#include <cstdio>
#include <utility>
#include <vector>

#include "algo/boruvka.h"
#include "algo/join.h"
#include "algo/dbscan.h"
#include "algo/kcenter.h"
#include "algo/tsp.h"
#include "bench/common.h"
#include "bounds/scheme.h"
#include "oracle/vector_oracle.h"
#include "bounds/pivots.h"
#include "harness/flags.h"
#include "harness/table.h"

namespace {

constexpr uint32_t kMedoids = 10;

}  // namespace

int main(int argc, char** argv) {
  using namespace metricprox;
  auto flags = Flags::Parse(argc, argv);
  if (!flags.ok()) {
    std::fprintf(stderr, "%s\n", flags.status().ToString().c_str());
    return 1;
  }
  // Ablation 3 runs PAM and CLARANS with l = 10, which need 11 objects.
  const StatusOr<ObjectId> n_flag = benchutil::CheckObjectCount(
      "--n", flags->GetInt("n", 256), "sf", kMedoids + 1);
  const uint64_t seed = static_cast<uint64_t>(flags->GetInt("seed", 42));
  for (const Status& s : {flags->FailOnUnused(), n_flag.status()}) {
    if (!s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
  }
  const ObjectId n = *n_flag;

  Dataset dataset = MakeSfPoiLike(n, seed);
  const uint32_t logn = DefaultNumLandmarks(n);

  // --- (1) bootstrap landmark count for Tri (Prim) ---
  {
    TablePrinter table({"bootstrap landmarks", "construction calls",
                        "workload calls", "total calls"});
    const Workload workload = benchutil::PrimWorkload();
    double reference = 0.0;
    for (const uint32_t k : {0u, 2u, logn / 2, logn, 2 * logn, 3 * logn}) {
      WorkloadConfig config;
      config.scheme = SchemeKind::kTri;
      config.bootstrap = k > 0;
      config.num_landmarks = k > 0 ? k : 1;
      config.seed = seed;
      const WorkloadResult r =
          RunWorkload(dataset.oracle.get(), config, workload);
      if (reference == 0.0) {
        reference = r.value;
      } else {
        benchutil::CheckSameResult(reference, r.value, "ablation bootstrap");
      }
      table.NewRow()
          .AddUint(k)
          .AddUint(r.construction_calls)
          .AddUint(r.total_calls - r.construction_calls)
          .AddUint(r.total_calls);
    }
    table.Print(
        "Ablation 1 — Tri Scheme bootstrap budget (Prim, SF-like): seed "
        "triangles pay for themselves up to ~log2 n landmarks");
    std::printf("\n");
  }

  // --- (2) construction cost per scheme ---
  {
    TablePrinter table({"scheme", "construction calls",
                        "% of all-pairs budget"});
    const Workload noop = [](BoundedResolver*) { return 0.0; };
    for (const auto& [label, scheme, bootstrap] :
         {std::tuple<const char*, SchemeKind, bool>{"tri (no bootstrap)",
                                                    SchemeKind::kTri, false},
          {"tri (bootstrap)", SchemeKind::kTri, true},
          {"laesa", SchemeKind::kLaesa, false},
          {"tlaesa", SchemeKind::kTlaesa, false},
          {"adm", SchemeKind::kAdm, false}}) {
      WorkloadConfig config;
      config.scheme = scheme;
      config.bootstrap = bootstrap;
      config.seed = seed;
      const WorkloadResult r = RunWorkload(dataset.oracle.get(), config, noop);
      table.NewRow()
          .AddCell(label)
          .AddUint(r.construction_calls)
          .AddPercent(static_cast<double>(r.construction_calls) /
                      static_cast<double>(benchutil::PairCount(n)));
    }
    table.Print("Ablation 2 — construction-time oracle calls per scheme");
    std::printf("\n");
  }

  // --- (3) one dataset, every proximity algorithm ---
  {
    TablePrinter table({"algorithm", "without-plug", "ts-nb", "tri (bootstrap)",
                        "best save (%)"});
    const std::vector<std::pair<const char*, Workload>> workloads = {
        {"prim-mst", benchutil::PrimWorkload()},
        {"kruskal-mst", benchutil::KruskalWorkload()},
        {"boruvka-mst",
         [](BoundedResolver* r) { return BoruvkaMst(r).total_weight; }},
        {"knn-graph (k=5)", benchutil::KnnWorkload(5)},
        {"pam (l=10)", benchutil::PamWorkload(kMedoids)},
        {"clarans (l=10)", benchutil::ClaransWorkload(kMedoids, seed + 9)},
        {"k-center (k=8)",
         [](BoundedResolver* r) { return KCenterCluster(r, 8).radius; }},
        {"dbscan",
         [](BoundedResolver* r) {
           DbscanOptions options;
           options.eps = 12.0;
           options.min_pts = 4;
           return static_cast<double>(DbscanCluster(r, options).num_clusters);
         }},
        {"tsp-2approx",
         [](BoundedResolver* r) { return TspTwoApproximation(r).length; }},
        {"similarity-join",
         [](BoundedResolver* r) {
           double checksum = 0.0;
           for (const WeightedEdge& e : SimilarityJoin(r, 12.0)) {
             checksum += e.weight;
           }
           return checksum;
         }},
    };
    for (const auto& [label, workload] : workloads) {
      WorkloadConfig none;
      none.scheme = SchemeKind::kNone;
      none.seed = seed;
      const WorkloadResult base =
          RunWorkload(dataset.oracle.get(), none, workload);
      WorkloadConfig ts_nb_config;
      ts_nb_config.scheme = SchemeKind::kTri;
      ts_nb_config.seed = seed;
      const WorkloadResult ts_nb =
          RunWorkload(dataset.oracle.get(), ts_nb_config, workload);
      WorkloadConfig tri;
      tri.scheme = SchemeKind::kTri;
      tri.bootstrap = true;
      tri.seed = seed;
      const WorkloadResult plugged =
          RunWorkload(dataset.oracle.get(), tri, workload);
      benchutil::CheckSameResult(base.value, ts_nb.value, label);
      benchutil::CheckSameResult(base.value, plugged.value, label);
      const uint64_t best =
          std::min(ts_nb.total_calls, plugged.total_calls);
      table.NewRow()
          .AddCell(label)
          .AddUint(base.total_calls)
          .AddUint(ts_nb.total_calls)
          .AddUint(plugged.total_calls)
          .AddPercent(SaveFraction(best, base.total_calls));
    }
    table.Print(
        "Ablation 3 — the plug-in is algorithm-agnostic (SF-like, includes "
        "the paper's future-work adaptations k-center and TSP). For cheap "
        "algorithms (k-center: only k*n calls), the bootstrap cannot "
        "amortize — use TS-NB there");
  }
  // --- (4) hybrid scheme: is Tri ∧ LAESA worth the double query cost? ---
  {
    TablePrinter table({"scheme", "total calls", "CPU overhead (s)"});
    const Workload workload = benchutil::PrimWorkload();
    double reference = 0.0;
    for (const auto& [label, scheme, bootstrap] :
         {std::tuple<const char*, SchemeKind, bool>{"tri (bootstrap)",
                                                    SchemeKind::kTri, true},
          {"laesa", SchemeKind::kLaesa, false},
          {"tri+laesa (hybrid)", SchemeKind::kHybrid, false}}) {
      WorkloadConfig config;
      config.scheme = scheme;
      config.bootstrap = bootstrap;
      config.seed = seed;
      const WorkloadResult r =
          RunWorkload(dataset.oracle.get(), config, workload);
      if (reference == 0.0) {
        reference = r.value;
      } else {
        benchutil::CheckSameResult(reference, r.value, "ablation hybrid");
      }
      table.NewRow()
          .AddCell(label)
          .AddUint(r.total_calls)
          .AddDouble(r.stats.bounder_seconds, 4);
    }
    table.Print(
        "\nAblation 4 — hybrid Tri ∧ LAESA (Prim, SF-like): the landmark "
        "table doubles as the bootstrap, so the hybrid matches Tri's calls "
        "with LAESA's cold-start coverage");
  }
  // --- (5) relaxed triangle inequality: rho=2 Tri on squared Euclidean ---
  {
    Dataset squared = MakeClusteredEuclidean(n, 2, 6, 0.03, seed);
    // Re-wrap the same points under the squared metric.
    auto* base = static_cast<VectorOracle*>(squared.oracle.get());
    VectorOracle squared_oracle(base->points(), VectorMetric::kSquaredEuclidean);
    const Workload workload = benchutil::PrimWorkload();

    WorkloadConfig none;
    none.scheme = SchemeKind::kNone;
    none.seed = seed;
    const WorkloadResult plain = RunWorkload(&squared_oracle, none, workload);

    WorkloadConfig tri_rho;
    tri_rho.scheme = SchemeKind::kTri;
    tri_rho.bootstrap = true;
    tri_rho.rho = 2.0;
    tri_rho.seed = seed;
    const WorkloadResult relaxed =
        RunWorkload(&squared_oracle, tri_rho, workload);
    benchutil::CheckSameResult(plain.value, relaxed.value, "ablation rho");

    TablePrinter table({"scheme", "total calls", "save (%)"});
    table.NewRow().AddCell("without-plug").AddUint(plain.total_calls).AddPercent(0.0);
    table.NewRow()
        .AddCell("tri (rho=2)")
        .AddUint(relaxed.total_calls)
        .AddPercent(SaveFraction(relaxed.total_calls, plain.total_calls));
    table.Print(
        "\nAblation 5 — relaxed triangle inequality: Prim over *squared* "
        "Euclidean (a rho=2 semimetric) with the rho-aware Tri Scheme "
        "still returns the exact MST and still saves");
  }
  return 0;
}
