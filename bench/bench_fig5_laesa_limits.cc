// Reproduces paper Figure 5: limitations of the landmark baselines.
//  (a) LAESA/TLAESA answer bound queries fastest but with the loosest
//      bounds (companion to Figure 3a; here we report the save-up each
//      scheme actually achieves inside Prim at the same landmark budget),
//  (b) the "ideal number of landmarks" problem: total oracle calls as a
//      function of the landmark count form a U-shape whose minimum varies
//      by dataset and algorithm, with no way to know it in advance. The
//      bootstrapped Tri Scheme is far less sensitive: landmark edges are
//      just seed triangles.
//
// Flags: --n=512  --seed=42

#include <cstdio>
#include <vector>

#include "bench/common.h"
#include "bounds/pivots.h"
#include "harness/flags.h"
#include "harness/table.h"

int main(int argc, char** argv) {
  using namespace metricprox;
  auto flags = Flags::Parse(argc, argv);
  if (!flags.ok()) {
    std::fprintf(stderr, "%s\n", flags.status().ToString().c_str());
    return 1;
  }
  const StatusOr<ObjectId> n_flag = benchutil::CheckObjectCount(
      "--n", flags->GetInt("n", 512), "sf");
  const uint64_t seed = static_cast<uint64_t>(flags->GetInt("seed", 42));
  for (const Status& s : {flags->FailOnUnused(), n_flag.status()}) {
    if (!s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
  }
  const ObjectId n = *n_flag;

  Dataset dataset = MakeSfPoiLike(n, seed);
  const Workload workload = benchutil::PrimWorkload();
  const uint32_t logn = DefaultNumLandmarks(n);

  // --- (b) landmark count sweep ---
  std::vector<uint32_t> ks = {2, logn / 2, logn, 2 * logn, 3 * logn,
                              4 * logn, 6 * logn};
  TablePrinter sweep({"# landmarks", "LAESA calls", "TLAESA calls",
                      "Tri (bootstrap k) calls"});
  double reference_value = 0.0;
  bool have_reference = false;
  for (const uint32_t k : ks) {
    if (k == 0) continue;
    auto run = [&](SchemeKind scheme, bool bootstrap) {
      WorkloadConfig config;
      config.scheme = scheme;
      config.bootstrap = bootstrap;
      config.num_landmarks = k;
      config.seed = seed;
      return RunWorkload(dataset.oracle.get(), config, workload);
    };
    const WorkloadResult laesa = run(SchemeKind::kLaesa, false);
    const WorkloadResult tlaesa = run(SchemeKind::kTlaesa, false);
    const WorkloadResult tri = run(SchemeKind::kTri, true);
    if (!have_reference) {
      reference_value = laesa.value;
      have_reference = true;
    }
    for (const WorkloadResult* r : {&laesa, &tlaesa, &tri}) {
      benchutil::CheckSameResult(reference_value, r->value, "fig5 sweep");
    }
    sweep.NewRow()
        .AddUint(k)
        .AddUint(laesa.total_calls)
        .AddUint(tlaesa.total_calls)
        .AddUint(tri.total_calls);
  }
  sweep.Print(
      "Figure 5b — the ideal-#landmarks selection problem (Prim, SF-like): "
      "LAESA/TLAESA totals are U-shaped in k; Tri is insensitive");

  // --- (a) at the default budget, quality vs speed inside the algorithm ---
  TablePrinter summary({"scheme", "total calls", "save vs without (%)",
                        "CPU overhead (s)"});
  WorkloadConfig none;
  none.scheme = SchemeKind::kNone;
  none.seed = seed;
  const WorkloadResult base = RunWorkload(dataset.oracle.get(), none, workload);
  for (const auto& [label, scheme, bootstrap] :
       {std::tuple<const char*, SchemeKind, bool>{"tri", SchemeKind::kTri,
                                                  true},
        {"laesa", SchemeKind::kLaesa, false},
        {"tlaesa", SchemeKind::kTlaesa, false}}) {
    WorkloadConfig config;
    config.scheme = scheme;
    config.bootstrap = bootstrap;
    config.num_landmarks = logn;
    config.seed = seed;
    const WorkloadResult r = RunWorkload(dataset.oracle.get(), config, workload);
    benchutil::CheckSameResult(base.value, r.value, "fig5 summary");
    summary.NewRow()
        .AddCell(label)
        .AddUint(r.total_calls)
        .AddPercent(SaveFraction(r.total_calls, base.total_calls))
        .AddDouble(r.stats.bounder_seconds, 4);
  }
  summary.Print(
      "\nFigure 5a — fast-but-loose: landmark schemes spend the least CPU "
      "but save the fewest oracle calls (k = log2 n)");
  return 0;
}
