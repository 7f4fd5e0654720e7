// Reproduces paper Figure 7: CLARANS / PAM save-ups on the remaining
// datasets, and end-to-end Prim completion time under an expensive oracle.
//  (a) CLARANS (l = 10) on SF-POI-like, varying size,
//  (b) PAM (l = 10) on Flickr-like (256-dim Euclidean), varying size,
//  (c) CLARANS (l = 10) on UrbanGB-like, varying size,
//  (d) Prim completion time with a simulated 1.2 s-per-call oracle
//      (completion = measured CPU + calls * 1.2 s; see DESIGN.md §4).
//
// Flags: --seed=42  --oracle-cost=1.2  --n-time=256

#include <cstdio>
#include <tuple>
#include <vector>

#include "bench/common.h"
#include "harness/flags.h"
#include "harness/table.h"

int main(int argc, char** argv) {
  using namespace metricprox;
  auto flags = Flags::Parse(argc, argv);
  if (!flags.ok()) {
    std::fprintf(stderr, "%s\n", flags.status().ToString().c_str());
    return 1;
  }
  const uint64_t seed = static_cast<uint64_t>(flags->GetInt("seed", 42));
  const double oracle_cost = flags->GetDouble("oracle-cost", 1.2);
  const StatusOr<ObjectId> n_time_flag = benchutil::CheckObjectCount(
      "--n-time", flags->GetInt("n-time", 256), "urbangb");
  for (const Status& s : {flags->FailOnUnused(), n_time_flag.status()}) {
    if (!s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
  }
  const ObjectId n_time = *n_time_flag;

  const std::vector<ObjectId> sizes = {64, 128, 256};
  benchutil::RunCallCountSweep(
      "Figure 7a — CLARANS (l=10) distance calls vs size (SF-POI-like)",
      [](ObjectId n, uint64_t s) { return MakeSfPoiLike(n, s); },
      [seed](ObjectId) { return benchutil::ClaransWorkload(10, seed + 9); },
      sizes, seed);

  benchutil::RunCallCountSweep(
      "Figure 7b — PAM (l=10) distance calls vs size (Flickr-like, 256-d)",
      [](ObjectId n, uint64_t s) { return MakeFlickrLike(n, 256, s); },
      [](ObjectId) { return benchutil::PamWorkload(10); }, sizes, seed);

  benchutil::RunCallCountSweep(
      "Figure 7c — CLARANS (l=10) distance calls vs size (UrbanGB-like)",
      [](ObjectId n, uint64_t s) { return MakeUrbanGbLike(n, s); },
      [seed](ObjectId) { return benchutil::ClaransWorkload(10, seed + 9); },
      sizes, seed);

  // --- (d) Prim completion time with an expensive oracle ---
  Dataset dataset = MakeUrbanGbLike(n_time, seed);
  const Workload workload = benchutil::PrimWorkload();
  TablePrinter table({"scheme", "oracle calls", "CPU (s)",
                      "oracle time (s, simulated)", "completion (s)"});
  double reference = 0.0;
  bool first = true;
  for (const auto& [label, scheme, bootstrap] :
       {std::tuple<const char*, SchemeKind, bool>{"without-plug",
                                                  SchemeKind::kNone, false},
        {"tri", SchemeKind::kTri, true},
        {"laesa", SchemeKind::kLaesa, false},
        {"tlaesa", SchemeKind::kTlaesa, false}}) {
    WorkloadConfig config;
    config.scheme = scheme;
    config.bootstrap = bootstrap;
    config.oracle_cost_seconds = oracle_cost;
    config.seed = seed;
    const WorkloadResult r = RunWorkload(dataset.oracle.get(), config, workload);
    if (first) {
      reference = r.value;
      first = false;
    } else {
      benchutil::CheckSameResult(reference, r.value, "fig7d");
    }
    table.NewRow()
        .AddCell(label)
        .AddUint(r.total_calls)
        .AddDouble(r.wall_seconds, 3)
        .AddDouble(r.stats.simulated_oracle_seconds, 1)
        .AddDouble(r.completion_seconds, 1);
  }
  char title[160];
  std::snprintf(title, sizeof(title),
                "Figure 7d — Prim completion time, %.1f s oracle "
                "(UrbanGB-like, n=%u)",
                oracle_cost, n_time);
  table.Print(title);
  return 0;
}
