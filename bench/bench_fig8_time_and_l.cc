// Reproduces paper Figure 8:
//  (a) PAM completion time as the oracle cost varies (0 .. 2.5 s/call),
//  (b) CLARANS completion time likewise,
//  (c) PAM distance calls as the number of clusters l varies,
//  (d) CLARANS distance calls as l varies.
// Completion = measured CPU + simulated oracle latency (DESIGN.md §4).
//
// Flags: --n=192  --n-l=256  --seed=42

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <tuple>
#include <vector>

#include "bench/common.h"
#include "harness/flags.h"
#include "harness/table.h"

namespace {

using metricprox::Dataset;
using metricprox::ObjectId;
using metricprox::SchemeKind;
using metricprox::Workload;
using metricprox::WorkloadConfig;
using metricprox::WorkloadResult;

// The medoid count of the completion-time tables, and the l sweep.
constexpr uint32_t kTimeL = 10;
constexpr uint32_t kLs[] = {4, 6, 8, 10, 14, 20};

void CompletionTimeTable(const char* title, Dataset* dataset,
                         const Workload& workload, uint64_t seed) {
  metricprox::TablePrinter table({"oracle cost (s)", "without-plug (s)",
                                  "tri (s)", "laesa (s)", "tlaesa (s)",
                                  "tri save vs laesa (%)"});
  for (const double cost : {0.0, 0.1, 0.5, 1.2, 2.5}) {
    std::vector<double> completion;
    double reference = 0.0;
    double tri_s = 0.0;
    double laesa_s = 0.0;
    bool first = true;
    for (const auto& [scheme, bootstrap] :
         {std::pair<SchemeKind, bool>{SchemeKind::kNone, false},
          {SchemeKind::kTri, true},
          {SchemeKind::kLaesa, false},
          {SchemeKind::kTlaesa, false}}) {
      WorkloadConfig config;
      config.scheme = scheme;
      config.bootstrap = bootstrap;
      config.oracle_cost_seconds = cost;
      config.seed = seed;
      const WorkloadResult r =
          RunWorkload(dataset->oracle.get(), config, workload);
      if (first) {
        reference = r.value;
        first = false;
      } else {
        metricprox::benchutil::CheckSameResult(reference, r.value, title);
      }
      completion.push_back(r.completion_seconds);
      if (scheme == SchemeKind::kTri) tri_s = r.completion_seconds;
      if (scheme == SchemeKind::kLaesa) laesa_s = r.completion_seconds;
    }
    table.NewRow()
        .AddDouble(cost, 1)
        .AddDouble(completion[0], 1)
        .AddDouble(completion[1], 1)
        .AddDouble(completion[2], 1)
        .AddDouble(completion[3], 1)
        .AddPercent(laesa_s > 0 ? (laesa_s - tri_s) / laesa_s : 0.0);
  }
  table.Print(title);
  std::printf("\n");
}

void CallsVsL(const char* title, Dataset* dataset, bool clarans,
              uint64_t seed) {
  metricprox::TablePrinter table(
      {"l", "without-plug", "tri", "laesa", "tlaesa"});
  for (const uint32_t l : kLs) {
    const Workload workload =
        clarans ? metricprox::benchutil::ClaransWorkload(l, seed + 9)
                : metricprox::benchutil::PamWorkload(l);
    std::vector<uint64_t> calls;
    double reference = 0.0;
    bool first = true;
    for (const auto& [scheme, bootstrap] :
         {std::pair<SchemeKind, bool>{SchemeKind::kNone, false},
          {SchemeKind::kTri, true},
          {SchemeKind::kLaesa, false},
          {SchemeKind::kTlaesa, false}}) {
      WorkloadConfig config;
      config.scheme = scheme;
      config.bootstrap = bootstrap;
      config.seed = seed;
      const WorkloadResult r =
          RunWorkload(dataset->oracle.get(), config, workload);
      if (first) {
        reference = r.value;
        first = false;
      } else {
        metricprox::benchutil::CheckSameResult(reference, r.value, title);
      }
      calls.push_back(r.total_calls);
    }
    table.NewRow()
        .AddUint(l)
        .AddUint(calls[0])
        .AddUint(calls[1])
        .AddUint(calls[2])
        .AddUint(calls[3]);
  }
  table.Print(title);
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace metricprox;
  auto flags = Flags::Parse(argc, argv);
  if (!flags.ok()) {
    std::fprintf(stderr, "%s\n", flags.status().ToString().c_str());
    return 1;
  }
  // PAM and CLARANS need more objects than medoids: l = 10 at --n, and up
  // to the largest of kLs at --n-l.
  const StatusOr<ObjectId> n_flag = benchutil::CheckObjectCount(
      "--n", flags->GetInt("n", 192), "urbangb", kTimeL + 1);
  const StatusOr<ObjectId> n_l_flag = benchutil::CheckObjectCount(
      "--n-l", flags->GetInt("n-l", 256), "sf",
      *std::max_element(std::begin(kLs), std::end(kLs)) + 1);
  const uint64_t seed = static_cast<uint64_t>(flags->GetInt("seed", 42));
  for (const Status& s :
       {flags->FailOnUnused(), n_flag.status(), n_l_flag.status()}) {
    if (!s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
  }
  const ObjectId n = *n_flag;
  const ObjectId n_l = *n_l_flag;

  Dataset time_dataset = MakeUrbanGbLike(n, seed);
  CompletionTimeTable(
      "Figure 8a — PAM (l=10) completion time vs oracle cost "
      "(UrbanGB-like)",
      &time_dataset, benchutil::PamWorkload(kTimeL), seed);
  CompletionTimeTable(
      "Figure 8b — CLARANS (l=10) completion time vs oracle cost "
      "(UrbanGB-like)",
      &time_dataset, benchutil::ClaransWorkload(kTimeL, seed + 9), seed);

  Dataset l_dataset = MakeSfPoiLike(n_l, seed);
  CallsVsL("Figure 8c — PAM distance calls vs number of clusters l "
           "(SF-POI-like)",
           &l_dataset, /*clarans=*/false, seed);
  CallsVsL("Figure 8d — CLARANS distance calls vs number of clusters l "
           "(SF-POI-like)",
           &l_dataset, /*clarans=*/true, seed);
  return 0;
}
