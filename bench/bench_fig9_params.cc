// Reproduces paper Figure 9: sensitivity to the proximity algorithms' own
// parameters, and the CPU-overhead side of the trade (fewer oracle calls at
// the price of more local computation).
//  (a) KNNrp distance calls as k grows,
//  (b) PAM local CPU overhead as l grows,
//  (c) CLARANS local CPU overhead as l grows,
//  (d) KNNrp local CPU overhead as k grows.
// "CPU overhead" = time spent inside the bound scheme (bounds + updates),
// the paper's total-minus-oracle time.
//
// Flags: --n=384  --n-cluster=192  --seed=42

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <utility>
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

// The kNN k sweep and the PAM / CLARANS l sweep.
constexpr uint32_t kKs[] = {1, 3, 5, 10, 15, 20};
constexpr uint32_t kLs[] = {4, 8, 10, 14, 20};

struct SchemeOutcome {
  uint64_t calls;
  double overhead_seconds;
};

SchemeOutcome RunScheme(Dataset* dataset, SchemeKind scheme, bool bootstrap,
                        const Workload& workload, uint64_t seed,
                        double* checksum) {
  WorkloadConfig config;
  config.scheme = scheme;
  config.bootstrap = bootstrap;
  config.seed = seed;
  const WorkloadResult r = RunWorkload(dataset->oracle.get(), config, workload);
  if (*checksum == 0.0) {
    *checksum = r.value;
  } else {
    metricprox::benchutil::CheckSameResult(*checksum, r.value, "fig9");
  }
  return SchemeOutcome{r.total_calls, r.stats.bounder_seconds};
}

}  // namespace

int main(int argc, char** argv) {
  using namespace metricprox;
  auto flags = Flags::Parse(argc, argv);
  if (!flags.ok()) {
    std::fprintf(stderr, "%s\n", flags.status().ToString().c_str());
    return 1;
  }
  // kNN needs more objects than its largest k, PAM and CLARANS more than
  // their largest l.
  const StatusOr<ObjectId> n_flag = benchutil::CheckObjectCount(
      "--n", flags->GetInt("n", 384), "sf",
      *std::max_element(std::begin(kKs), std::end(kKs)) + 1);
  const StatusOr<ObjectId> n_cluster_flag = benchutil::CheckObjectCount(
      "--n-cluster", flags->GetInt("n-cluster", 192), "sf",
      *std::max_element(std::begin(kLs), std::end(kLs)) + 1);
  const uint64_t seed = static_cast<uint64_t>(flags->GetInt("seed", 42));
  for (const Status& s :
       {flags->FailOnUnused(), n_flag.status(), n_cluster_flag.status()}) {
    if (!s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
  }
  const ObjectId n = *n_flag;
  const ObjectId n_cluster = *n_cluster_flag;

  // --- (a) + (d): KNNrp varying k ---
  {
    Dataset dataset = MakeSfPoiLike(n, seed);
    TablePrinter table({"k", "without-plug calls", "tri calls", "laesa calls",
                        "tri CPU overhead (s)", "laesa CPU overhead (s)"});
    for (const uint32_t k : kKs) {
      const Workload workload = benchutil::KnnWorkload(k);
      double checksum = 0.0;
      const SchemeOutcome none =
          RunScheme(&dataset, SchemeKind::kNone, false, workload, seed,
                    &checksum);
      const SchemeOutcome tri = RunScheme(&dataset, SchemeKind::kTri, true,
                                          workload, seed, &checksum);
      const SchemeOutcome laesa = RunScheme(
          &dataset, SchemeKind::kLaesa, false, workload, seed, &checksum);
      table.NewRow()
          .AddUint(k)
          .AddUint(none.calls)
          .AddUint(tri.calls)
          .AddUint(laesa.calls)
          .AddDouble(tri.overhead_seconds, 4)
          .AddDouble(laesa.overhead_seconds, 4);
    }
    table.Print(
        "Figure 9a/9d — KNNrp: distance calls and local CPU overhead vs k "
        "(SF-POI-like)");
    std::printf("\n");
  }

  // --- (b) + (c): PAM / CLARANS varying l ---
  for (const bool clarans : {false, true}) {
    Dataset dataset = MakeSfPoiLike(n_cluster, seed);
    TablePrinter table({"l", "tri calls", "tri CPU overhead (s)",
                        "laesa calls", "laesa CPU overhead (s)"});
    for (const uint32_t l : kLs) {
      const Workload workload =
          clarans ? benchutil::ClaransWorkload(l, seed + 9)
                  : benchutil::PamWorkload(l);
      double checksum = 0.0;
      const SchemeOutcome tri = RunScheme(&dataset, SchemeKind::kTri, true,
                                          workload, seed, &checksum);
      const SchemeOutcome laesa = RunScheme(
          &dataset, SchemeKind::kLaesa, false, workload, seed, &checksum);
      table.NewRow()
          .AddUint(l)
          .AddUint(tri.calls)
          .AddDouble(tri.overhead_seconds, 4)
          .AddUint(laesa.calls)
          .AddDouble(laesa.overhead_seconds, 4);
    }
    table.Print(clarans ? "Figure 9c — CLARANS local CPU overhead vs l "
                          "(SF-POI-like)"
                        : "Figure 9b — PAM local CPU overhead vs l "
                          "(SF-POI-like)");
    std::printf("\n");
  }
  return 0;
}
