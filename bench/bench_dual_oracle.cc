// Dual-oracle sweep: how much strong-oracle spend does a weak (cheap,
// noisy) oracle remove at different advertised error factors? Each cell is
// an A-B run against the weak-free baseline of the same configuration —
// byte-identical outputs are asserted as a side effect (the exactness
// theorem extended to the third bound source) — and reports strong calls,
// weak calls, the weak-decided share and wall time. Rows land in BENCH
// JSON through the env-gated BenchJson path (METRICPROX_BENCH_JSON_DIR).
//
// Flags: --n=480   --clusters=48   --spread=0.003   --seed=31   --k=4

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "algo/boruvka.h"
#include "bench/common.h"
#include "data/datasets.h"
#include "harness/experiment.h"
#include "harness/flags.h"
#include "harness/table.h"

namespace {

using metricprox::BoundedResolver;
using metricprox::BoruvkaMst;
using metricprox::Dataset;
using metricprox::ObjectId;
using metricprox::RunWorkload;
using metricprox::SchemeKind;
using metricprox::StatusOr;
using metricprox::Workload;
using metricprox::WorkloadConfig;
using metricprox::WorkloadResult;
using metricprox::benchutil::BenchJson;
using metricprox::benchutil::CheckIntInRange;
using metricprox::benchutil::CheckObjectCount;
using metricprox::benchutil::PairCount;

constexpr double kAlphas[] = {1.05, 1.25, 2.0};

struct Stage {
  std::string label;
  Workload workload;
};

}  // namespace

int main(int argc, char** argv) {
  auto flags = metricprox::Flags::Parse(argc, argv);
  if (!flags.ok()) {
    std::fprintf(stderr, "%s\n", flags.status().ToString().c_str());
    return 1;
  }
  const StatusOr<ObjectId> n_flag =
      CheckObjectCount("--n", flags->GetInt("n", 480), "");
  // The checks below read n only when it is valid: its error comes first.
  const ObjectId n = n_flag.ok() ? *n_flag : 2;
  const int64_t clusters_raw = flags->GetInt("clusters", 48);
  const double spread = flags->GetDouble("spread", 0.003);
  const uint64_t seed = static_cast<uint64_t>(flags->GetInt("seed", 31));
  const int64_t k_raw = flags->GetInt("k", 4);
  // The points' Gaussian spread is a fraction of the unit box they lie in;
  // a non-finite one would reach the graph as a non-finite distance.
  const metricprox::Status spread_flag =
      std::isfinite(spread) && spread > 0.0 && spread <= 1.0
          ? metricprox::Status::OK()
          : metricprox::Status::InvalidArgument(
                "--spread must be a finite value in (0, 1]; got " +
                std::to_string(spread));
  for (const metricprox::Status& s :
       {flags->FailOnUnused(), n_flag.status(),
        CheckIntInRange("--clusters", clusters_raw, 1, n),
        CheckIntInRange("--k", k_raw, 1, n - 1), spread_flag}) {
    if (!s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
  }
  const uint32_t clusters = static_cast<uint32_t>(clusters_raw);
  const uint32_t k = static_cast<uint32_t>(k_raw);

  Dataset dataset =
      metricprox::MakeClusteredEuclidean(n, 2, clusters, spread, seed);
  const std::vector<Stage> stages = {
      {"knn-graph", metricprox::benchutil::KnnWorkload(k)},
      {"mst-boruvka",
       [](BoundedResolver* r) { return BoruvkaMst(r).total_weight; }},
      {"mst-prim", metricprox::benchutil::PrimWorkload()},
  };

  std::printf(
      "Dual-oracle sweep on %u points in %u tight clusters (%llu pairs): "
      "each alpha row is\nan A-B run vs the weak-free baseline with "
      "byte-identical outputs asserted.\n",
      static_cast<unsigned>(n), static_cast<unsigned>(clusters),
      static_cast<unsigned long long>(PairCount(n)));

  BenchJson json("dual oracle sweep");
  metricprox::TablePrinter table({"workload", "alpha", "strong calls",
                                  "save", "weak calls", "weak-decided",
                                  "wall (ms)"});
  for (const Stage& stage : stages) {
    WorkloadConfig base;
    base.scheme = SchemeKind::kNone;
    base.seed = seed;
    const WorkloadResult baseline =
        RunWorkload(dataset.oracle.get(), base, stage.workload);
    table.NewRow()
        .AddCell(stage.label)
        .AddCell("-")
        .AddUint(baseline.stats.oracle_calls)
        .AddCell("-")
        .AddUint(0)
        .AddUint(0)
        .AddDouble(baseline.wall_seconds * 1e3, 3);
    json.NewRow()
        .Add("workload", stage.label)
        .Add("alpha", 0.0)
        .Add("strong_calls", baseline.stats.oracle_calls)
        .Add("weak_calls", uint64_t{0})
        .Add("decided_by_weak", uint64_t{0})
        .Add("wall_ms", baseline.wall_seconds * 1e3);

    for (const double alpha : kAlphas) {
      WorkloadConfig weak = base;
      weak.weak_alpha = alpha;
      const WorkloadResult informed =
          RunWorkload(dataset.oracle.get(), weak, stage.workload);
      metricprox::benchutil::CheckSameResult(
          baseline.value, informed.value,
          stage.label + " alpha=" + std::to_string(alpha));
      const double save =
          metricprox::SaveFraction(informed.stats.oracle_calls,
                                   baseline.stats.oracle_calls);
      table.NewRow()
          .AddCell(stage.label)
          .AddDouble(alpha, 2)
          .AddUint(informed.stats.oracle_calls)
          .AddCell(std::to_string(static_cast<int>(100.0 * save)) + "%")
          .AddUint(informed.stats.weak_calls)
          .AddUint(informed.stats.decided_by_weak)
          .AddDouble(informed.wall_seconds * 1e3, 3);
      json.NewRow()
          .Add("workload", stage.label)
          .Add("alpha", alpha)
          .Add("strong_calls", informed.stats.oracle_calls)
          .Add("weak_calls", informed.stats.weak_calls)
          .Add("decided_by_weak", informed.stats.decided_by_weak)
          .Add("wall_ms", informed.wall_seconds * 1e3)
          .Add("save_fraction", save);
    }
  }
  table.Print("clustered n=" + std::to_string(n) +
              ": strong-oracle spend vs weak error factor");
  const std::string written = json.Write();
  if (!written.empty()) {
    std::printf("BENCH JSON: %s\n", written.c_str());
  }
  return 0;
}
