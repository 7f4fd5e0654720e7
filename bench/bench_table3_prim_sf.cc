// Reproduces paper Table 3: expensive oracle-call counts for Prim's
// algorithm on the SF-POI-like road-network dataset (same columns as
// Table 2 / bench_table2_prim_urbangb).
//
// Flags: --sizes=64,128,256,512,1024   --seed=42

#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.h"
#include "harness/flags.h"

int main(int argc, char** argv) {
  auto flags = metricprox::Flags::Parse(argc, argv);
  if (!flags.ok()) {
    std::fprintf(stderr, "%s\n", flags.status().ToString().c_str());
    return 1;
  }
  const metricprox::StatusOr<std::vector<metricprox::ObjectId>> parsed_sizes =
      metricprox::benchutil::ParseSizes(
          flags->GetString("sizes", "64,128,256,512,1024"), "sf");
  if (!parsed_sizes.ok()) {
    std::fprintf(stderr, "%s\n", parsed_sizes.status().ToString().c_str());
    return 1;
  }
  const std::vector<metricprox::ObjectId>& sizes = *parsed_sizes;
  const uint64_t seed = static_cast<uint64_t>(flags->GetInt("seed", 42));
  const metricprox::Status unused = flags->FailOnUnused();
  if (!unused.ok()) {
    std::fprintf(stderr, "%s\n", unused.ToString().c_str());
    return 1;
  }

  metricprox::benchutil::RunPrimOracleCallTable(
      "Table 3 — SF-POI-like [oracle call count], Prim's algorithm, "
      "k = log2(n)",
      [](metricprox::ObjectId n, uint64_t s) {
        return metricprox::MakeSfPoiLike(n, s);
      },
      sizes, seed);
  return 0;
}
