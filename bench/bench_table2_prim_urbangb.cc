// Reproduces paper Table 2: expensive oracle-call counts for Prim's
// algorithm on the UrbanGB-like road-network dataset, comparing
// Without-Plug / TS-NB / Tri Scheme (bootstrapped) / LAESA / TLAESA with
// k = ceil(log2 n) landmarks.
//
// Flags: --sizes=64,128,256,512,1024   --seed=42
//
// Expected shape (see EXPERIMENTS.md): Tri Scheme saves a growing fraction
// of calls relative to LAESA/TLAESA as the size increases; TS-NB always
// beats both landmark baselines.

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
          flags->GetString("sizes", "64,128,256,512,1024"), "urbangb");
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
      "Table 2 — UrbanGB-like [oracle call count], Prim's algorithm, "
      "k = log2(n)",
      [](metricprox::ObjectId n, uint64_t s) {
        return metricprox::MakeUrbanGbLike(n, s);
      },
      sizes, seed);
  return 0;
}
