// Batched-vs-scalar resolution pipeline: for each (dataset, algorithm,
// scheme) cell, runs the workload once with the batch transport (undecided
// remainders shipped through one parallel BatchDistance per verb) and once
// with the scalar transport (a per-pair Distance loop), then reports wall
// time, oracle-call counts, and round-trip amortization. Outputs are
// checked identical across transports — the pipeline's core guarantee.
//
// Flags: --sizes=128,256,512   --seed=42

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench/common.h"
#include "harness/flags.h"

namespace {

using metricprox::Dataset;
using metricprox::ObjectId;
using metricprox::RunWorkload;
using metricprox::SchemeKind;
using metricprox::Workload;
using metricprox::WorkloadConfig;
using metricprox::WorkloadResult;

struct Cell {
  const char* label;
  SchemeKind scheme;
  bool bootstrap;
};

void RunTable(const std::string& title,
              const std::function<Dataset(ObjectId, uint64_t)>& make_dataset,
              const std::vector<ObjectId>& sizes, uint64_t seed) {
  std::printf("\n%s\n", title.c_str());
  std::printf(
      "%6s %-10s %12s %12s %12s %10s %10s %10s\n", "n", "scheme", "calls",
      "round-trips", "amortize", "scalar(s)", "batch(s)", "speedup");
  const std::vector<Cell> cells = {
      {"none", SchemeKind::kNone, false},
      {"tri", SchemeKind::kTri, true},
      {"laesa", SchemeKind::kLaesa, false},
  };
  const Workload workload = metricprox::benchutil::PrimWorkload();
  metricprox::benchutil::BenchJson json(title);
  for (const ObjectId n : sizes) {
    Dataset dataset = make_dataset(n, seed);
    for (const Cell& cell : cells) {
      WorkloadConfig config;
      config.scheme = cell.scheme;
      config.bootstrap = cell.bootstrap;
      config.max_distance = dataset.max_distance;
      config.seed = seed;

      config.batch_transport = false;
      const WorkloadResult scalar =
          RunWorkload(dataset.oracle.get(), config, workload);
      config.batch_transport = true;
      const WorkloadResult batched =
          RunWorkload(dataset.oracle.get(), config, workload);

      metricprox::benchutil::CheckSameResult(
          batched.value, scalar.value,
          std::string(cell.label) + " n=" + std::to_string(n));
      // Identical decision sequence => identical call counts; report the
      // shared count once and the round-trip compression next to it.
      const uint64_t calls = batched.total_calls;
      const uint64_t trips = batched.stats.batch_calls;
      const double amortize =
          trips > 0 ? static_cast<double>(batched.stats.batch_resolved_pairs) /
                          static_cast<double>(trips)
                    : 0.0;
      const double speedup = batched.wall_seconds > 0.0
                                 ? scalar.wall_seconds / batched.wall_seconds
                                 : 0.0;
      std::printf("%6u %-10s %12llu %12llu %11.1fx %10.4f %10.4f %9.2fx\n", n,
                  cell.label, static_cast<unsigned long long>(calls),
                  static_cast<unsigned long long>(trips), amortize,
                  scalar.wall_seconds, batched.wall_seconds, speedup);
      json.NewRow()
          .Add("n", static_cast<uint64_t>(n))
          .Add("scheme", std::string(cell.label))
          .Add("calls", calls)
          .Add("round_trips", trips)
          .Add("amortize", amortize)
          .Add("scalar_seconds", scalar.wall_seconds)
          .Add("batch_seconds", batched.wall_seconds)
          .Add("speedup", speedup);
    }
  }
  json.Write();
}

}  // namespace

int main(int argc, char** argv) {
  auto flags = metricprox::Flags::Parse(argc, argv);
  if (!flags.ok()) {
    std::fprintf(stderr, "%s\n", flags.status().ToString().c_str());
    return 1;
  }
  const metricprox::StatusOr<std::vector<ObjectId>> parsed_sizes =
      metricprox::benchutil::ParseSizes(
          flags->GetString("sizes", "128,256,512"), "sf");
  if (!parsed_sizes.ok()) {
    std::fprintf(stderr, "%s\n", parsed_sizes.status().ToString().c_str());
    return 1;
  }
  const std::vector<ObjectId>& sizes = *parsed_sizes;
  const uint64_t seed = static_cast<uint64_t>(flags->GetInt("seed", 42));
  const metricprox::Status unused = flags->FailOnUnused();
  if (!unused.ok()) {
    std::fprintf(stderr, "%s\n", unused.ToString().c_str());
    return 1;
  }

  RunTable(
      "Batched pipeline — SF-POI-like road network, Prim's algorithm",
      [](ObjectId n, uint64_t s) { return metricprox::MakeSfPoiLike(n, s); },
      sizes, seed);
  RunTable(
      "Batched pipeline — clustered Euclidean (synthetic), Prim's algorithm",
      [](ObjectId n, uint64_t s) {
        return metricprox::MakeClusteredEuclidean(n, 4, 8, 0.05, s);
      },
      sizes, seed);
  return 0;
}
