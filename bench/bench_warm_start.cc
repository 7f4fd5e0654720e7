// Cross-workload warm start through the persistent distance store: a kNN
// graph, an MST and a k-medoid clustering run back to back over ONE shared
// store (the paper's motivating pipeline — several proximity problems over
// the same expensive metric space). Each workload first runs cold and
// storeless to establish its baseline call count, then as part of the
// shared-store sequence, where everything an earlier workload already paid
// for is answered from disk. Checksums are asserted identical between the
// two, so the store's reuse is provably exact, not approximate.
//
// Flags: --sizes=128,256   --seed=42   --dataset=sf
//        --k=4 (kNN)       --l=5 (PAM medoids)

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench/common.h"
#include "core/logging.h"
#include "harness/flags.h"
#include "harness/table.h"
#include "store/distance_store.h"

namespace {

using metricprox::Dataset;
using metricprox::DistanceStore;
using metricprox::MakeStoreFingerprint;
using metricprox::ObjectId;
using metricprox::RunWorkload;
using metricprox::SchemeKind;
using metricprox::StatusOr;
using metricprox::StoreFingerprint;
using metricprox::TablePrinter;
using metricprox::Workload;
using metricprox::WorkloadConfig;
using metricprox::WorkloadResult;
using metricprox::benchutil::CheckSameResult;
using metricprox::benchutil::PairCount;

struct Stage {
  std::string label;
  Workload workload;
};

void RunSequence(const Dataset& dataset, ObjectId n, uint64_t seed,
                 uint32_t k, uint32_t l) {
  const std::vector<Stage> stages = {
      {"knn-graph", metricprox::benchutil::KnnWorkload(k)},
      {"mst-prim", metricprox::benchutil::PrimWorkload()},
      {"pam-medoid", metricprox::benchutil::PamWorkload(l)},
  };

  WorkloadConfig config;
  config.scheme = SchemeKind::kTri;
  config.bootstrap = true;
  config.seed = seed;
  config.max_distance = dataset.max_distance;

  // One store for the whole sequence, fingerprinted like the CLI does.
  const std::string base =
      std::filesystem::temp_directory_path() /
      ("bench_warm_start_" + std::to_string(n));
  std::filesystem::remove(DistanceStore::SnapshotPath(base));
  std::filesystem::remove(DistanceStore::WalPath(base));
  const StoreFingerprint fp = MakeStoreFingerprint(
      "bench=warm-start;dataset=" + dataset.name + ";n=" +
          std::to_string(n) + ";seed=" + std::to_string(seed),
      n);
  StatusOr<std::unique_ptr<DistanceStore>> store = DistanceStore::Open(base, fp);
  CHECK(store.ok()) << store.status();

  TablePrinter table({"workload", "cold calls", "shared-store calls",
                      "store edges", "saved (%)"});
  uint64_t cold_total = 0;
  uint64_t warm_total = 0;
  for (const Stage& stage : stages) {
    config.store = nullptr;
    const WorkloadResult cold =
        RunWorkload(dataset.oracle.get(), config, stage.workload);

    config.store = store->get();
    const WorkloadResult warm =
        RunWorkload(dataset.oracle.get(), config, stage.workload);
    CheckSameResult(cold.value, warm.value,
                    stage.label + " via shared store (n=" +
                        std::to_string(n) + ")");

    cold_total += cold.total_calls;
    warm_total += warm.total_calls;
    table.NewRow()
        .AddCell(stage.label)
        .AddUint(cold.total_calls)
        .AddUint(warm.total_calls)
        .AddUint((*store)->size())
        .AddPercent(metricprox::SaveFraction(warm.total_calls,
                                             cold.total_calls));
  }
  table.NewRow()
      .AddCell("TOTAL")
      .AddUint(cold_total)
      .AddUint(warm_total)
      .AddUint((*store)->size())
      .AddPercent(metricprox::SaveFraction(warm_total, cold_total));
  table.Print(dataset.name + ", n=" + std::to_string(n) + " (" +
              std::to_string(PairCount(n)) + " pairs), knn(k=" +
              std::to_string(k) + ") -> mst -> pam(l=" + std::to_string(l) +
              ") over one store");

  const metricprox::Status closed = (*store)->Close();
  CHECK(closed.ok()) << closed;
  std::filesystem::remove(DistanceStore::SnapshotPath(base));
  std::filesystem::remove(DistanceStore::WalPath(base));
}

}  // namespace

int main(int argc, char** argv) {
  auto flags = metricprox::Flags::Parse(argc, argv);
  if (!flags.ok()) {
    std::fprintf(stderr, "%s\n", flags.status().ToString().c_str());
    return 1;
  }
  const std::string dataset_name = flags->GetString("dataset", "sf");
  const auto make_dataset =
      metricprox::benchutil::RoadOrRandomDataset(dataset_name);
  if (!make_dataset.ok()) {
    std::fprintf(stderr, "%s\n", make_dataset.status().ToString().c_str());
    return 1;
  }
  // PAM needs two medoids and one more object.
  const StatusOr<std::vector<ObjectId>> parsed_sizes =
      metricprox::benchutil::ParseSizes(flags->GetString("sizes", "128,256"),
                                        dataset_name, 3);
  if (!parsed_sizes.ok()) {
    std::fprintf(stderr, "%s\n", parsed_sizes.status().ToString().c_str());
    return 1;
  }
  const std::vector<ObjectId>& sizes = *parsed_sizes;
  const uint64_t seed = static_cast<uint64_t>(flags->GetInt("seed", 42));
  const int64_t k_raw = flags->GetInt("k", 4);
  const int64_t l_raw = flags->GetInt("l", 5);
  // kNN needs k < n and PAM 2 <= l < n at every size.
  const int64_t below = metricprox::benchutil::SmallestSize(sizes) - int64_t{1};
  for (const metricprox::Status& s :
       {flags->FailOnUnused(),
        metricprox::benchutil::CheckIntInRange("--k", k_raw, 1, below),
        metricprox::benchutil::CheckIntInRange("--l", l_raw, 2, below)}) {
    if (!s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
  }
  const uint32_t k = static_cast<uint32_t>(k_raw);
  const uint32_t l = static_cast<uint32_t>(l_raw);

  std::printf("Cross-workload warm start: each workload cold/storeless vs "
              "inside a shared-store sequence.\nChecksums are asserted "
              "identical; every saved call is answered from disk.\n");
  for (const ObjectId n : sizes) {
    const Dataset dataset = (*make_dataset)(n, seed);
    RunSequence(dataset, n, seed, k, l);
  }
  return 0;
}
