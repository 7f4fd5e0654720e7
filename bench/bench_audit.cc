// Certification overhead: what does running with --audit-style online
// verification cost? Each cell runs one workload twice through
// AuditWorkload — bare, then with the CertifyingBounder + Verifier in the
// loop — asserts the A-B invariants (byte-identical outputs, identical
// oracle calls, zero failed certificates), and reports the wall-time
// overhead of emitting and independently checking every certificate.
//
// Flags: --sizes=128,256   --seed=42   --dataset=sf   --k=4   --l=5

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.h"
#include "core/logging.h"
#include "data/datasets.h"
#include "harness/experiment.h"
#include "harness/flags.h"
#include "harness/table.h"

namespace {

using metricprox::AuditReport;
using metricprox::AuditWorkload;
using metricprox::Dataset;
using metricprox::ObjectId;
using metricprox::SchemeKind;
using metricprox::SchemeKindName;
using metricprox::StatusOr;
using metricprox::TablePrinter;
using metricprox::Workload;
using metricprox::WorkloadConfig;
using metricprox::benchutil::PairCount;

struct Stage {
  std::string label;
  Workload workload;
};

void RunMatrix(const Dataset& dataset, ObjectId n, uint64_t seed, uint32_t k,
               uint32_t l) {
  const std::vector<Stage> stages = {
      {"knn-graph", metricprox::benchutil::KnnWorkload(k)},
      {"mst-prim", metricprox::benchutil::PrimWorkload()},
      {"pam-medoid", metricprox::benchutil::PamWorkload(l)},
  };

  TablePrinter table({"workload", "scheme", "bare (ms)", "certified (ms)",
                      "overhead", "certs", "certs/ms"});
  for (const Stage& stage : stages) {
    for (SchemeKind scheme : {SchemeKind::kTri, SchemeKind::kSplub}) {
      WorkloadConfig config;
      config.scheme = scheme;
      config.bootstrap = true;
      config.seed = seed;
      config.max_distance = dataset.max_distance;

      const StatusOr<AuditReport> report =
          AuditWorkload(dataset.oracle.get(), config, stage.workload);
      CHECK(report.ok()) << report.status();
      CHECK(report->passed())
          << stage.label << "/" << SchemeKindName(scheme)
          << ": audit invariants violated (outputs_identical="
          << report->outputs_identical
          << " calls_identical=" << report->calls_identical
          << " failed=" << report->certification.failed << ")";

      const double bare_ms = report->unaudited.wall_seconds * 1e3;
      const double cert_ms = report->audited.wall_seconds * 1e3;
      const uint64_t certs = report->certification.emitted;
      table.NewRow()
          .AddCell(stage.label)
          .AddCell(std::string(SchemeKindName(scheme)))
          .AddDouble(bare_ms, 3)
          .AddDouble(cert_ms, 3)
          .AddCell(bare_ms > 0.0
                       ? std::to_string(static_cast<int>(
                             100.0 * (cert_ms - bare_ms) / bare_ms)) + "%"
                       : "-")
          .AddUint(certs)
          .AddDouble(cert_ms > 0.0 ? static_cast<double>(certs) / cert_ms
                                   : 0.0,
                     1);
    }
  }
  table.Print(dataset.name + ", n=" + std::to_string(n) + " (" +
              std::to_string(PairCount(n)) +
              " pairs): emit + verify every scalar bound decision");
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

  std::printf(
      "Certification overhead: every cell is an A-B run (bare vs certified) "
      "with byte-identical\noutputs, identical oracle calls and 100%% "
      "verified certificates asserted as a side effect.\n");
  for (const ObjectId n : sizes) {
    const Dataset dataset = (*make_dataset)(n, seed);
    RunMatrix(dataset, n, seed, k, l);
  }
  return 0;
}
