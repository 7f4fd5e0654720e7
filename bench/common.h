#ifndef METRICPROX_BENCH_COMMON_H_
#define METRICPROX_BENCH_COMMON_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "core/status.h"
#include "data/datasets.h"
#include "harness/experiment.h"

namespace metricprox {
namespace benchutil {

/// n*(n-1)/2 — the "# of Edges" column of the paper's tables.
inline uint64_t PairCount(ObjectId n) {
  return static_cast<uint64_t>(n) * (n - 1) / 2;
}

/// InvalidArgument naming `flag` unless lo <= v <= hi ("--k must be in
/// [1, 31]; got 40"), so a bench rejects a value that its dataset builder or
/// algorithm would CHECK-abort on before it does any work.
Status CheckIntInRange(std::string_view flag, int64_t v, int64_t lo,
                       int64_t hi);

/// An object count read from flag `flag` for a bench that builds the
/// dataset `dataset`: InvalidArgument unless it is at least `min_count` and
/// fits ObjectId and, for a road dataset ("sf", "urbangb"), the junctions of
/// its grid (CheckRoadCapacity). Other datasets are only range-checked. The
/// floor of 2 is what pivot selection and the dataset builders need; a
/// bench whose algorithm needs more objects (PAM with l medoids needs
/// l + 1) passes its own.
StatusOr<ObjectId> CheckObjectCount(std::string_view flag, int64_t n,
                                    std::string_view dataset,
                                    ObjectId min_count = 2);

/// Parses a --sizes flag value: comma-separated decimal object counts, ""
/// being the empty list, each checked by CheckObjectCount for `dataset` and
/// `min_count`. An empty token, a character other than a digit or a value
/// that does not fit ObjectId is InvalidArgument, and so is a size below
/// `min_count` or past a road grid.
StatusOr<std::vector<ObjectId>> ParseSizes(const std::string& csv,
                                           std::string_view dataset = "",
                                           ObjectId min_count = 2);

/// The smallest of `sizes`, or the largest ObjectId when there are none: a
/// per-size parameter such as kNN's k must stay below it.
ObjectId SmallestSize(const std::vector<ObjectId>& sizes);

/// The dataset builder for a bench's --dataset flag: "sf" (the default of
/// every bench that takes the flag), "urbangb" or "random". Any other name is
/// InvalidArgument, so the bench can exit before any work.
StatusOr<std::function<Dataset(ObjectId, uint64_t)>> RoadOrRandomDataset(
    std::string_view name);

/// Ready-made workloads (checksum = MST weight / total deviation / k-NN
/// distance sum) so every bench can assert scheme-independence of results.
Workload PrimWorkload();
Workload KruskalWorkload();
Workload KnnWorkload(uint32_t k);
Workload PamWorkload(uint32_t num_medoids);
Workload ClaransWorkload(uint32_t num_medoids, uint64_t seed);

/// A labelled scheme configuration (one column/row of a paper table).
struct SchemeRow {
  std::string label;
  WorkloadConfig config;
};

/// The paper's standard comparison set: Without Plug, TS-NB (Tri without
/// bootstrap), Tri Scheme (bootstrapped), LAESA, TLAESA.
std::vector<SchemeRow> StandardSchemes(uint64_t seed = 42);

/// CHECK-fails if two workload checksums disagree beyond fp tolerance —
/// every bench verifies the exactness invariant as a side effect.
void CheckSameResult(double a, double b, const std::string& context);

/// A landmark-baseline run at its empirically best landmark count (the
/// paper's methodology for the LAESA/TLAESA columns).
struct BestBaselineResult {
  WorkloadResult result;
  uint32_t num_landmarks = 0;
};

/// Runs `scheme` (LAESA or TLAESA) over a sweep of landmark counts
/// (multiples of log2 n) and returns the cheapest run in oracle calls.
BestBaselineResult RunBestLandmarkBaseline(DistanceOracle* oracle,
                                           SchemeKind scheme,
                                           const Workload& workload,
                                           uint64_t seed);

/// Emits a generic oracle-call-count sweep: one row per size with columns
/// WithoutPlug / Tri (bootstrapped) / LAESA / TLAESA plus save percentages
/// (k = ceil(log2 n) landmarks everywhere). Used by the Figure 6/7 benches.
void RunCallCountSweep(
    const std::string& title,
    const std::function<Dataset(ObjectId, uint64_t)>& make_dataset,
    const std::function<Workload(ObjectId)>& make_workload,
    const std::vector<ObjectId>& sizes, uint64_t seed);

/// Emits a Table-2/3-style oracle-call-count table for Prim's algorithm:
/// one row per size, columns WithoutPlug / TS-NB / Bootstrap / TriScheme /
/// LAESA / Save% / TLAESA / Save%, with k = ceil(log2 n) landmarks.
void RunPrimOracleCallTable(
    const std::string& title,
    const std::function<Dataset(ObjectId, uint64_t)>& make_dataset,
    const std::vector<ObjectId>& sizes, uint64_t seed);

/// Machine-readable companion to the printed tables: collects labelled
/// key/value rows and, when the METRICPROX_BENCH_JSON_DIR environment
/// variable names a directory, writes them as BENCH_<slug>.json there so
/// call-count trajectories can be tracked run over run. Without the
/// variable Write() is a no-op, so interactive bench runs stay file-free.
class BenchJson {
 public:
  explicit BenchJson(std::string title);

  /// Starts a new row (one measured configuration / table line).
  BenchJson& NewRow();
  BenchJson& Add(const std::string& key, uint64_t value);
  BenchJson& Add(const std::string& key, double value);
  BenchJson& Add(const std::string& key, const std::string& value);

  /// Single JSON document: {"schema":"metricprox-bench",...,"rows":[...]}.
  std::string ToJson() const;

  /// Writes BENCH_<slug>.json under $METRICPROX_BENCH_JSON_DIR and returns
  /// the path, or returns "" when the variable is unset. Failures are
  /// reported on stderr but never fail the bench.
  std::string Write() const;

 private:
  std::string title_;
  std::string slug_;
  /// Each row is a list of pre-encoded `"key":value` JSON members.
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace benchutil
}  // namespace metricprox

#endif  // METRICPROX_BENCH_COMMON_H_
