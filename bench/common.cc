#include "bench/common.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string_view>

#include "algo/clarans.h"
#include "bounds/pivots.h"
#include "harness/table.h"
#include "algo/knn_graph.h"
#include "algo/kruskal.h"
#include "algo/pam.h"
#include "algo/prim.h"
#include "core/logging.h"
#include "obs/trace.h"

namespace metricprox {
namespace benchutil {

Status CheckIntInRange(std::string_view flag, int64_t v, int64_t lo,
                       int64_t hi) {
  if (v >= lo && v <= hi) return Status::OK();
  return Status::InvalidArgument(std::string(flag) + " must be in [" +
                                 std::to_string(lo) + ", " +
                                 std::to_string(hi) + "]; got " +
                                 std::to_string(v));
}

StatusOr<ObjectId> CheckObjectCount(std::string_view flag, int64_t n,
                                    std::string_view dataset,
                                    ObjectId min_count) {
  MP_RETURN_IF_ERROR(CheckIntInRange(flag, n, min_count,
                                     std::numeric_limits<ObjectId>::max()));
  const ObjectId count = static_cast<ObjectId>(n);
  if (dataset == "sf") {
    MP_RETURN_IF_ERROR(CheckRoadCapacity(dataset, count, kSfPoiCapacity));
  } else if (dataset == "urbangb") {
    MP_RETURN_IF_ERROR(CheckRoadCapacity(dataset, count, kUrbanGbCapacity));
  }
  return count;
}

ObjectId SmallestSize(const std::vector<ObjectId>& sizes) {
  return sizes.empty() ? std::numeric_limits<ObjectId>::max()
                       : *std::min_element(sizes.begin(), sizes.end());
}

StatusOr<std::function<Dataset(ObjectId, uint64_t)>> RoadOrRandomDataset(
    std::string_view name) {
  using Maker = std::function<Dataset(ObjectId, uint64_t)>;
  if (name == "sf") return Maker(MakeSfPoiLike);
  if (name == "urbangb") return Maker(MakeUrbanGbLike);
  if (name == "random") return Maker(MakeRandomMetric);
  return Status::InvalidArgument("unknown --dataset: '" + std::string(name) +
                                 "' (want sf, urbangb or random)");
}

StatusOr<std::vector<ObjectId>> ParseSizes(const std::string& csv,
                                           std::string_view dataset,
                                           ObjectId min_count) {
  std::vector<ObjectId> sizes;
  if (csv.empty()) return sizes;
  size_t begin = 0;
  while (true) {
    const size_t end = std::min(csv.find(',', begin), csv.size());
    const std::string_view token(csv.data() + begin, end - begin);
    ObjectId value = 0;
    const auto [rest, error] =
        std::from_chars(token.data(), token.data() + token.size(), value);
    if (token.empty() || error != std::errc() ||
        rest != token.data() + token.size()) {
      return Status::InvalidArgument(
          "invalid --sizes entry '" + std::string(token) +
          "': expected a comma-separated list of object counts in [" +
          std::to_string(min_count) + ", " +
          std::to_string(std::numeric_limits<ObjectId>::max()) + "]");
    }
    MP_RETURN_IF_ERROR(
        CheckObjectCount("--sizes", value, dataset, min_count).status());
    sizes.push_back(value);
    if (end == csv.size()) return sizes;
    begin = end + 1;
  }
}

Workload PrimWorkload() {
  return [](BoundedResolver* resolver) {
    return PrimMst(resolver).total_weight;
  };
}

Workload KruskalWorkload() {
  return [](BoundedResolver* resolver) {
    return KruskalMst(resolver).total_weight;
  };
}

Workload KnnWorkload(uint32_t k) {
  return [k](BoundedResolver* resolver) {
    const KnnGraph graph = BuildKnnGraph(resolver, KnnGraphOptions{k});
    double checksum = 0.0;
    for (const auto& neighbors : graph) {
      for (const KnnNeighbor& nb : neighbors) checksum += nb.distance;
    }
    return checksum;
  };
}

Workload PamWorkload(uint32_t num_medoids) {
  return [num_medoids](BoundedResolver* resolver) {
    PamOptions options;
    options.num_medoids = num_medoids;
    return PamCluster(resolver, options).total_deviation;
  };
}

Workload ClaransWorkload(uint32_t num_medoids, uint64_t seed) {
  return [num_medoids, seed](BoundedResolver* resolver) {
    ClaransOptions options;
    options.num_medoids = num_medoids;
    options.seed = seed;
    return ClaransCluster(resolver, options).total_deviation;
  };
}

std::vector<SchemeRow> StandardSchemes(uint64_t seed) {
  std::vector<SchemeRow> rows;
  {
    WorkloadConfig config;
    config.scheme = SchemeKind::kNone;
    config.seed = seed;
    rows.push_back({"without-plug", config});
  }
  {
    WorkloadConfig config;
    config.scheme = SchemeKind::kTri;
    config.seed = seed;
    rows.push_back({"ts-nb", config});
  }
  {
    WorkloadConfig config;
    config.scheme = SchemeKind::kTri;
    config.bootstrap = true;
    config.seed = seed;
    rows.push_back({"tri", config});
  }
  {
    WorkloadConfig config;
    config.scheme = SchemeKind::kLaesa;
    config.seed = seed;
    rows.push_back({"laesa", config});
  }
  {
    WorkloadConfig config;
    config.scheme = SchemeKind::kTlaesa;
    config.seed = seed;
    rows.push_back({"tlaesa", config});
  }
  return rows;
}

void CheckSameResult(double a, double b, const std::string& context) {
  const double tolerance = 1e-6 * (1.0 + std::abs(a));
  CHECK_LE(std::abs(a - b), tolerance)
      << "exactness violated in " << context << ": " << a << " vs " << b;
}

BenchJson::BenchJson(std::string title) : title_(std::move(title)) {
  // Slug: lowercase alphanumerics, every other run of characters -> one '_'.
  bool pending_sep = false;
  for (const char c : title_) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      if (pending_sep && !slug_.empty()) slug_.push_back('_');
      pending_sep = false;
      slug_.push_back(static_cast<char>(
          std::tolower(static_cast<unsigned char>(c))));
    } else {
      pending_sep = true;
    }
  }
  if (slug_.empty()) slug_ = "bench";
}

BenchJson& BenchJson::NewRow() {
  rows_.emplace_back();
  return *this;
}

BenchJson& BenchJson::Add(const std::string& key, uint64_t value) {
  CHECK(!rows_.empty()) << "Add before NewRow";
  std::string member;
  obsjson::AppendString(&member, key);
  member += ':';
  member += std::to_string(value);
  rows_.back().push_back(std::move(member));
  return *this;
}

BenchJson& BenchJson::Add(const std::string& key, double value) {
  CHECK(!rows_.empty()) << "Add before NewRow";
  std::string member;
  obsjson::AppendString(&member, key);
  member += ':';
  obsjson::AppendDouble(&member, value);
  rows_.back().push_back(std::move(member));
  return *this;
}

BenchJson& BenchJson::Add(const std::string& key, const std::string& value) {
  CHECK(!rows_.empty()) << "Add before NewRow";
  std::string member;
  obsjson::AppendString(&member, key);
  member += ':';
  obsjson::AppendString(&member, value);
  rows_.back().push_back(std::move(member));
  return *this;
}

std::string BenchJson::ToJson() const {
  std::string out = "{\"schema\":\"metricprox-bench\",\"schema_version\":1,";
  out += "\"bench\":";
  obsjson::AppendString(&out, title_);
  out += ",\"rows\":[";
  for (size_t r = 0; r < rows_.size(); ++r) {
    if (r > 0) out += ',';
    out += '{';
    for (size_t m = 0; m < rows_[r].size(); ++m) {
      if (m > 0) out += ',';
      out += rows_[r][m];
    }
    out += '}';
  }
  out += "]}";
  return out;
}

std::string BenchJson::Write() const {
  const char* dir = std::getenv("METRICPROX_BENCH_JSON_DIR");
  if (dir == nullptr || dir[0] == '\0') return "";
  const std::string path = std::string(dir) + "/BENCH_" + slug_ + ".json";
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
    return "";
  }
  const std::string json = ToJson() + "\n";
  const bool ok = std::fwrite(json.data(), 1, json.size(), file) ==
                  json.size();
  if (std::fclose(file) != 0 || !ok) {
    std::fprintf(stderr, "bench: short write to %s\n", path.c_str());
    return "";
  }
  std::printf("bench json: %s\n", path.c_str());
  return path;
}

void RunCallCountSweep(
    const std::string& title,
    const std::function<Dataset(ObjectId, uint64_t)>& make_dataset,
    const std::function<Workload(ObjectId)>& make_workload,
    const std::vector<ObjectId>& sizes, uint64_t seed) {
  TablePrinter table({"n", "# pairs", "Without Plug", "Tri Scheme",
                      "save vs w/o (%)", "LAESA", "save (%)", "TLAESA",
                      "save (%)"});
  BenchJson json(title);
  for (const ObjectId n : sizes) {
    Dataset dataset = make_dataset(n, seed);
    const Workload workload = make_workload(n);
    auto run = [&](SchemeKind scheme, bool bootstrap) {
      WorkloadConfig config;
      config.scheme = scheme;
      config.bootstrap = bootstrap;
      config.seed = seed;
      return RunWorkload(dataset.oracle.get(), config, workload);
    };
    const WorkloadResult without = run(SchemeKind::kNone, false);
    const WorkloadResult tri = run(SchemeKind::kTri, true);
    const WorkloadResult laesa = run(SchemeKind::kLaesa, false);
    const WorkloadResult tlaesa = run(SchemeKind::kTlaesa, false);
    for (const WorkloadResult* r : {&tri, &laesa, &tlaesa}) {
      CheckSameResult(without.value, r->value, title);
    }
    table.NewRow()
        .AddUint(n)
        .AddUint(PairCount(n))
        .AddUint(without.total_calls)
        .AddUint(tri.total_calls)
        .AddPercent(SaveFraction(tri.total_calls, without.total_calls))
        .AddUint(laesa.total_calls)
        .AddPercent(SaveFraction(tri.total_calls, laesa.total_calls))
        .AddUint(tlaesa.total_calls)
        .AddPercent(SaveFraction(tri.total_calls, tlaesa.total_calls));
    json.NewRow()
        .Add("n", static_cast<uint64_t>(n))
        .Add("pairs", PairCount(n))
        .Add("without_plug_calls", without.total_calls)
        .Add("tri_calls", tri.total_calls)
        .Add("laesa_calls", laesa.total_calls)
        .Add("tlaesa_calls", tlaesa.total_calls)
        .Add("save_vs_without",
             SaveFraction(tri.total_calls, without.total_calls))
        .Add("save_vs_laesa",
             SaveFraction(tri.total_calls, laesa.total_calls))
        .Add("save_vs_tlaesa",
             SaveFraction(tri.total_calls, tlaesa.total_calls));
  }
  table.Print(title);
  std::printf("\n");
  json.Write();
}

BestBaselineResult RunBestLandmarkBaseline(DistanceOracle* oracle,
                                           SchemeKind scheme,
                                           const Workload& workload,
                                           uint64_t seed) {
  // The paper compares against "the empirically found best (lowest) count
  // for distance calls in LAESA and TLAESA": sweep multiples of log2(n)
  // and keep the cheapest run.
  const uint32_t base = DefaultNumLandmarks(oracle->num_objects());
  BestBaselineResult best;
  bool first = true;
  for (const uint32_t k :
       {base / 2 > 0 ? base / 2 : 1, base, 2 * base, 3 * base, 4 * base}) {
    WorkloadConfig config;
    config.scheme = scheme;
    config.num_landmarks = k;
    config.seed = seed;
    WorkloadResult result = RunWorkload(oracle, config, workload);
    if (first || result.total_calls < best.result.total_calls) {
      best.result = std::move(result);
      best.num_landmarks = k;
      first = false;
    }
  }
  return best;
}

void RunPrimOracleCallTable(
    const std::string& title,
    const std::function<Dataset(ObjectId, uint64_t)>& make_dataset,
    const std::vector<ObjectId>& sizes, uint64_t seed) {
  TablePrinter table({"# of Edges", "Without Plug", "TS-NB", "Bootstrap",
                      "Tri Scheme (k)", "LAESA (k)", "Save (%)", "TLAESA (k)",
                      "Save (%)"});
  BenchJson json(title);
  const Workload workload = PrimWorkload();
  for (const ObjectId n : sizes) {
    Dataset dataset = make_dataset(n, seed);
    const uint32_t landmarks = DefaultNumLandmarks(n);

    auto run = [&](SchemeKind scheme, bool bootstrap) {
      WorkloadConfig config;
      config.scheme = scheme;
      config.bootstrap = bootstrap;
      config.num_landmarks = landmarks;
      config.seed = seed;
      return RunWorkload(dataset.oracle.get(), config, workload);
    };

    const WorkloadResult without = run(SchemeKind::kNone, false);
    const WorkloadResult ts_nb = run(SchemeKind::kTri, false);
    const WorkloadResult tri = run(SchemeKind::kTri, true);
    const BestBaselineResult laesa = RunBestLandmarkBaseline(
        dataset.oracle.get(), SchemeKind::kLaesa, workload, seed);
    const BestBaselineResult tlaesa = RunBestLandmarkBaseline(
        dataset.oracle.get(), SchemeKind::kTlaesa, workload, seed);
    for (const WorkloadResult* r :
         {&ts_nb, &tri, &laesa.result, &tlaesa.result}) {
      CheckSameResult(without.value, r->value, "prim table");
    }

    auto with_k = [](const WorkloadResult& r, uint32_t k) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%llu (%u)",
                    static_cast<unsigned long long>(r.total_calls), k);
      return std::string(buf);
    };

    table.NewRow()
        .AddUint(PairCount(n))
        .AddUint(without.total_calls)
        .AddUint(ts_nb.total_calls)
        .AddUint(tri.construction_calls)
        .AddCell(with_k(tri, landmarks))
        .AddCell(with_k(laesa.result, laesa.num_landmarks))
        .AddPercent(SaveFraction(tri.total_calls, laesa.result.total_calls))
        .AddCell(with_k(tlaesa.result, tlaesa.num_landmarks))
        .AddPercent(
            SaveFraction(tri.total_calls, tlaesa.result.total_calls));
    json.NewRow()
        .Add("n", static_cast<uint64_t>(n))
        .Add("pairs", PairCount(n))
        .Add("without_plug_calls", without.total_calls)
        .Add("ts_nb_calls", ts_nb.total_calls)
        .Add("bootstrap_calls", tri.construction_calls)
        .Add("tri_calls", tri.total_calls)
        .Add("tri_landmarks", static_cast<uint64_t>(landmarks))
        .Add("laesa_calls", laesa.result.total_calls)
        .Add("laesa_landmarks", static_cast<uint64_t>(laesa.num_landmarks))
        .Add("save_vs_laesa",
             SaveFraction(tri.total_calls, laesa.result.total_calls))
        .Add("tlaesa_calls", tlaesa.result.total_calls)
        .Add("tlaesa_landmarks",
             static_cast<uint64_t>(tlaesa.num_landmarks))
        .Add("save_vs_tlaesa",
             SaveFraction(tri.total_calls, tlaesa.result.total_calls));
  }
  table.Print(title);
  json.Write();
}

}  // namespace benchutil
}  // namespace metricprox
