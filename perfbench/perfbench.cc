// perfbench: the seeded end-to-end benchmark of metricprox.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// One closed-loop client on one thread. A pass solves each of the run's
// instances (samples drawn by --seed) once, each on fresh state (a new
// oracle with a cold row cache, graph, resolver and scheme), wired from the
// public API as
//   oracle -> PartialDistanceGraph -> BoundedResolver -> MakeAndAttachScheme
//   -> algorithm.
// Passes repeat for --seconds. The only other threads are the oracle's
// batch workers (at most 4).
//
// --trace 0 runs plain passes and reports the end-to-end metrics. --trace 1
// alternates plain and traced passes and reports the per-layer metrics; a
// traced pass wraps the oracle and the scheme in the forwarding decorators
// of layers.h and must reproduce the plain pass's outputs and resolver
// counters exactly. Outputs are also compared bit for bit with an
// oracle-only reference. The last line of stdout is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. README.md in this
// directory defines every metric.

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "algo/knn_graph.h"
#include "algo/medoid_common.h"
#include "algo/mst.h"
#include "algo/pam.h"
#include "algo/prim.h"
#include "algo/reference.h"
#include "bounds/pivots.h"
#include "bounds/resolver.h"
#include "bounds/scheme.h"
#include "core/simd.h"
#include "core/stats.h"
#include "data/datasets.h"
#include "layers.h"
#include "oracle/road_network.h"
#include "oracle/vector_oracle.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using metricprox::BoundedResolver;
using metricprox::ClusteringResult;
using metricprox::Dataset;
using metricprox::KnnGraph;
using metricprox::MstResult;
using metricprox::ResolverStats;
using metricprox::RoadNetworkOracle;
using metricprox::SchemeKind;
using metricprox::VectorOracle;

using Output = std::variant<KnnGraph, MstResult, ClusteringResult>;

constexpr uint32_t kKnnK = 8;
constexpr uint32_t kPamMedoids = 10;
constexpr uint32_t kPamSwapRounds = 2;
constexpr unsigned kMaxBatchWorkers = 4;
// Other tenants of a shared machine only ever slow a job down, so each
// time is estimated from the fastest of the run's jobs (per instance, see
// FastestPerInstance), which holds far steadier than the median when such
// contention comes and goes. Set-up is mostly short next to solving, so a
// run also times up to kSetupOnlyReps extra set-up passes (fresh state, no
// solve; at least one, and no more once they have taken
// kSetupOnlySeconds).
constexpr size_t kSetupOnlyReps = 20;
constexpr double kSetupOnlySeconds = 0.5;
constexpr size_t kMinPasses = 3;

/// One benchmark workload: each run solves `instances` samples of `n`
/// objects drawn from one population of `pool_n`. README.md records why
/// each workload exists and which layer it keeps busy.
struct Workload {
  std::string_view name;
  ObjectId pool_n;
  ObjectId n;
  uint32_t instances;
  SchemeKind scheme;
  bool bootstrap;
  Dataset (*make)(ObjectId n, uint64_t seed);
  Output (*solve)(BoundedResolver* resolver);
};

Dataset MakeClustered(ObjectId n, uint64_t seed) {
  return metricprox::MakeClusteredEuclidean(n, /*dim=*/3, /*num_clusters=*/6,
                                            /*spread=*/0.05, seed);
}

Output SolveKnn(BoundedResolver* r) {
  return metricprox::BuildKnnGraph(r, {.k = kKnnK});
}
Output SolvePrim(BoundedResolver* r) { return metricprox::PrimMst(r); }
Output SolvePam(BoundedResolver* r) {
  return metricprox::PamCluster(
      r, {.num_medoids = kPamMedoids, .max_swap_rounds = kPamSwapRounds});
}

constexpr Workload kWorkloads[] = {
    {"knn-clustered-tri", 8000, 1000, 2, SchemeKind::kTri, false,
     MakeClustered, SolveKnn},
    {"knn-clustered-none", 8000, 700, 1, SchemeKind::kNone, false,
     MakeClustered, SolveKnn},
    {"prim-urbangb-tri", 2000, 1500, 3, SchemeKind::kTri, true,
     metricprox::MakeUrbanGbLike, SolvePrim},
    {"pam-sf-tri", 300, 200, 6, SchemeKind::kTri, false,
     metricprox::MakeSfPoiLike, SolvePam},
};

// The population every seed samples from. One fixed population, rather
// than a new world per seed, keeps the seed-to-seed spread of the metrics
// within the bounds BENCHMARK.json sets (README.md).
constexpr uint64_t kPoolSeed = 2021;

/// A new oracle over the dataset's objects with empty caches, so no job
/// inherits another's warm road rows.
std::unique_ptr<DistanceOracle> FreshOracle(const Dataset& data) {
  if (data.network != nullptr) {
    const auto& road = dynamic_cast<const RoadNetworkOracle&>(*data.oracle);
    return std::make_unique<RoadNetworkOracle>(data.network.get(),
                                               road.object_nodes());
  }
  const auto& vec = dynamic_cast<const VectorOracle&>(*data.oracle);
  return std::make_unique<VectorOracle>(vec.points(),
                                        metricprox::VectorMetric::kEuclidean);
}

/// Instance `instance` of the run's input: `n` objects of `pool` drawn
/// without replacement by (`seed`, `instance`). Objects keep a canonical
/// order: population order for points, junction order (row-major over the
/// road grid, so by location) for road objects. Prim's oracle calls swing
/// by a third with the start object and visiting order alone, and the road
/// oracle's row cache splits Dijkstra work between bootstrap and solve by
/// object id; a canonical order leaves the seed to choose only which
/// objects take part.
Dataset SampleDataset(const Dataset& pool, ObjectId n, uint64_t seed,
                      uint32_t instance) {
  std::vector<ObjectId> ids(pool.oracle->num_objects());
  for (ObjectId k = 0; k < ids.size(); ++k) ids[k] = k;
  std::seed_seq seq{static_cast<uint32_t>(seed),
                    static_cast<uint32_t>(seed >> 32), instance};
  std::mt19937_64 rng(seq);
  for (ObjectId k = 0; k < n; ++k) {
    std::uniform_int_distribution<size_t> pick(k, ids.size() - 1);
    std::swap(ids[k], ids[pick(rng)]);
  }
  ids.resize(n);
  std::sort(ids.begin(), ids.end());
  Dataset sample;
  sample.name = pool.name;
  sample.max_distance = pool.max_distance;
  sample.network = pool.network;
  if (pool.network != nullptr) {
    const auto& road = dynamic_cast<const RoadNetworkOracle&>(*pool.oracle);
    std::vector<uint32_t> nodes;
    for (const ObjectId id : ids) nodes.push_back(road.object_nodes()[id]);
    std::sort(nodes.begin(), nodes.end());
    sample.oracle = std::make_unique<RoadNetworkOracle>(pool.network.get(),
                                                        std::move(nodes));
  } else {
    const auto& vec = dynamic_cast<const VectorOracle&>(*pool.oracle);
    metricprox::PointSet points;
    for (const ObjectId id : ids) points.push_back(vec.points()[id]);
    sample.oracle = std::make_unique<VectorOracle>(
        std::move(points), metricprox::VectorMetric::kEuclidean);
  }
  return sample;
}

/// The oracle-only result the framework must reproduce bit for bit. PAM has
/// no textbook reference in the library, so it runs PamCluster without a
/// scheme: every comparison then reaches the oracle.
Output Reference(const Workload& w, const Dataset& data) {
  std::unique_ptr<DistanceOracle> oracle = FreshOracle(data);
  if (w.solve == SolveKnn) {
    return metricprox::ReferenceKnnGraph(oracle.get(), kKnnK);
  }
  if (w.solve == SolvePrim) return metricprox::ReferencePrimMst(oracle.get());
  PartialDistanceGraph graph(w.n);
  BoundedResolver resolver(oracle.get(), &graph);
  return SolvePam(&resolver);
}

std::string Fmt(const char* format, ...) __attribute__((format(printf, 1, 2)));
std::string Fmt(const char* format, ...) {
  char buf[512];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buf, sizeof(buf), format, args);
  va_end(args);
  return buf;
}

/// Empty when `got` equals `want` bit for bit; else the first difference.
std::string FirstDifference(const Output& got, const Output& want) {
  if (const auto* g = std::get_if<KnnGraph>(&got)) {
    const KnnGraph& w = std::get<KnnGraph>(want);
    if (g->size() != w.size()) {
      return Fmt("knn: %zu nodes, want %zu", g->size(), w.size());
    }
    for (size_t u = 0; u < w.size(); ++u) {
      const std::vector<metricprox::KnnNeighbor>& a = (*g)[u];
      if (a.size() != w[u].size()) {
        return Fmt("knn[%zu]: %zu neighbours, want %zu", u, a.size(),
                   w[u].size());
      }
      for (size_t r = 0; r < a.size(); ++r) {
        if (!(a[r] == w[u][r])) {
          return Fmt("knn[%zu][%zu] = (%u, %.17g), want (%u, %.17g)", u, r,
                     a[r].id, a[r].distance, w[u][r].id, w[u][r].distance);
        }
      }
    }
    return "";
  }
  if (const auto* g = std::get_if<MstResult>(&got)) {
    const MstResult& w = std::get<MstResult>(want);
    if (g->edges.size() != w.edges.size()) {
      return Fmt("mst: %zu edges, want %zu", g->edges.size(), w.edges.size());
    }
    for (size_t k = 0; k < w.edges.size(); ++k) {
      const WeightedEdge& a = g->edges[k];
      const WeightedEdge& b = w.edges[k];
      if (!(a == b)) {
        return Fmt("mst edge %zu = (%u, %u, %.17g), want (%u, %u, %.17g)", k,
                   a.u, a.v, a.weight, b.u, b.v, b.weight);
      }
    }
    if (g->total_weight != w.total_weight) {
      return Fmt("mst weight %.17g, want %.17g", g->total_weight,
                 w.total_weight);
    }
    return "";
  }
  const ClusteringResult& g = std::get<ClusteringResult>(got);
  const ClusteringResult& w = std::get<ClusteringResult>(want);
  if (g.medoids.size() != w.medoids.size() ||
      g.assignment.size() != w.assignment.size()) {
    return Fmt("%zu medoids over %zu objects, want %zu over %zu",
               g.medoids.size(), g.assignment.size(), w.medoids.size(),
               w.assignment.size());
  }
  for (size_t k = 0; k < w.medoids.size(); ++k) {
    if (g.medoids[k] != w.medoids[k]) {
      return Fmt("medoid %zu = %u, want %u", k, g.medoids[k], w.medoids[k]);
    }
  }
  for (size_t k = 0; k < w.assignment.size(); ++k) {
    if (g.assignment[k] != w.assignment[k]) {
      return Fmt("assignment[%zu] = %u, want %u", k, g.assignment[k],
                 w.assignment[k]);
    }
  }
  if (g.total_deviation != w.total_deviation) {
    return Fmt("total deviation %.17g, want %.17g", g.total_deviation,
               w.total_deviation);
  }
  return "";
}

/// Empty when every integer ResolverStats counter matches; else the first
/// that differs.
std::string CounterDifference(const ResolverStats& got,
                              const ResolverStats& want) {
#define PERFBENCH_COMPARE_FIELD(type, name)                                  \
  if constexpr (std::is_integral_v<type>) {                                  \
    if (got.name != want.name) {                                             \
      return Fmt("%s = %" PRIu64 ", want %" PRIu64, #name,                   \
                 static_cast<uint64_t>(got.name),                            \
                 static_cast<uint64_t>(want.name));                          \
    }                                                                        \
  }
  METRICPROX_RESOLVER_STATS_FIELDS(PERFBENCH_COMPARE_FIELD)
#undef PERFBENCH_COMPARE_FIELD
  return "";
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                    usage.ru_stime.tv_usec);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double Min(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

/// Samples of one time, kept per instance. The estimate is the sum over
/// instances of each one's fastest sample, so a slow spell that spans only
/// part of a run spoils no instance's estimate.
class FastestPerInstance {
 public:
  explicit FastestPerInstance(size_t instances) : samples_(instances) {}
  void Add(size_t instance, double seconds) {
    samples_[instance].push_back(seconds);
  }
  double Sum() const {
    double total = 0.0;
    for (const std::vector<double>& s : samples_) total += Min(s);
    return total;
  }

 private:
  std::vector<std::vector<double>> samples_;
};

double Ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

/// A reported metric.
struct Metric {
  const char* name;
  const char* unit;
  double value;
};

/// Raw per-layer totals of traced jobs, summed over a pass's instances
/// before any ratio is taken.
struct LayerTotals {
  TimedBounder::Counters bounder;
  TimedOracle::Counters oracle_setup;
  TimedOracle::Counters oracle_solve;
  Clock::duration scheme_build{};
  Clock::duration bootstrap{};
  double graph_insert_s = 0.0;
  double graph_heap_bytes = 0.0;
  uint64_t graph_edges = 0;
  uint64_t solve_edges = 0;
  uint64_t write_ops = 0;
  uint64_t objects = 0;

  LayerTotals& operator+=(const LayerTotals& o) {
    bounder += o.bounder;
    oracle_setup += o.oracle_setup;
    oracle_solve += o.oracle_solve;
    scheme_build += o.scheme_build;
    bootstrap += o.bootstrap;
    graph_insert_s += o.graph_insert_s;
    graph_heap_bytes += o.graph_heap_bytes;
    graph_edges += o.graph_edges;
    solve_edges += o.solve_edges;
    write_ops += o.write_ops;
    objects += o.objects;
    return *this;
  }
};

enum class Mode { kSetupOnly, kPlain, kTraced };

/// One instance solved once on fresh state.
struct Job {
  Status status;
  double setup_s = 0.0;
  double solve_s = 0.0;
  double cpu_s = 0.0;
  ResolverStats stats;
  Output output;
  LayerTotals layers;       // traced jobs only
  std::string trace_error;  // a traced job's self-check failure
};

/// Runs one job. Set-up spans oracle, graph, resolver and scheme
/// construction plus bootstrap; solve spans the algorithm call.
Job RunJob(const Workload& w, const Dataset& data, uint64_t seed,
           unsigned workers, Mode mode) {
  const bool traced = mode == Mode::kTraced;
  Job job;
  LayerTotals& layers = job.layers;
  std::vector<WeightedEdge> prior;
  GraphWriteLog log;
  {
    const double cpu_start = CpuSeconds();
    const Clock::time_point setup_start = Clock::now();
    std::unique_ptr<DistanceOracle> oracle = FreshOracle(data);
    oracle->set_batch_workers(workers);
    std::optional<TimedOracle> timed_oracle;
    DistanceOracle* top = oracle.get();
    if (traced) top = &timed_oracle.emplace(oracle.get());
    PartialDistanceGraph graph(w.n);
    BoundedResolver resolver(top, &graph);
    if (w.bootstrap) {
      ScopedTimer timer(&layers.bootstrap);
      job.status = resolver
                       .RunFallible([&](BoundedResolver* r) {
                         return static_cast<double>(
                             metricprox::BootstrapWithLandmarks(
                                 r, metricprox::DefaultNumLandmarks(w.n),
                                 seed));
                       })
                       .status();
      if (!job.status.ok()) return job;
    }
    metricprox::SchemeOptions options;
    options.max_distance = data.max_distance;
    options.seed = seed;
    std::optional<StatusOr<std::unique_ptr<Bounder>>> scheme;
    {
      ScopedTimer timer(&layers.scheme_build);
      scheme.emplace(
          metricprox::MakeAndAttachScheme(w.scheme, &resolver, options));
    }
    if (!scheme->ok()) {
      job.status = scheme->status();
      return job;
    }
    std::optional<TimedBounder> timed_bounder;
    if (traced) {
      resolver.SetBounder(&timed_bounder.emplace(scheme->value().get(), &log));
    }
    job.setup_s = Seconds(Clock::now() - setup_start);
    if (mode == Mode::kSetupOnly) return job;

    if (traced) {
      prior = graph.edges();
      layers.oracle_setup = timed_oracle->counters();
    }
    const Clock::time_point solve_start = Clock::now();
    job.status = resolver
                     .RunFallible([&](BoundedResolver* r) {
                       job.output = w.solve(r);
                       return 0.0;
                     })
                     .status();
    job.solve_s = Seconds(Clock::now() - solve_start);
    job.cpu_s = CpuSeconds() - cpu_start;
    job.stats = resolver.stats();
    layers.graph_edges = graph.num_edges();
    if (traced) {
      layers.oracle_solve = timed_oracle->counters() - layers.oracle_setup;
      layers.bounder = timed_bounder->counters();
    }
  }
  if (!traced || !job.status.ok()) return job;

  // The job's graph is gone, so the replay does not double peak memory.
  const ReplayResult replay = ReplayGraphWrites(w.n, prior, log);
  layers.graph_insert_s = replay.insert_s;
  layers.graph_heap_bytes = replay.heap_bytes;
  layers.solve_edges = log.edges.size();
  layers.write_ops = log.ops.size();
  layers.objects = w.n;
  const double self_s = job.solve_s - Seconds(layers.bounder.busy) -
                        Seconds(layers.oracle_solve.busy) - replay.insert_s;
  if (layers.bounder.queries != job.stats.bound_queries) {
    job.trace_error = Fmt("bounder decorator saw %" PRIu64
                          " queries, resolver counted %" PRIu64,
                          layers.bounder.queries, job.stats.bound_queries);
  } else if (replay.edges != layers.graph_edges) {
    job.trace_error =
        Fmt("replayed graph has %zu edges, job ended with %" PRIu64,
            replay.edges, layers.graph_edges);
  } else if (self_s < 0.0) {
    job.trace_error = Fmt("negative resolver self time %.6f s", self_s);
  }
  return job;
}

/// Every instance of the run solved once, one after another; times and
/// counters are totals over the instances.
struct Pass {
  std::vector<Job> jobs;
  double setup_s = 0.0;
  double solve_s = 0.0;
  double cpu_s = 0.0;
  ResolverStats stats;
  LayerTotals layers;
};

Pass RunPass(const Workload& w, const std::vector<Dataset>& instances,
             uint64_t seed, unsigned workers, Mode mode) {
  Pass pass;
  for (const Dataset& data : instances) {
    Job job = RunJob(w, data, seed, workers, mode);
    pass.setup_s += job.setup_s;
    pass.solve_s += job.solve_s;
    pass.cpu_s += job.cpu_s;
    pass.stats += job.stats;
    pass.layers += job.layers;
    pass.jobs.push_back(std::move(job));
  }
  return pass;
}

/// Per-layer metrics of one traced pass. resolver.self_s is the residual
/// that makes the layer times sum to the traced solve time.
std::vector<Metric> LayerMetrics(const Pass& pass) {
  const LayerTotals& l = pass.layers;
  const ResolverStats& s = pass.stats;
  const auto count = [](uint64_t v) { return static_cast<double>(v); };
  const double bounder_busy = Seconds(l.bounder.busy);
  const double bounder_update = Seconds(l.bounder.update);
  const double oracle_busy = Seconds(l.oracle_solve.busy);
  const double oracle_pairs =
      count(l.oracle_solve.scalar_calls + l.oracle_solve.batch_pairs);
  return {
      {"bounder.queries", "count", count(l.bounder.queries)},
      {"bounder.busy_s", "s", bounder_busy},
      {"bounder.ns_per_query", "ns",
       1e9 * Ratio(bounder_busy - bounder_update, count(l.bounder.queries))},
      {"bounder.decided_ratio", "ratio",
       Ratio(count(l.bounder.decided), count(l.bounder.decide_attempts))},
      {"bounder.update_s", "s", bounder_update},
      {"resolver.comparisons", "count", count(s.comparisons)},
      {"resolver.decided_by_cache", "count", count(s.decided_by_cache)},
      {"resolver.decided_by_bounds", "count", count(s.decided_by_bounds)},
      {"resolver.undecided", "count", count(s.undecided)},
      {"resolver.bound_queries", "count", count(s.bound_queries)},
      {"resolver.bound_queries_per_comparison", "ratio",
       Ratio(count(s.bound_queries), count(s.comparisons))},
      {"resolver.self_s", "s",
       pass.solve_s - bounder_busy - oracle_busy - l.graph_insert_s},
      {"graph.edges", "count", count(l.graph_edges)},
      {"graph.edges_per_batch", "count",
       Ratio(count(l.solve_edges), count(l.write_ops))},
      {"graph.mean_degree", "count",
       Ratio(2.0 * count(l.graph_edges), count(l.objects))},
      {"graph.insert_s", "s", l.graph_insert_s},
      {"graph.ns_per_edge", "ns",
       1e9 * Ratio(l.graph_insert_s, count(l.solve_edges))},
      {"graph.bytes_per_edge", "B",
       Ratio(l.graph_heap_bytes, count(l.graph_edges))},
      {"oracle.scalar_calls", "count", count(l.oracle_solve.scalar_calls)},
      {"oracle.batches", "count", count(l.oracle_solve.batches)},
      {"oracle.pairs_per_batch", "count",
       Ratio(count(l.oracle_solve.batch_pairs), count(l.oracle_solve.batches))},
      {"oracle.busy_s", "s", oracle_busy},
      {"oracle.us_per_pair", "us", 1e6 * Ratio(oracle_busy, oracle_pairs)},
      {"oracle.failed", "count", count(l.oracle_solve.failed)},
      {"setup.scheme_s", "s", Seconds(l.scheme_build)},
      {"setup.bootstrap_s", "s", Seconds(l.bootstrap)},
      {"setup.construction_calls", "count",
       count(l.oracle_setup.scalar_calls + l.oracle_setup.batch_pairs)},
      {"trace.solve_s", "s", pass.solve_s},
  };
}

/// All-pairs wall time on a fresh raw oracle through the scalar verb: the
/// framework-free cost the break-even latency is measured against. (The
/// virtual calls cannot be optimised away, so their results are dropped.)
double BruteSeconds(const Dataset& data) {
  std::unique_ptr<DistanceOracle> oracle = FreshOracle(data);
  const ObjectId n = oracle->num_objects();
  const Clock::time_point start = Clock::now();
  for (ObjectId i = 0; i < n; ++i) {
    for (ObjectId j = i + 1; j < n; ++j) oracle->Distance(i, j);
  }
  return Seconds(Clock::now() - start);
}

struct Args {
  const Workload* workload = nullptr;
  uint64_t seed = 0;
  int seconds = 0;
  int trace = -1;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false;
  for (int k = 1; k < argc; ++k) {
    const std::string flag = argv[k];
    if (k + 1 == argc) {
      std::fprintf(stderr, "missing value for %s\n", flag.c_str());
      return false;
    }
    const std::string value = argv[++k];
    char* end = nullptr;
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (w.name == value) args->workload = &w;
      }
      if (args->workload == nullptr) {
        std::fprintf(stderr, "unknown workload %s\n", value.c_str());
        return false;
      }
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = !value.empty() && *end == '\0';
    } else if (flag == "--seconds") {
      const long s = std::strtol(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0' || s < 1 || s > 600) {
        std::fprintf(stderr, "--seconds must be an integer in [1, 600]\n");
        return false;
      }
      args->seconds = static_cast<int>(s);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        std::fprintf(stderr, "--trace must be 0 or 1\n");
        return false;
      }
      args->trace = value == "1" ? 1 : 0;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  if (args->workload == nullptr || !have_seed || args->seconds == 0 ||
      args->trace < 0) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1>\n");
    return false;
  }
  return true;
}

void PrintResult(bool correct, size_t attempted, size_t failed,
                 const std::vector<Metric>& metrics) {
  std::string json = Fmt("{\"correct\": %s, \"attempted\": %zu, "
                         "\"failed\": %zu, \"metrics\": {",
                         correct ? "true" : "false", attempted, failed);
  for (size_t k = 0; k < metrics.size(); ++k) {
    const double v = std::isfinite(metrics[k].value) ? metrics[k].value : 0.0;
    json += Fmt("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                k > 0 ? ", " : "", metrics[k].name, v, metrics[k].unit);
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return 2;
  const Workload& w = *args.workload;
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  const unsigned workers = std::min(kMaxBatchWorkers, nproc);

  const Dataset pool = w.make(w.pool_n, kPoolSeed);
  std::vector<Dataset> instances;
  for (uint32_t k = 0; k < w.instances; ++k) {
    instances.push_back(SampleDataset(pool, w.n, args.seed, k));
  }
  std::printf("# perfbench workload=%s seed=%" PRIu64
              " instances=%u n=%u pool=%u scheme=%s seconds=%d trace=%d\n",
              std::string(w.name).c_str(), args.seed, w.instances, w.n,
              w.pool_n,
              std::string(metricprox::SchemeKindName(w.scheme)).c_str(),
              args.seconds, args.trace);

  FastestPerInstance setup_times(instances.size());
  size_t setup_passes = 0;
  const Clock::time_point setup_start = Clock::now();
  do {
    const Pass pass =
        RunPass(w, instances, args.seed, workers, Mode::kSetupOnly);
    for (size_t k = 0; k < pass.jobs.size(); ++k) {
      const Job& job = pass.jobs[k];
      if (!job.status.ok()) {
        std::printf("# set-up failed: %s\n", job.status.ToString().c_str());
        PrintResult(false, 1, 1, {});
        return 0;
      }
      setup_times.Add(k, job.setup_s);
    }
  } while (++setup_passes < kSetupOnlyReps &&
           Seconds(Clock::now() - setup_start) < kSetupOnlySeconds);

  // Closed loop for --seconds. Every job must match its instance's job in
  // the first plain pass, output and counters; those are then checked
  // against the oracle-only reference.
  size_t attempted = 0;
  size_t failed = 0;
  bool correct = true;
  std::optional<Pass> first;
  FastestPerInstance solve_times(instances.size());
  FastestPerInstance cpu_times(instances.size());
  FastestPerInstance brute_times(instances.size());
  std::vector<double> pass_solve_times;
  std::optional<Pass> fastest_traced;
  auto check = [&](const Pass& pass, const char* kind) {
    for (size_t k = 0; k < pass.jobs.size(); ++k) {
      const Job& job = pass.jobs[k];
      ++attempted;
      std::string error;
      if (!job.status.ok()) {
        error = "status " + job.status.ToString();
      } else if (!job.trace_error.empty()) {
        error = job.trace_error;
      } else if (first.has_value()) {
        error = FirstDifference(job.output, first->jobs[k].output);
        if (error.empty()) {
          error = CounterDifference(job.stats, first->jobs[k].stats);
        }
      }
      if (!error.empty()) {
        ++failed;
        correct = false;
        std::printf("# %s job %zu (instance %zu) differs: %s\n", kind,
                    attempted, k, error.c_str());
      }
    }
  };
  const Clock::time_point deadline =
      Clock::now() + std::chrono::seconds(args.seconds);
  while (Clock::now() < deadline ||
         pass_solve_times.size() < std::max(kMinPasses, instances.size())) {
    Pass plain = RunPass(w, instances, args.seed, workers, Mode::kPlain);
    check(plain, "plain");
    for (size_t k = 0; k < plain.jobs.size(); ++k) {
      setup_times.Add(k, plain.jobs[k].setup_s);
      solve_times.Add(k, plain.jobs[k].solve_s);
      cpu_times.Add(k, plain.jobs[k].cpu_s);
    }
    pass_solve_times.push_back(plain.solve_s);
    if (args.trace == 0) {
      // One instance's brute-force baseline per pass, round robin, so its
      // samples spread over the run like the jobs' own.
      const size_t k = (pass_solve_times.size() - 1) % instances.size();
      brute_times.Add(k, BruteSeconds(instances[k]));
    }
    if (!first.has_value()) first = std::move(plain);
    if (args.trace == 1) {
      Pass traced = RunPass(w, instances, args.seed, workers, Mode::kTraced);
      check(traced, "traced");
      if (!fastest_traced.has_value() ||
          traced.solve_s < fastest_traced->solve_s) {
        fastest_traced = std::move(traced);
      }
    }
  }
  const double peak_rss_mb = PeakRssMb();
  std::printf("# env batch_workers=%u simd=%s build=%s nproc=%u\n", workers,
              std::string(metricprox::simd::TierName(
                              static_cast<metricprox::simd::Tier>(
                                  first->stats.kernel_dispatch /
                                  w.instances)))
                  .c_str(),
              PERFBENCH_BUILD_TYPE, nproc);

  // Exactness gate: the first pass's outputs against the oracle-only ones.
  for (size_t k = 0; k < instances.size(); ++k) {
    const std::string diff =
        FirstDifference(first->jobs[k].output, Reference(w, instances[k]));
    if (!diff.empty()) {
      std::printf("# instance %zu differs from the oracle-only reference: %s\n",
                  k, diff.c_str());
      failed = attempted;
      correct = false;
    }
  }
  const ResolverStats& stats = first->stats;
  std::printf("# passes=%zu oracle_calls=%" PRIu64 " comparisons=%" PRIu64
              " bound_queries=%" PRIu64
              " pass solve_s fastest=%.6f median=%.6f\n",
              pass_solve_times.size(), stats.oracle_calls, stats.comparisons,
              stats.bound_queries, Min(pass_solve_times),
              Median(pass_solve_times));

  std::vector<Metric> metrics;
  if (args.trace == 0) {
    const double setup_s = setup_times.Sum();
    const double solve_s = solve_times.Sum();
    const double pairs = 0.5 * w.instances * w.n * (w.n - 1.0);
    const double calls = static_cast<double>(stats.oracle_calls);
    // With nothing saved (scheme none) the same overhead is spread over the
    // calls made instead: the framework's cost per oracle call.
    const double saved = pairs > calls ? pairs - calls : calls;
    metrics = {
        {"solve_s", "s", solve_s},
        {"setup_s", "s", setup_s},
        {"cpu_s", "s", cpu_times.Sum()},
        {"oracle_calls", "count", calls},
        {"breakeven_oracle_us", "us",
         1e6 * (setup_s + solve_s - brute_times.Sum()) / saved},
        {"peak_rss_mb", "MB", peak_rss_mb},
    };
  } else if (fastest_traced.has_value()) {
    metrics = LayerMetrics(*fastest_traced);
    const double plain_solve = Min(pass_solve_times);
    metrics.push_back(
        {"trace.overhead_pct", "%",
         100.0 * Ratio(fastest_traced->solve_s - plain_solve, plain_solve)});
  }
  PrintResult(correct && !metrics.empty(), attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
