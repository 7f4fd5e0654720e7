// Multi-session resolution bench: N concurrent sessions running the same
// k-NN workload over one dataset, resolved three ways —
//   independent:  each session is a plain unshared resolver (the pre-pool
//                 baseline: every session pays every oracle call itself);
//   pooled:       sessions share a SessionPool's striped graph (a pair any
//                 session resolved is free for the others);
//   coalesced:    pooled + the cross-session BatchCoalescer (overlapping
//                 in-flight pairs from different sessions ride one
//                 BatchDistance round-trip);
//   coalesced+obs: the coalesced mode with a live ObservabilityHub attached
//                 (causal spans into the flight ring, per-session metrics)
//                 — the price of leaving observability on in production.
// Outputs are checked byte-identical across all modes, and the emitted
// BENCH JSON records base-oracle pair counts so validate_telemetry.py can
// pin the headline claim: shared/coalesced sessions spend strictly fewer
// base oracle calls than independent runs.
//
// Flags: --sizes=96,192   --sessions=3   --seed=42

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "algo/knn_graph.h"
#include "bench/common.h"
#include "bounds/resolver.h"
#include "bounds/tri.h"
#include "core/logging.h"
#include "core/stats.h"
#include "data/datasets.h"
#include "graph/partial_graph.h"
#include "harness/flags.h"
#include "obs/hub.h"
#include "oracle/wrappers.h"
#include "service/session.h"

namespace {

using metricprox::BoundedResolver;
using metricprox::CountingOracle;
using metricprox::Dataset;
using metricprox::KnnGraphOptions;
using metricprox::KnnNeighbor;
using metricprox::ObjectId;
using metricprox::ObservabilityHub;
using metricprox::PartialDistanceGraph;
using metricprox::ResolverSession;
using metricprox::SessionPool;
using metricprox::SessionPoolOptions;
using metricprox::Stopwatch;
using metricprox::TriBounder;

constexpr uint32_t kKnnK = 3;
constexpr int64_t kMaxSessions = 64;

std::vector<double> KnnBlob(BoundedResolver* resolver) {
  std::vector<double> blob;
  for (const auto& row : BuildKnnGraph(resolver, KnnGraphOptions{kKnnK})) {
    for (const KnnNeighbor& nb : row) {
      blob.push_back(nb.id);
      blob.push_back(nb.distance);
    }
  }
  return blob;
}

struct ModeResult {
  std::vector<std::vector<double>> blobs;  // one per session
  uint64_t base_pairs = 0;                 // pairs billed to the base oracle
  uint64_t spans_emitted = 0;              // causal spans (hub modes only)
  double wall_seconds = 0.0;
};

ModeResult RunIndependent(const Dataset& dataset, unsigned sessions) {
  ModeResult result;
  result.blobs.resize(sessions);
  CountingOracle counting(dataset.oracle.get());
  Stopwatch watch;
  // Sequential on purpose: independent sessions sharing nothing would race
  // on the (single-threaded) base oracle middleware if run concurrently.
  for (unsigned s = 0; s < sessions; ++s) {
    PartialDistanceGraph graph(counting.num_objects());
    BoundedResolver resolver(&counting, &graph);
    TriBounder bounder(&graph);
    resolver.SetBounder(&bounder);
    result.blobs[s] = KnnBlob(&resolver);
  }
  result.wall_seconds = watch.ElapsedSeconds();
  result.base_pairs = counting.calls();
  return result;
}

ModeResult RunPooled(const Dataset& dataset, unsigned sessions,
                     bool coalesced, bool observed = false) {
  ModeResult result;
  result.blobs.resize(sessions);
  CountingOracle counting(dataset.oracle.get());
  // The hub (when measuring the observed mode) spans into its in-memory
  // flight ring only — no directory, so the bench measures instrumentation
  // cost, not disk I/O.
  std::unique_ptr<ObservabilityHub> hub;
  if (observed) hub = std::make_unique<ObservabilityHub>();
  SessionPoolOptions options;
  options.enable_coalescer = coalesced;
  options.hub = hub.get();
  SessionPool pool(&counting, options);
  std::vector<std::unique_ptr<ResolverSession>> handles;
  for (unsigned s = 0; s < sessions; ++s) {
    handles.push_back(pool.OpenSession());
  }
  Stopwatch watch;
  std::vector<std::thread> threads;
  for (unsigned s = 0; s < sessions; ++s) {
    threads.emplace_back([&, s] {
      handles[s]->UseTriBounds();
      result.blobs[s] = KnnBlob(&handles[s]->resolver());
    });
  }
  for (std::thread& t : threads) t.join();
  result.wall_seconds = watch.ElapsedSeconds();
  result.base_pairs = counting.calls();
  if (hub != nullptr) result.spans_emitted = hub->flight().spans_seen();
  return result;
}

void RunBench(const std::vector<ObjectId>& sizes, unsigned sessions,
              uint64_t seed) {
  std::printf("\nConcurrent sessions — clustered Euclidean, %u x k-NN(3)\n",
              sessions);
  std::printf("%6s %-13s %14s %12s %10s\n", "n", "mode", "base pairs",
              "vs indep", "wall(s)");
  metricprox::benchutil::BenchJson json("Concurrent session coalescing");
  for (const ObjectId n : sizes) {
    Dataset dataset = metricprox::MakeClusteredEuclidean(n, 4, 8, 0.05, seed);
    const ModeResult independent = RunIndependent(dataset, sessions);
    const ModeResult pooled =
        RunPooled(dataset, sessions, /*coalesced=*/false);
    const ModeResult coalesced =
        RunPooled(dataset, sessions, /*coalesced=*/true);
    const ModeResult observed =
        RunPooled(dataset, sessions, /*coalesced=*/true, /*observed=*/true);

    // The exactness invariant: sharing, coalescing and live observability
    // change WHERE a pair is resolved (or who watches it), never any
    // session's output.
    for (unsigned s = 0; s < sessions; ++s) {
      CHECK(pooled.blobs[s] == independent.blobs[s])
          << "pooled session " << s << " diverged at n=" << n;
      CHECK(coalesced.blobs[s] == independent.blobs[s])
          << "coalesced session " << s << " diverged at n=" << n;
      CHECK(observed.blobs[s] == independent.blobs[s])
          << "observed session " << s << " diverged at n=" << n;
    }
    CHECK_LE(pooled.base_pairs, independent.base_pairs);
    CHECK_LE(coalesced.base_pairs, independent.base_pairs);
    CHECK_LE(observed.base_pairs, independent.base_pairs);
    CHECK_GT(observed.spans_emitted, 0u) << "hub attached but no spans";
    CHECK_GT(sessions, 1u) << "coalescing needs concurrent sessions";
    // >= 2 sessions over one dataset: sharing must save real calls.
    CHECK_LT(coalesced.base_pairs, independent.base_pairs);

    struct Row {
      const char* mode;
      const ModeResult* result;
    };
    const Row rows[] = {{"independent", &independent},
                        {"pooled", &pooled},
                        {"coalesced", &coalesced},
                        {"coalesced+obs", &observed}};
    for (const Row& row : rows) {
      const double save =
          independent.base_pairs > 0
              ? 100.0 * (1.0 - static_cast<double>(row.result->base_pairs) /
                                   static_cast<double>(independent.base_pairs))
              : 0.0;
      std::printf("%6u %-13s %14llu %11.1f%% %10.4f\n", n, row.mode,
                  static_cast<unsigned long long>(row.result->base_pairs),
                  save, row.result->wall_seconds);
      json.NewRow()
          .Add("n", static_cast<uint64_t>(n))
          .Add("mode", std::string(row.mode))
          .Add("sessions", static_cast<uint64_t>(sessions))
          .Add("base_oracle_pairs", row.result->base_pairs)
          .Add("saved_vs_independent_pct", save)
          .Add("spans_emitted", row.result->spans_emitted)
          .Add("wall_seconds", row.result->wall_seconds);
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
  // Each session builds a k-NN(3) graph, which needs 4 objects.
  const metricprox::StatusOr<std::vector<ObjectId>> parsed_sizes =
      metricprox::benchutil::ParseSizes(flags->GetString("sizes", "96,192"),
                                        "", kKnnK + 1);
  if (!parsed_sizes.ok()) {
    std::fprintf(stderr, "%s\n", parsed_sizes.status().ToString().c_str());
    return 1;
  }
  const std::vector<ObjectId>& sizes = *parsed_sizes;
  const int64_t sessions = flags->GetInt("sessions", 3);
  const uint64_t seed = static_cast<uint64_t>(flags->GetInt("seed", 42));
  // Sharing needs two sessions to share between. Each session runs on a
  // thread of its own, so their count is capped.
  for (const metricprox::Status& s :
       {flags->FailOnUnused(), metricprox::benchutil::CheckIntInRange(
                                   "--sessions", sessions, 2, kMaxSessions)}) {
    if (!s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
  }
  RunBench(sizes, static_cast<unsigned>(sessions), seed);
  return 0;
}
