// Empirical validation of the paper's Theorem 4.2: the expected Tri Scheme
// lookup cost is O(m/n) — linear in the average degree of the partial
// graph. We fix n, sweep the number of resolved edges m, and measure both
// the mean work per query (common-neighbor merge steps, i.e. deg(i) +
// deg(j) touches) and the wall time per query. Both should scale linearly
// with m/n; the table prints their ratios so the constancy is visible.
//
// Flags: --n=512  --queries=4000  --seed=42

#include <cstdio>
#include <random>
#include <vector>

#include "bench/common.h"
#include "bounds/resolver.h"
#include "bounds/tri.h"
#include "core/stats.h"
#include "harness/flags.h"
#include "harness/table.h"

int main(int argc, char** argv) {
  using namespace metricprox;
  auto flags = Flags::Parse(argc, argv);
  if (!flags.ok()) {
    std::fprintf(stderr, "%s\n", flags.status().ToString().c_str());
    return 1;
  }
  const StatusOr<ObjectId> n_flag = benchutil::CheckObjectCount(
      "--n", flags->GetInt("n", 512), "sf");
  const int64_t queries_raw = flags->GetInt("queries", 4000);
  const uint64_t seed = static_cast<uint64_t>(flags->GetInt("seed", 42));
  // The sample draws with replacement from the unresolved pairs; more
  // draws than there are pairs add nothing.
  const ObjectId n = n_flag.ok() ? *n_flag : 2;
  for (const Status& s :
       {flags->FailOnUnused(), n_flag.status(),
        benchutil::CheckIntInRange(
            "--queries", queries_raw, 1,
            static_cast<int64_t>(benchutil::PairCount(n)))}) {
    if (!s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
  }
  const size_t queries = static_cast<size_t>(queries_raw);

  Dataset dataset = MakeSfPoiLike(n, seed);
  TablePrinter table({"m (edges)", "m/n", "mean deg(i)+deg(j)", "ns/query",
                      "ns per (m/n)"});

  for (const double fraction : {0.01, 0.02, 0.05, 0.10, 0.20, 0.40}) {
    PartialDistanceGraph graph(n);
    BoundedResolver resolver(dataset.oracle.get(), &graph);
    const size_t target = static_cast<size_t>(
        fraction * static_cast<double>(benchutil::PairCount(n)));
    std::mt19937_64 rng(seed + 1);
    while (graph.num_edges() < target) {
      const ObjectId i = static_cast<ObjectId>(rng() % n);
      const ObjectId j = static_cast<ObjectId>(rng() % n);
      if (i == j || graph.Has(i, j)) continue;
      resolver.Distance(i, j);
    }

    // Sample unknown pairs uniformly (Theorem 4.2's uninformed prior).
    std::vector<std::pair<ObjectId, ObjectId>> sample;
    while (sample.size() < queries) {
      const ObjectId i = static_cast<ObjectId>(rng() % n);
      const ObjectId j = static_cast<ObjectId>(rng() % n);
      if (i == j || graph.Has(i, j)) continue;
      sample.emplace_back(i, j);
    }

    double total_degree = 0.0;
    for (const auto& [i, j] : sample) {
      total_degree += static_cast<double>(graph.Degree(i) + graph.Degree(j));
    }

    TriBounder tri(&graph);
    Stopwatch watch;
    double sink = 0.0;
    for (const auto& [i, j] : sample) {
      sink += tri.Bounds(i, j).lo;
    }
    const double ns =
        watch.ElapsedSeconds() * 1e9 / static_cast<double>(queries);
    if (sink < -1.0) std::printf("impossible\n");  // keep the loop live

    const double m_over_n =
        static_cast<double>(graph.num_edges()) / static_cast<double>(n);
    table.NewRow()
        .AddUint(graph.num_edges())
        .AddDouble(m_over_n, 1)
        .AddDouble(total_degree / static_cast<double>(queries), 1)
        .AddDouble(ns, 1)
        .AddDouble(ns / m_over_n, 2);
  }
  table.Print(
      "Theorem 4.2 — expected Tri lookup cost is O(m/n): the last column "
      "(time normalized by m/n) should be roughly constant");
  return 0;
}
