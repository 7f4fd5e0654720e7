// Beyond the paper's figures: how does the *plug-in framework* compare
// with classical metric *index structures* (related work §6.1) on the
// all-k-NN workload? Indexes pay a construction phase and answer queries
// with their own triangle pruning; the framework pays nothing up front
// (or a landmark bootstrap) and prunes through evolving bounds. All
// distance calls are routed through a shared BoundedResolver so caching is
// identical and counts are comparable.
//
//  (a) SF-POI-like road metric: VP-tree and M-tree vs Tri-plugged k-NN,
//  (b) DNA edit distance (integer metric, n/2 strings): the same three.
//
// Flags: --n=384  --k=5  --seed=42

#include <cstdio>

#include "algo/knn_graph.h"
#include "bench/common.h"
#include "bounds/pivots.h"
#include "bounds/resolver.h"
#include "bounds/scheme.h"
#include "harness/flags.h"
#include "harness/table.h"
#include "index/mtree.h"
#include "index/vptree.h"

namespace {

using namespace metricprox;

struct Outcome {
  uint64_t construction_calls;
  uint64_t query_calls;
  double checksum;
};

double Checksum(const std::vector<KnnNeighbor>& neighbors) {
  double acc = 0.0;
  for (const KnnNeighbor& nb : neighbors) acc += nb.distance;
  return acc;
}

// All-k-NN through an index built and queried via a caching resolver.
template <typename MakeIndex, typename Query>
Outcome RunIndex(DistanceOracle* oracle, MakeIndex&& make_index,
                 Query&& query) {
  PartialDistanceGraph graph(oracle->num_objects());
  BoundedResolver resolver(oracle, &graph);
  const ResolveFn resolve = [&resolver](ObjectId a, ObjectId b) {
    return resolver.Distance(a, b);
  };
  auto index = make_index(resolve);
  Outcome out;
  out.construction_calls = resolver.stats().oracle_calls;
  out.checksum = 0.0;
  for (ObjectId q = 0; q < oracle->num_objects(); ++q) {
    out.checksum += Checksum(query(index, q, resolve));
  }
  out.query_calls = resolver.stats().oracle_calls - out.construction_calls;
  return out;
}

Outcome RunFramework(DistanceOracle* oracle, uint32_t k, uint64_t seed) {
  PartialDistanceGraph graph(oracle->num_objects());
  BoundedResolver resolver(oracle, &graph);
  BootstrapWithLandmarks(&resolver, DefaultNumLandmarks(oracle->num_objects()),
                         seed);
  SchemeOptions options;
  auto scheme = MakeAndAttachScheme(SchemeKind::kTri, &resolver, options);
  CHECK(scheme.ok()) << scheme.status();
  Outcome out;
  out.construction_calls = resolver.stats().oracle_calls;
  const KnnGraph knn = BuildKnnGraph(&resolver, KnnGraphOptions{k});
  out.checksum = 0.0;
  for (const auto& neighbors : knn) out.checksum += Checksum(neighbors);
  out.query_calls = resolver.stats().oracle_calls - out.construction_calls;
  return out;
}

void EmitRow(TablePrinter* table, const char* label, const Outcome& o) {
  table->NewRow()
      .AddCell(label)
      .AddUint(o.construction_calls)
      .AddUint(o.query_calls)
      .AddUint(o.construction_calls + o.query_calls);
}

}  // namespace

int main(int argc, char** argv) {
  auto flags = Flags::Parse(argc, argv);
  if (!flags.ok()) {
    std::fprintf(stderr, "%s\n", flags.status().ToString().c_str());
    return 1;
  }
  const int64_t k_raw = flags->GetInt("k", 5);
  // The DNA half holds n/2 objects, and each needs k neighbors besides
  // itself: n >= 2(k + 1), and n is at most the SF grid's junction count.
  const Status k_flag =
      benchutil::CheckIntInRange("--k", k_raw, 1, kSfPoiCapacity / 2 - 1);
  const StatusOr<ObjectId> n_flag = benchutil::CheckObjectCount(
      "--n", flags->GetInt("n", 384), "sf",
      k_flag.ok() ? static_cast<ObjectId>(2 * (k_raw + 1)) : 2);
  const uint64_t seed = static_cast<uint64_t>(flags->GetInt("seed", 42));
  for (const Status& s : {flags->FailOnUnused(), k_flag, n_flag.status()}) {
    if (!s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
  }
  const ObjectId n = *n_flag;
  const uint32_t k = static_cast<uint32_t>(k_raw);

  // --- (a) road metric ---
  {
    Dataset dataset = MakeSfPoiLike(n, seed);
    const Outcome framework = RunFramework(dataset.oracle.get(), k, seed);
    const Outcome vptree = RunIndex(
        dataset.oracle.get(),
        [&](const ResolveFn& resolve) {
          return VpTree(n, VpTreeOptions{8, seed}, resolve);
        },
        [&](const VpTree& tree, ObjectId q, const ResolveFn& resolve) {
          return tree.Knn(q, k, resolve);
        });
    const Outcome mtree = RunIndex(
        dataset.oracle.get(),
        [&](const ResolveFn& resolve) {
          return MTree(n, MTreeOptions{}, resolve);
        },
        [&](const MTree& tree, ObjectId q, const ResolveFn& resolve) {
          return tree.Knn(q, k, resolve);
        });
    benchutil::CheckSameResult(framework.checksum, vptree.checksum,
                               "index bench road");
    benchutil::CheckSameResult(framework.checksum, mtree.checksum,
                               "index bench road mtree");
    TablePrinter table({"method", "construction calls", "query calls",
                        "total calls"});
    EmitRow(&table, "framework (tri+bootstrap)", framework);
    EmitRow(&table, "vp-tree", vptree);
    EmitRow(&table, "m-tree", mtree);
    char title[128];
    std::snprintf(title, sizeof(title),
                  "Index baselines (a) — all-%u-NN, SF-POI-like, n=%u", k, n);
    table.Print(title);
    std::printf("\n");
  }

  // --- (b) integer edit-distance metric ---
  {
    Dataset dataset = MakeDnaLike(n / 2, /*length=*/64, seed);
    const ObjectId dn = dataset.oracle->num_objects();
    const Outcome framework = RunFramework(dataset.oracle.get(), k, seed);
    const Outcome vptree = RunIndex(
        dataset.oracle.get(),
        [&](const ResolveFn& resolve) {
          return VpTree(dn, VpTreeOptions{8, seed}, resolve);
        },
        [&](const VpTree& tree, ObjectId q, const ResolveFn& resolve) {
          return tree.Knn(q, k, resolve);
        });
    const Outcome mtree = RunIndex(
        dataset.oracle.get(),
        [&](const ResolveFn& resolve) {
          return MTree(dn, MTreeOptions{}, resolve);
        },
        [&](const MTree& tree, ObjectId q, const ResolveFn& resolve) {
          return tree.Knn(q, k, resolve);
        });
    benchutil::CheckSameResult(framework.checksum, vptree.checksum,
                               "index bench dna vpt");
    benchutil::CheckSameResult(framework.checksum, mtree.checksum,
                               "index bench dna mtree");
    TablePrinter table({"method", "construction calls", "query calls",
                        "total calls"});
    EmitRow(&table, "framework (tri+bootstrap)", framework);
    EmitRow(&table, "vp-tree", vptree);
    EmitRow(&table, "m-tree", mtree);
    char title[128];
    std::snprintf(title, sizeof(title),
                  "Index baselines (b) — all-%u-NN, DNA edit distance, n=%u",
                  k, dn);
    table.Print(title);
  }
  return 0;
}
