// Golden pin of BoundedResolver's decision cascade. One seeded script of
// mixed comparison verbs runs under every scheme x policy x weak-oracle
// configuration; the outputs, returned statuses, integer counters, budget
// spend, certification stats, histogram sample counts and the full trace
// stream (minus its clock fields) are serialized into one record per
// configuration and compared through a 64-bit digest recorded from the
// reference implementation. Any change to which stage decides a comparison,
// to what it counts or traces, or to the order in which it does so, moves a
// digest; on a mismatch the test prints the record.
//
// The metric comes from a splitmix64 hash closed into a metric (no
// std::uniform_real_distribution, whose values differ across standard
// libraries), and the script draws from std::mt19937_64, whose sequence the
// standard fixes, so the digests are portable.

#include <cinttypes>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "bounds/resolver.h"
#include "bounds/scheme.h"
#include "bounds/weak.h"
#include "check/certify.h"
#include "core/logging.h"
#include "graph/partial_graph.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "oracle/matrix_oracle.h"
#include "oracle/weak_oracle.h"
#include "tests/test_util.h"

namespace metricprox {
namespace {

constexpr ObjectId kObjects = 24;
constexpr int kCalls = 250;
constexpr ObjectId kDftObjects = 10;
constexpr uint64_t kMetricSeed = 0x5eed0015;
constexpr uint64_t kScriptSeed = 1515;
constexpr uint64_t kBudget = 30;
constexpr double kEps = 0.3;
constexpr double kWeakAlpha = 1.3;

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Three loose clusters (id mod 3): intra-cluster weights in [0.05, 0.15),
/// inter-cluster ones in [0.8, 1.2), from a hash of the pair, then closed
/// into a metric of unit diameter.
std::vector<double> HashMetric(ObjectId n) {
  std::vector<double> d(static_cast<size_t>(n) * n, 0.0);
  for (ObjectId i = 0; i < n; ++i) {
    for (ObjectId j = i + 1; j < n; ++j) {
      const double u =
          static_cast<double>(Mix(kMetricSeed ^ (uint64_t{i} * n + j)) >>
                              11) *
          0x1.0p-53;
      const double w = i % 3 == j % 3 ? 0.05 + 0.1 * u : 0.8 + 0.4 * u;
      d[i * n + j] = w;
      d[j * n + i] = w;
    }
  }
  testing_util::CloseAndNormalizeMetric(&d, n);
  return d;
}

enum class Verb { kLess, kGreater, kGreaterOrEqual, kPairLess, kFilter };

struct Call {
  Verb verb = Verb::kLess;
  ObjectId i = 0, j = 0, k = 0, l = 0;
  double t = 0.0;
  std::vector<IdPair> pairs;  // kFilter
  std::vector<double> ts;     // kFilter; empty = the shared-threshold form
};

/// The script: kCalls calls, independent of the configuration. Pairs
/// (0, x) are always cached (the scaffold resolves them before the script),
/// which is how PairLess gets its one- and two-cached-side cases; random
/// pairs start unresolved and fill in as the script resolves them.
std::vector<Call> MakeScript(const std::vector<double>& metric, ObjectId n) {
  std::mt19937_64 rng(kScriptSeed);
  const auto id = [&] { return static_cast<ObjectId>(rng() % n); };
  const auto other = [&] { return static_cast<ObjectId>(1 + rng() % (n - 1)); };
  // Thresholds for the pair (i, j): its own exact distance (a tie, decided
  // at the margin edges or on the cached value), exact distances of random
  // pairs, a 0.05 grid (including 0) and, where the verb allows it, +inf.
  const auto threshold = [&](ObjectId i, ObjectId j, bool allow_inf) {
    const uint64_t r = rng() % 16;
    if (allow_inf && r == 0) return kInfDistance;
    if (r < 3) return metric[i * n + j];
    if (r < 6) {
      const ObjectId a = id();
      const ObjectId b = id();
      return metric[a * n + b];
    }
    return 0.05 * static_cast<double>(rng() % 25);
  };
  std::vector<Call> script;
  for (int step = 0; step < kCalls; ++step) {
    Call c;
    const uint64_t r = rng() % 20;
    if (r < 6) {
      c.verb = Verb::kLess;
      c.i = id();
      c.j = id();
      c.t = threshold(c.i, c.j, /*allow_inf=*/true);
    } else if (r < 9) {
      c.verb = Verb::kGreater;
      c.i = id();
      c.j = id();
      c.t = threshold(c.i, c.j, /*allow_inf=*/false);
    } else if (r < 12) {
      c.verb = Verb::kGreaterOrEqual;
      c.i = id();
      c.j = id();
      c.t = threshold(c.i, c.j, /*allow_inf=*/true);
    } else if (r < 17) {
      c.verb = Verb::kPairLess;
      switch (rng() % 5) {
        case 0:  // both sides cached
          c.i = 0, c.j = other(), c.k = other(), c.l = 0;
          break;
        case 1:  // left side cached
          c.i = other(), c.j = 0, c.k = id(), c.l = id();
          break;
        case 2:  // right side cached
          c.i = id(), c.j = id(), c.k = 0, c.l = other();
          break;
        case 3:  // self pairs on either side
          c.i = c.j = id(), c.k = id(), c.l = id();
          if (rng() % 2 == 0) std::swap(c.i, c.k), std::swap(c.j, c.l);
          break;
        default:
          c.i = id(), c.j = id(), c.k = id(), c.l = id();
      }
    } else {
      c.verb = Verb::kFilter;
      // Mostly small batches; one in eight is large enough for the budget
      // partition's sort to see many equal ranks.
      const size_t size = rng() % 8 == 0 ? 16 + rng() % 16 : 2 + rng() % 8;
      const bool shared = rng() % 4 == 0;
      const double shared_t = threshold(id(), id(), /*allow_inf=*/false);
      for (size_t s = 0; s < size; ++s) {
        IdPair p{id(), id()};
        if (!c.pairs.empty()) {
          switch (rng() % 6) {
            case 0:  // duplicate
              p = c.pairs[rng() % c.pairs.size()];
              break;
            case 1: {  // reversed
              const IdPair q = c.pairs[rng() % c.pairs.size()];
              p = IdPair{q.j, q.i};
              break;
            }
            case 2:  // self
              p.j = p.i;
              break;
          }
        }
        c.pairs.push_back(p);
        if (!shared) c.ts.push_back(threshold(p.i, p.j, /*allow_inf=*/true));
      }
      if (shared) c.t = shared_t;
    }
    script.push_back(std::move(c));
  }
  return script;
}

enum class Scheme { kNone, kTri, kDft };

struct Config {
  Scheme scheme;
  double eps;
  uint64_t budget;
  bool weak;
};

const char* SchemeName(Scheme s) {
  switch (s) {
    case Scheme::kNone:
      return "none";
    case Scheme::kTri:
      return "tri";
    case Scheme::kDft:
      return "dft";
  }
  return "?";
}

std::string ConfigName(const Config& c) {
  std::string name = SchemeName(c.scheme);
  name += c.eps > 0.0 ? "_eps" : "";
  name += c.budget > 0 ? "_budget" : "";
  name += c.eps == 0.0 && c.budget == 0 ? "_exact" : "";
  name += c.weak ? "_weak" : "";
  return name;
}

void AppendF(std::string* out, const char* format, ...)
    __attribute__((format(printf, 2, 3)));

void AppendF(std::string* out, const char* format, ...) {
  char buf[512];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buf, sizeof(buf), format, args);
  va_end(args);
  out->append(buf);
}

/// Runs the script under `config` and returns its serialized record.
std::string RunScript(const Config& config) {
  // DFT solves dense LPs over every pair (two per weak consult, for its
  // LP-tight interval), so its leg runs on a smaller instance.
  const bool dft = config.scheme == Scheme::kDft;
  const ObjectId n = dft ? kDftObjects : kObjects;
  const std::vector<double> metric = HashMetric(n);
  MatrixOracle oracle(metric, n);
  PartialDistanceGraph graph(n);
  BoundedResolver resolver(&oracle, &graph);

  std::unique_ptr<Bounder> scheme;
  if (config.scheme != Scheme::kNone) {
    SchemeOptions options;
    options.seed = 15;
    options.max_distance = 1.0;
    StatusOr<std::unique_ptr<Bounder>> made = MakeAndAttachScheme(
        config.scheme == Scheme::kTri ? SchemeKind::kTri : SchemeKind::kDft,
        &resolver, options);
    CHECK(made.ok()) << made.status();
    scheme = std::move(made).value();
  }
  // Scaffold: a resolved star around object 0, paid before the policy so
  // the budget covers only the script.
  for (ObjectId x = 1; x < n; ++x) resolver.Distance(0, x);
  resolver.ResetStats();
  resolver.SetPolicy(ResolutionPolicy{config.eps, config.budget});

  WeakOracle::Options weak_options;
  weak_options.alpha = kWeakAlpha;
  weak_options.seed = 77;
  WeakOracle weak_oracle(&oracle, weak_options);
  WeakBounder weak_bounder(&weak_oracle);
  if (config.weak) resolver.SetWeakBounder(&weak_bounder);

  RingBufferTraceSink sink(1u << 16);
  Telemetry telemetry;
  telemetry.sink = &sink;
  resolver.SetTelemetry(&telemetry);
  std::optional<CertifyingResolver> certifying;
  if (config.scheme != Scheme::kNone) certifying.emplace(&resolver, 1.0);

  std::string record;
  for (const Call& c : MakeScript(metric, n)) {
    std::vector<bool> out;
    const StatusOr<double> status =
        resolver.RunFallible([&](BoundedResolver* r) -> double {
          switch (c.verb) {
            case Verb::kLess:
              out.push_back(r->LessThan(c.i, c.j, c.t));
              break;
            case Verb::kGreater:
              out.push_back(r->ProvenGreaterThan(c.i, c.j, c.t));
              break;
            case Verb::kGreaterOrEqual:
              out.push_back(r->ProvenGreaterOrEqual(c.i, c.j, c.t));
              break;
            case Verb::kPairLess:
              out.push_back(r->PairLess(c.i, c.j, c.k, c.l));
              break;
            case Verb::kFilter:
              out = c.ts.empty() ? r->FilterLessThan(c.pairs, c.t)
                                 : r->FilterLessThan(c.pairs, c.ts);
              break;
          }
          return 0.0;
        });
    AppendF(&record, "call %d (%u,%u,%u,%u) t=%.17g n=%zu ->",
            static_cast<int>(c.verb), c.i, c.j, c.k, c.l, c.t,
            c.pairs.size());
    for (const bool b : out) record.push_back(b ? '1' : '0');
    record += " ";
    record += status.ok() ? "ok" : status.status().ToString();
    record.push_back('\n');
  }
  resolver.SetTelemetry(nullptr);

  const ResolverStats& s = resolver.stats();
#define CASCADE_APPEND_FIELD(type, name)                                  \
  if constexpr (std::is_same_v<type, uint64_t>) {                        \
    if (std::string_view(#name) != "kernel_dispatch") {                  \
      AppendF(&record, "%s=%" PRIu64 "\n", #name,                         \
              static_cast<uint64_t>(s.name));                             \
    }                                                                     \
  }
  METRICPROX_RESOLVER_STATS_FIELDS(CASCADE_APPEND_FIELD)
#undef CASCADE_APPEND_FIELD
  AppendF(&record, "budget_spent=%" PRIu64 "\n", resolver.budget_spent());
  if (certifying.has_value()) {
    const CertificationStats& cs = certifying->stats();
    AppendF(&record,
            "certs emitted=%" PRIu64 " verified=%" PRIu64 " failed=%" PRIu64
            " uncertified=%" PRIu64 " first_failure=",
            cs.emitted, cs.verified, cs.failed, cs.uncertified);
    record += cs.first_failure;
    record.push_back('\n');
  }
  AppendF(&record,
          "histograms oracle_latency=%" PRIu64 " batch_size=%" PRIu64
          " bound_gap=%" PRIu64 " slack_error=%" PRIu64
          " weak_width=%" PRIu64 "\n",
          telemetry.oracle_latency_seconds.Summarize().count,
          telemetry.batch_size.Summarize().count,
          telemetry.bound_gap.Summarize().count,
          telemetry.slack_realized_error.Summarize().count,
          telemetry.weak_interval_width.Summarize().count);
  CHECK_EQ(sink.dropped(), 0u) << "ring buffer too small for the script";
  for (TraceEvent event : sink.Snapshot()) {
    event.seq = 0;
    event.t_ns = 0;
    event.seconds = TraceEvent::kUnset;
    record += TraceEventToJson(event);
    record.push_back('\n');
  }
  return record;
}

/// FNV-1a, 64-bit.
uint64_t Digest(const std::string& record) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : record) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

struct Golden {
  Config config;
  uint64_t digest;
};

std::vector<Golden> GoldenTable() {
  std::vector<Golden> table;
  for (const Scheme scheme : {Scheme::kNone, Scheme::kTri, Scheme::kDft}) {
    for (const auto& [eps, budget] :
         {std::pair<double, uint64_t>{0.0, 0}, {kEps, 0}, {0.0, kBudget},
          {kEps, kBudget}}) {
      for (const bool weak : {false, true}) {
        table.push_back({Config{scheme, eps, budget, weak}, 0});
      }
    }
  }
  // Digests recorded from the reference cascade, in table order.
  const uint64_t digests[] = {
      // none
      0x93561e6d0a0e1dfeULL, 0x498dfb0d02285bb7ULL, 0x8af76b030220c68eULL,
      0x175bf42d24aad24bULL, 0x536bbba13d293790ULL, 0x696f6d4685d9866dULL,
      0x536bbba13d293790ULL, 0x696f6d4685d9866dULL,
      // tri
      0xed9c465287b26101ULL, 0xb9035fc2eebdc45dULL, 0x98846ae69472507cULL,
      0xdcdda376e53b960aULL, 0x26229524c3370092ULL, 0xc8c2fe0bdcbe05e3ULL,
      0x710f0ff9c15dfdaaULL, 0xc497bda8c66af3efULL,
      // dft
      0xe18955ce2901a7d9ULL, 0xa2249a4eb2fc60e8ULL, 0x3638e318722d0697ULL,
      0xcfdfad8b29f58130ULL, 0x654392456c417a46ULL, 0xcead74f63c1cdaceULL,
      0x3638e318722d0697ULL, 0xcfdfad8b29f58130ULL,
  };

  CHECK_EQ(std::size(digests), table.size());
  for (size_t c = 0; c < table.size(); ++c) table[c].digest = digests[c];
  return table;
}

class ResolverCascadeTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ResolverCascadeTest, RecordMatchesGoldenDigest) {
  const Golden golden = GoldenTable()[GetParam()];
  const std::string record = RunScript(golden.config);
  const uint64_t digest = Digest(record);
  EXPECT_EQ(digest, golden.digest)
      << ConfigName(golden.config) << ": digest 0x" << std::hex << digest
      << ", record:\n"
      << record;
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, ResolverCascadeTest,
    ::testing::Range<size_t>(0, 24),
    [](const ::testing::TestParamInfo<size_t>& info) {
      return ConfigName(GoldenTable()[info.param].config);
    });

}  // namespace
}  // namespace metricprox
