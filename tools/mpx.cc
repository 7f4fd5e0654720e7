// mpx — command-line front end for the metricprox library.
//
// Run any built-in proximity workload over any built-in dataset, under any
// bound scheme, with full oracle-call accounting:
//
//   mpx mst     --dataset=sf --n=256 --scheme=tri --bootstrap
//   mpx knn     --dataset=dna --n=200 --k=5 --scheme=laesa
//   mpx cluster --method=pam --l=10 --dataset=urbangb --scheme=tri
//   mpx join    --radius=8 --dataset=flickr --scheme=tri --bootstrap
//   mpx diameter --dataset=random --n=64 --scheme=splub
//
// Common flags:
//   --dataset=sf|urbangb|flickr|dna|clustered|random   (default sf)
//   --n=<objects>            --seed=<seed>
//   --scheme=none|tri|splub|adm|adm-classic|laesa|tlaesa|dft|tri+laesa
//   --bootstrap              resolve a landmark star first (tri/splub/adm)
//   --landmarks=<k>          0 = ceil(log2 n)
//   --oracle-cost=<seconds>  simulated per-call latency
//   --verify                 wrap the oracle in metric-axiom spot checks
//   --audit                  run twice — bare, then with decision
//                            certification on — and assert byte-identical
//                            outputs, identical oracle calls and zero failed
//                            certificates (docs/ARCHITECTURE.md,
//                            "Verification & audit mode")
//   --eps=<slack>            approximate mode: a comparison whose bound
//                            interval has relative gap <= eps resolves
//                            without the oracle (0 <= eps < 1; 0 = exact;
//                            counted as decided_by_slack). Only workloads
//                            with an approximate contract accept it:
//                            mst (prim|boruvka), knn, cluster
//                            (pam|clarans|dbscan).
//                            NOTE: DBSCAN's neighborhood radius, formerly
//                            --eps, is now --radius.
//   --oracle-budget=<k>      hard cap on workload-phase oracle calls
//                            (bootstrap/scheme construction are not
//                            charged). Once spent, remaining comparisons
//                            resolve by slack where the bounds allow;
//                            otherwise the run exits with a
//                            ResourceExhausted error.
//   --weak-alpha=<a>         dual-oracle mode: derive a deterministic weak
//                            (cheap, noisy) oracle from the dataset oracle,
//                            advertising multiplicative error a (>= 1). Its
//                            certified interval [w/a, w*a] joins the bound
//                            intersection as a third source and decides
//                            comparisons without a strong-oracle call
//                            (counted as decided_by_weak) — outputs stay
//                            byte-identical to the weak-free exact run as
//                            long as the model holds, and detected
//                            violations fail the run instead of corrupting
//                            an answer. Same workload gate as --eps:
//                            mst (prim|boruvka), knn, cluster (pam|dbscan).
//   --weak-floor=<f>         additive error floor of the weak model (>= 0)
//   --weak-seed=<seed>       seed of the per-pair error draw (default: --seed)
//   --weak-cost=<seconds>    simulated per-call weak-oracle latency; lands
//                            in weak_simulated_seconds / completion time
//   --threads=<k>            cap parallel batch workers (0 = env/hardware)
//   --simd=scalar|sse2|avx2|auto  pin the bound-kernel tier (default: the
//                            METRICPROX_SIMD env var, else the CPU probe;
//                            a tier above the hardware's degrades with a
//                            warning). The executed tier lands in the run
//                            report as kernel_dispatch.
//
// Fault tolerance (stacked as oracle -> faults -> retry -> resolver):
//   --retry-attempts=<k>     enable retries: attempts per pair (1 = no retry)
//   --retry-backoff=<s>      initial backoff        (default 1e-4)
//   --retry-max-backoff=<s>  backoff cap            (default 1e-2)
//   --retry-deadline=<s>     overall deadline per verb (0 = none)
//   --fault-rate=<p>         inject transient failures with probability p
//   --fault-spike-rate=<p>   inject virtual latency spikes
//   --fault-spike-seconds=<s> spike duration
//   --fault-timeout=<s>      per-call timeout (spike >= timeout fails)
//   --fault-consecutive=<k>  force success after k consecutive failures of
//                            one pair (0 = never: a permanent outage)
//   --fault-seed=<seed>      seed of the deterministic fault pattern
//
// Persistence (durable cross-run distance store; docs/ARCHITECTURE.md):
//   --store=<path>           record every resolved edge to <path>.wal and
//                            warm-start from <path>.snap + <path>.wal; the
//                            store is fingerprinted by dataset/n/seed/oracle
//   --store-readonly         answer from the store, never write to it
//   --store-no-warm-start    skip the bulk graph load (store stays purely
//                            an oracle-layer cache)
//
// Store maintenance (no dataset needed):
//   mpx store info    --store=<path>    shape, fingerprint, torn-tail bytes
//   mpx store verify  --store=<path>    validate headers and CRCs end to end
//   mpx store compact --store=<path>    fold the WAL into the snapshot
//
// Telemetry (docs/ARCHITECTURE.md, "Telemetry & tracing"; off by default,
// and when off the run is byte-identical to a build without it):
//   --stats-json=<path>      write the run report as versioned JSON
//                            (tools/schema/run_report_schema.json)
//   --trace=<path>           stream decision/bound/oracle/store events as
//                            JSONL (tools/schema/trace_schema.json)
//   --trace-limit=<k>        keep at most k events (0 = unlimited); the
//                            footer reports how many were dropped
//
// Live observability (docs/ARCHITECTURE.md, "Live observability"):
//   --obs-dir=<dir>          attach an ObservabilityHub: causal spans
//                            (resolve/bound/oracle_rtt, plus the coalescer
//                            span vocabulary under session pools) flow into
//                            a flight-recorder ring teed in front of the
//                            --trace sink, gauges and counters land in
//                            <dir>/metrics.jsonl + <dir>/metrics.prom, and
//                            flight-*.jsonl dumps freeze the last events on
//                            resource exhaustion, deadline blowups, CHECK
//                            failures, stalls, or request
//   --metrics-interval=<s>   metrics sampler period (requires --obs-dir;
//                            0 = only the final on-exit sample)
//   --obs-dump-on-exit       always write a flight-exit-*.jsonl dump at
//                            shutdown (the deterministic CI artifact)
//
// Live-run inspection (no dataset needed):
//   mpx obs export --obs-dir=<dir>   print the current Prometheus-style
//                                    exposition (<dir>/metrics.prom)
//   mpx obs dump   --obs-dir=<dir>   ask the live run to snapshot its
//                                    flight ring (touches DUMP_REQUEST;
//                                    the hub polls and writes
//                                    flight-request-*.jsonl)

#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>

#include "algo/boruvka.h"
#include "algo/clarans.h"
#include "algo/dbscan.h"
#include "algo/join.h"
#include "algo/kcenter.h"
#include "algo/knn_graph.h"
#include "algo/kruskal.h"
#include "algo/linkage.h"
#include "algo/pam.h"
#include "algo/prim.h"
#include "algo/search.h"
#include "bounds/pivots.h"
#include "bounds/resolver.h"
#include "bounds/scheme.h"
#include "bounds/weak.h"
#include "check/certify.h"
#include "core/logging.h"
#include "core/simd.h"
#include "core/stats.h"
#include "core/status.h"
#include "data/datasets.h"
#include "harness/flags.h"
#include "harness/table.h"
#include "obs/hub.h"
#include "obs/report.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "oracle/fault_injection.h"
#include "oracle/retry.h"
#include "oracle/wrappers.h"
#include "store/distance_store.h"
#include "store/persistent_oracle.h"

namespace metricprox {
namespace {

int Fail(const std::string& message) {
  std::fprintf(stderr, "mpx: %s\n", message.c_str());
  return 1;
}

/// Flag sanity checks, applied before any value is cast to an unsigned or
/// handed to the middleware: a negative or NaN rate used to wrap silently
/// or poison every probability comparison downstream.
Status RequireFinite(const char* flag, double v) {
  if (std::isnan(v) || std::isinf(v)) {
    return Status::InvalidArgument(std::string(flag) +
                                   " must be a finite number");
  }
  return Status::OK();
}

Status RequireNonNegative(const char* flag, double v) {
  MP_RETURN_IF_ERROR(RequireFinite(flag, v));
  if (v < 0.0) {
    return Status::InvalidArgument(std::string(flag) +
                                   " must be non-negative");
  }
  return Status::OK();
}

Status RequireProbability(const char* flag, double v) {
  MP_RETURN_IF_ERROR(RequireNonNegative(flag, v));
  if (v > 1.0) {
    return Status::InvalidArgument(std::string(flag) +
                                   " is a probability and must be <= 1");
  }
  return Status::OK();
}

/// Integer flags are range-checked before any cast: a value past the
/// target type's range would wrap silently.
Status RequireIntInRange(const char* flag, int64_t v, int64_t lo,
                         int64_t hi) {
  if (v < lo || v > hi) {
    return Status::InvalidArgument(std::string(flag) + " must be in [" +
                                   std::to_string(lo) + ", " +
                                   std::to_string(hi) + "]");
  }
  return Status::OK();
}

constexpr int64_t kMaxUint32 = std::numeric_limits<uint32_t>::max();
constexpr int64_t kMaxInt64 = std::numeric_limits<int64_t>::max();

StatusOr<Dataset> MakeDataset(const std::string& name, ObjectId n,
                              uint64_t seed) {
  if (name == "sf") {
    MP_RETURN_IF_ERROR(CheckRoadCapacity(name, n, kSfPoiCapacity));
    return MakeSfPoiLike(n, seed);
  }
  if (name == "urbangb") {
    MP_RETURN_IF_ERROR(CheckRoadCapacity(name, n, kUrbanGbCapacity));
    return MakeUrbanGbLike(n, seed);
  }
  if (name == "flickr") return MakeFlickrLike(n, 256, seed);
  if (name == "dna") return MakeDnaLike(n, 80, seed);
  if (name == "clustered") {
    return MakeClusteredEuclidean(n, 3, 6, 0.05, seed);
  }
  if (name == "random") return MakeRandomMetric(n, seed);
  return Status::InvalidArgument("unknown dataset: " + name);
}

/// Writes `contents` to `path` (overwriting), surfacing the first error.
Status WriteFile(const std::string& path, const std::string& contents) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    return Status::IoError("cannot open " + path + " for writing");
  }
  Status status;
  if (std::fwrite(contents.data(), 1, contents.size(), file) !=
      contents.size()) {
    status = Status::IoError("short write to " + path);
  }
  if (std::fclose(file) != 0 && status.ok()) {
    status = Status::IoError("close failed for " + path);
  }
  return status;
}

/// The flags only some commands read, read with the common ones before any
/// work so that a malformed or unknown flag fails before the dataset is
/// built.
struct CommandFlags {
  std::string algorithm;  // mst
  std::string method;     // cluster
  int64_t k = 0;          // knn
  int64_t l = 0;          // cluster
  double radius = 0.0;    // join, cluster --method=dbscan
  int64_t min_pts = 0;    // cluster --method=dbscan
};

/// Reads the command's own flags and rejects an unknown command, --algorithm
/// or --method on the spot, so RunCommand only ever sees known ones.
StatusOr<CommandFlags> ReadCommandFlags(const std::string& command,
                                        const Flags& flags) {
  CommandFlags c;
  if (command == "mst") {
    c.algorithm = flags.GetString("algorithm", "prim");
    if (c.algorithm != "prim" && c.algorithm != "kruskal" &&
        c.algorithm != "boruvka") {
      return Status::InvalidArgument(
          "unknown --algorithm (prim|kruskal|boruvka)");
    }
  } else if (command == "knn") {
    c.k = flags.GetInt("k", 5);
  } else if (command == "cluster") {
    c.method = flags.GetString("method", "pam");
    if (c.method != "pam" && c.method != "clarans" && c.method != "dbscan" &&
        c.method != "kcenter" && c.method != "linkage") {
      return Status::InvalidArgument(
          "unknown --method (pam|clarans|dbscan|kcenter|linkage)");
    }
    c.l = flags.GetInt("l", 10);
    if (c.method == "dbscan") {
      // The neighborhood radius is --radius (like join); --eps is the
      // global approximate-resolution slack.
      c.radius = flags.GetDouble("radius", 1.0);
      c.min_pts = flags.GetInt("min-pts", 4);
    }
  } else if (command == "join") {
    c.radius = flags.GetDouble("radius", 1.0);
  } else if (command != "diameter") {
    return Status::InvalidArgument("unknown command: " + command +
                                   " (mst|knn|cluster|join|diameter)");
  }
  return c;
}

int RunCommand(const std::string& command, const CommandFlags& cmd,
               ObjectId n, uint64_t seed, BoundedResolver* resolver_ptr,
               bool quiet, double* checksum);

int Run(const std::string& command, const Flags& flags) {
  const int64_t n_raw = flags.GetInt("n", 256);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  const std::string dataset_name = flags.GetString("dataset", "sf");
  const std::string scheme_name = flags.GetString("scheme", "tri");
  const bool bootstrap = flags.GetBool("bootstrap", false);
  const int64_t landmarks_raw = flags.GetInt("landmarks", 0);
  const double oracle_cost = flags.GetDouble("oracle-cost", 0.0);
  const bool verify = flags.GetBool("verify", false);
  const bool audit = flags.GetBool("audit", false);
  const int64_t threads_raw = flags.GetInt("threads", 0);

  RetryOptions retry;
  const int64_t retry_attempts = flags.GetInt("retry-attempts", 0);
  retry.max_attempts = retry_attempts > 0
                           ? static_cast<uint32_t>(retry_attempts)
                           : retry.max_attempts;
  retry.initial_backoff_seconds =
      flags.GetDouble("retry-backoff", retry.initial_backoff_seconds);
  retry.max_backoff_seconds =
      flags.GetDouble("retry-max-backoff", retry.max_backoff_seconds);
  retry.deadline_seconds = flags.GetDouble("retry-deadline", 0.0);
  retry.seed = seed;

  FaultInjectionOptions fault;
  fault.failure_rate = flags.GetDouble("fault-rate", 0.0);
  fault.spike_rate = flags.GetDouble("fault-spike-rate", 0.0);
  fault.spike_seconds = flags.GetDouble("fault-spike-seconds", 0.0);
  fault.per_call_timeout_seconds = flags.GetDouble("fault-timeout", 0.0);
  const int64_t fault_consecutive = flags.GetInt(
      "fault-consecutive", fault.max_consecutive_failures);
  fault.seed = static_cast<uint64_t>(
      flags.GetInt("fault-seed", static_cast<int>(seed % 1000000)));

  const std::string store_path = flags.GetString("store", "");
  const bool store_readonly = flags.GetBool("store-readonly", false);
  const bool store_no_warm_start = flags.GetBool("store-no-warm-start", false);

  const std::string stats_json = flags.GetString("stats-json", "");
  const std::string trace_path = flags.GetString("trace", "");
  const int64_t trace_limit = flags.GetInt("trace-limit", 0);
  const std::string simd_flag = flags.GetString("simd", "");

  const std::string obs_dir = flags.GetString("obs-dir", "");
  const double metrics_interval = flags.GetDouble("metrics-interval", 0.0);
  const bool obs_dump_on_exit = flags.GetBool("obs-dump-on-exit", false);

  const double approx_eps = flags.GetDouble("eps", 0.0);
  const bool has_budget_flag = flags.Has("oracle-budget");
  const int64_t oracle_budget_raw = flags.GetInt("oracle-budget", 0);

  const bool has_weak_alpha = flags.Has("weak-alpha");
  const double weak_alpha = flags.GetDouble("weak-alpha", 0.0);
  const bool has_weak_floor = flags.Has("weak-floor");
  const double weak_floor = flags.GetDouble("weak-floor", 0.0);
  const bool has_weak_seed = flags.Has("weak-seed");
  const uint64_t weak_seed = static_cast<uint64_t>(
      flags.GetInt("weak-seed", static_cast<int64_t>(seed)));
  const bool has_weak_cost = flags.Has("weak-cost");
  const double weak_cost = flags.GetDouble("weak-cost", 0.0);
  const StatusOr<CommandFlags> read_cmd = ReadCommandFlags(command, flags);
  if (!read_cmd.ok()) return Fail(std::string(read_cmd.status().message()));
  const CommandFlags& cmd = *read_cmd;

  // Every flag is read by now: reject an unparseable value or an unknown
  // flag, then malformed numerics and inconsistent combos, before anything
  // is cast, stacked or opened — a bad flag must never silently misbehave.
  if (const Status s = flags.FailOnUnused(); !s.ok()) {
    return Fail(s.ToString());
  }
  for (const Status& s : {
           RequireIntInRange("--n", n_raw, 2, kMaxUint32),
           RequireIntInRange("--landmarks", landmarks_raw, 0, kMaxUint32),
           RequireIntInRange("--threads", threads_raw, 0, kMaxUint32),
           RequireIntInRange("--retry-attempts", retry_attempts, 0,
                             kMaxUint32),
           RequireIntInRange("--fault-consecutive", fault_consecutive, 0,
                             kMaxUint32),
           RequireIntInRange("--min-pts", cmd.min_pts, 0, kMaxUint32),
           RequireIntInRange("--trace-limit", trace_limit, 0, kMaxInt64),
           RequireNonNegative("--oracle-cost", oracle_cost),
           RequireNonNegative("--retry-backoff",
                              retry.initial_backoff_seconds),
           RequireNonNegative("--retry-max-backoff",
                              retry.max_backoff_seconds),
           RequireNonNegative("--retry-deadline", retry.deadline_seconds),
           RequireProbability("--fault-rate", fault.failure_rate),
           RequireProbability("--fault-spike-rate", fault.spike_rate),
           RequireNonNegative("--fault-spike-seconds", fault.spike_seconds),
           RequireNonNegative("--fault-timeout",
                              fault.per_call_timeout_seconds),
           RequireNonNegative("--eps", approx_eps),
           RequireNonNegative("--weak-floor", weak_floor),
           RequireNonNegative("--weak-cost", weak_cost),
           RequireNonNegative("--metrics-interval", metrics_interval),
       }) {
    if (!s.ok()) return Fail(s.ToString());
  }
  const ObjectId n = static_cast<ObjectId>(n_raw);
  if (has_weak_alpha && !(std::isfinite(weak_alpha) && weak_alpha >= 1.0)) {
    return Fail(
        "--weak-alpha must be a finite factor >= 1: it is the weak oracle's "
        "advertised multiplicative error bound, and a factor below 1 would "
        "claim the estimate is better than exact");
  }
  if (!has_weak_alpha &&
      (has_weak_floor || has_weak_seed || has_weak_cost)) {
    return Fail(
        "--weak-floor/--weak-seed/--weak-cost configure the weak oracle and "
        "require --weak-alpha=<a> to enable it");
  }
  if (!std::isfinite(weak_floor)) {
    return Fail("--weak-floor must be finite");
  }
  if (!std::isfinite(weak_cost)) {
    return Fail("--weak-cost must be finite");
  }
  if (approx_eps >= 1.0) {
    return Fail(
        "--eps must be below 1: it is a relative bound-interval gap, and a "
        "gap of 1 would accept comparisons the bounds say nothing about");
  }
  if (has_budget_flag && oracle_budget_raw <= 0) {
    return Fail(
        "--oracle-budget must be a positive call count (omit the flag for "
        "an unlimited budget)");
  }
  const bool approx_active = approx_eps > 0.0 || oracle_budget_raw > 0;
  if (oracle_budget_raw > 0 && store_no_warm_start) {
    return Fail(
        "--oracle-budget cannot be combined with --store-no-warm-start: "
        "distances already durable in the store would be re-charged against "
        "the budget instead of entering the graph as warm cache hits");
  }
  if (approx_active) {
    // The (1+eps) contract is only proved for threshold/winner-selection
    // workloads whose proof verbs stay exact; everything else must not
    // silently accept a slack policy it would ignore or miscount.
    bool contract = false;
    if (command == "mst") {
      contract = cmd.algorithm == "prim" || cmd.algorithm == "boruvka";
    } else if (command == "knn") {
      contract = true;
    } else if (command == "cluster") {
      contract = cmd.method == "pam" || cmd.method == "clarans" ||
                 cmd.method == "dbscan";
    }
    if (!contract) {
      return Fail(
          "--eps/--oracle-budget require a workload with an approximate "
          "contract: mst (--algorithm=prim|boruvka), knn, or cluster "
          "(--method=pam|clarans|dbscan)");
    }
  }
  const bool weak_active = has_weak_alpha;
  if (weak_active) {
    // Same workload gate as the approximate contract: the dual-oracle bound
    // source is only plumbed through the threshold/winner-selection
    // workloads, and a workload that would silently ignore the weak oracle
    // must not accept its flags.
    bool weak_supported = false;
    if (command == "mst") {
      weak_supported = cmd.algorithm == "prim" || cmd.algorithm == "boruvka";
    } else if (command == "knn") {
      weak_supported = true;
    } else if (command == "cluster") {
      weak_supported = cmd.method == "pam" || cmd.method == "dbscan";
    }
    if (!weak_supported) {
      return Fail(
          "--weak-alpha requires a workload wired for dual-oracle "
          "resolution: mst (--algorithm=prim|boruvka), knn, or cluster "
          "(--method=pam|dbscan)");
    }
  }
  if (command == "cluster" && cmd.method == "dbscan" && flags.Has("eps") &&
      !flags.Has("radius")) {
    // Legacy DBSCAN spelling trap: in this CLI --eps is the
    // approximate-resolution slack, never the neighborhood radius. Without
    // --radius the flag would silently run an approximate DBSCAN at the
    // default radius instead of the query the user meant.
    return Fail(
        "DBSCAN's neighborhood radius is spelled --radius, not --eps "
        "(--eps is the approximate-resolution slack). Pass --radius=<r>, "
        "optionally alongside --eps=<slack> for approximate resolution");
  }
  if (store_readonly && store_path.empty()) {
    return Fail("--store-readonly requires --store=<path>");
  }
  if (trace_limit > 0 && trace_path.empty()) {
    return Fail("--trace-limit requires --trace=<path>");
  }
  if ((metrics_interval > 0.0 || obs_dump_on_exit) && obs_dir.empty()) {
    return Fail(
        "--metrics-interval/--obs-dump-on-exit require --obs-dir=<dir>");
  }
  if (store_no_warm_start && store_path.empty()) {
    return Fail("--store-no-warm-start requires --store=<path>");
  }
  if (audit && !store_path.empty()) {
    return Fail(
        "--audit cannot be combined with --store: the unaudited pass would "
        "warm the store and the audited pass would replay it with zero "
        "oracle calls, voiding the A-B comparison");
  }
  // Algorithm preconditions: a value the algorithm would CHECK-abort on
  // fails here, before any oracle work.
  if (command == "knn" && (cmd.k < 1 || cmd.k >= n_raw)) {
    return Fail("--k must be at least 1 and below --n (" +
                std::to_string(n_raw) + ")");
  }
  const bool medoids = cmd.method == "pam" || cmd.method == "clarans";
  if (command == "cluster" && medoids && (cmd.l < 2 || cmd.l >= n_raw)) {
    return Fail("--l must be at least 2 and below --n (" +
                std::to_string(n_raw) + ") for --method=" + cmd.method);
  }
  if (command == "cluster" && cmd.method == "kcenter" &&
      (cmd.l < 1 || cmd.l > n_raw)) {
    return Fail("--l must be at least 1 and at most --n (" +
                std::to_string(n_raw) + ") for --method=kcenter");
  }
  if (command == "cluster" && cmd.method == "dbscan" && cmd.min_pts < 1) {
    return Fail("--min-pts must be at least 1");
  }
  // Pin the kernel tier before any resolver exists so the stamped
  // kernel_dispatch matches what actually executes.
  if (!simd_flag.empty()) {
    if (simd_flag == "auto") {
      simd::SetTier(simd::DetectedTier());
    } else {
      const StatusOr<simd::Tier> tier = simd::ParseTier(simd_flag);
      if (!tier.ok()) return Fail("--simd: " + tier.status().ToString());
      const simd::Tier applied = simd::SetTier(*tier);
      if (applied != *tier) {
        std::fprintf(stderr,
                     "mpx: --simd=%s not supported by this CPU; using %s\n",
                     simd_flag.c_str(),
                     std::string(simd::TierName(applied)).c_str());
      }
    }
  }

  const uint32_t landmarks = static_cast<uint32_t>(landmarks_raw);
  const unsigned threads = static_cast<unsigned>(threads_raw);
  fault.max_consecutive_failures = static_cast<uint32_t>(fault_consecutive);
  const bool inject_faults =
      fault.failure_rate > 0.0 || fault.spike_rate > 0.0;

  StatusOr<Dataset> dataset = MakeDataset(dataset_name, n, seed);
  if (!dataset.ok()) return Fail(dataset.status().ToString());
  StatusOr<SchemeKind> scheme = ParseSchemeKind(scheme_name);
  if (!scheme.ok()) return Fail(scheme.status().ToString());

  // Oracle stack: base -> (verify) -> simulated cost -> (faults) -> (retry).
  DistanceOracle* oracle = dataset->oracle.get();
  std::unique_ptr<VerifyingOracle> verifier;
  if (verify) {
    verifier = std::make_unique<VerifyingOracle>(oracle, 32);
    oracle = verifier.get();
  }
  SimulatedCostOracle costed(oracle, oracle_cost);
  DistanceOracle* top = &costed;
  std::unique_ptr<FaultInjectingOracle> faulty;
  if (inject_faults) {
    faulty = std::make_unique<FaultInjectingOracle>(top, fault);
    top = faulty.get();
  }
  std::unique_ptr<RetryingOracle> retrying;
  if (retry_attempts > 0) {
    retrying = std::make_unique<RetryingOracle>(top, retry);
    top = retrying.get();
  }
  // The persistence layer tops the stack: a store hit skips simulated cost,
  // injected faults and retries alike.
  std::unique_ptr<DistanceStore> store;
  std::unique_ptr<PersistentOracle> persistent;
  if (!store_path.empty()) {
    std::ostringstream identity;
    identity << "dataset=" << dataset->name << ";n=" << n << ";seed=" << seed
             << ";oracle=" << dataset->oracle->name();
    const StoreFingerprint fp = MakeStoreFingerprint(identity.str(), n);
    StoreOptions store_options;
    store_options.read_only = store_readonly;
    StatusOr<std::unique_ptr<DistanceStore>> opened =
        DistanceStore::Open(store_path, fp, store_options);
    if (!opened.ok()) return Fail(opened.status().ToString());
    store = std::move(*opened);
    persistent = std::make_unique<PersistentOracle>(top, store.get());
    top = persistent.get();
  }
  if (threads > 0) top->set_batch_workers(threads);

  // Telemetry bundle: histograms fill whenever the bundle is attached (so
  // --stats-json alone gets quantiles); events flow only when --trace adds
  // a sink. Attachment happens via attach_telemetry below — under --audit,
  // only before the final (reported) pass, so the A-B baseline stays bare.
  std::ostringstream trace_id_stream;
  trace_id_stream << "mpx-" << command << "-" << dataset_name << "-n" << n
                  << "-seed" << seed;
  const std::string trace_id = trace_id_stream.str();
  std::optional<Telemetry> telemetry;
  std::unique_ptr<JsonlTraceSink> trace_sink;
  // Declared after trace_sink so the hub (and its final flight dump /
  // metrics sample) shuts down while the trace sink still exists.
  std::unique_ptr<ObservabilityHub> hub;
  if (!trace_path.empty()) {
    trace_sink = std::make_unique<JsonlTraceSink>(
        trace_path, trace_id, static_cast<uint64_t>(trace_limit));
    if (!trace_sink->status().ok()) {
      return Fail("cannot open --trace file: " +
                  trace_sink->status().ToString());
    }
  }
  if (!obs_dir.empty()) {
    // Live observability: the hub's pool-level bundle replaces the local
    // one. Its flight recorder tees every event into the ring (and onward
    // to the --trace sink when present), its sampler writes metrics.jsonl/
    // metrics.prom under --obs-dir, and CHECK failures dump the ring.
    ObservabilityHubOptions hub_options;
    hub_options.dir = obs_dir;
    hub_options.metrics_interval_seconds = metrics_interval;
    hub_options.dump_on_exit = obs_dump_on_exit;
    hub_options.trace_id = trace_id;
    hub_options.sink = trace_sink.get();
    hub = std::make_unique<ObservabilityHub>(std::move(hub_options));
    hub->InstallFatalHook();
  } else if (!stats_json.empty() || !trace_path.empty() ||
             (audit && (approx_active || weak_active))) {
    // An approximate audit needs the slack_realized_error histogram to
    // check realized error against --eps, so the bundle is forced on even
    // without --stats-json/--trace (attachment is proven side-effect-free).
    telemetry.emplace();
    telemetry->trace_id = trace_id;
    if (trace_sink != nullptr) telemetry->sink = trace_sink.get();
  }
  Telemetry* const telemetry_ptr =
      hub != nullptr ? hub->pool_telemetry()
                     : (telemetry.has_value() ? &*telemetry : nullptr);
  const auto attach_telemetry = [&] {
    costed.SetTelemetry(telemetry_ptr);
    if (retrying != nullptr) retrying->SetTelemetry(telemetry_ptr);
    if (persistent != nullptr) persistent->SetTelemetry(telemetry_ptr);
    if (store != nullptr) store->SetTelemetry(telemetry_ptr);
  };

  std::string approx_desc;
  if (approx_active) {
    std::ostringstream os;
    if (approx_eps > 0.0) os << " eps=" << approx_eps;
    if (oracle_budget_raw > 0) os << " oracle-budget=" << oracle_budget_raw;
    approx_desc = os.str();
  }
  std::string weak_desc;
  if (weak_active) {
    std::ostringstream os;
    os << " weak-alpha=" << weak_alpha;
    if (weak_floor > 0.0) os << " weak-floor=" << weak_floor;
    if (has_weak_seed) os << " weak-seed=" << weak_seed;
    weak_desc = os.str();
  }
  std::printf("mpx %s: dataset=%s n=%u scheme=%s%s seed=%llu%s%s%s\n",
              command.c_str(), dataset->name.c_str(), n,
              SchemeKindName(*scheme).data(), bootstrap ? "+bootstrap" : "",
              static_cast<unsigned long long>(seed),
              audit ? " audit=on" : "", approx_desc.c_str(),
              weak_desc.c_str());

  uint64_t warm_loaded = 0;
  // One full execution of the command from a fresh graph. Everything that
  // can reach the oracle — bootstrap, scheme construction and the command
  // itself — runs inside the fallible scope, so an oracle whose retries or
  // deadline are exhausted produces an error exit instead of an abort.
  // With `with_cert`, a CertifyingResolver wraps the scheme for the
  // duration of the command.
  const auto execute_pass =
      [&](Telemetry* pass_telemetry, bool with_cert, bool quiet,
          ResolverStats* stats_out, CertificationStats* cert_out,
          double* checksum_out, double* wall_out) -> int {
    PartialDistanceGraph graph(n);
    if (store != nullptr && !store_no_warm_start) {
      const std::vector<WeightedEdge> warm = store->Edges();
      graph.InsertEdges(warm);
      warm_loaded = warm.size();
      if (warm_loaded > 0 && !quiet) {
        std::printf("warm start: %llu stored distances from %s\n",
                    static_cast<unsigned long long>(warm_loaded),
                    store_path.c_str());
      }
    }
    BoundedResolver resolver(top, &graph);
    resolver.SetTelemetry(pass_telemetry);

    // Dual-oracle mode: the weak oracle is derived from the *base* dataset
    // oracle — below the verify / cost / fault / retry middleware — because
    // a weak estimate is cheap by definition and is never a strong-oracle
    // call (it does not hit the store, cannot fault, and is not billed
    // --oracle-cost). Both audit passes get identical settings, so the A-B
    // comparison is weak-vs-weak.
    std::optional<WeakOracle> weak_oracle;
    std::optional<WeakBounder> weak_bounder;
    if (weak_active) {
      WeakOracle::Options weak_options;
      weak_options.alpha = weak_alpha;
      weak_options.floor = weak_floor;
      weak_options.seed = weak_seed;
      weak_options.cost_seconds = weak_cost;
      weak_oracle.emplace(dataset->oracle.get(), weak_options);
      weak_bounder.emplace(&*weak_oracle);
      resolver.SetWeakBounder(&*weak_bounder);
    }

    Stopwatch watch;
    int exit_code = 0;
    std::unique_ptr<Bounder> bounder_keepalive;
    std::optional<CertifyingResolver> certifying;
    const StatusOr<double> outcome = resolver.RunFallible([&](
        BoundedResolver*) -> double {
      if (bootstrap) {
        BootstrapWithLandmarks(
            &resolver, landmarks > 0 ? landmarks : DefaultNumLandmarks(n),
            seed);
      }
      SchemeOptions options;
      options.num_landmarks = landmarks;
      options.max_distance = dataset->max_distance;
      options.seed = seed;
      auto bounder = MakeAndAttachScheme(*scheme, &resolver, options);
      if (!bounder.ok()) {
        exit_code = Fail(bounder.status().ToString());
        return 0.0;
      }
      bounder_keepalive = std::move(bounder).value();
      if (with_cert) certifying.emplace(&resolver, dataset->max_distance);

      // The approximate policy goes live only now: bootstrap and scheme
      // construction stay exact and are not charged against the budget.
      if (approx_active) {
        resolver.SetPolicy(ResolutionPolicy{
            approx_eps, static_cast<uint64_t>(oracle_budget_raw)});
      }

      watch.Restart();
      exit_code = RunCommand(command, cmd, n, seed, &resolver, quiet,
                             checksum_out);
      return 0.0;
    });
    if (!outcome.ok()) {
      if (outcome.status().code() == StatusCode::kResourceExhausted) {
        return Fail("oracle budget exceeded: " +
                    std::string(outcome.status().message()) +
                    " (raise --oracle-budget, or loosen --eps so more "
                    "comparisons can resolve by slack)");
      }
      if (outcome.status().code() == StatusCode::kFailedPrecondition) {
        // The weak-model violation path: never a wrong answer, always a
        // loud failure naming the pair and the advertised interval.
        return Fail(std::string(outcome.status().message()));
      }
      return Fail("oracle transport failed: " + outcome.status().ToString());
    }
    if (exit_code != 0) return exit_code;
    *wall_out = watch.ElapsedSeconds();
    *stats_out = resolver.stats();
    if (weak_oracle.has_value()) {
      stats_out->weak_simulated_seconds = weak_oracle->simulated_seconds();
    }
    if (certifying.has_value()) *cert_out = certifying->stats();
    return 0;
  };

  ResolverStats stats;
  CertificationStats certification;
  double checksum = 0.0;
  double wall = 0.0;
  if (audit) {
    ResolverStats bare_stats;
    CertificationStats bare_certs;
    double bare_checksum = 0.0;
    double bare_wall = 0.0;
    int rc = execute_pass(/*pass_telemetry=*/nullptr, /*with_cert=*/false,
                          /*quiet=*/true, &bare_stats, &bare_certs,
                          &bare_checksum, &bare_wall);
    if (rc != 0) return rc;
    attach_telemetry();
    rc = execute_pass(telemetry_ptr, /*with_cert=*/true, /*quiet=*/false,
                      &stats, &certification, &checksum, &wall);
    if (rc != 0) return rc;

    // Byte-level comparison: the audit asserts bit-identical outputs, not
    // outputs within a tolerance.
    const bool outputs_identical = std::bit_cast<uint64_t>(bare_checksum) ==
                                   std::bit_cast<uint64_t>(checksum);
    const bool calls_identical =
        bare_stats.oracle_calls == stats.oracle_calls;
    TablePrinter audit_table({"metric", "unaudited", "audited"});
    {
      char a[64], b[64];
      std::snprintf(a, sizeof(a), "%.17g", bare_checksum);
      std::snprintf(b, sizeof(b), "%.17g", checksum);
      audit_table.NewRow().AddCell("output checksum").AddCell(a).AddCell(b);
    }
    audit_table.NewRow()
        .AddCell("oracle calls")
        .AddUint(bare_stats.oracle_calls)
        .AddUint(stats.oracle_calls);
    audit_table.Print("\nAudit");
    std::printf(
        "certs_emitted=%llu certs_verified=%llu certs_failed=%llu "
        "certs_uncertified=%llu\n",
        static_cast<unsigned long long>(certification.emitted),
        static_cast<unsigned long long>(certification.verified),
        static_cast<unsigned long long>(certification.failed),
        static_cast<unsigned long long>(certification.uncertified));
    if (!certification.first_failure.empty()) {
      std::printf("first failed certificate: %s\n",
                  certification.first_failure.c_str());
    }
    Histogram::Summary slack_err;
    if (telemetry_ptr != nullptr) {
      slack_err = telemetry_ptr->slack_realized_error.Summarize();
    }
    if (approx_active) {
      std::printf("decided_by_slack=%llu budget_exhausted=%llu\n",
                  static_cast<unsigned long long>(stats.decided_by_slack),
                  static_cast<unsigned long long>(stats.budget_exhausted));
      if (slack_err.count > 0) {
        std::printf(
            "slack realized error: p50=%.4g p99=%.4g max=%.4g over %llu "
            "slack decisions\n",
            slack_err.p50, slack_err.p99, slack_err.max,
            static_cast<unsigned long long>(slack_err.count));
      }
    }
    if (weak_active) {
      std::printf("decided_by_weak=%llu weak_calls=%llu\n",
                  static_cast<unsigned long long>(stats.decided_by_weak),
                  static_cast<unsigned long long>(stats.weak_calls));
      Histogram::Summary weak_width;
      if (telemetry_ptr != nullptr) {
        weak_width = telemetry_ptr->weak_interval_width.Summarize();
      }
      if (weak_width.count > 0) {
        std::printf(
            "weak interval width: p50=%.4g p90=%.4g p99=%.4g over %llu "
            "weak consults\n",
            weak_width.p50, weak_width.p90, weak_width.p99,
            static_cast<unsigned long long>(weak_width.count));
      }
    }
    // The advertised (1+eps) contract: unless the budget forced wider
    // decisions, no slack decision may have realized more relative error
    // than --eps admitted.
    const bool error_within_eps =
        !(approx_eps > 0.0 && stats.budget_exhausted == 0 &&
          slack_err.max > approx_eps);
    if (!outputs_identical || !calls_identical ||
        certification.failed > 0 || !error_within_eps) {
      std::string why;
      if (!outputs_identical) why += " outputs differ;";
      if (!calls_identical) why += " oracle calls differ;";
      if (certification.failed > 0) why += " certificates failed;";
      if (!error_within_eps) why += " realized slack error exceeds --eps;";
      return Fail("audit FAILED:" + why);
    }
    std::printf(
        "audit PASSED: outputs byte-identical, oracle calls identical, "
        "all emitted certificates verified%s\n",
        approx_active ? "; every slack decision certified and realized "
                        "error within eps"
                      : "");
    stats.certs_emitted = certification.emitted;
    stats.certs_verified = certification.verified;
    stats.certs_failed = certification.failed;
    stats.certs_uncertified = certification.uncertified;
  } else {
    attach_telemetry();
    int rc = execute_pass(telemetry_ptr, /*with_cert=*/false,
                          /*quiet=*/false, &stats, &certification, &checksum,
                          &wall);
    if (rc != 0) return rc;
  }

  if (retrying != nullptr) retrying->AccumulateStats(&stats);
  stats.store_loaded_edges = warm_loaded;
  if (persistent != nullptr) persistent->AccumulateStats(&stats);
  stats.simulated_oracle_seconds = costed.simulated_seconds();
  if (hub != nullptr) {
    // Headline run counters land in the registry under the pool cell
    // (session 0) so `mpx obs export` has them in the exposition.
    MetricsRegistry& metrics = hub->metrics();
    const std::string& tenant = hub->options().tenant;
    metrics.CounterAdd(tenant, 0, "oracle_calls", stats.oracle_calls);
    metrics.CounterAdd(tenant, 0, "decided_by_bounds",
                       stats.decided_by_bounds);
    metrics.CounterAdd(tenant, 0, "decided_by_cache", stats.decided_by_cache);
    metrics.CounterAdd(tenant, 0, "comparisons", stats.comparisons);
    metrics.GaugeSet(tenant, 0, "wall_seconds", wall);
    // One explicit sample so even a shorter-than-interval run reports (and
    // persists) a time-series point before the counters are folded in.
    hub->SampleNow();
    hub->AccumulateStats(&stats);
  }

  RunInfo run_info;
  run_info.command = command;
  run_info.dataset = dataset->name;
  run_info.scheme = std::string(SchemeKindName(*scheme));
  run_info.n = n;
  run_info.seed = seed;
  run_info.trace_id = trace_id;
  run_info.have_store = store != nullptr;
  run_info.audit = audit;
  run_info.oracle_cost_seconds = oracle_cost;
  run_info.wall_seconds = wall;
  const RunReport report(run_info, stats, telemetry_ptr);
  std::fputs(report.ToText().c_str(), stdout);
  if (!stats_json.empty()) {
    if (const Status s = WriteFile(stats_json, report.ToJson() + "\n");
        !s.ok()) {
      return Fail("stats-json write failed: " + s.ToString());
    }
    std::printf("stats: JSON report written to %s\n", stats_json.c_str());
  }
  if (trace_sink != nullptr) {
    const uint64_t trace_written = trace_sink->written();
    const uint64_t trace_dropped = trace_sink->dropped();
    if (const Status s = trace_sink->Close(); !s.ok()) {
      return Fail("trace write failed: " + s.ToString());
    }
    std::printf("trace: %llu events written to %s (%llu dropped)\n",
                static_cast<unsigned long long>(trace_written),
                trace_path.c_str(),
                static_cast<unsigned long long>(trace_dropped));
  }
  if (faulty != nullptr) {
    std::printf(
        "injected faults: %llu failures, %llu spikes, %llu timeouts\n",
        static_cast<unsigned long long>(faulty->injected_failures()),
        static_cast<unsigned long long>(faulty->injected_spikes()),
        static_cast<unsigned long long>(faulty->injected_timeouts()));
  }
  if (verifier != nullptr) {
    std::printf("metric spot checks passed: %llu\n",
                static_cast<unsigned long long>(verifier->checks_performed()));
  }
  if (store != nullptr) {
    if (persistent->store_write_failures() > 0) {
      std::fprintf(stderr,
                   "mpx: warning: %llu store writes failed (%s); the store "
                   "served as a cache only\n",
                   static_cast<unsigned long long>(
                       persistent->store_write_failures()),
                   persistent->store_status().ToString().c_str());
    }
    const size_t durable = store->size();
    const Status s = store->Close();
    if (!s.ok()) return Fail("store close failed: " + s.ToString());
    std::printf("store: %zu distances durable at %s%s\n", durable,
                store_path.c_str(), store_readonly ? " (read-only)" : "");
  }
  return 0;
}

/// The `mpx store <info|verify|compact>` maintenance verbs. They read the
/// fingerprint from the files themselves, so no dataset flags are needed.
int RunStore(const std::string& verb, const Flags& flags) {
  const std::string store_path = flags.GetString("store", "");
  if (store_path.empty()) {
    return Fail("mpx store " + verb + " requires --store=<path>");
  }
  if (const Status s = flags.FailOnUnused(); !s.ok()) {
    return Fail(s.ToString());
  }

  if (verb == "info" || verb == "verify") {
    StatusOr<StoreScanResult> scan = DistanceStore::Scan(store_path);
    if (!scan.ok()) {
      if (verb == "verify") {
        return Fail("store verify FAILED: " + scan.status().ToString());
      }
      return Fail(scan.status().ToString());
    }
    TablePrinter table({"field", "value"});
    char hash[32];
    std::snprintf(hash, sizeof(hash), "%016llx",
                  static_cast<unsigned long long>(
                      scan->fingerprint.identity_hash));
    table.NewRow().AddCell("identity hash").AddCell(hash);
    table.NewRow().AddCell("objects").AddUint(scan->fingerprint.num_objects);
    table.NewRow()
        .AddCell("snapshot edges")
        .AddUint(scan->has_snapshot ? scan->snapshot_edges : 0);
    table.NewRow()
        .AddCell("wal records")
        .AddUint(scan->has_wal ? scan->wal_records : 0);
    table.NewRow().AddCell("unique edges").AddUint(scan->unique_edges);
    table.NewRow().AddCell("torn tail bytes").AddUint(scan->torn_tail_bytes);
    table.Print("Store " + store_path);
    if (verb == "verify") {
      if (scan->torn_tail_bytes > 0) {
        std::printf("store verify PASSED with a torn WAL tail of %llu bytes "
                    "(recoverable: the next writable open truncates it)\n",
                    static_cast<unsigned long long>(scan->torn_tail_bytes));
      } else {
        std::printf("store verify PASSED\n");
      }
    }
    return 0;
  }

  if (verb == "compact") {
    StatusOr<StoreFingerprint> fp = DistanceStore::ReadFingerprint(store_path);
    if (!fp.ok()) return Fail(fp.status().ToString());
    StatusOr<std::unique_ptr<DistanceStore>> opened =
        DistanceStore::Open(store_path, *fp);
    if (!opened.ok()) return Fail(opened.status().ToString());
    DistanceStore& store = **opened;
    const size_t edges = store.size();
    if (const Status s = store.Compact(); !s.ok()) {
      return Fail("compaction failed: " + s.ToString());
    }
    if (const Status s = store.Close(); !s.ok()) {
      return Fail("store close failed: " + s.ToString());
    }
    std::printf("compacted %zu edges into %s\n", edges,
                DistanceStore::SnapshotPath(store_path).c_str());
    return 0;
  }

  return Fail("unknown store verb: " + verb + " (info|verify|compact)");
}

/// The `mpx obs <export|dump>` live-run verbs. Both operate purely on the
/// --obs-dir artifacts, so they can inspect a run owned by another process.
int RunObs(const std::string& verb, const Flags& flags) {
  const std::string dir = flags.GetString("obs-dir", "");
  if (dir.empty()) {
    return Fail("mpx obs " + verb + " requires --obs-dir=<dir>");
  }
  if (const Status s = flags.FailOnUnused(); !s.ok()) {
    return Fail(s.ToString());
  }

  if (verb == "export") {
    const std::string path = dir + "/metrics.prom";
    std::FILE* file = std::fopen(path.c_str(), "rb");
    if (file == nullptr) {
      return Fail("no exposition at " + path +
                  " (is a run with --obs-dir writing here, and has its "
                  "sampler ticked at least once?)");
    }
    char buf[4096];
    size_t got;
    while ((got = std::fread(buf, 1, sizeof(buf), file)) > 0) {
      std::fwrite(buf, 1, got, stdout);
    }
    std::fclose(file);
    return 0;
  }

  if (verb == "dump") {
    // The hub's background thread polls for this sentinel and answers with
    // a flight-request-*.jsonl snapshot, then removes the file.
    const std::string sentinel = dir + "/DUMP_REQUEST";
    if (const Status s = WriteFile(sentinel, ""); !s.ok()) {
      return Fail(s.ToString());
    }
    std::printf(
        "dump requested: the live run will write flight-request-*.jsonl "
        "under %s within its poll interval\n",
        dir.c_str());
    return 0;
  }

  return Fail("unknown obs verb: " + verb + " (export|dump)");
}

/// The command dispatch, extracted so Run() can execute it inside the
/// resolver's fallible scope (twice under --audit). Returns a process exit
/// code; `*checksum` receives the command's headline value (MST weight,
/// mean k-th distance, ...) for the audit's byte-identity comparison, and
/// `quiet` suppresses the result lines on the audit's baseline pass. The
/// command, --algorithm and --method are known: ReadCommandFlags rejected
/// any other value before the run began, so each chain's last branch takes
/// the one value left.
int RunCommand(const std::string& command, const CommandFlags& cmd,
               ObjectId n, uint64_t seed, BoundedResolver* resolver_ptr,
               bool quiet, double* checksum) {
  BoundedResolver& resolver = *resolver_ptr;
  if (command == "mst") {
    const std::string& algorithm = cmd.algorithm;
    MstResult mst;
    if (algorithm == "prim") {
      mst = PrimMst(&resolver);
    } else if (algorithm == "kruskal") {
      mst = KruskalMst(&resolver);
    } else {
      CHECK(algorithm == "boruvka") << "unvalidated --algorithm " << algorithm;
      mst = BoruvkaMst(&resolver);
    }
    *checksum = mst.total_weight;
    if (!quiet) {
      std::printf("MST: %zu edges, total weight %.6f\n", mst.edges.size(),
                  mst.total_weight);
    }
  } else if (command == "knn") {
    const uint32_t k = static_cast<uint32_t>(cmd.k);
    const KnnGraph knn = BuildKnnGraph(&resolver, KnnGraphOptions{k});
    double mean = 0.0;
    for (const auto& row : knn) mean += row.back().distance;
    *checksum = mean / static_cast<double>(n);
    if (!quiet) {
      std::printf("%u-NN graph built; mean k-th distance %.6f\n", k,
                  mean / static_cast<double>(n));
    }
  } else if (command == "cluster") {
    const std::string& method = cmd.method;
    const uint32_t l = static_cast<uint32_t>(cmd.l);
    if (method == "pam") {
      PamOptions pam;
      pam.num_medoids = l;
      const ClusteringResult c = PamCluster(&resolver, pam);
      *checksum = c.total_deviation;
      if (!quiet) {
        std::printf("PAM: %u medoids, total deviation %.6f, %u swap "
                    "rounds\n",
                    l, c.total_deviation, c.iterations);
      }
    } else if (method == "clarans") {
      ClaransOptions clarans;
      clarans.num_medoids = l;
      clarans.seed = seed;
      const ClusteringResult c = ClaransCluster(&resolver, clarans);
      *checksum = c.total_deviation;
      if (!quiet) {
        std::printf("CLARANS: %u medoids, total deviation %.6f\n", l,
                    c.total_deviation);
      }
    } else if (method == "kcenter") {
      const KCenterResult c = KCenterCluster(&resolver, l);
      *checksum = c.radius;
      if (!quiet) {
        std::printf("k-center: %u centers, radius %.6f\n", l, c.radius);
      }
    } else if (method == "dbscan") {
      DbscanOptions dbscan;
      dbscan.eps = cmd.radius;
      dbscan.min_pts = static_cast<uint32_t>(cmd.min_pts);
      const DbscanResult c = DbscanCluster(&resolver, dbscan);
      uint32_t noise = 0;
      for (const int32_t label : c.labels) {
        if (label == DbscanResult::kNoise) ++noise;
      }
      *checksum = static_cast<double>(c.num_clusters) * 1e6 +
                  static_cast<double>(noise);
      if (!quiet) {
        std::printf("DBSCAN(radius=%.3f, minPts=%u): %u clusters, %u noise "
                    "points\n",
                    dbscan.eps, dbscan.min_pts, c.num_clusters, noise);
      }
    } else {
      CHECK(method == "linkage") << "unvalidated --method " << method;
      const SingleLinkageResult c = SingleLinkageCluster(&resolver);
      double height_sum = 0.0;
      for (const auto& merge : c.merges) height_sum += merge.height;
      *checksum = height_sum;
      if (!quiet) {
        std::printf("single-linkage: %zu merges, heights %.4f .. %.4f\n",
                    c.merges.size(), c.merges.front().height,
                    c.merges.back().height);
      }
    }
  } else if (command == "join") {
    const double radius = cmd.radius;
    const auto matches = SimilarityJoin(&resolver, radius);
    *checksum = static_cast<double>(matches.size());
    if (!quiet) {
      std::printf("similarity join (radius %.4f): %zu matching pairs\n",
                  radius, matches.size());
    }
  } else {
    CHECK(command == "diameter") << "unvalidated command " << command;
    const DiameterEstimate d = ApproximateDiameter(&resolver);
    *checksum = d.distance;
    if (!quiet) {
      std::printf("diameter >= %.6f (between objects %u and %u; 2-approx)\n",
                  d.distance, d.u, d.v);
    }
  }
  return 0;
}

}  // namespace
}  // namespace metricprox

int main(int argc, char** argv) {
  if (argc < 2 || argv[1][0] == '-') {
    std::fprintf(stderr,
                 "usage: mpx <mst|knn|cluster|join|diameter> [--flags]\n"
                 "       mpx store <info|verify|compact> --store=<path>\n"
                 "       mpx obs <export|dump> --obs-dir=<dir>\n"
                 "run `head -120 tools/mpx.cc` for the flag reference\n");
    return 1;
  }
  const std::string command = argv[1];
  if (command == "obs") {
    if (argc < 3 || argv[2][0] == '-') {
      std::fprintf(stderr, "usage: mpx obs <export|dump> --obs-dir=<dir>\n");
      return 1;
    }
    const std::string verb = argv[2];
    auto flags = metricprox::Flags::Parse(argc - 2, argv + 2);
    if (!flags.ok()) {
      std::fprintf(stderr, "mpx: %s\n", flags.status().ToString().c_str());
      return 1;
    }
    return metricprox::RunObs(verb, *flags);
  }
  if (command == "store") {
    if (argc < 3 || argv[2][0] == '-') {
      std::fprintf(stderr,
                   "usage: mpx store <info|verify|compact> --store=<path>\n");
      return 1;
    }
    const std::string verb = argv[2];
    auto flags = metricprox::Flags::Parse(argc - 2, argv + 2);
    if (!flags.ok()) {
      std::fprintf(stderr, "mpx: %s\n", flags.status().ToString().c_str());
      return 1;
    }
    return metricprox::RunStore(verb, *flags);
  }
  auto flags = metricprox::Flags::Parse(argc - 1, argv + 1);
  if (!flags.ok()) {
    std::fprintf(stderr, "mpx: %s\n", flags.status().ToString().c_str());
    return 1;
  }
  return metricprox::Run(command, *flags);
}
