#ifndef METRICPROX_HARNESS_EXPERIMENT_H_
#define METRICPROX_HARNESS_EXPERIMENT_H_

#include <cstdint>
#include <functional>
#include <string>

#include "bounds/resolver.h"
#include "bounds/scheme.h"
#include "check/certificate.h"
#include "core/oracle.h"
#include "core/stats.h"
#include "core/status.h"
#include "obs/telemetry.h"
#include "oracle/fault_injection.h"
#include "oracle/retry.h"
#include "store/distance_store.h"

namespace metricprox {

/// One configured execution of a proximity workload under a bound scheme.
struct WorkloadConfig {
  SchemeKind scheme = SchemeKind::kNone;
  /// Resolve a LAESA-style landmark table into the graph before running
  /// (the paper's bootstrapped "Tri Scheme" rows; only meaningful for
  /// graph-reading schemes: tri/splub/adm).
  bool bootstrap = false;
  /// Landmarks for bootstrap / LAESA / TLAESA; 0 = ceil(log2(n)).
  uint32_t num_landmarks = 0;
  /// Simulated per-call oracle latency in seconds (paper Figures 7d/8a/8b).
  double oracle_cost_seconds = 0.0;
  /// Normalization bound required by DFT.
  double max_distance = 1.0;
  /// Relaxed-triangle-inequality factor (Tri Scheme only; see bounds/tri.h).
  double rho = 1.0;
  /// Whether batch verbs ship undecided remainders through one
  /// BatchDistance round-trip (true) or a per-pair Distance loop (false).
  /// Flipping this changes wall time and batch_* counters only — outputs
  /// and oracle_calls are transport-independent by construction.
  bool batch_transport = true;
  uint64_t seed = 42;
  /// Stack a FaultInjectingOracle (chaos testing) between the simulated
  /// cost layer and the resolver, configured by `fault`.
  bool inject_faults = false;
  FaultInjectionOptions fault;
  /// Stack a RetryingOracle above the (possibly faulty) oracle, configured
  /// by `retry`. Retry counters are merged into the result's stats.
  bool enable_retry = false;
  RetryOptions retry;
  /// Durable distance store shared across runs and workloads (not owned;
  /// open it with a fingerprint pinning the dataset). When set, a
  /// PersistentOracle tops the middleware stack, so every resolution is
  /// answered from the store when possible and logged to its WAL otherwise.
  /// Store counters are merged into the result's stats.
  DistanceStore* store = nullptr;
  /// Bulk-load the store's edges into the partial graph before bootstrap
  /// and scheme construction (cross-run warm start): SPLUB/Tri bounds start
  /// tight and previously paid pairs are resolver cache hits.
  bool store_warm_start = true;
  /// Run with certification on: a CertifyingBounder wraps the scheme, every
  /// bound-decided comparison emits a certificate, and an independent
  /// Verifier cross-checks it against the decision-time edge set. Outputs
  /// and oracle_calls are unchanged by construction (the shim forwards all
  /// decisions verbatim); the certification counters land in
  /// WorkloadResult::certification and the certs_* stats.
  bool audit = false;
  /// Telemetry bundle (not owned) threaded through the resolver and every
  /// middleware layer this run constructs: decision/bound/retry/store events
  /// flow to its sink, and its histograms collect oracle latency, simulated
  /// cost, batch sizes and bound gaps. Pure observation — outputs and all
  /// decision counters are unchanged. Note the caller's `store` keeps its
  /// own telemetry attachment (the store outlives this run).
  Telemetry* telemetry = nullptr;
  /// Approximate-resolution slack (ResolutionPolicy::eps). 0 keeps the run
  /// exact and byte-identical to a policy-free resolver.
  double eps = 0.0;
  /// Hard oracle-call budget (ResolutionPolicy::oracle_budget); 0 means
  /// unlimited. The policy is installed after scheme construction and
  /// bootstrap, so construction-time calls are not charged against it.
  uint64_t oracle_budget = 0;
  /// Dual-oracle mode: with weak_alpha >= 1, a deterministic seeded
  /// WeakOracle is derived from the *base* oracle (below the cost / fault /
  /// retry middleware — a weak estimate is not a strong-oracle call) and
  /// attached to the resolver as a third bound source. 0 (the default)
  /// keeps the run weak-free and byte-identical to a resolver without one.
  double weak_alpha = 0.0;
  /// Additive error floor of the weak oracle's advertised model (>= 0).
  double weak_floor = 0.0;
  /// Seed of the weak oracle's per-pair error draw; 0 uses `seed`.
  uint64_t weak_seed = 0;
  /// Simulated per-call weak-oracle cost in seconds; accrues into
  /// weak_simulated_seconds and the completion time.
  double weak_cost_seconds = 0.0;
};

/// A proximity algorithm run against a resolver; returns a checksum
/// (MST weight, total deviation, ...) used to verify scheme-independence.
using Workload = std::function<double(BoundedResolver*)>;

struct WorkloadResult {
  /// All oracle calls, including scheme construction and bootstrap.
  uint64_t total_calls = 0;
  /// Calls spent before the workload started (pivot tables / bootstrap).
  uint64_t construction_calls = 0;
  ResolverStats stats;
  /// Measured wall time of construction + workload.
  double wall_seconds = 0.0;
  /// wall_seconds plus simulated oracle latency (completion time).
  double completion_seconds = 0.0;
  /// The workload's checksum.
  double value = 0.0;
  /// Audit counters (all zero unless config.audit was set).
  CertificationStats certification;
};

/// Wires oracle -> simulated-cost wrapper -> graph -> resolver -> scheme,
/// runs the workload, and collects the counters. The oracle is shared
/// across calls only through its own state (road-row caches etc.); each run
/// gets a fresh graph, so counts are independent.
WorkloadResult RunWorkload(DistanceOracle* oracle,
                           const WorkloadConfig& config,
                           const Workload& workload);

/// Failure-aware variant: the full middleware stack is
///   oracle -> SimulatedCostOracle -> [FaultInjectingOracle] ->
///   [RetryingOracle] -> resolver,
/// and bootstrap, scheme construction and the workload all run inside
/// BoundedResolver::RunFallible — an oracle whose retries or deadline are
/// exhausted surfaces here as a non-OK Status instead of aborting the
/// process. RunWorkload is this with a CHECK on the result.
StatusOr<WorkloadResult> TryRunWorkload(DistanceOracle* oracle,
                                        const WorkloadConfig& config,
                                        const Workload& workload);

/// Outcome of an audited/unaudited A-B run of one workload (see
/// AuditWorkload). `passed()` is the property the paper's exactness theorem
/// promises and `--audit` asserts: certification changes nothing observable
/// and every scalar bound decision (a Decide* verb) is independently
/// provable. Decisions read off BoundsFrom rows are not certified.
struct AuditReport {
  WorkloadResult unaudited;
  WorkloadResult audited;
  /// The audited run's certification counters.
  CertificationStats certification;
  /// Checksums are bit-identical (compared as raw doubles, not within
  /// a tolerance).
  bool outputs_identical = false;
  /// oracle_calls are identical — the shim decided exactly what the bare
  /// scheme decided.
  bool calls_identical = false;

  bool passed() const {
    return outputs_identical && calls_identical && certification.failed == 0;
  }
};

/// Runs the workload twice from a fresh graph — once bare, once with
/// certification on — and cross-checks the two runs. Rejects configs with a
/// distance store: the first pass would warm the store and the second would
/// replay it with zero oracle calls, voiding the comparison.
StatusOr<AuditReport> AuditWorkload(DistanceOracle* oracle,
                                    const WorkloadConfig& config,
                                    const Workload& workload);

/// Fraction of calls saved by `ours` relative to `baseline`
/// (the tables' "Save (%)" columns, as a fraction).
double SaveFraction(uint64_t ours, uint64_t baseline);

}  // namespace metricprox

#endif  // METRICPROX_HARNESS_EXPERIMENT_H_
