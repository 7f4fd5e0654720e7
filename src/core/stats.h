#ifndef METRICPROX_CORE_STATS_H_
#define METRICPROX_CORE_STATS_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace metricprox {

// The single source of truth for every ResolverStats field. The struct
// declaration, Reset, operator+=, ToString, the field count, the field
// name list and the RunReport JSON object (obs/report.cc) are all
// generated from this list, so adding a counter is exactly one line here
// — it can no longer be added to the struct but forgotten in the
// aggregation or the serializers. telemetry_test pins the JSON report to
// exactly one key per entry.
//
// Field semantics:
//   oracle_calls        calls that reached the distance oracle — the
//                       paper's headline metric.
//   decided_by_bounds   comparisons answered purely from bounds (each
//                       avoided >= 1 oracle call: the "save-ups").
//   decided_by_cache    comparisons answered because the edge was already
//                       resolved earlier.
//   decided_by_oracle   comparisons that had to fall back to the oracle.
//   undecided           comparisons the resolver could neither prove nor
//                       disprove without a resolution the caller did not
//                       request (the one-sided proof verbs returning "not
//                       proven"); no oracle call happens on these paths.
//   decided_by_slack    comparisons answered approximately under a
//                       ResolutionPolicy: the bound interval's relative gap
//                       was within eps (or the budget forced the decision),
//                       so the comparison was settled against the interval
//                       midpoint without an oracle call.
//   budget_exhausted    subset of decided_by_slack forced by an exhausted
//                       oracle budget; the realized error of these may
//                       exceed eps (always <= decided_by_slack).
//   decided_by_weak     comparisons answered from the weak oracle's
//                       certified interval [w/alpha, w*alpha] (intersected
//                       with the scheme's bounds); exact whenever the weak
//                       oracle honors its advertised error model.
//   weak_calls          weak-oracle consultations made by the resolver
//                       (one per comparison that consulted the weak
//                       interval, whether or not it decided; always
//                       >= decided_by_weak). Fresh weak-oracle evaluations
//                       are memoized per pair, so the wrapped oracle may
//                       see fewer calls than this counter.
//   comparisons         total comparison requests (LessThan + PairLess +
//                       the batch verbs, one per pair).
//   bound_queries       bound-interval queries issued to the bounder.
//   batch_calls         BatchDistance invocations shipped to the oracle
//                       (each covers >= 1 pair).
//   batch_resolved_pairs pairs resolved through the batch transport; each
//                       is also in oracle_calls, so batch_resolved_pairs
//                       <= oracle_calls always holds.
//   bounder_seconds     wall time inside the bounder — the paper's "CPU
//                       overhead". A sampled estimate: the per-pair sites
//                       read the clock on one call in
//                       ClockSampler::kStride and count that many times
//                       the reading; the per-row and per-batch sites
//                       (BoundsFrom, ResolveAll, FilterLessThan) are exact.
//   oracle_seconds      wall time inside the oracle (real, not simulated).
//                       A sampled estimate on scalar calls, like
//                       bounder_seconds, unless telemetry is attached;
//                       exact on batch round-trips.
//   batch_oracle_seconds subset of oracle_seconds spent in BatchDistance.
//   simulated_oracle_seconds simulated latency from SimulatedCostOracle.
//   weak_simulated_seconds simulated latency of fresh weak-oracle
//                       evaluations (WeakOracle::Options::cost_seconds per
//                       memoized-miss call; 0 when no weak oracle or no
//                       cost is configured).
//   oracle_retries      attempts re-shipped by RetryingOracle after a
//                       transient failure (per pair, not per round-trip).
//   oracle_timeouts     per-call timeouts observed at the oracle layer.
//   oracle_failures     pair resolutions that failed permanently.
//   retry_backoff_seconds wall time sleeping in retry backoff.
//   store_hits          pairs answered by the persistent distance store.
//   store_misses        pairs the store shipped to the inner oracle.
//   store_loaded_edges  edges bulk-loaded for the cross-run warm start.
//   wal_appends         fresh distances appended to the write-ahead log.
//   compactions         store snapshot rewrites performed during the run.
//   certs_emitted       bound certificates emitted by the audit shim
//                       (== certs_verified + certs_failed always).
//   certs_verified      certificates the independent Verifier confirmed.
//   certs_failed        certificates that failed verification — nonzero
//                       is a bug in a bound scheme (or the verifier).
//   certs_uncertified   bound decisions whose scheme has no certification
//                       support; counted separately, never as failures.
//   sessions_active     gauge merged in by SessionPool::AccumulateStats:
//                       the peak number of concurrently open resolver
//                       sessions over the pool's lifetime (0 on runs that
//                       never used the session layer).
//   shared_graph_hits   pair resolutions answered by the pool's shared
//                       concurrent graph instead of the base oracle (a
//                       cross-session cache hit; each is still counted in
//                       oracle_calls by the session's resolver, so
//                       shared_graph_hits <= oracle_calls always holds).
//                       Schedule-dependent under concurrency: which session
//                       pays for a pair depends on arrival order.
//   coalesced_batches   BatchDistance round-trips shipped by the
//                       cross-session BatchCoalescer (each covers >= 1
//                       pending pair from >= 1 session).
//   cross_session_dedup_hits resolutions that joined a pair already
//                       pending in the coalescer from another submission
//                       instead of shipping it again — the cross-session
//                       amortization the session layer exists for.
//   spans_emitted       causal spans opened (span_begin trace events) over
//                       the run, counted by the observability hub's flight
//                       recorder; 0 on runs without the hub attached.
//   metrics_samples     time-series ticks taken by the hub's metrics
//                       sampler thread (one JSONL line each).
//   flight_dumps        flight-recorder snapshots written to disk, over
//                       every trigger (error status, watchdog stall,
//                       CHECK-failure hook, dump request, exit dump).
//   watchdog_stalls     stall episodes flagged by the hub's watchdog: a
//                       coalescer waiter outlived its linger deadline by
//                       more than the configured factor. Each episode is
//                       counted once and produces one flight dump.
//   kernel_dispatch     configuration gauge, not a counter: the simd::Tier
//                       id (0 scalar, 1 sse2, 2 avx2) of the bound kernels
//                       active when the resolver was constructed or its
//                       stats last reset. Under operator+= it sums like
//                       every field, so only aggregate stats across runs
//                       of one tier (run reports always cover one).
#define METRICPROX_RESOLVER_STATS_FIELDS(X) \
  X(uint64_t, oracle_calls)                 \
  X(uint64_t, decided_by_bounds)            \
  X(uint64_t, decided_by_cache)             \
  X(uint64_t, decided_by_oracle)            \
  X(uint64_t, undecided)                    \
  X(uint64_t, decided_by_slack)             \
  X(uint64_t, budget_exhausted)             \
  X(uint64_t, decided_by_weak)              \
  X(uint64_t, weak_calls)                   \
  X(uint64_t, comparisons)                  \
  X(uint64_t, bound_queries)                \
  X(uint64_t, batch_calls)                  \
  X(uint64_t, batch_resolved_pairs)         \
  X(double, bounder_seconds)                \
  X(double, oracle_seconds)                 \
  X(double, batch_oracle_seconds)           \
  X(double, simulated_oracle_seconds)       \
  X(double, weak_simulated_seconds)         \
  X(uint64_t, oracle_retries)               \
  X(uint64_t, oracle_timeouts)              \
  X(uint64_t, oracle_failures)              \
  X(double, retry_backoff_seconds)          \
  X(uint64_t, store_hits)                   \
  X(uint64_t, store_misses)                 \
  X(uint64_t, store_loaded_edges)           \
  X(uint64_t, wal_appends)                  \
  X(uint64_t, compactions)                  \
  X(uint64_t, certs_emitted)                \
  X(uint64_t, certs_verified)               \
  X(uint64_t, certs_failed)                 \
  X(uint64_t, certs_uncertified)            \
  X(uint64_t, sessions_active)              \
  X(uint64_t, shared_graph_hits)            \
  X(uint64_t, coalesced_batches)            \
  X(uint64_t, cross_session_dedup_hits)     \
  X(uint64_t, spans_emitted)                \
  X(uint64_t, metrics_samples)              \
  X(uint64_t, flight_dumps)                 \
  X(uint64_t, watchdog_stalls)              \
  X(uint64_t, kernel_dispatch)

/// Counters collected by a BoundedResolver while a proximity algorithm
/// runs. See the X-macro above for per-field semantics; `oracle_calls` is
/// the headline metric of the paper and `decided_by_bounds` counts the
/// comparisons resolved without touching the oracle.
struct ResolverStats {
#define METRICPROX_STATS_DECLARE_FIELD(type, name) type name{};
  METRICPROX_RESOLVER_STATS_FIELDS(METRICPROX_STATS_DECLARE_FIELD)
#undef METRICPROX_STATS_DECLARE_FIELD

  void Reset() { *this = ResolverStats(); }

  ResolverStats& operator+=(const ResolverStats& o) {
#define METRICPROX_STATS_ADD_FIELD(type, name) name += o.name;
    METRICPROX_RESOLVER_STATS_FIELDS(METRICPROX_STATS_ADD_FIELD)
#undef METRICPROX_STATS_ADD_FIELD
    return *this;
  }

  /// Single-line `name=value` dump of every field, in declaration order
  /// (for examples and debugging).
  std::string ToString() const;
};

/// Number of ResolverStats fields — one per X-macro entry.
inline constexpr size_t kResolverStatsFieldCount =
#define METRICPROX_STATS_COUNT_FIELD(type, name) +1
    0 METRICPROX_RESOLVER_STATS_FIELDS(METRICPROX_STATS_COUNT_FIELD);
#undef METRICPROX_STATS_COUNT_FIELD

/// Field names in declaration order; the JSON report's `stats` object
/// carries exactly these keys.
std::vector<std::string_view> ResolverStatsFieldNames();

/// Monotonic stopwatch used for the fine-grained stat timers.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  /// Seconds elapsed since construction or the last Restart().
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  void Restart() { start_ = Clock::now(); }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Picks the calls a per-call timer reads the clock on. Two steady_clock
/// reads cost about as much as one cheap bound query, so a hot per-pair
/// site times one call in kStride and counts kStride times the reading,
/// an unbiased estimate of the site's total. The pick is a xorshift32
/// draw, not a counter, so that no fixed call pattern aliases the stride.
class ClockSampler {
 public:
  static constexpr int kStrideBits = 6;
  static constexpr uint32_t kStride = 1u << kStrideBits;

  /// True on about one call in kStride.
  bool Draw() {
    state_ ^= state_ << 13;
    state_ ^= state_ >> 17;
    state_ ^= state_ << 5;
    return (state_ >> (32 - kStrideBits)) == 0;
  }

 private:
  uint32_t state_ = 0x9E3779B9u;
};

/// One call's timing under a ClockSampler: the clock is read only on a
/// drawn call, whose ElapsedSeconds() is kStride times the reading; other
/// calls report 0. With `exact` the call is always timed and reports the
/// plain reading.
class SampledStopwatch {
 public:
  explicit SampledStopwatch(ClockSampler& sampler, bool exact = false)
      : weight_(exact            ? 1.0
                : sampler.Draw() ? double{ClockSampler::kStride}
                                 : 0.0) {
    if (weight_ != 0.0) start_ = Clock::now();
  }

  double ElapsedSeconds() const {
    if (weight_ == 0.0) return 0.0;
    return weight_ *
           std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  double weight_;
  Clock::time_point start_{};
};

}  // namespace metricprox

#endif  // METRICPROX_CORE_STATS_H_
