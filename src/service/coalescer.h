#ifndef METRICPROX_SERVICE_COALESCER_H_
#define METRICPROX_SERVICE_COALESCER_H_

#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/oracle.h"
#include "core/status.h"
#include "core/types.h"

namespace metricprox {

struct Telemetry;

struct CoalescerOptions {
  /// Linger window: after the first pair of a batch arrives, the flusher
  /// waits up to this long for more pairs before shipping. This is the
  /// paper's amortization argument applied ACROSS sessions — a short wait
  /// lets pending resolutions from concurrent sessions ride one
  /// BatchDistance round-trip.
  double linger_seconds = 0.0005;
  /// Ship as soon as this many distinct pairs are pending, even inside the
  /// linger window (bounds per-round-trip size and tail latency).
  size_t max_batch_pairs = 256;
  /// Backpressure: a submitter whose fresh pair would push the pending set
  /// past this cap blocks (deadline-aware) until the flusher drains.
  size_t max_pending_pairs = 4096;
  /// With true, no flusher thread is started: nothing ships until
  /// FlushNow() is called. Gives tests deterministic control over the
  /// window (submit from N threads, then flush exactly once).
  bool manual_flush = false;
};

/// Counters of one coalescer (monotone over its lifetime).
struct CoalescerCounters {
  /// BatchDistance round-trips shipped to the base oracle.
  uint64_t batches_shipped = 0;
  /// Distinct pairs shipped across those batches.
  uint64_t pairs_shipped = 0;
  /// Resolutions that joined a pair already pending from another submission
  /// instead of shipping it again (the cross-session dedup win).
  uint64_t dedup_hits = 0;
  /// Per-pair waits that gave up at their deadline (the pair still ships;
  /// only the expired waiter sees kDeadlineExceeded).
  uint64_t deadline_expirations = 0;
};

/// Cross-session batch coalescer: concurrent sessions submit unresolved
/// (i, j) pairs, symmetric duplicates are deduplicated ACROSS sessions
/// against the pending set, and the flusher ships the union as one
/// BatchDistance call per linger window, fanning each result back to every
/// waiter.
///
/// Threading contract: Resolve() is safe from any number of threads; the
/// base oracle's verbs are only ever invoked from one thread at a time (the
/// flusher thread, or the FlushNow() caller in manual mode), so
/// single-threaded middleware — FaultInjectingOracle bookkeeping,
/// RetryingOracle backoff state — works unmodified underneath. Failures
/// surface per pair through the existing Status machinery: a waiter sees
/// exactly the per-pair Status of the round-trip that resolved its pair.
///
/// The coalescer is not a cache: once a pair's result has been fanned out,
/// the pair leaves the pending set, and a later submission ships it again.
/// Cross-run memoization belongs to the shared cache / DistanceStore layers
/// above (see service/session.h).
class BatchCoalescer {
 public:
  using Deadline = std::optional<std::chrono::steady_clock::time_point>;

  BatchCoalescer(DistanceOracle* base, const CoalescerOptions& options = {});

  /// Drains and ships every still-pending pair (so no waiter is left
  /// hanging), joins the flusher, and blocks until every in-flight
  /// Resolve() has returned — destruction is safe while waiters are still
  /// being released.
  ~BatchCoalescer();

  BatchCoalescer(const BatchCoalescer&) = delete;
  BatchCoalescer& operator=(const BatchCoalescer&) = delete;

  /// Resolves every pair: out[k] is meaningful iff statuses[k].ok().
  /// Blocks until each pair's batch returns or `deadline` passes; at the
  /// deadline the unfinished pairs get kDeadlineExceeded — for this caller
  /// only. A pair equal (as an unordered EdgeKey) to one already pending
  /// joins it instead of shipping twice; i == j yields 0 without shipping.
  /// Returns the first non-OK per-pair status, or OK.
  ///
  /// `waiter_telemetry` (optional, session-tagged) attributes the trip:
  /// the submission emits a coalesce_submit span whose count is the
  /// fresh-enqueued + cross-session-joined pairs (so summed over every
  /// submitter it reconciles with pairs_shipped + dedup_hits), each join
  /// emits a coalesce_dedup event, the wait emits an oracle_rtt span
  /// linked to the batch_ship span that carried this caller's pairs, and
  /// middleware events during that ship are mirrored to this bundle.
  Status Resolve(std::span<const IdPair> pairs, std::span<double> out,
                 std::span<Status> statuses, Deadline deadline = {},
                 Telemetry* waiter_telemetry = nullptr);

  /// Ships every currently-pending pair now (all of it, looping batches of
  /// max_batch_pairs). The manual-flush driver; also usable alongside the
  /// flusher thread to force an early flush. Returns pairs shipped.
  size_t FlushNow();

  /// Pairs currently pending (enqueued or in flight).
  size_t PendingPairs() const;

  /// How long the oldest still-pending pair has been waiting, in seconds
  /// (0 when idle). The observability hub's stall watchdog polls this.
  double OldestPendingSeconds() const;

  /// Attaches the pool-level telemetry bundle used for the flusher-side
  /// batch_ship spans. Call before the first Resolve; not owned.
  void SetTelemetry(Telemetry* telemetry) { telemetry_ = telemetry; }

  CoalescerCounters counters() const;

 private:
  /// One pending pair: shared by every waiter that joined it. Everything
  /// below is guarded by mu_.
  struct Pending {
    double result = 0.0;
    Status status;
    bool done = false;
    /// When the pair entered the pending set (watchdog's stall signal).
    std::chrono::steady_clock::time_point enqueued_at;
    /// batch_ship span that carried (or is carrying) this pair; 0 until
    /// a batch takes it, and forever 0 when the pool is untraced.
    uint64_t ship_span_id = 0;
    /// Session bundles waiting on this pair — the ship's fan-out targets.
    std::vector<Telemetry*> waiters;
  };
  using Entry = std::shared_ptr<Pending>;

  void FlusherLoop();

  /// Ships up to max_batch_pairs queued pairs through the base oracle
  /// (dropping mu_ around the call), marks the entries done and notifies.
  /// Requires mu_ held; returns the number of pairs shipped.
  size_t ShipOneBatch(std::unique_lock<std::mutex>& lock);

  DistanceOracle* base_;  // not owned
  CoalescerOptions options_;
  Telemetry* telemetry_ = nullptr;  // not owned; flusher-side spans

  /// Serializes the base-oracle round-trip itself (taken without mu_ held):
  /// FlushNow racing the flusher drains disjoint queue slices, but the base
  /// oracle must still see one call at a time.
  std::mutex ship_mu_;
  mutable std::mutex mu_;
  std::condition_variable work_cv_;   // flusher: pairs queued or stopping
  std::condition_variable done_cv_;   // waiters: some batch completed
  std::condition_variable space_cv_;  // submitters: pending set drained
  std::condition_variable idle_cv_;   // destructor: all Resolves returned
  std::unordered_map<EdgeKey, Entry, EdgeKeyHash> pending_;
  std::vector<EdgeKey> queue_;  // pending pairs not yet taken by a batch
  CoalescerCounters counters_;
  size_t active_resolves_ = 0;
  bool stop_ = false;
  std::thread flusher_;
};

}  // namespace metricprox

#endif  // METRICPROX_SERVICE_COALESCER_H_
