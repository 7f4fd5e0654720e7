#ifndef METRICPROX_SERVICE_SESSION_H_
#define METRICPROX_SERVICE_SESSION_H_

#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>

#include "bounds/resolver.h"
#include "core/oracle.h"
#include "core/stats.h"
#include "core/status.h"
#include "core/types.h"
#include "graph/partial_graph.h"
#include "service/coalescer.h"
#include "service/shared_cache.h"
#include "store/distance_store.h"

namespace metricprox {

class ObservabilityHub;
class ResolverSession;
class SessionPool;
struct Telemetry;

/// Per-session knobs, fixed at OpenSession().
struct SessionOptions {
  /// Label carried into reports ("tenant-a/knn", "replica-3", ...).
  std::string tag;
  /// Per-resolve deadline: each oracle verb issued by this session must
  /// complete within this many seconds or the affected pairs come back as
  /// kDeadlineExceeded (surfaced through the resolver's RunFallible
  /// machinery). 0 disables the deadline. Only waits — coalescer linger and
  /// backpressure — are interruptible; an in-flight base round-trip is not.
  double deadline_seconds = 0.0;
};

/// Pool-wide configuration, fixed at construction.
struct SessionPoolOptions {
  /// Ship unresolved pairs through a cross-session BatchCoalescer (one
  /// BatchDistance per linger window across all sessions) instead of a
  /// serialized per-session call.
  bool enable_coalescer = false;
  CoalescerOptions coalescer;
  /// Optional durable cache consulted between the shared cache and the base
  /// oracle, and fed every base resolution. Not owned; the pool serializes
  /// access (DistanceStore itself is single-threaded).
  DistanceStore* store = nullptr;
  /// Tenant namespace prepended to every session fingerprint identity, so
  /// two tenants' stores over the same dataset can never validate against
  /// each other (see TenantFingerprint).
  std::string tenant = "default";
  /// Optional live observability hub (see obs/hub.h). Not owned; must
  /// outlive the pool. When set, every opened session gets a
  /// session-tagged Telemetry bundle (causal spans, shared trace clock),
  /// the coalescer's ship spans and stall watchdog wire up, pool gauges
  /// (sessions active, coalescer queue depth, shared-graph hit rate) are
  /// sampled into the hub's MetricsRegistry, and kResourceExhausted /
  /// kDeadlineExceeded resolutions trigger flight-recorder dumps.
  ObservabilityHub* hub = nullptr;
};

/// Monotone counters of one pool (gauges noted explicitly).
struct SessionPoolCounters {
  uint64_t sessions_opened = 0;
  /// Gauge: sessions currently open.
  uint64_t sessions_active = 0;
  /// High-water mark of sessions_active — what AccumulateStats reports as
  /// the run's `sessions_active` stat.
  uint64_t sessions_peak = 0;
  /// Pairs answered from the shared cache (another session already paid).
  uint64_t shared_graph_hits = 0;
  /// Pairs answered from the attached DistanceStore.
  uint64_t store_hits = 0;
  /// Pairs this pool submitted toward the base oracle stack (neither the
  /// shared cache nor the store had them). On the direct path each one is
  /// a base-oracle pair; under coalescing, cross-session dedup may collapse
  /// several submissions into one shipped pair (CoalescerCounters::
  /// pairs_shipped counts what actually went over the wire).
  uint64_t base_pairs_shipped = 0;
};

namespace internal {

/// The per-session oracle facade: what a session's BoundedResolver sees as
/// "the oracle". Routes the resolver's two transport verbs (TryDistance,
/// TryBatchDistance) through SessionPool::ResolvePairs, which answers each
/// pair from the shared cache, then the store, and only then the base
/// oracle stack — so a pair any session has resolved is never paid for
/// twice pool-wide, while the resolver's own accounting (oracle_calls per
/// shipped pair) stays byte-identical to an unshared run.
///
/// Single-threaded like every resolver-facing oracle: one SessionOracle
/// belongs to one session and is driven by that session's thread only. The
/// pool supplies all cross-session synchronization.
class SessionOracle : public DistanceOracle {
 public:
  SessionOracle(SessionPool* pool, double deadline_seconds)
      : pool_(pool), deadline_seconds_(deadline_seconds) {}

  double Distance(ObjectId i, ObjectId j) override;
  void BatchDistance(std::span<const IdPair> pairs,
                     std::span<double> out) override;
  StatusOr<double> TryDistance(ObjectId i, ObjectId j) override;
  Status TryBatchDistance(std::span<const IdPair> pairs, std::span<double> out,
                          std::span<Status> statuses) override;

  ObjectId num_objects() const override;
  std::string_view name() const override { return "session"; }
  void set_batch_workers(unsigned workers) override;
  unsigned batch_workers() const override;

  /// Pairs this session was handed from the shared cache (each one still
  /// counted in the resolver's oracle_calls, exactly like a store hit in a
  /// warm single-session run). Schedule-dependent under concurrency.
  uint64_t shared_hits() const { return shared_hits_; }

  /// Session-tagged bundle the pool's resolution funnel attributes spans
  /// and metrics to; set by OpenSession when the pool carries a hub.
  void SetTelemetry(Telemetry* telemetry) { telemetry_ = telemetry; }
  Telemetry* telemetry() const { return telemetry_; }

 private:
  BatchCoalescer::Deadline MakeDeadline() const;

  SessionPool* pool_;  // not owned
  double deadline_seconds_;
  uint64_t shared_hits_ = 0;
  Telemetry* telemetry_ = nullptr;  // not owned
};

}  // namespace internal

/// One tenant-facing resolution session: a private single-threaded
/// PartialDistanceGraph + BoundedResolver pair (so bound decisions and
/// per-session counters are deterministic, independent of sibling-session
/// scheduling) whose oracle is the pool's shared data plane. Obtained from
/// SessionPool::OpenSession; closing (destroying) it unregisters from the
/// pool. Drive each session from one thread; different sessions may run
/// concurrently.
class ResolverSession {
 public:
  ~ResolverSession();

  ResolverSession(const ResolverSession&) = delete;
  ResolverSession& operator=(const ResolverSession&) = delete;

  /// The session's resolver: hand this to any proximity algorithm exactly
  /// as in single-session code. Policies, telemetry, batch transport and
  /// custom bounders attach here per session.
  BoundedResolver& resolver() { return resolver_; }

  /// The session-private resolved-distance cache the resolver reads.
  PartialDistanceGraph& graph() { return graph_; }

  /// Attaches a session-owned TriBounder over the private graph (the
  /// recommended scheme; rho per bounds/tri.h).
  void UseTriBounds(double rho = 1.0);

  const std::string& tag() const { return options_.tag; }

  /// Pool-unique session number (1-based open order); 0 only before the
  /// pool assigns it. Tags this session's spans and metrics cells.
  uint64_t session_id() const { return session_id_; }

  /// Session-tagged telemetry bundle, or nullptr without a hub.
  Telemetry* telemetry() const { return oracle_.telemetry(); }

  /// This session's resolver counters with the session-layer fields filled
  /// in (shared_graph_hits; the pool-level fields are merged by
  /// SessionPool::AccumulateStats instead).
  ResolverStats Stats() const;

  uint64_t shared_graph_hits() const { return oracle_.shared_hits(); }

  /// Store fingerprint for this session's tenant namespace: identical
  /// identity strings from different tenants yield different fingerprints.
  StoreFingerprint Fingerprint(std::string_view identity) const;

 private:
  friend class SessionPool;
  ResolverSession(SessionPool* pool, SessionOptions options);

  SessionPool* pool_;  // not owned
  SessionOptions options_;
  uint64_t session_id_ = 0;
  PartialDistanceGraph graph_;
  internal::SessionOracle oracle_;
  BoundedResolver resolver_;
  std::unique_ptr<Bounder> bounder_;
};

/// Owner of the shared resolution plane: the striped SharedDistanceCache
/// every session publishes to, the (optional) DistanceStore, the (optional)
/// cross-session BatchCoalescer, and the base oracle stack. Sessions opened
/// here resolve concurrently; a pair any one of them pays for becomes a
/// shared-cache hit for all later askers.
///
/// Resolution order per pair: shared cache -> store -> base oracle stack
/// (coalesced across sessions when enabled, else serialized). Every base
/// resolution is published back to the shared cache and the store.
///
/// Thread safety: OpenSession / ResolvePairs / counters / AccumulateStats
/// are safe from any thread. The base oracle's verbs are only ever invoked
/// from one thread at a time (the pool's serialization mutex or the
/// coalescer's flusher), so existing single-threaded middleware stacks —
/// CountingOracle, FaultInjectingOracle, RetryingOracle — work unmodified.
class SessionPool {
 public:
  explicit SessionPool(DistanceOracle* base,
                       const SessionPoolOptions& options = {});
  /// Unhooks the pool's probes from the hub (when one was attached).
  ~SessionPool();

  SessionPool(const SessionPool&) = delete;
  SessionPool& operator=(const SessionPool&) = delete;

  /// Opens a session. The handle may outlive neither the pool nor the base
  /// oracle stack; destroy it to unregister.
  std::unique_ptr<ResolverSession> OpenSession(SessionOptions options = {});

  ObjectId num_objects() const { return base_->num_objects(); }
  DistanceOracle& base_oracle() { return *base_; }
  /// Null unless enable_coalescer was set.
  BatchCoalescer* coalescer() { return coalescer_.get(); }

  SessionPoolCounters counters() const;

  /// Tenant-namespaced fingerprint: MakeStoreFingerprint over
  /// "tenant=<tenant>;<identity>", so the existing store-validation
  /// machinery keeps tenants' caches from cross-contaminating.
  StoreFingerprint TenantFingerprint(std::string_view identity) const;

  /// Merges the pool-level session stats into `total` for the run report:
  /// sessions_active (the peak gauge), coalesced_batches and
  /// cross_session_dedup_hits. Per-session fields (including
  /// shared_graph_hits) travel with each session's Stats() instead, so
  /// summing session stats and then calling this once yields a report that
  /// validate_telemetry.py accepts.
  void AccumulateStats(ResolverStats* total) const;

 private:
  friend class internal::SessionOracle;
  friend class ResolverSession;

  /// The shared resolution funnel (see class comment for the sweep order).
  /// `pairs` must satisfy the DistanceOracle batch contract (deduplicated,
  /// in range); i == j yields 0. OK entries are published to the shared
  /// cache and the store. `shared_hits`, when non-null, is incremented by
  /// the number of pairs answered from the shared cache. `telemetry`
  /// (session-tagged, may be null) attributes the sweep's spans, metrics
  /// and coalescer submission to the asking session. Returns the first
  /// non-OK per-pair status, or OK.
  Status ResolvePairs(std::span<const IdPair> pairs, std::span<double> out,
                      std::span<Status> statuses,
                      BatchCoalescer::Deadline deadline,
                      uint64_t* shared_hits, Telemetry* telemetry);

  void CloseSession();

  DistanceOracle* base_;  // not owned
  SessionPoolOptions options_;
  SharedDistanceCache cache_;
  std::unique_ptr<BatchCoalescer> coalescer_;

  /// Serializes direct (non-coalesced) base-oracle round-trips.
  std::mutex base_mu_;
  /// Guards the store (single-threaded by contract) and counters_.
  mutable std::mutex mu_;
  SessionPoolCounters counters_;
};

}  // namespace metricprox

#endif  // METRICPROX_SERVICE_SESSION_H_
