#include "service/session.h"

#include <algorithm>
#include <chrono>
#include <utility>
#include <vector>

#include "bounds/tri.h"
#include "core/logging.h"
#include "obs/hub.h"
#include "obs/span.h"
#include "obs/telemetry.h"

namespace metricprox {

namespace internal {

BatchCoalescer::Deadline SessionOracle::MakeDeadline() const {
  if (deadline_seconds_ <= 0.0) return {};
  return std::chrono::steady_clock::now() +
         std::chrono::duration_cast<std::chrono::steady_clock::duration>(
             std::chrono::duration<double>(deadline_seconds_));
}

StatusOr<double> SessionOracle::TryDistance(ObjectId i, ObjectId j) {
  const IdPair pair{i, j};
  double out = 0.0;
  Status status;
  const Status first =
      pool_->ResolvePairs(std::span<const IdPair>(&pair, 1),
                          std::span<double>(&out, 1),
                          std::span<Status>(&status, 1), MakeDeadline(),
                          &shared_hits_, telemetry_);
  if (!first.ok()) return first;
  return out;
}

Status SessionOracle::TryBatchDistance(std::span<const IdPair> pairs,
                                       std::span<double> out,
                                       std::span<Status> statuses) {
  return pool_->ResolvePairs(pairs, out, statuses, MakeDeadline(),
                             &shared_hits_, telemetry_);
}

double SessionOracle::Distance(ObjectId i, ObjectId j) {
  StatusOr<double> resolved = TryDistance(i, j);
  CHECK(resolved.ok()) << "session resolution failed outside a fallible "
                          "scope: "
                       << resolved.status().message();
  return resolved.value();
}

void SessionOracle::BatchDistance(std::span<const IdPair> pairs,
                                  std::span<double> out) {
  std::vector<Status> statuses(pairs.size());
  const Status status = TryBatchDistance(pairs, out, statuses);
  CHECK(status.ok()) << "session batch resolution failed outside a "
                        "fallible scope: "
                     << status.message();
}

ObjectId SessionOracle::num_objects() const { return pool_->num_objects(); }

void SessionOracle::set_batch_workers(unsigned workers) {
  pool_->base_oracle().set_batch_workers(workers);
}

unsigned SessionOracle::batch_workers() const {
  return pool_->base_oracle().batch_workers();
}

}  // namespace internal

ResolverSession::ResolverSession(SessionPool* pool, SessionOptions options)
    : pool_(pool),
      options_(std::move(options)),
      graph_(pool->num_objects()),
      oracle_(pool, options_.deadline_seconds),
      resolver_(&oracle_, &graph_) {}

ResolverSession::~ResolverSession() { pool_->CloseSession(); }

void ResolverSession::UseTriBounds(double rho) {
  bounder_ = std::make_unique<TriBounder>(&graph_, rho);
  resolver_.SetBounder(bounder_.get());
}

ResolverStats ResolverSession::Stats() const {
  ResolverStats stats = resolver_.stats();
  stats.shared_graph_hits += oracle_.shared_hits();
  return stats;
}

StoreFingerprint ResolverSession::Fingerprint(std::string_view identity) const {
  return pool_->TenantFingerprint(identity);
}

SessionPool::SessionPool(DistanceOracle* base,
                         const SessionPoolOptions& options)
    : base_(base),
      options_(options),
      cache_(base->num_objects()) {
  CHECK(base != nullptr);
  if (options_.store != nullptr) {
    CHECK_EQ(options_.store->fingerprint().num_objects, base->num_objects())
        << "attached store was fingerprinted for a different universe";
  }
  if (options_.enable_coalescer) {
    coalescer_ = std::make_unique<BatchCoalescer>(base, options_.coalescer);
  }
  if (options_.hub != nullptr) {
    ObservabilityHub* hub = options_.hub;
    if (coalescer_ != nullptr) {
      coalescer_->SetTelemetry(hub->pool_telemetry());
      hub->SetStallProbe(options_.coalescer.linger_seconds,
                         [c = coalescer_.get()] {
                           return c->OldestPendingSeconds();
                         });
      hub->AddGaugeProbe(this, options_.tenant, 0, "coalescer_queue_depth",
                         [c = coalescer_.get()] {
                           return static_cast<double>(c->PendingPairs());
                         });
    }
    hub->AddGaugeProbe(this, options_.tenant, 0, "sessions_active", [this] {
      return static_cast<double>(counters().sessions_active);
    });
    hub->AddGaugeProbe(this, options_.tenant, 0, "shared_graph_hit_rate",
                       [this] {
                         const SessionPoolCounters c = counters();
                         const uint64_t asked = c.shared_graph_hits +
                                                c.store_hits +
                                                c.base_pairs_shipped;
                         if (asked == 0) return 0.0;
                         return static_cast<double>(c.shared_graph_hits) /
                                static_cast<double>(asked);
                       });
  }
}

SessionPool::~SessionPool() {
  if (options_.hub != nullptr) {
    options_.hub->RemoveGaugeProbes(this);
    if (coalescer_ != nullptr) options_.hub->ClearStallProbe();
  }
}

std::unique_ptr<ResolverSession> SessionPool::OpenSession(
    SessionOptions options) {
  uint64_t session_id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++counters_.sessions_opened;
    ++counters_.sessions_active;
    counters_.sessions_peak =
        std::max(counters_.sessions_peak, counters_.sessions_active);
    session_id = counters_.sessions_opened;
  }
  auto session = std::unique_ptr<ResolverSession>(
      new ResolverSession(this, std::move(options)));
  session->session_id_ = session_id;
  if (options_.hub != nullptr) {
    Telemetry* telemetry =
        options_.hub->SessionTelemetry(session_id, options_.tenant);
    session->oracle_.SetTelemetry(telemetry);
    session->resolver_.SetTelemetry(telemetry);
  }
  return session;
}

void SessionPool::CloseSession() {
  std::lock_guard<std::mutex> lock(mu_);
  CHECK_GT(counters_.sessions_active, 0u);
  --counters_.sessions_active;
}

SessionPoolCounters SessionPool::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

StoreFingerprint SessionPool::TenantFingerprint(
    std::string_view identity) const {
  std::string namespaced = "tenant=" + options_.tenant + ";";
  namespaced.append(identity);
  return MakeStoreFingerprint(namespaced, num_objects());
}

void SessionPool::AccumulateStats(ResolverStats* total) const {
  CHECK(total != nullptr);
  std::lock_guard<std::mutex> lock(mu_);
  total->sessions_active += counters_.sessions_peak;
  if (coalescer_ != nullptr) {
    const CoalescerCounters c = coalescer_->counters();
    total->coalesced_batches += c.batches_shipped;
    total->cross_session_dedup_hits += c.dedup_hits;
  }
}

Status SessionPool::ResolvePairs(std::span<const IdPair> pairs,
                                 std::span<double> out,
                                 std::span<Status> statuses,
                                 BatchCoalescer::Deadline deadline,
                                 uint64_t* shared_hits,
                                 Telemetry* telemetry) {
  CHECK_EQ(pairs.size(), out.size());
  CHECK_EQ(pairs.size(), statuses.size());

  // Sweep 1: the shared cache — lock-striped point lookups, no
  // serialization with other sessions beyond one stripe mutex each.
  std::vector<size_t> miss;
  uint64_t cache_hits = 0;
  for (size_t k = 0; k < pairs.size(); ++k) {
    statuses[k] = Status::OK();
    if (pairs[k].i == pairs[k].j) {
      out[k] = 0.0;
      continue;
    }
    if (const std::optional<double> d = cache_.Get(pairs[k].i, pairs[k].j)) {
      out[k] = *d;
      ++cache_hits;
      continue;
    }
    miss.push_back(k);
  }

  // Sweep 2: the durable store (serialized — DistanceStore is
  // single-threaded by contract). Store hits are published to the shared
  // cache so the next asker stops at sweep 1.
  uint64_t store_hits = 0;
  if (options_.store != nullptr && !miss.empty()) {
    std::vector<size_t> still_missing;
    still_missing.reserve(miss.size());
    std::lock_guard<std::mutex> lock(mu_);
    for (const size_t k : miss) {
      const std::optional<double> d =
          options_.store->Lookup(pairs[k].i, pairs[k].j);
      if (!d.has_value()) {
        still_missing.push_back(k);
        continue;
      }
      out[k] = *d;
      ++store_hits;
      cache_.Insert(pairs[k].i, pairs[k].j, *d);
    }
    miss = std::move(still_missing);
  }

  // Sweep 3: the base oracle stack — one coalesced cross-session batch, or
  // a serialized direct round-trip.
  const size_t shipped = miss.size();
  if (!miss.empty()) {
    std::vector<IdPair> ship;
    ship.reserve(miss.size());
    for (const size_t k : miss) ship.push_back(pairs[k]);
    std::vector<double> results(miss.size(), 0.0);
    std::vector<Status> ship_statuses(miss.size(), Status::OK());
    if (coalescer_ != nullptr) {
      coalescer_->Resolve(ship, results, ship_statuses, deadline, telemetry);
    } else {
      // The direct path's round-trip span, mirroring the coalesced path's
      // oracle_rtt so per-session attribution does not depend on which
      // transport the pool uses.
      ScopedSpan rtt_span(telemetry, "oracle_rtt", ship.size());
      std::lock_guard<std::mutex> lock(base_mu_);
      base_->TryBatchDistance(ship, results, ship_statuses);
    }
    for (size_t k = 0; k < miss.size(); ++k) {
      statuses[miss[k]] = ship_statuses[k];
      if (!ship_statuses[k].ok()) continue;
      out[miss[k]] = results[k];
      // A racing session may have published the same pair meanwhile;
      // Insert returning false (exact duplicate) is the expected benign
      // outcome of that race.
      cache_.Insert(ship[k].i, ship[k].j, results[k]);
    }
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    counters_.shared_graph_hits += cache_hits;
    counters_.store_hits += store_hits;
    counters_.base_pairs_shipped += shipped;
    if (options_.store != nullptr && !options_.store->read_only()) {
      for (const size_t k : miss) {
        if (!statuses[k].ok()) continue;
        const Status recorded =
            options_.store->Record(pairs[k].i, pairs[k].j, out[k]);
        CHECK(recorded.ok()) << "store append failed: " << recorded.message();
      }
    }
  }
  if (shared_hits != nullptr) *shared_hits += cache_hits;

  if (options_.hub != nullptr && telemetry != nullptr) {
    MetricsRegistry& metrics = options_.hub->metrics();
    const std::string& tenant = options_.tenant;
    const uint64_t session = telemetry->session_id;
    if (cache_hits > 0) {
      metrics.CounterAdd(tenant, session, "shared_graph_hits", cache_hits);
    }
    if (store_hits > 0) {
      metrics.CounterAdd(tenant, session, "store_hits", store_hits);
    }
    if (shipped > 0) {
      metrics.CounterAdd(tenant, session, "base_pairs_shipped", shipped);
    }
  }

  Status first;
  for (const Status& status : statuses) {
    if (!status.ok()) {
      first = status;
      break;
    }
  }
  if (!first.ok() && options_.hub != nullptr &&
      (first.code() == StatusCode::kResourceExhausted ||
       first.code() == StatusCode::kDeadlineExceeded)) {
    // The pool is in trouble (budget gone or waiters timing out): freeze
    // the black box now, while the evidence is still in the ring.
    (void)options_.hub->DumpFlight(StatusCodeToString(first.code()));
  }
  return first;
}

}  // namespace metricprox
