#include "bounds/resolver.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <unordered_set>
#include <utility>

#include "bounds/weak.h"
#include "core/logging.h"
#include "core/simd.h"
#include "obs/span.h"

namespace metricprox {

BoundedResolver::BoundedResolver(DistanceOracle* oracle,
                                 PartialDistanceGraph* graph)
    : oracle_(oracle), graph_(graph), bounder_(&null_bounder_) {
  CHECK(oracle != nullptr);
  CHECK(graph != nullptr);
  CHECK_EQ(oracle->num_objects(), graph->num_objects());
  StampKernelDispatch();
}

void BoundedResolver::StampKernelDispatch() {
  stats_.kernel_dispatch = static_cast<uint64_t>(simd::ActiveTier());
}

void BoundedResolver::SetBounder(Bounder* bounder) {
  bounder_ = bounder != nullptr ? bounder : &null_bounder_;
}

void BoundedResolver::SetPolicy(const ResolutionPolicy& policy) {
  CHECK(std::isfinite(policy.eps)) << "eps must be finite";
  CHECK_GE(policy.eps, 0.0) << "eps must be non-negative";
  CHECK_LT(policy.eps, 1.0) << "eps must be below 1";
  policy_ = policy;
  budget_spent_ = 0;
}

Interval BoundedResolver::SlackBounds(ObjectId i, ObjectId j) {
  ++stats_.bound_queries;
  SampledStopwatch watch(clock_sampler_);
  const Interval bounds = bounder_->Bounds(i, j);
  stats_.bounder_seconds += watch.ElapsedSeconds();
  return bounds;
}

void BoundedResolver::RecordSlack(ObjectId i, ObjectId j, double threshold,
                                  double gap, bool forced) {
  ++stats_.decided_by_slack;
  if (forced) ++stats_.budget_exhausted;
  if (telemetry_ != nullptr) telemetry_->slack_realized_error.Record(gap);
  Trace(TraceEventKind::kDecidedBySlack, i, j, threshold);
}

bool BoundedResolver::DecideBySlack(ObjectId i, ObjectId j, double t,
                                    const Interval& b, double gap,
                                    bool forced) {
  RecordSlack(i, j, t, gap, forced);
  const bool outcome = SlackMidpoint(b) < t;
  SampledStopwatch watch(clock_sampler_);
  bounder_->ObserveSlackLessThan(i, j, t, b, policy_.eps, outcome);
  stats_.bounder_seconds += watch.ElapsedSeconds();
  return outcome;
}

Interval BoundedResolver::WeakQuery(ObjectId i, ObjectId j) {
  ++stats_.weak_calls;
  const Interval w = weak_->Bounds(i, j);
  if (telemetry_ != nullptr) {
    telemetry_->weak_interval_width.Record(SlackRelativeGap(w));
  }
  return w;
}

Interval BoundedResolver::WeakIntersect(ObjectId i, ObjectId j,
                                        const Interval& b) {
  const Interval w = WeakQuery(i, j);
  if (w.lo > b.hi + BoundDecisionMargin(b.hi) ||
      b.lo > w.hi + BoundDecisionMargin(w.hi)) {
    // The scheme's interval is certified, so a weak interval that misses it
    // entirely proves the weak oracle broke its advertised error model.
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "weak interval [%.17g, %.17g] for pair (%u, %u) is disjoint "
                  "from the scheme's certified interval [%.17g, %.17g]",
                  w.lo, w.hi, i, j, b.lo, b.hi);
    FailWeakModel(buf);
  }
  double lo = std::max(w.lo, b.lo);
  double hi = std::min(w.hi, b.hi);
  if (lo > hi) lo = hi;  // sub-margin fp disagreement; clamp like Hybrid
  return Interval(lo, hi);
}

std::optional<bool> BoundedResolver::DecideByWeak(ObjectId i, ObjectId j,
                                                  Relation rel, double t,
                                                  const Interval& eff) {
  const double margin = BoundDecisionMargin(t);
  std::optional<bool> outcome;
  if (rel == Relation::kLess) {
    if (eff.hi < t - margin) {
      outcome = true;
    } else if (eff.lo >= t + margin) {
      outcome = false;
    }
  } else if (rel == Relation::kGreater ? eff.lo > t + margin
                                       : eff.lo >= t + margin) {
    outcome = true;
  }
  if (!outcome.has_value()) return std::nullopt;
  ++stats_.decided_by_weak;
  Trace(TraceEventKind::kDecidedByWeak, i, j, t);
  SampledStopwatch watch(clock_sampler_);
  if (rel == Relation::kGreater) {
    bounder_->ObserveWeakGreaterThan(i, j, t, weak_->ModelFor(i, j),
                                     /*outcome=*/true);
  } else {
    // A >= t proof travels the LessThan channel with outcome=false
    // (`dist(i, j) < t` provably false).
    bounder_->ObserveWeakLessThan(i, j, t, weak_->ModelFor(i, j),
                                  rel == Relation::kLess && *outcome);
  }
  stats_.bounder_seconds += watch.ElapsedSeconds();
  return outcome;
}

void BoundedResolver::NotifyWeakResolved(ObjectId i, ObjectId j, double d) {
  if (weak_ == nullptr) return;
  weak_->OnEdgeResolved(i, j, d);
  if (weak_->violated()) FailWeakModel(weak_->violation_detail());
}

void BoundedResolver::Fail(Status status, const char* what) {
  oracle_status_ = status;
  if (fallible_depth_ > 0) {
    throw internal::OracleTransportError{std::move(status)};
  }
  CHECK(false) << what << " outside RunFallible: " << oracle_status_;
  std::abort();  // unreachable; keeps [[noreturn]] honest for the compiler
}

void BoundedResolver::FailWeakModel(const std::string& detail) {
  Fail(Status::FailedPrecondition(
           "weak oracle violated its advertised error model: " + detail),
       "weak-oracle model violation");
}

void BoundedResolver::FailBudget(uint64_t requested) {
  Fail(Status::ResourceExhausted(
           "oracle budget exhausted: " + std::to_string(budget_spent_) + "/" +
           std::to_string(policy_.oracle_budget) + " calls spent, " +
           std::to_string(requested) + " more needed with no slack fallback"),
       "oracle budget exhausted");
}

void BoundedResolver::FailTransport(Status status, uint64_t failed_pairs) {
  stats_.oracle_failures += failed_pairs;
  Fail(std::move(status), "oracle transport failed");
}

StatusOr<double> BoundedResolver::RunFallible(
    const std::function<double(BoundedResolver*)>& body) {
  CHECK(body != nullptr);
  oracle_status_ = Status::OK();
  ++fallible_depth_;
  try {
    const double value = body(this);
    --fallible_depth_;
    return value;
  } catch (const internal::OracleTransportError& error) {
    --fallible_depth_;
    return error.status;
  }
}

double BoundedResolver::Distance(ObjectId i, ObjectId j) {
  CHECK_LT(i, graph_->num_objects());
  CHECK_LT(j, graph_->num_objects());
  if (i == j) return 0.0;
  if (const std::optional<double> cached = graph_->Get(i, j)) {
    return *cached;
  }
  if (BudgetActive() && BudgetRemaining() == 0) FailBudget(1);
  // With telemetry attached every call is timed: the latency histogram and
  // the oracle_call event need each value.
  SampledStopwatch oracle_watch(clock_sampler_,
                                /*exact=*/telemetry_ != nullptr);
  StatusOr<double> resolved = oracle_->TryDistance(i, j);
  const double oracle_elapsed = oracle_watch.ElapsedSeconds();
  stats_.oracle_seconds += oracle_elapsed;
  if (!resolved.ok()) FailTransport(resolved.status(), /*failed_pairs=*/1);
  const double d = resolved.value();
  ++stats_.oracle_calls;
  ++budget_spent_;
  if (telemetry_ != nullptr) {
    telemetry_->oracle_latency_seconds.Record(oracle_elapsed);
    TraceEvent event;
    event.kind = TraceEventKind::kOracleCall;
    event.i = i;
    event.j = j;
    event.value = d;
    event.seconds = oracle_elapsed;
    telemetry_->Emit(event);
  }

  graph_->Insert(i, j, d);
  SampledStopwatch bounder_watch(clock_sampler_);
  bounder_->OnEdgeResolved(i, j, d);
  stats_.bounder_seconds += bounder_watch.ElapsedSeconds();
  // Every paid resolution doubles as a free ground-truth check of the weak
  // oracle's advertised interval for this pair.
  NotifyWeakResolved(i, j, d);
  return d;
}

Interval BoundedResolver::Bounds(ObjectId i, ObjectId j) {
  if (i == j) return Interval::Exact(0.0);
  if (const std::optional<double> cached = graph_->Get(i, j)) {
    return Interval::Exact(*cached);
  }
  ++stats_.bound_queries;
  SampledStopwatch watch(clock_sampler_);
  const Interval bounds = bounder_->Bounds(i, j);
  stats_.bounder_seconds += watch.ElapsedSeconds();
  return bounds;
}

void BoundedResolver::BoundsFrom(ObjectId q, std::span<const ObjectId> targets,
                                 std::span<Interval> row) {
  const ObjectId n = graph_->num_objects();
  CHECK_LT(q, n);
  CHECK_EQ(row.size(), n);
  if (row_targets_.size() < targets.size()) {
    row_targets_.resize(targets.size());
  }
  ObjectId* const listed = row_targets_.data();
  size_t unresolved = 0;
  // Cached pairs: a merge with q's id-sorted column while the targets
  // ascend, one lookup per target from the first descent on. q's column
  // never holds q.
  const PartialDistanceGraph::AdjacencyColumns column =
      graph_->AdjacencyView(q);
  const std::span<const ObjectId> ids = column.ids;
  size_t c = 0;
  size_t k = 0;
  for (ObjectId previous = 0; k < targets.size(); ++k) {
    const ObjectId v = targets[k];
    CHECK_LT(v, n);
    if (v < previous) break;
    previous = v;
    while (c < ids.size() && ids[c] < v) ++c;
    if (c < ids.size() && ids[c] == v) {
      row[v] = Interval::Exact(column.distances[c]);
    } else if (v == q) {
      row[v] = Interval::Exact(0.0);
    } else {
      listed[unresolved++] = v;
    }
  }
  for (; k < targets.size(); ++k) {
    const ObjectId v = targets[k];
    CHECK_LT(v, n);
    if (v == q) {
      row[v] = Interval::Exact(0.0);
    } else if (const std::optional<double> cached = graph_->Get(q, v)) {
      row[v] = Interval::Exact(*cached);
    } else {
      listed[unresolved++] = v;
    }
  }
  if (unresolved == 0) return;
  stats_.bound_queries += unresolved;
  Stopwatch watch;
  bounder_->BoundsFrom(q, std::span(listed, unresolved), row);
  stats_.bounder_seconds += watch.ElapsedSeconds();
}

std::optional<bool> BoundedResolver::DecideKnown(ObjectId i, ObjectId j,
                                                 Relation rel, double t) {
  CHECK_LT(i, graph_->num_objects());
  CHECK_LT(j, graph_->num_objects());
  ++stats_.comparisons;
  Trace(TraceEventKind::kComparison, i, j, t);
  if (t == kInfDistance) {
    // Any finite metric distance is below +inf; deciding here keeps an
    // infinite right-hand side out of scheme internals (notably DFT's LP).
    // Applied uniformly across schemes so call accounting stays comparable.
    ++stats_.decided_by_bounds;
    Trace(TraceEventKind::kDecidedByBounds, i, j, t);
    return rel == Relation::kLess;
  }
  const std::optional<double> d =
      i == j ? std::optional<double>(0.0) : graph_->Get(i, j);
  if (!d.has_value()) return std::nullopt;
  ++stats_.decided_by_cache;
  Trace(TraceEventKind::kDecidedByCache, i, j, t);
  switch (rel) {
    case Relation::kLess:
      return *d < t;
    case Relation::kGreater:
      return *d > t;
    case Relation::kGreaterOrEqual:
      return *d >= t;
  }
  return std::nullopt;
}

std::optional<bool> BoundedResolver::DecideByScheme(ObjectId i, ObjectId j,
                                                    Relation rel, double t) {
  ++stats_.bound_queries;
  SampledStopwatch watch(clock_sampler_);
  std::optional<bool> decided = rel == Relation::kGreater
                                    ? bounder_->DecideGreaterThan(i, j, t)
                                    : bounder_->DecideLessThan(i, j, t);
  stats_.bounder_seconds += watch.ElapsedSeconds();
  if (rel == Relation::kGreaterOrEqual && decided.has_value()) {
    decided = !*decided;  // dist(i, j) >= t is the negation of < t
  }
  return decided;
}

std::optional<bool> BoundedResolver::DecideUnknown(
    ObjectId i, ObjectId j, Relation rel, double t,
    std::optional<bool> by_scheme, Interval* b, Interval* eff) {
  if (by_scheme.has_value()) {
    // A proof verb's disproof is not a proof: it stays undecided, and the
    // weak oracle cannot prove what the scheme already refuted.
    if (rel != Relation::kLess && !*by_scheme) return std::nullopt;
    ++stats_.decided_by_bounds;
    Trace(TraceEventKind::kDecidedByBounds, i, j, t);
    return by_scheme;
  }
  const bool slack = rel == Relation::kLess && PolicyActive();
  if (!WeakActive() && !slack) return std::nullopt;
  *b = SlackBounds(i, j);
  *eff = *b;
  if (WeakActive()) {
    // Weak before slack: a weak decision is exact (when the model holds), a
    // slack decision is not.
    *eff = WeakIntersect(i, j, *b);
    if (const std::optional<bool> by_weak = DecideByWeak(i, j, rel, t, *eff)) {
      return by_weak;
    }
  }
  if (slack && SlackActive()) {
    const double gap = SlackRelativeGap(*b);
    if (gap <= policy_.eps) {
      return DecideBySlack(i, j, t, *b, gap, /*forced=*/false);
    }
  }
  return std::nullopt;
}

bool BoundedResolver::LessThan(ObjectId i, ObjectId j, double t) {
  if (const std::optional<bool> known = DecideKnown(i, j, Relation::kLess, t)) {
    return *known;
  }
  Interval b;
  Interval eff;
  if (const std::optional<bool> decided =
          DecideUnknown(i, j, Relation::kLess, t,
                        DecideByScheme(i, j, Relation::kLess, t), &b, &eff)) {
    return *decided;
  }
  if (BudgetActive() && BudgetRemaining() == 0) {
    if (!std::isfinite(b.hi)) FailBudget(1);
    return DecideBySlack(i, j, t, b, SlackRelativeGap(b), /*forced=*/true);
  }
  ++stats_.decided_by_oracle;
  // The gap probe must run before Distance(): afterwards the interval
  // collapses to the exact value.
  ProbeBoundGap(i, j, t);
  Trace(TraceEventKind::kDecidedByOracle, i, j, t);
  return Distance(i, j) < t;
}

bool BoundedResolver::Prove(ObjectId i, ObjectId j, Relation rel, double t) {
  if (const std::optional<bool> known = DecideKnown(i, j, rel, t)) {
    return *known;
  }
  Interval b;
  Interval eff;
  if (const std::optional<bool> proven = DecideUnknown(
          i, j, rel, t, DecideByScheme(i, j, rel, t), &b, &eff)) {
    return *proven;
  }
  // Not proven (either refuted or undecidable). No oracle call happens
  // here — the caller typically resolves next, and *that* comparison is the
  // one charged to the oracle.
  ++stats_.undecided;
  ProbeBoundGap(i, j, t);
  Trace(TraceEventKind::kUndecided, i, j, t);
  return false;
}

bool BoundedResolver::ProvenGreaterThan(ObjectId i, ObjectId j, double t) {
  return Prove(i, j, Relation::kGreater, t);
}

bool BoundedResolver::ProvenGreaterOrEqual(ObjectId i, ObjectId j, double t) {
  return Prove(i, j, Relation::kGreaterOrEqual, t);
}

void BoundedResolver::ResolveAll(std::span<const IdPair> pairs) {
  // Dedup sweep: keep the first occurrence of each unresolved unordered
  // pair, so a pair that appears twice (or as both (i,j) and (j,i)) costs
  // one oracle call, never two. The pairs seen so far sit in an
  // open-addressed table of packed keys, at most half full; an ordered
  // pair's packed key is never all ones, which marks a free slot.
  constexpr uint64_t kFree = ~uint64_t{0};
  const size_t mask = std::bit_ceil(2 * pairs.size()) - 1;
  seen_.assign(mask + 1, kFree);
  unique_.clear();
  for (const IdPair& p : pairs) {
    CHECK_LT(p.i, graph_->num_objects());
    CHECK_LT(p.j, graph_->num_objects());
    if (p.i == p.j) continue;
    if (graph_->Has(p.i, p.j)) continue;
    const EdgeKey key(p.i, p.j);
    size_t slot = EdgeKeyHash()(key) & mask;
    while (seen_[slot] != kFree && seen_[slot] != key.packed()) {
      slot = (slot + 1) & mask;
    }
    if (seen_[slot] == key.packed()) continue;
    seen_[slot] = key.packed();
    unique_.push_back(p);
  }
  if (unique_.empty()) return;
  const std::span<const IdPair> unique = unique_;
  // The session-side root of the causal chain: resolve -> (oracle per-pair
  // or coalesce_submit -> oracle_rtt) nest under this span on this thread.
  ScopedSpan resolve_span(telemetry_, "resolve", unique.size());
  // Resolution verbs are all-or-nothing under a budget: there is no slack
  // fallback for a caller that demanded exact distances. (FilterLessThan
  // pre-partitions its remainder to fit, so it never trips this.)
  if (BudgetActive() && unique.size() > BudgetRemaining()) {
    FailBudget(unique.size());
  }
  if (telemetry_ != nullptr) {
    // Recorded under both transports: this histogram measures the
    // algorithm's batching structure (unique unresolved pairs per verb),
    // not the wire protocol.
    telemetry_->batch_size.Record(static_cast<double>(unique.size()));
  }

  if (!batch_transport_) {
    // Scalar transport: the legacy per-pair path, byte for byte (Distance
    // counts oracle_calls and notifies the bounder edge by edge).
    for (const IdPair& p : unique) Distance(p.i, p.j);
    return;
  }

  // Batch transport: one oracle round-trip, one bulk insert, one bulk
  // bounder notification.
  distances_.assign(unique.size(), 0.0);
  statuses_.assign(unique.size(), Status::OK());
  Stopwatch oracle_watch;
  const Status batch_status =
      oracle_->TryBatchDistance(unique, distances_, statuses_);
  const double oracle_elapsed = oracle_watch.ElapsedSeconds();
  stats_.oracle_seconds += oracle_elapsed;
  stats_.batch_oracle_seconds += oracle_elapsed;
  if (!batch_status.ok()) {
    // The run is aborting: even the pairs that did succeed are dropped, so
    // a later re-run pays for them again. Charging a failure per failed
    // pair (not per batch) keeps the counter comparable across transports.
    uint64_t failed = 0;
    for (const Status& s : statuses_) {
      if (!s.ok()) ++failed;
    }
    FailTransport(batch_status, failed);
  }
  stats_.oracle_calls += unique.size();
  budget_spent_ += unique.size();
  ++stats_.batch_calls;
  stats_.batch_resolved_pairs += unique.size();
  if (telemetry_ != nullptr) {
    // One latency sample per round-trip (the scalar transport samples per
    // pair inside Distance() instead).
    telemetry_->oracle_latency_seconds.Record(oracle_elapsed);
    TraceEvent event;
    event.kind = TraceEventKind::kBatchShipped;
    event.count = unique.size();
    event.seconds = oracle_elapsed;
    telemetry_->Emit(event);
  }

  edges_.resize(unique.size());
  for (size_t k = 0; k < unique.size(); ++k) {
    edges_[k] = ResolvedEdge{unique[k].i, unique[k].j, distances_[k]};
  }
  graph_->InsertEdges(edges_);
  Stopwatch bounder_watch;
  bounder_->OnEdgesResolved(edges_);
  stats_.bounder_seconds += bounder_watch.ElapsedSeconds();
  if (weak_ != nullptr) {
    for (const ResolvedEdge& e : edges_) {
      NotifyWeakResolved(e.u, e.v, e.weight);
    }
  }
}

std::vector<bool> BoundedResolver::FilterLessThan(
    std::span<const IdPair> pairs, std::span<const double> thresholds) {
  CHECK_EQ(pairs.size(), thresholds.size());
  std::vector<bool> out(pairs.size());

  // Stage 1 per pair; the survivors go to the bounder sweep.
  std::vector<size_t> sweep;
  std::vector<IdPair> sweep_pairs;
  std::vector<double> sweep_thresholds;
  for (size_t k = 0; k < pairs.size(); ++k) {
    const IdPair p = pairs[k];
    if (const std::optional<bool> known =
            DecideKnown(p.i, p.j, Relation::kLess, thresholds[k])) {
      out[k] = *known;
      continue;
    }
    sweep.push_back(k);
    sweep_pairs.push_back(p);
    sweep_thresholds.push_back(thresholds[k]);
  }

  // Bounder sweep: one DecideBatch over every survivor. Decisions are made
  // before any resolution, so they are independent of the transport, and
  // repeats of a pair see the same intervals and decide identically.
  std::vector<std::optional<bool>> decided(sweep.size());
  if (!sweep.empty()) {
    ScopedSpan bound_span(telemetry_, "bound", sweep.size());
    stats_.bound_queries += sweep.size();
    Stopwatch watch;
    bounder_->DecideBatch(sweep_pairs, sweep_thresholds, decided);
    stats_.bounder_seconds += watch.ElapsedSeconds();
  }

  // Ship the undecided remainder in one batch, then read the answers back
  // from the cache. Attribution mirrors the scalar LessThan loop: only the
  // first occurrence of an unordered pair actually triggers a resolution
  // (ResolveAll dedups); a repeat — duplicate or symmetric — would have hit
  // the cache in the scalar loop, so it is charged to the cache here.
  std::vector<size_t> undecided;
  std::vector<IdPair> remainder;
  std::unordered_set<EdgeKey, EdgeKeyHash> charged;
  const auto charge = [&](size_t s) {
    const IdPair p = sweep_pairs[s];
    if (charged.insert(EdgeKey(p.i, p.j)).second) {
      ++stats_.decided_by_oracle;
      // Probe before ResolveAll below collapses the interval.
      ProbeBoundGap(p.i, p.j, sweep_thresholds[s]);
      Trace(TraceEventKind::kDecidedByOracle, p.i, p.j, sweep_thresholds[s]);
    } else {
      ++stats_.decided_by_cache;
      Trace(TraceEventKind::kDecidedByCache, p.i, p.j, sweep_thresholds[s]);
    }
    undecided.push_back(s);
    remainder.push_back(p);
  };
  // Under a policy the pairs stages 2-3 leave open wait for the budget
  // partition below; without one they are charged at once.
  struct Pending {
    size_t s;
    Interval b;
    double gap;   // scheme-interval gap: slack decisions, realized error
    double rank;  // weak-informed gap: oracle-budget shipping priority
  };
  std::vector<Pending> pending;
  for (size_t s = 0; s < sweep.size(); ++s) {
    const IdPair p = sweep_pairs[s];
    Interval b;
    Interval eff;
    if (const std::optional<bool> by_stage =
            DecideUnknown(p.i, p.j, Relation::kLess, sweep_thresholds[s],
                          decided[s], &b, &eff)) {
      out[sweep[s]] = *by_stage;
    } else if (PolicyActive()) {
      // Slack decisions and their certificates stay on the scheme interval
      // `b`; the weak-intersected interval only *ranks* pairs for the
      // budget (the pairs weak knowledge helps least ship first).
      pending.push_back({s, b, SlackRelativeGap(b), SlackRelativeGap(eff)});
    } else {
      charge(s);
    }
  }
  std::unordered_set<EdgeKey, EdgeKeyHash> starved;
  if (BudgetActive()) {
    // Ship only as many *unique* pending pairs as the remaining budget
    // covers — widest gap first, since a wide interval gains the most
    // information per oracle call — and settle the starved rest by forced
    // slack. Duplicates of a shipped pair read the cache, costing nothing
    // extra, and each comparison is attributed exactly once (slack, oracle
    // or cache), so the counter invariant holds even when the budget runs
    // out partway through the batch.
    struct Rep {
      EdgeKey key;
      double gap;
    };
    std::vector<Rep> reps;
    std::unordered_set<EdgeKey, EdgeKeyHash> seen;
    for (const Pending& w : pending) {
      const EdgeKey key(sweep_pairs[w.s].i, sweep_pairs[w.s].j);
      if (seen.insert(key).second) reps.push_back({key, w.rank});
    }
    const uint64_t capacity = BudgetRemaining();
    if (reps.size() > capacity) {
      // Stable, so equal gaps keep first-occurrence order and the
      // partition is deterministic.
      std::stable_sort(
          reps.begin(), reps.end(),
          [](const Rep& a, const Rep& b) { return a.gap > b.gap; });
      for (size_t r = capacity; r < reps.size(); ++r) {
        starved.insert(reps[r].key);
      }
    }
  }
  for (const Pending& w : pending) {
    const IdPair p = sweep_pairs[w.s];
    if (starved.count(EdgeKey(p.i, p.j)) == 0) {
      charge(w.s);
      continue;
    }
    if (!std::isfinite(w.b.hi)) FailBudget(1);
    out[sweep[w.s]] = DecideBySlack(p.i, p.j, sweep_thresholds[w.s], w.b,
                                    w.gap, /*forced=*/true);
  }
  ResolveAll(remainder);
  for (const size_t s : undecided) {
    const IdPair p = sweep_pairs[s];
    out[sweep[s]] = *graph_->Get(p.i, p.j) < sweep_thresholds[s];
  }
  return out;
}

std::vector<bool> BoundedResolver::FilterLessThan(std::span<const IdPair> pairs,
                                                  double t) {
  const std::vector<double> thresholds(pairs.size(), t);
  return FilterLessThan(pairs, thresholds);
}

bool BoundedResolver::PairLess(ObjectId i, ObjectId j, ObjectId k,
                               ObjectId l) {
  for (const ObjectId id : {i, j, k, l}) CHECK_LT(id, graph_->num_objects());
  ++stats_.comparisons;
  // The event carries the left pair; the comparison has no scalar
  // threshold, so that field stays unset.
  Trace(TraceEventKind::kComparison, i, j, TraceEvent::kUnset);
  const std::optional<double> dij =
      (i == j) ? std::optional<double>(0.0) : graph_->Get(i, j);
  const std::optional<double> dkl =
      (k == l) ? std::optional<double>(0.0) : graph_->Get(k, l);
  if (dij && dkl) {
    ++stats_.decided_by_cache;
    Trace(TraceEventKind::kDecidedByCache, i, j, TraceEvent::kUnset);
    return *dij < *dkl;
  }

  std::optional<bool> decided;
  if (dkl) {
    // Right side known: `dist(i,j) < t`.
    decided = DecideByScheme(i, j, Relation::kLess, *dkl);
  } else if (dij) {
    // Left side known: `dist(k,l) > t` (not the negation of LessThan —
    // equality must resolve to false here and the scheme must stay exact).
    decided = DecideByScheme(k, l, Relation::kGreater, *dij);
  } else {
    ++stats_.bound_queries;
    SampledStopwatch watch(clock_sampler_);
    decided = bounder_->DecidePairLess(i, j, k, l);
    stats_.bounder_seconds += watch.ElapsedSeconds();
  }
  if (decided.has_value()) {
    ++stats_.decided_by_bounds;
    Trace(TraceEventKind::kDecidedByBounds, i, j, TraceEvent::kUnset);
    return *decided;
  }
  if (WeakActive() || PolicyActive()) {
    const Interval bij = dij ? Interval::Exact(*dij) : SlackBounds(i, j);
    const Interval bkl = dkl ? Interval::Exact(*dkl) : SlackBounds(k, l);
    if (WeakActive()) {
      // A cached side is exact; only the unresolved side(s) consult the
      // weak oracle. The decision margin mirrors Bounder::DecidePairLess.
      const Interval eij = dij ? bij : WeakIntersect(i, j, bij);
      const Interval ekl = dkl ? bkl : WeakIntersect(k, l, bkl);
      const double margin =
          BoundDecisionMargin(std::min(eij.hi, ekl.hi) == kInfDistance
                                  ? std::max(eij.lo, ekl.lo)
                                  : std::min(eij.hi, ekl.hi));
      std::optional<bool> by_weak;
      if (eij.hi < ekl.lo - margin) {
        by_weak = true;
      } else if (eij.lo >= ekl.hi + margin) {
        by_weak = false;
      }
      if (by_weak.has_value()) {
        ++stats_.decided_by_weak;
        Trace(TraceEventKind::kDecidedByWeak, i, j, TraceEvent::kUnset);
        const WeakModel mij =
            dij ? WeakModel{*dij, 1.0, 0.0} : weak_->ModelFor(i, j);
        const WeakModel mkl =
            dkl ? WeakModel{*dkl, 1.0, 0.0} : weak_->ModelFor(k, l);
        SampledStopwatch weak_watch(clock_sampler_);
        bounder_->ObserveWeakPairLess(i, j, k, l, mij, mkl, *by_weak);
        stats_.bounder_seconds += weak_watch.ElapsedSeconds();
        return *by_weak;
      }
    }
    if (PolicyActive()) {
      // The realized error of a slack pair decision is the worse of the two
      // relative gaps (a cached side is exact: gap 0).
      const double gap =
          std::max(SlackRelativeGap(bij), SlackRelativeGap(bkl));
      bool forced = false;
      bool by_slack = SlackActive() && gap <= policy_.eps;
      if (!by_slack && BudgetActive()) {
        const uint64_t needed = (dij ? 0u : 1u) + (dkl ? 0u : 1u);
        if (BudgetRemaining() < needed) {
          if (!std::isfinite(bij.hi) || !std::isfinite(bkl.hi)) {
            FailBudget(needed);
          }
          by_slack = true;
          forced = true;
        }
      }
      if (by_slack) {
        RecordSlack(i, j, TraceEvent::kUnset, gap, forced);
        const bool outcome = SlackMidpoint(bij) < SlackMidpoint(bkl);
        SampledStopwatch watch(clock_sampler_);
        bounder_->ObserveSlackPairLess(i, j, k, l, bij, bkl, policy_.eps,
                                       outcome);
        stats_.bounder_seconds += watch.ElapsedSeconds();
        return outcome;
      }
    }
  }
  ++stats_.decided_by_oracle;
  Trace(TraceEventKind::kDecidedByOracle, i, j, TraceEvent::kUnset);
  const double a = dij ? *dij : Distance(i, j);
  const double b = dkl ? *dkl : Distance(k, l);
  return a < b;
}

void BoundedResolver::TraceSlow(TraceEventKind kind, ObjectId i, ObjectId j,
                                double threshold) {
  TraceEvent event;
  event.kind = kind;
  event.i = i;
  event.j = j;
  event.threshold = threshold;
  telemetry_->Emit(event);
}

void BoundedResolver::ProbeBoundGapSlow(ObjectId i, ObjectId j, double t) {
  // Stats-neutral observation of the interval the scheme held at the
  // moment a comparison fell through: the bounder is read directly, so
  // bound_queries and bounder_seconds do not move, and reading bounds
  // never resolves anything, so oracle_calls cannot move either — a
  // telemetry-enabled run keeps counters identical to a disabled one
  // (pinned by the trace equivalence test).
  const Interval bounds = bounder_->Bounds(i, j);
  telemetry_->bound_gap.Record(RelativeBoundGap(bounds));
  TraceEvent event;
  event.kind = TraceEventKind::kBoundInterval;
  event.i = i;
  event.j = j;
  event.lb = bounds.lo;
  event.ub = bounds.hi;
  event.threshold = t;
  telemetry_->Emit(event);
}

}  // namespace metricprox
