// Per-layer instrumentation for the traced pass, built entirely from the
// library's public interfaces: a forwarding DistanceOracle decorator, a
// forwarding Bounder decorator that also records the resolver's graph
// writes, and a replay that times those writes against a fresh
// PartialDistanceGraph. Nothing here changes a decision: every virtual is
// forwarded verbatim, and perfbench checks that a traced job produces the
// same output and the same resolver counters as a plain one.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <malloc.h>

#include <chrono>
#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "core/bounder.h"
#include "core/oracle.h"
#include "core/status.h"
#include "core/types.h"
#include "graph/partial_graph.h"

namespace perfbench {

using metricprox::BoundCertificate;
using metricprox::Bounder;
using metricprox::DistanceOracle;
using metricprox::IdPair;
using metricprox::Interval;
using metricprox::ObjectId;
using metricprox::PartialDistanceGraph;
using metricprox::ResolvedEdge;
using metricprox::Status;
using metricprox::StatusOr;
using metricprox::WeakModel;
using metricprox::WeightedEdge;

using Clock = std::chrono::steady_clock;

inline double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

/// Adds the lifetime of the scope to `*total`.
class ScopedTimer {
 public:
  explicit ScopedTimer(Clock::duration* total)
      : total_(total), start_(Clock::now()) {}
  ~ScopedTimer() { *total_ += Clock::now() - start_; }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Clock::duration* total_;
  Clock::time_point start_;
};

/// Forwarding oracle decorator: counts and times every verb, including the
/// fallible ones and the batch-worker knob, on the caller's thread (a batch
/// is timed as one round-trip, however many workers serve it).
class TimedOracle : public DistanceOracle {
 public:
  struct Counters {
    uint64_t scalar_calls = 0;
    uint64_t batches = 0;
    uint64_t batch_pairs = 0;
    uint64_t failed = 0;
    Clock::duration busy{};

    Counters& operator+=(const Counters& o) {
      scalar_calls += o.scalar_calls;
      batches += o.batches;
      batch_pairs += o.batch_pairs;
      failed += o.failed;
      busy += o.busy;
      return *this;
    }
    Counters operator-(const Counters& o) const {
      return {scalar_calls - o.scalar_calls, batches - o.batches,
              batch_pairs - o.batch_pairs, failed - o.failed, busy - o.busy};
    }
  };

  explicit TimedOracle(DistanceOracle* inner) : inner_(inner) {}

  double Distance(ObjectId i, ObjectId j) override {
    ScopedTimer timer(&c_.busy);
    ++c_.scalar_calls;
    return inner_->Distance(i, j);
  }
  void BatchDistance(std::span<const IdPair> pairs,
                     std::span<double> out) override {
    ScopedTimer timer(&c_.busy);
    ++c_.batches;
    c_.batch_pairs += pairs.size();
    inner_->BatchDistance(pairs, out);
  }
  StatusOr<double> TryDistance(ObjectId i, ObjectId j) override {
    ScopedTimer timer(&c_.busy);
    ++c_.scalar_calls;
    StatusOr<double> d = inner_->TryDistance(i, j);
    if (!d.ok()) ++c_.failed;
    return d;
  }
  Status TryBatchDistance(std::span<const IdPair> pairs, std::span<double> out,
                          std::span<Status> statuses) override {
    ScopedTimer timer(&c_.busy);
    ++c_.batches;
    c_.batch_pairs += pairs.size();
    Status status = inner_->TryBatchDistance(pairs, out, statuses);
    for (const Status& s : statuses) {
      if (!s.ok()) ++c_.failed;
    }
    return status;
  }
  ObjectId num_objects() const override { return inner_->num_objects(); }
  std::string_view name() const override { return inner_->name(); }
  void set_batch_workers(unsigned workers) override {
    inner_->set_batch_workers(workers);
  }
  unsigned batch_workers() const override { return inner_->batch_workers(); }

  const Counters& counters() const { return c_; }

 private:
  DistanceOracle* inner_;  // not owned
  Counters c_;
};

/// The resolver's graph writes in call order. The resolver inserts every
/// resolved edge into the graph and then notifies the bounder, one
/// OnEdgeResolved per Insert and one OnEdgesResolved per InsertEdges, so
/// the notifications spell out the exact write sequence.
struct GraphWriteLog {
  struct Op {
    size_t begin = 0;
    size_t count = 0;
    bool batch = false;  // InsertEdges (true) or Insert (false)
  };
  std::vector<WeightedEdge> edges;
  std::vector<Op> ops;
};

/// Forwarding Bounder decorator: counts and times every verb, the decision
/// verbs, the certified verbs and the slack/weak observation channels
/// included, and logs the graph writes the update notifications reveal.
class TimedBounder : public Bounder {
 public:
  struct Counters {
    uint64_t queries = 0;          // what the resolver counts as bound_queries
    uint64_t decide_attempts = 0;  // decision verbs, one per pair
    uint64_t decided = 0;          // ... that returned a decision
    Clock::duration busy{};        // every verb, updates included
    Clock::duration update{};      // OnEdgeResolved / OnEdgesResolved

    Counters& operator+=(const Counters& o) {
      queries += o.queries;
      decide_attempts += o.decide_attempts;
      decided += o.decided;
      busy += o.busy;
      update += o.update;
      return *this;
    }
  };

  TimedBounder(Bounder* inner, GraphWriteLog* log) : inner_(inner), log_(log) {}

  std::string_view name() const override { return inner_->name(); }

  Interval Bounds(ObjectId i, ObjectId j) override {
    ScopedTimer timer(&c_.busy);
    ++c_.queries;
    return inner_->Bounds(i, j);
  }

  void OnEdgeResolved(ObjectId i, ObjectId j, double d) override {
    log_->ops.push_back({log_->edges.size(), 1, false});
    log_->edges.push_back({i, j, d});
    ScopedTimer busy(&c_.busy);
    ScopedTimer update(&c_.update);
    inner_->OnEdgeResolved(i, j, d);
  }
  void OnEdgesResolved(std::span<const ResolvedEdge> edges) override {
    log_->ops.push_back({log_->edges.size(), edges.size(), true});
    log_->edges.insert(log_->edges.end(), edges.begin(), edges.end());
    ScopedTimer busy(&c_.busy);
    ScopedTimer update(&c_.update);
    inner_->OnEdgesResolved(edges);
  }

  std::optional<bool> DecideLessThan(ObjectId i, ObjectId j,
                                     double t) override {
    ScopedTimer timer(&c_.busy);
    return Count(inner_->DecideLessThan(i, j, t));
  }
  std::optional<bool> DecideGreaterThan(ObjectId i, ObjectId j,
                                        double t) override {
    ScopedTimer timer(&c_.busy);
    return Count(inner_->DecideGreaterThan(i, j, t));
  }
  void DecideBatch(std::span<const IdPair> pairs,
                   std::span<const double> thresholds,
                   std::span<std::optional<bool>> out) override {
    {
      ScopedTimer timer(&c_.busy);
      inner_->DecideBatch(pairs, thresholds, out);
    }
    c_.queries += pairs.size();
    c_.decide_attempts += pairs.size();
    for (const std::optional<bool>& d : out) c_.decided += d.has_value();
  }
  std::optional<bool> DecidePairLess(ObjectId i, ObjectId j, ObjectId k,
                                     ObjectId l) override {
    ScopedTimer timer(&c_.busy);
    return Count(inner_->DecidePairLess(i, j, k, l));
  }

  bool CertifyBounds(ObjectId i, ObjectId j, BoundCertificate* cert) override {
    ScopedTimer timer(&c_.busy);
    return inner_->CertifyBounds(i, j, cert);
  }
  std::optional<bool> DecideLessThanCertified(ObjectId i, ObjectId j, double t,
                                              BoundCertificate* cert) override {
    ScopedTimer timer(&c_.busy);
    return Count(inner_->DecideLessThanCertified(i, j, t, cert));
  }
  std::optional<bool> DecideGreaterThanCertified(
      ObjectId i, ObjectId j, double t, BoundCertificate* cert) override {
    ScopedTimer timer(&c_.busy);
    return Count(inner_->DecideGreaterThanCertified(i, j, t, cert));
  }
  std::optional<bool> DecidePairLessCertified(ObjectId i, ObjectId j,
                                              ObjectId k, ObjectId l,
                                              BoundCertificate* cert) override {
    ScopedTimer timer(&c_.busy);
    return Count(inner_->DecidePairLessCertified(i, j, k, l, cert));
  }

  void ObserveSlackLessThan(ObjectId i, ObjectId j, double t,
                            const Interval& bounds, double eps,
                            bool outcome) override {
    ScopedTimer timer(&c_.busy);
    inner_->ObserveSlackLessThan(i, j, t, bounds, eps, outcome);
  }
  void ObserveSlackPairLess(ObjectId i, ObjectId j, ObjectId k, ObjectId l,
                            const Interval& bij, const Interval& bkl,
                            double eps, bool outcome) override {
    ScopedTimer timer(&c_.busy);
    inner_->ObserveSlackPairLess(i, j, k, l, bij, bkl, eps, outcome);
  }
  void ObserveWeakLessThan(ObjectId i, ObjectId j, double t,
                           const WeakModel& model, bool outcome) override {
    ScopedTimer timer(&c_.busy);
    inner_->ObserveWeakLessThan(i, j, t, model, outcome);
  }
  void ObserveWeakGreaterThan(ObjectId i, ObjectId j, double t,
                              const WeakModel& model, bool outcome) override {
    ScopedTimer timer(&c_.busy);
    inner_->ObserveWeakGreaterThan(i, j, t, model, outcome);
  }
  void ObserveWeakPairLess(ObjectId i, ObjectId j, ObjectId k, ObjectId l,
                           const WeakModel& mij, const WeakModel& mkl,
                           bool outcome) override {
    ScopedTimer timer(&c_.busy);
    inner_->ObserveWeakPairLess(i, j, k, l, mij, mkl, outcome);
  }

  const Counters& counters() const { return c_; }

 private:
  std::optional<bool> Count(std::optional<bool> decision) {
    ++c_.queries;
    ++c_.decide_attempts;
    c_.decided += decision.has_value();
    return decision;
  }

  Bounder* inner_;       // not owned
  GraphWriteLog* log_;   // not owned
  Counters c_;
};

struct ReplayResult {
  double insert_s = 0.0;  // the logged writes only
  size_t edges = 0;       // edges in the replayed graph
  double heap_bytes = 0;  // heap held by the replayed graph
};

/// Rebuilds the graph a job ended with: `prior` (the edges present before
/// the logged phase, in insertion order) untimed, then the logged writes
/// timed, with the same Insert/InsertEdges calls the resolver made. Heap
/// use is the main-arena growth across the rebuild while the graph lives.
inline ReplayResult ReplayGraphWrites(ObjectId n,
                                      std::span<const WeightedEdge> prior,
                                      const GraphWriteLog& log) {
  ReplayResult result;
  const size_t heap_before = mallinfo2().uordblks;
  PartialDistanceGraph graph(n);
  for (const WeightedEdge& e : prior) graph.Insert(e.u, e.v, e.weight);
  Clock::duration insert{};
  {
    ScopedTimer timer(&insert);
    for (const GraphWriteLog::Op& op : log.ops) {
      if (op.batch) {
        graph.InsertEdges(std::span(log.edges).subspan(op.begin, op.count));
      } else {
        const WeightedEdge& e = log.edges[op.begin];
        graph.Insert(e.u, e.v, e.weight);
      }
    }
  }
  result.insert_s = Seconds(insert);
  result.edges = graph.num_edges();
  result.heap_bytes =
      static_cast<double>(mallinfo2().uordblks) - static_cast<double>(heap_before);
  return result;
}

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
