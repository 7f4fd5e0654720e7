#ifndef METRICPROX_ORACLE_WRAPPERS_H_
#define METRICPROX_ORACLE_WRAPPERS_H_

#include <cstdint>
#include <span>
#include <string_view>

#include "core/oracle.h"
#include "core/types.h"
#include "obs/telemetry.h"

namespace metricprox {

/// Counts calls to the wrapped oracle. Useful when an oracle is exercised
/// outside a BoundedResolver (e.g. during LAESA pivot-table construction),
/// so bootstrap calls are charged like any other call.
class CountingOracle : public DistanceOracle {
 public:
  explicit CountingOracle(DistanceOracle* base) : base_(base) {}

  double Distance(ObjectId i, ObjectId j) override {
    ++calls_;
    return base_->Distance(i, j);
  }
  // Each pair is billed as one call (batching amortizes latency, not
  // price), and the base keeps its parallel implementation.
  void BatchDistance(std::span<const IdPair> pairs,
                     std::span<double> out) override {
    calls_ += pairs.size();
    base_->BatchDistance(pairs, out);
  }
  // The fallible verbs bill the same way: one call per attempted pair.
  StatusOr<double> TryDistance(ObjectId i, ObjectId j) override {
    ++calls_;
    return base_->TryDistance(i, j);
  }
  Status TryBatchDistance(std::span<const IdPair> pairs, std::span<double> out,
                          std::span<Status> statuses) override {
    calls_ += pairs.size();
    return base_->TryBatchDistance(pairs, out, statuses);
  }
  ObjectId num_objects() const override { return base_->num_objects(); }
  std::string_view name() const override { return base_->name(); }
  void set_batch_workers(unsigned workers) override {
    base_->set_batch_workers(workers);
  }
  unsigned batch_workers() const override { return base_->batch_workers(); }

  uint64_t calls() const { return calls_; }
  void ResetCalls() { calls_ = 0; }

 private:
  DistanceOracle* base_;  // not owned
  uint64_t calls_ = 0;
};

/// Adds a fixed *virtual* latency per call (the paper's 1.2 s / 2.5 s map-API
/// costs) without actually sleeping: accumulated simulated seconds are read
/// back by the experiment harness and added to measured CPU time. This
/// reproduces the completion-time figures (7d, 8a, 8b) in minutes instead of
/// days.
class SimulatedCostOracle : public DistanceOracle {
 public:
  SimulatedCostOracle(DistanceOracle* base, double seconds_per_call)
      : base_(base), seconds_per_call_(seconds_per_call) {}

  double Distance(ObjectId i, ObjectId j) override {
    simulated_seconds_ += seconds_per_call_;
    RecordCost(1);
    return base_->Distance(i, j);
  }
  // Simulated latency stays per pair: the modeled API bills every request
  // even when shipped in one round-trip, matching oracle_calls accounting.
  void BatchDistance(std::span<const IdPair> pairs,
                     std::span<double> out) override {
    simulated_seconds_ += seconds_per_call_ * static_cast<double>(pairs.size());
    RecordCost(pairs.size());
    base_->BatchDistance(pairs, out);
  }
  // Fallible verbs bill per attempted pair too: the modeled API charges for
  // a request whether or not the answer arrives.
  StatusOr<double> TryDistance(ObjectId i, ObjectId j) override {
    simulated_seconds_ += seconds_per_call_;
    RecordCost(1);
    return base_->TryDistance(i, j);
  }
  Status TryBatchDistance(std::span<const IdPair> pairs, std::span<double> out,
                          std::span<Status> statuses) override {
    simulated_seconds_ += seconds_per_call_ * static_cast<double>(pairs.size());
    RecordCost(pairs.size());
    return base_->TryBatchDistance(pairs, out, statuses);
  }
  ObjectId num_objects() const override { return base_->num_objects(); }
  std::string_view name() const override { return base_->name(); }
  void set_batch_workers(unsigned workers) override {
    base_->set_batch_workers(workers);
  }
  unsigned batch_workers() const override { return base_->batch_workers(); }

  double simulated_seconds() const { return simulated_seconds_; }
  double seconds_per_call() const { return seconds_per_call_; }
  void Reset() { simulated_seconds_ = 0.0; }

  /// Attaches (or with nullptr, detaches) telemetry: the per-pair simulated
  /// cost feeds the simulated_cost_seconds histogram.
  void SetTelemetry(Telemetry* telemetry) { telemetry_ = telemetry; }

 private:
  void RecordCost(size_t pairs) {
    if (telemetry_ == nullptr || seconds_per_call_ <= 0.0) return;
    for (size_t k = 0; k < pairs; ++k) {
      telemetry_->simulated_cost_seconds.Record(seconds_per_call_);
    }
  }

  DistanceOracle* base_;  // not owned
  double seconds_per_call_;
  double simulated_seconds_ = 0.0;
  Telemetry* telemetry_ = nullptr;  // not owned; nullptr = telemetry off
};

/// Debug wrapper that spot-checks the metric axioms online: every Kth call
/// re-evaluates the symmetric direction and a random triangle through the
/// new pair, CHECK-failing on a violation. Every bound scheme silently
/// returns wrong answers on non-metric inputs, so wiring a user-provided
/// oracle through this wrapper in staging catches the #1 integration bug
/// (asymmetric or non-triangle "distances") at its source.
class VerifyingOracle : public DistanceOracle {
 public:
  /// `check_every` = N means one verification burst per N calls (1 = every
  /// call). `tolerance` absorbs the oracle's own floating-point noise.
  VerifyingOracle(DistanceOracle* base, uint32_t check_every = 16,
                  double tolerance = 1e-9);

  double Distance(ObjectId i, ObjectId j) override;
  ObjectId num_objects() const override { return base_->num_objects(); }
  std::string_view name() const override { return base_->name(); }
  void set_batch_workers(unsigned workers) override {
    base_->set_batch_workers(workers);
  }
  unsigned batch_workers() const override { return base_->batch_workers(); }

  uint64_t checks_performed() const { return checks_; }

 private:
  DistanceOracle* base_;  // not owned
  uint32_t check_every_;
  double tolerance_;
  uint64_t calls_ = 0;
  uint64_t checks_ = 0;
  uint64_t rng_state_;
};

}  // namespace metricprox

#endif  // METRICPROX_ORACLE_WRAPPERS_H_
