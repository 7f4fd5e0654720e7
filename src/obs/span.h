#ifndef METRICPROX_OBS_SPAN_H_
#define METRICPROX_OBS_SPAN_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/telemetry.h"
#include "obs/trace.h"

namespace metricprox {

/// RAII causal span: emits kSpanBegin at construction and kSpanEnd (with
/// the measured duration) at destruction. Parenting is implicit: each
/// thread keeps a stack of open spans, and a new span's parent is the
/// innermost open span on the constructing thread — so the session-side
/// chain resolve -> bound -> coalesce_submit -> oracle_rtt nests without
/// any context threading, while the coalescer's flusher-side batch_ship
/// span is a root on its own thread and is reached from waiter traces via
/// TraceEvent::link_span_id instead.
///
/// A null telemetry (or one with no sink) makes the span fully inert: no
/// ids are allocated, nothing is pushed on the thread's stack, the name is
/// not copied, the clock is not read, and both events are skipped — the
/// traced-vs-untraced A/B stays byte-identical.
class ScopedSpan {
 public:
  /// `name` is the span vocabulary word ("resolve", "bound",
  /// "coalesce_submit", "batch_ship", "oracle_rtt"); `count` is the
  /// span's cardinality (pairs in flight), re-emittable via set_count.
  ScopedSpan(Telemetry* telemetry, std::string_view name, uint64_t count = 0);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// 0 when inert.
  uint64_t id() const { return span_id_; }
  bool active() const { return telemetry_ != nullptr; }

  /// Cross-trace causal link carried on the span_end event: a waiter's
  /// oracle_rtt span links to the batch_ship span that carried its pairs.
  void set_link(uint64_t link_span_id) { link_span_id_ = link_span_id; }
  /// Updates the cardinality reported on the span_end event.
  void set_count(uint64_t count) { count_ = count; }

  /// The calling thread's innermost open span id (0 = none).
  static uint64_t CurrentSpanId();

 private:
  Telemetry* telemetry_ = nullptr;  // not owned; nullptr = inert
  std::string name_;
  uint64_t span_id_ = 0;
  uint64_t parent_ = 0;
  uint64_t link_span_id_ = 0;
  uint64_t count_ = 0;
  std::chrono::steady_clock::time_point start_{};  // set only when active
};

/// One mirror destination for FanoutEmit: a (session-tagged) Telemetry
/// bundle plus the ship-span id its copies should link to.
struct FanoutTarget {
  Telemetry* telemetry = nullptr;  // not owned
  uint64_t link_span_id = 0;
};

/// Installs a fan-out target list on the calling thread for its lifetime
/// (restoring the previous list on destruction). The BatchCoalescer's
/// flusher wraps each base round-trip in one of these, listing every
/// waiter session's bundle — so oracle_call / retry / backoff / store
/// events emitted by the middleware stack during that round-trip are
/// mirrored to every coalesced waiter, not just the shipping thread.
class ScopedFanout {
 public:
  /// `targets` is borrowed and must outlive the scope.
  explicit ScopedFanout(const std::vector<FanoutTarget>* targets);
  ~ScopedFanout();

  ScopedFanout(const ScopedFanout&) = delete;
  ScopedFanout& operator=(const ScopedFanout&) = delete;

 private:
  const std::vector<FanoutTarget>* previous_;
};

/// Emits `event` through `primary` (when non-null), then mirrors a copy to
/// every ambient fan-out target on this thread (skipping `primary` itself).
/// Each copy picks up the target bundle's session/tenant tag in Emit and,
/// when the event carries no link yet, the target's link_span_id.
void FanoutEmit(Telemetry* primary, const TraceEvent& event);

}  // namespace metricprox

#endif  // METRICPROX_OBS_SPAN_H_
