#include "obs/span.h"

namespace metricprox {

namespace {

std::vector<uint64_t>& SpanStack() {
  thread_local std::vector<uint64_t> stack;
  return stack;
}

const std::vector<FanoutTarget>*& FanoutSlot() {
  thread_local const std::vector<FanoutTarget>* targets = nullptr;
  return targets;
}

}  // namespace

ScopedSpan::ScopedSpan(Telemetry* telemetry, std::string_view name,
                       uint64_t count)
    : count_(count) {
  if (telemetry == nullptr || !telemetry->tracing()) return;
  telemetry_ = telemetry;
  name_ = name;
  start_ = std::chrono::steady_clock::now();
  span_id_ = telemetry_->NextSpanId();
  auto& stack = SpanStack();
  parent_ = stack.empty() ? 0 : stack.back();
  stack.push_back(span_id_);

  TraceEvent event;
  event.kind = TraceEventKind::kSpanBegin;
  event.span_id = span_id_;
  event.parent_span_id = parent_;
  event.name = name_;
  event.count = count_;
  telemetry_->Emit(std::move(event));
}

ScopedSpan::~ScopedSpan() {
  if (telemetry_ == nullptr) return;
  auto& stack = SpanStack();
  // Spans are strictly scoped objects, so the innermost open span on this
  // thread is ours.
  if (!stack.empty() && stack.back() == span_id_) stack.pop_back();

  TraceEvent event;
  event.kind = TraceEventKind::kSpanEnd;
  event.span_id = span_id_;
  event.parent_span_id = parent_;
  event.link_span_id = link_span_id_;
  event.name = name_;
  event.count = count_;
  event.seconds = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start_)
                      .count();
  telemetry_->Emit(std::move(event));
}

uint64_t ScopedSpan::CurrentSpanId() {
  const auto& stack = SpanStack();
  return stack.empty() ? 0 : stack.back();
}

ScopedFanout::ScopedFanout(const std::vector<FanoutTarget>* targets)
    : previous_(FanoutSlot()) {
  FanoutSlot() = targets;
}

ScopedFanout::~ScopedFanout() { FanoutSlot() = previous_; }

void FanoutEmit(Telemetry* primary, const TraceEvent& event) {
  if (primary != nullptr) primary->Emit(event);
  const std::vector<FanoutTarget>* targets = FanoutSlot();
  if (targets == nullptr) return;
  for (const FanoutTarget& target : *targets) {
    if (target.telemetry == nullptr || target.telemetry == primary) continue;
    TraceEvent copy = event;
    if (copy.link_span_id == 0) copy.link_span_id = target.link_span_id;
    target.telemetry->Emit(std::move(copy));
  }
}

}  // namespace metricprox
