#ifndef METRICPROX_CORE_PARALLEL_H_
#define METRICPROX_CORE_PARALLEL_H_

#include <algorithm>
#include <cstddef>
#include <cstdlib>
#include <thread>
#include <vector>

namespace metricprox {

namespace internal {

/// METRICPROX_THREADS, parsed once per process. 0 means "unset / invalid":
/// fall through to the hardware. Lets CI and shared machines cap the worker
/// pool without recompiling or plumbing a flag through every layer.
inline unsigned EnvThreadCap() {
  static const unsigned cap = [] {
    const char* env = std::getenv("METRICPROX_THREADS");
    if (env == nullptr) return 0u;
    const long parsed = std::strtol(env, nullptr, 10);
    return parsed > 0 ? static_cast<unsigned>(parsed) : 0u;
  }();
  return cap;
}

/// std::thread::hardware_concurrency(), read once per process (at least 1).
/// Reading it costs microseconds on Linux, and every batch asks.
inline unsigned HardwareThreads() {
  static const unsigned hw = [] {
    const unsigned threads = std::thread::hardware_concurrency();
    return threads > 0 ? threads : 1u;
  }();
  return hw;
}

}  // namespace internal

/// Number of worker threads the parallel oracle paths may use (>= 1).
/// Precedence: explicit `requested` > METRICPROX_THREADS > hardware.
inline unsigned ParallelWorkerCount(unsigned requested = 0) {
  if (requested > 0) return requested;
  const unsigned env = internal::EnvThreadCap();
  if (env > 0) return env;
  return internal::HardwareThreads();
}

/// Runs fn(begin, end) over a partition of [0, n) on up to
/// ParallelWorkerCount(requested_workers) std::threads. Falls back to one
/// inline call when the work is too small to amortize thread start-up
/// (n < 2 * grain) or only one worker is available.
///
/// `fn` must be safe to invoke concurrently on disjoint ranges; this is the
/// contract the oracle BatchDistance overrides rely on (their Distance
/// implementations are pure). Exceptions are not supported — the library
/// reports fatal conditions through CHECK, which aborts.
template <typename Fn>
void ParallelFor(size_t n, size_t grain, Fn&& fn,
                 unsigned requested_workers = 0) {
  if (n == 0) return;
  const size_t min_grain = grain > 0 ? grain : 1;
  const unsigned workers = ParallelWorkerCount(requested_workers);
  const size_t max_chunks = (n + min_grain - 1) / min_grain;
  const size_t num_chunks =
      std::min<size_t>(workers, std::max<size_t>(max_chunks, 1));
  if (num_chunks <= 1 || n < 2 * min_grain) {
    fn(size_t{0}, n);
    return;
  }
  std::vector<std::thread> threads;
  threads.reserve(num_chunks - 1);
  const size_t chunk = (n + num_chunks - 1) / num_chunks;
  for (size_t c = 1; c < num_chunks; ++c) {
    const size_t begin = c * chunk;
    if (begin >= n) break;
    const size_t end = std::min(n, begin + chunk);
    threads.emplace_back([&fn, begin, end] { fn(begin, end); });
  }
  fn(size_t{0}, std::min(n, chunk));
  for (std::thread& t : threads) t.join();
}

}  // namespace metricprox

#endif  // METRICPROX_CORE_PARALLEL_H_
