// BatchCoalescer: cross-session pending-pair dedup, linger-window and
// batch-full flush semantics, per-waiter deadline expiry, backpressure, and
// a seeded fault-injection chaos variant. The core accounting property
// pinned here: a symmetric pair submitted by any number of concurrent
// sessions inside one pending window is charged to the base oracle exactly
// once, and EVERY submitter receives its result — no lost and no
// double-delivered resolutions, even when the transport underneath fails
// transiently and retries.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/status.h"
#include "core/types.h"
#include "data/datasets.h"
#include "oracle/fault_injection.h"
#include "oracle/retry.h"
#include "oracle/wrappers.h"
#include "service/coalescer.h"

namespace metricprox {
namespace {

/// Spins until the coalescer holds exactly `expected` pending pairs (the
/// deterministic rendezvous point for manual-flush tests).
void AwaitPending(const BatchCoalescer& coalescer, size_t expected) {
  while (coalescer.PendingPairs() != expected) {
    std::this_thread::yield();
  }
}

Status ResolveOne(BatchCoalescer* coalescer, IdPair pair, double* out,
                  BatchCoalescer::Deadline deadline = {}) {
  Status status;
  return coalescer->Resolve(std::span<const IdPair>(&pair, 1),
                            std::span<double>(out, 1),
                            std::span<Status>(&status, 1), deadline);
}

TEST(CoalescerTest, ManualFlushResolvesEverySubmitterOnce) {
  const ObjectId n = 16;
  Dataset dataset = MakeRandomMetric(n, /*seed=*/3);
  CountingOracle counting(dataset.oracle.get());
  CoalescerOptions options;
  options.manual_flush = true;
  BatchCoalescer coalescer(&counting, options);

  // Four waiters, two distinct pairs: (1,2) submitted three times — twice
  // in the canonical orientation, once flipped — and (3,4) once.
  const IdPair submissions[] = {{1, 2}, {2, 1}, {1, 2}, {3, 4}};
  double results[4] = {};
  Status statuses[4];
  std::vector<std::thread> waiters;
  for (int w = 0; w < 4; ++w) {
    waiters.emplace_back([&, w] {
      statuses[w] = ResolveOne(&coalescer, submissions[w], &results[w]);
    });
  }
  // Rendezvous on all four submitters: two distinct pairs pending (symmetric
  // dedup) and both repeats of (1,2) joined onto them. Pending pairs alone
  // reach 2 before the repeats arrive, and a repeat that arrived after the
  // flush would enqueue a fresh (1,2) that nothing in manual mode ships.
  while (coalescer.PendingPairs() != 2 ||
         coalescer.counters().dedup_hits != 2) {
    std::this_thread::yield();
  }
  EXPECT_EQ(coalescer.FlushNow(), 2u);
  for (std::thread& t : waiters) t.join();

  const double d12 = dataset.oracle->Distance(1, 2);
  const double d34 = dataset.oracle->Distance(3, 4);
  for (int w = 0; w < 4; ++w) EXPECT_TRUE(statuses[w].ok()) << statuses[w];
  EXPECT_EQ(results[0], d12);
  EXPECT_EQ(results[1], d12);  // flipped orientation, same EdgeKey
  EXPECT_EQ(results[2], d12);
  EXPECT_EQ(results[3], d34);

  // The base oracle was charged once per DISTINCT pair (the verification
  // reads above bypass the counting wrapper), and the counters agree.
  EXPECT_EQ(counting.calls(), 2u);
  const CoalescerCounters counters = coalescer.counters();
  EXPECT_EQ(counters.batches_shipped, 1u);
  EXPECT_EQ(counters.pairs_shipped, 2u);
  EXPECT_EQ(counters.dedup_hits, 2u);  // two joins onto the pending (1,2)
  EXPECT_EQ(counters.deadline_expirations, 0u);
  EXPECT_EQ(coalescer.PendingPairs(), 0u);
}

TEST(CoalescerTest, NotACacheResolvedPairShipsAgain) {
  const ObjectId n = 8;
  Dataset dataset = MakeRandomMetric(n, /*seed=*/21);
  CountingOracle counting(dataset.oracle.get());
  CoalescerOptions options;
  options.manual_flush = true;
  BatchCoalescer coalescer(&counting, options);
  for (int round = 0; round < 2; ++round) {
    double result = 0.0;
    Status status;
    std::thread waiter([&] {
      status = ResolveOne(&coalescer, IdPair{2, 5}, &result);
    });
    AwaitPending(coalescer, 1);
    coalescer.FlushNow();
    waiter.join();
    EXPECT_TRUE(status.ok());
    EXPECT_EQ(result, dataset.oracle->Distance(2, 5));
  }
  // Two rounds, two charges: memoization is the graph/store layers' job.
  EXPECT_EQ(counting.calls(), 2u);
  EXPECT_EQ(coalescer.counters().dedup_hits, 0u);
}

TEST(CoalescerTest, SelfPairsResolveToZeroWithoutShipping) {
  const ObjectId n = 8;
  Dataset dataset = MakeRandomMetric(n, /*seed=*/13);
  CountingOracle counting(dataset.oracle.get());
  CoalescerOptions options;
  options.manual_flush = true;
  BatchCoalescer coalescer(&counting, options);
  double out = -1.0;
  EXPECT_TRUE(ResolveOne(&coalescer, IdPair{5, 5}, &out).ok());
  EXPECT_EQ(out, 0.0);
  EXPECT_EQ(counting.calls(), 0u);
  EXPECT_EQ(coalescer.PendingPairs(), 0u);
}

TEST(CoalescerTest, LingerWindowCoalescesConcurrentSubmitters) {
  const ObjectId n = 32;
  Dataset dataset = MakeRandomMetric(n, /*seed=*/17);
  CountingOracle counting(dataset.oracle.get());
  CoalescerOptions options;
  options.linger_seconds = 0.25;  // generous: all submitters fit the window
  BatchCoalescer coalescer(&counting, options);

  const unsigned submitters = 8;
  std::vector<double> results(submitters, 0.0);
  std::vector<Status> statuses(submitters);
  std::vector<std::thread> threads;
  for (unsigned w = 0; w < submitters; ++w) {
    threads.emplace_back([&, w] {
      const IdPair pair{static_cast<ObjectId>(w), static_cast<ObjectId>(w + 8)};
      statuses[w] = ResolveOne(&coalescer, pair, &results[w]);
    });
  }
  for (std::thread& t : threads) t.join();

  for (unsigned w = 0; w < submitters; ++w) {
    ASSERT_TRUE(statuses[w].ok()) << statuses[w];
    EXPECT_EQ(results[w], dataset.oracle->Distance(w, w + 8));
  }
  // The linger window merged distinct sessions' pairs into shared
  // round-trips: strictly fewer batches than submitters (typically one).
  const CoalescerCounters counters = coalescer.counters();
  EXPECT_EQ(counters.pairs_shipped, submitters);
  EXPECT_GE(counters.batches_shipped, 1u);
  EXPECT_LT(counters.batches_shipped, submitters);
}

TEST(CoalescerTest, FullBatchShipsWithoutWaitingOutTheLinger) {
  const ObjectId n = 16;
  Dataset dataset = MakeRandomMetric(n, /*seed=*/29);
  CoalescerOptions options;
  options.linger_seconds = 60.0;  // would time the test out if honored
  options.max_batch_pairs = 4;
  BatchCoalescer coalescer(dataset.oracle.get(), options);
  std::vector<std::thread> threads;
  std::vector<double> results(4, 0.0);
  for (unsigned w = 0; w < 4; ++w) {
    threads.emplace_back([&, w] {
      const IdPair pair{static_cast<ObjectId>(w), static_cast<ObjectId>(w + 4)};
      ASSERT_TRUE(ResolveOne(&coalescer, pair, &results[w]).ok());
    });
  }
  // Joining at all (within the test timeout) proves the batch-full path
  // shipped without sleeping the 60 s window.
  for (std::thread& t : threads) t.join();
  for (unsigned w = 0; w < 4; ++w) {
    EXPECT_EQ(results[w], dataset.oracle->Distance(w, w + 4));
  }
}

TEST(CoalescerTest, DeadlineExpiresOnlyTheAffectedWaiter) {
  const ObjectId n = 8;
  Dataset dataset = MakeRandomMetric(n, /*seed=*/31);
  CoalescerOptions options;
  options.manual_flush = true;  // nothing ships until we say so
  BatchCoalescer coalescer(dataset.oracle.get(), options);

  // Waiter B first: no deadline, pair (2, 1). Then waiter A joins the same
  // (symmetric) pair under a tight deadline.
  double result_b = -1.0;
  Status status_b;
  std::thread waiter_b([&] {
    status_b = ResolveOne(&coalescer, IdPair{2, 1}, &result_b);
  });
  AwaitPending(coalescer, 1);
  double result_a = -1.0;
  Status status_a;
  std::thread waiter_a([&] {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(30);
    status_a = ResolveOne(&coalescer, IdPair{1, 2}, &result_a, deadline);
  });

  waiter_a.join();  // expires: the batch is deliberately held back
  EXPECT_EQ(status_a.code(), StatusCode::kDeadlineExceeded);
  EXPECT_GE(coalescer.counters().deadline_expirations, 1u);

  // The pair is STILL pending — A's expiry must not cancel B's wait.
  EXPECT_EQ(coalescer.PendingPairs(), 1u);
  coalescer.FlushNow();
  waiter_b.join();
  EXPECT_TRUE(status_b.ok()) << status_b;
  EXPECT_EQ(result_b, dataset.oracle->Distance(1, 2));
}

TEST(CoalescerTest, BackpressureBlocksThenDrains) {
  const ObjectId n = 16;
  Dataset dataset = MakeRandomMetric(n, /*seed=*/37);
  CoalescerOptions options;
  options.manual_flush = true;
  options.max_pending_pairs = 2;
  BatchCoalescer coalescer(dataset.oracle.get(), options);

  std::atomic<int> resolved{0};
  std::vector<double> results(3, 0.0);
  std::vector<std::thread> threads;
  for (unsigned w = 0; w < 3; ++w) {
    threads.emplace_back([&, w] {
      const IdPair pair{static_cast<ObjectId>(w), static_cast<ObjectId>(w + 8)};
      ASSERT_TRUE(ResolveOne(&coalescer, pair, &results[w]).ok());
      resolved.fetch_add(1);
    });
  }
  // Exactly two pairs fit; the third submitter is blocked in backpressure.
  AwaitPending(coalescer, 2);
  EXPECT_EQ(resolved.load(), 0);
  coalescer.FlushNow();  // drains the two, admits the third
  AwaitPending(coalescer, 1);
  coalescer.FlushNow();
  for (std::thread& t : threads) t.join();
  for (unsigned w = 0; w < 3; ++w) {
    EXPECT_EQ(results[w], dataset.oracle->Distance(w, w + 8));
  }
  EXPECT_EQ(coalescer.counters().pairs_shipped, 3u);
}

TEST(CoalescerTest, BackpressureDeadlineSurfacesDeadlineExceeded) {
  const ObjectId n = 16;
  Dataset dataset = MakeRandomMetric(n, /*seed=*/41);
  CoalescerOptions options;
  options.manual_flush = true;
  options.max_pending_pairs = 1;
  BatchCoalescer coalescer(dataset.oracle.get(), options);

  double first = 0.0;
  Status first_status;
  std::thread occupant([&] {
    first_status = ResolveOne(&coalescer, IdPair{1, 2}, &first);
  });
  AwaitPending(coalescer, 1);

  // The pending set is full and nobody flushes: this submitter's deadline
  // elapses inside backpressure.
  double blocked = 0.0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(30);
  const Status status =
      ResolveOne(&coalescer, IdPair{3, 4}, &blocked, deadline);
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);

  coalescer.FlushNow();
  occupant.join();
  EXPECT_TRUE(first_status.ok());
  EXPECT_EQ(first, dataset.oracle->Distance(1, 2));
}

TEST(CoalescerTest, DestructorDrainsPendingWaiters) {
  const ObjectId n = 8;
  Dataset dataset = MakeRandomMetric(n, /*seed=*/43);
  double result = 0.0;
  Status status;
  std::thread waiter;
  {
    CoalescerOptions options;
    options.manual_flush = true;
    BatchCoalescer coalescer(dataset.oracle.get(), options);
    waiter = std::thread([&] {
      status = ResolveOne(&coalescer, IdPair{2, 6}, &result);
    });
    AwaitPending(coalescer, 1);
    // No FlushNow: destruction itself must ship the remainder so the
    // waiter is released with a real result, not left hanging.
  }
  waiter.join();
  EXPECT_TRUE(status.ok()) << status;
  EXPECT_EQ(result, dataset.oracle->Distance(2, 6));
}

// Chaos: many concurrent submitters with heavy pair overlap, a transiently
// failing transport and a retry layer underneath the coalescer. Every
// submitter must see OK and the exact oracle distance for every pair —
// nothing lost, nothing double-delivered, dedup still charged per join.
TEST(CoalescerChaosTest, FaultyRetriedTransportLosesNothing) {
  const ObjectId n = 24;
  Dataset dataset = MakeRandomMetric(n, /*seed=*/4747);
  FaultInjectionOptions fault;
  fault.failure_rate = 0.15;
  fault.max_consecutive_failures = 2;
  fault.seed = 909;
  FaultInjectingOracle faulty(dataset.oracle.get(), fault);
  RetryOptions retry;
  retry.max_attempts = 5;
  retry.initial_backoff_seconds = 1e-7;
  retry.max_backoff_seconds = 1e-6;
  retry.seed = 909;
  RetryingOracle retrying(&faulty, retry);
  CountingOracle counting(&retrying);

  CoalescerOptions options;
  options.linger_seconds = 0.002;
  options.max_batch_pairs = 16;
  BatchCoalescer coalescer(&counting, options);

  const unsigned submitters = 6;
  const unsigned rounds = 5;
  std::vector<std::vector<double>> results(
      submitters, std::vector<double>(rounds, -1.0));
  std::vector<Status> worst(submitters);
  std::vector<std::thread> threads;
  for (unsigned w = 0; w < submitters; ++w) {
    threads.emplace_back([&, w] {
      for (unsigned r = 0; r < rounds; ++r) {
        // Overlapping pair universe: submitter w and w+1 share pairs each
        // round, so in-flight joins happen constantly.
        const ObjectId i = static_cast<ObjectId>((w + r) % 12);
        const ObjectId j = static_cast<ObjectId>(12 + (w * r) % 12);
        const Status status =
            ResolveOne(&coalescer, IdPair{i, j}, &results[w][r]);
        if (!status.ok()) worst[w] = status;
      }
    });
  }
  for (std::thread& t : threads) t.join();

  for (unsigned w = 0; w < submitters; ++w) {
    EXPECT_TRUE(worst[w].ok()) << worst[w];
    for (unsigned r = 0; r < rounds; ++r) {
      const ObjectId i = static_cast<ObjectId>((w + r) % 12);
      const ObjectId j = static_cast<ObjectId>(12 + (w * r) % 12);
      EXPECT_EQ(results[w][r], dataset.oracle->Distance(i, j))
          << "submitter " << w << " round " << r;
    }
  }
  const CoalescerCounters counters = coalescer.counters();
  // Conservation: every submission either shipped or joined a pending pair.
  EXPECT_EQ(counters.pairs_shipped + counters.dedup_hits,
            static_cast<uint64_t>(submitters) * rounds);
  // The retried transport billed exactly the shipped pairs — retries cost
  // attempts, never extra charged pairs (RetryingOracle bills per pair).
  EXPECT_EQ(counting.calls(), counters.pairs_shipped);
  EXPECT_EQ(counters.deadline_expirations, 0u);
}

}  // namespace
}  // namespace metricprox
