#include "src/sim/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace floatfl {
namespace {

TEST(ThreadPoolTest, SubmittedTasksAllComplete) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.Submit([&count] { ++count; }));
  }
  for (auto& f : futures) {
    f.get();
  }
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, SubmitPropagatesExceptionThroughFuture) {
  ThreadPool pool(2);
  std::future<void> ok = pool.Submit([] {});
  std::future<void> bad = pool.Submit([] { throw std::runtime_error("task failed"); });
  EXPECT_NO_THROW(ok.get());
  EXPECT_THROW(bad.get(), std::runtime_error);
}

TEST(ThreadPoolTest, DestructorDrainsQueuedTasks) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&count] { ++count; });
    }
  }  // ~ThreadPool joins after the queue drains
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPoolTest, TasksRunOnWorkerThreads) {
  ThreadPool pool(2);
  std::mutex mu;
  std::set<std::thread::id> ids;
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 32; ++i) {
    futures.push_back(pool.Submit([&] {
      std::lock_guard<std::mutex> lock(mu);
      ids.insert(std::this_thread::get_id());
    }));
  }
  for (auto& f : futures) {
    f.get();
  }
  EXPECT_GE(ids.size(), 1u);
  EXPECT_LE(ids.size(), 2u);
  EXPECT_EQ(ids.count(std::this_thread::get_id()), 0u);
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  const size_t n = 1000;
  std::vector<std::atomic<int>> hits(n);
  ParallelFor(&pool, n, [&hits](size_t i) { ++hits[i]; });
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForTest, NullPoolRunsInlineInIndexOrder) {
  std::vector<size_t> visited;
  ParallelFor(nullptr, 10, [&visited](size_t i) { visited.push_back(i); });
  ASSERT_EQ(visited.size(), 10u);
  for (size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(visited[i], i);
  }
}

TEST(ParallelForTest, ZeroWorkerPoolRunsInline) {
  ThreadPool pool(0);
  std::vector<size_t> visited;
  ParallelFor(&pool, 5, [&visited](size_t i) { visited.push_back(i); });
  EXPECT_EQ(visited.size(), 5u);
}

TEST(ParallelForTest, EmptyAndSingletonRanges) {
  ThreadPool pool(2);
  int calls = 0;
  ParallelFor(&pool, 0, [&calls](size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  ParallelFor(&pool, 1, [&calls](size_t) { ++calls; });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelForTest, RethrowsExceptionFromBody) {
  ThreadPool pool(4);
  EXPECT_THROW(
      ParallelFor(&pool, 100,
                  [](size_t i) {
                    if (i == 57) {
                      throw std::runtime_error("boom");
                    }
                  }),
      std::runtime_error);
}

TEST(ParallelForTest, RethrowsLowestIndexedChunkFailure) {
  ThreadPool pool(4);
  // Multiple chunks fail; the rethrown message must come from the failing
  // chunk with the lowest index, deterministically.
  for (int attempt = 0; attempt < 10; ++attempt) {
    try {
      ParallelFor(&pool, 100, [](size_t i) {
        throw std::runtime_error("chunk of " + std::to_string(i));
      });
      FAIL() << "expected a throw";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "chunk of 0");
    }
  }
}

TEST(ParallelForTest, ExceptionStillRunsIndependentChunks) {
  ThreadPool pool(4);
  const size_t n = 64;
  std::vector<std::atomic<int>> hits(n);
  try {
    ParallelFor(&pool, n, [&hits](size_t i) {
      if (i == 0) {
        throw std::runtime_error("first chunk dies");
      }
      ++hits[i];
    });
    FAIL() << "expected a throw";
  } catch (const std::runtime_error&) {
  }
  // Every index outside the failing chunk's remainder still ran: chunks are
  // independent, and the failing chunk only skips its own remaining indices.
  int ran = 0;
  for (size_t i = 0; i < n; ++i) {
    ran += hits[i].load();
  }
  EXPECT_GE(ran, static_cast<int>(n - n / pool.num_workers() - 1));
}

TEST(ParallelForTest, ReentrantNestedParallelForDoesNotDeadlock) {
  ThreadPool pool(2);
  const size_t outer = 8;
  const size_t inner = 16;
  std::vector<std::atomic<int>> hits(outer * inner);
  ParallelFor(&pool, outer, [&](size_t o) {
    ParallelFor(&pool, inner, [&, o](size_t i) { ++hits[o * inner + i]; });
  });
  for (size_t i = 0; i < outer * inner; ++i) {
    EXPECT_EQ(hits[i].load(), 1);
  }
}

TEST(ParallelForTest, DeeplyNestedReentrancy) {
  ThreadPool pool(1);  // a single worker is the tightest deadlock trap
  std::atomic<int> leaves{0};
  ParallelFor(&pool, 4, [&](size_t) {
    ParallelFor(&pool, 4, [&](size_t) {
      ParallelFor(&pool, 4, [&](size_t) { ++leaves; });
    });
  });
  EXPECT_EQ(leaves.load(), 64);
}

// Index 0 blocks until every other index has run. Indices are claimed one
// block at a time, so the thread stuck on index 0 holds back nothing: the
// other participants claim the rest. Under contiguous per-thread chunks the
// indices behind 0 in its chunk would wait on it. The wait is bounded, so a
// regression fails instead of hanging.
TEST(ParallelForTest, BlockedIndexDoesNotHoldBackTheOthers) {
  ThreadPool pool(3);
  const size_t n = 8;
  std::mutex mu;
  std::condition_variable cv;
  size_t others_done = 0;
  size_t seen_by_index0 = 0;
  ParallelFor(&pool, n, [&](size_t i) {
    std::unique_lock<std::mutex> lock(mu);
    if (i != 0) {
      ++others_done;
      cv.notify_all();
      return;
    }
    cv.wait_for(lock, std::chrono::seconds(5), [&] { return others_done == n - 1; });
    seen_by_index0 = others_done;
  });
  EXPECT_EQ(seen_by_index0, n - 1) << "other indices that ran while index 0 waited";
}

// Several indices fail; the rethrown exception is the lowest failing index's
// at every thread count, and every index, failing or not, runs exactly once.
// 200 indices split into claim blocks unevenly at 4 and 8 threads.
TEST(ParallelForTest, RethrowsLowestFailingIndexAtEveryThreadCount) {
  const size_t n = 200;
  const std::set<size_t> failing = {7, 8, 61, 62, 63, 150, 199};
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    // Sized as the engines size it: the caller is one of `threads`.
    const std::unique_ptr<ThreadPool> pool =
        threads > 1 ? std::make_unique<ThreadPool>(threads - 1) : nullptr;
    std::vector<std::atomic<int>> hits(n);
    try {
      ParallelFor(pool.get(), n, [&](size_t i) {
        ++hits[i];
        if (failing.count(i) != 0) {
          throw std::runtime_error("index " + std::to_string(i));
        }
      });
      FAIL() << "expected a throw";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "index 7");
    }
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i;
    }
  }
}

TEST(ResolveThreadCountTest, ZeroMeansHardwareConcurrency) {
  const size_t resolved = ResolveThreadCount(0);
  EXPECT_GE(resolved, 1u);
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw > 0) {
    EXPECT_EQ(resolved, static_cast<size_t>(hw));
  }
}

TEST(ResolveThreadCountTest, ExplicitCountsPassThrough) {
  EXPECT_EQ(ResolveThreadCount(1), 1u);
  EXPECT_EQ(ResolveThreadCount(7), 7u);
}

}  // namespace
}  // namespace floatfl
