#include "src/sim/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <utility>

#include "src/common/check.h"

namespace floatfl {

ThreadPool::ThreadPool(size_t num_workers) {
  workers_.reserve(num_workers);
  for (size_t i = 0; i < num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) {
    w.join();
  }
}

std::future<void> ThreadPool::Submit(std::function<void()> fn) {
  std::packaged_task<void()> task(std::move(fn));
  std::future<void> future = task.get_future();
  {
    std::lock_guard<std::mutex> lock(mu_);
    FLOATFL_CHECK_MSG(!stop_, "Submit after ThreadPool shutdown");
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
  return future;
}

bool ThreadPool::TryRunOneTask() {
  std::packaged_task<void()> task;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (queue_.empty()) {
      return false;
    }
    task = std::move(queue_.front());
    queue_.pop_front();
  }
  task();
  return true;
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::packaged_task<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) {
        return;  // stop_ set and nothing left to drain
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

size_t ResolveThreadCount(size_t requested) {
  if (requested != 0) {
    return requested;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<size_t>(hw);
}

void ParallelFor(ThreadPool* pool, size_t n, const std::function<void(size_t)>& fn) {
  const size_t workers = pool == nullptr ? 0 : pool->num_workers();
  const size_t participants = std::max<size_t>(1, std::min(n, workers + 1));
  // Blocks of `grain` indices keep the shared counter cold when n is large;
  // about eight blocks per participant still even out uneven indices.
  const size_t grain = std::max<size_t>(1, n / (8 * participants));
  std::atomic<size_t> next{0};
  std::mutex error_mu;
  size_t error_index = n;
  std::exception_ptr error;

  // Every participant claims blocks until none is left. A throwing index is
  // recorded and the loop goes on, so every index runs whatever fails.
  const auto drain = [&] {
    for (;;) {
      const size_t begin = next.fetch_add(grain, std::memory_order_relaxed);
      if (begin >= n) {
        return;
      }
      const size_t end = std::min(n, begin + grain);
      for (size_t i = begin; i < end; ++i) {
        try {
          fn(i);
        } catch (...) {
          std::lock_guard<std::mutex> lock(error_mu);
          if (i < error_index) {
            error_index = i;
            error = std::current_exception();
          }
        }
      }
    }
  };

  std::vector<std::future<void>> futures;
  futures.reserve(participants - 1);
  for (size_t c = 1; c < participants; ++c) {
    futures.push_back(pool->Submit(drain));
  }
  drain();

  // Wait for the helpers still inside a claimed block, helping drain the
  // queue instead of blocking so a nested ParallelFor issued from inside a
  // body cannot deadlock the pool.
  for (auto& future : futures) {
    while (future.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
      if (!pool->TryRunOneTask()) {
        future.wait_for(std::chrono::microseconds(50));
      }
    }
    future.get();
  }
  if (error != nullptr) {
    std::rethrow_exception(error);
  }
}

}  // namespace floatfl
