#include "srs/common/parallel.h"

#include <algorithm>
#include <thread>
#include <vector>

#include "srs/common/macros.h"

namespace srs {

int HardwareThreads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

void ParallelFor(int64_t begin, int64_t end, int num_threads,
                 const std::function<void(int64_t, int64_t)>& chunk_fn) {
  SRS_CHECK_LE(begin, end);
  const int64_t total = end - begin;
  if (total == 0) return;
  const int64_t workers =
      std::max<int64_t>(1, std::min<int64_t>(num_threads, total));
  if (workers == 1) {
    chunk_fn(begin, end);
    return;
  }

  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(workers) - 1);
  for (int64_t w = 0; w < workers; ++w) {
    const int64_t chunk_begin = begin + w * total / workers;
    const int64_t chunk_end = begin + (w + 1) * total / workers;
    if (chunk_begin == chunk_end) continue;
    if (w + 1 == workers) {
      chunk_fn(chunk_begin, chunk_end);  // last chunk on the calling thread
    } else {
      threads.emplace_back(
          [&chunk_fn, chunk_begin, chunk_end] { chunk_fn(chunk_begin, chunk_end); });
    }
  }
  for (std::thread& t : threads) t.join();
}

ThreadPool::ThreadPool(int num_threads) {
  if (num_threads <= 0) num_threads = HardwareThreads();
  threads_.reserve(static_cast<size_t>(num_threads) - 1);
  for (int w = 1; w < num_threads; ++w) {
    threads_.emplace_back([this, w] { WorkerLoop(w); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::RunItems(const std::function<void(int64_t, int)>& item_fn,
                          int worker) {
  const int64_t end = job_end_;
  for (;;) {
    const int64_t i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= end) break;
    item_fn(i, worker);
  }
}

void ThreadPool::WorkerLoop(int worker) {
  uint64_t seen_generation = 0;
  for (;;) {
    const std::function<void(int64_t, int)>* job = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] {
        return shutdown_ || generation_ != seen_generation;
      });
      if (shutdown_) return;
      seen_generation = generation_;
      job = job_;
    }
    RunItems(*job, worker);
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--active_ == 0) done_cv_.notify_one();
    }
  }
}

void ThreadPool::ParallelForIndexed(
    int64_t begin, int64_t end,
    const std::function<void(int64_t, int)>& item_fn) {
  SRS_CHECK_LE(begin, end);
  if (begin == end) return;
  // One item (or one worker) runs inline on the caller as worker 0: waking
  // the parked workers would only make them find the range already empty.
  if (threads_.empty() || end - begin == 1) {
    for (int64_t i = begin; i < end; ++i) item_fn(i, 0);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    job_ = &item_fn;
    job_end_ = end;
    next_.store(begin, std::memory_order_relaxed);
    active_ = static_cast<int>(threads_.size());
    ++generation_;
  }
  work_cv_.notify_all();
  RunItems(item_fn, /*worker=*/0);
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [&] { return active_ == 0; });
  job_ = nullptr;
}

}  // namespace srs
