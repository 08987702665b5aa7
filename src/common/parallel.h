#pragma once

/// \file parallel.h
/// \brief Deterministic row-partitioned parallelism for the O(n·m) kernels.
///
/// All-pairs similarity iterations are embarrassingly parallel across
/// output rows. `ParallelFor` splits an index range into contiguous chunks,
/// one per worker; because every output row is written by exactly one
/// thread and the per-row computation is identical to the serial code,
/// results are bitwise identical for any thread count — a property the
/// test suite asserts.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace srs {

/// Number of hardware threads (≥ 1).
int HardwareThreads();

/// Invokes `chunk_fn(chunk_begin, chunk_end)` over a partition of
/// [begin, end) using up to `num_threads` threads (the calling thread
/// counts as one). `num_threads <= 1` runs inline with zero overhead.
void ParallelFor(int64_t begin, int64_t end, int num_threads,
                 const std::function<void(int64_t, int64_t)>& chunk_fn);

/// \brief Reusable pool of worker threads for batched query serving.
///
/// `ParallelFor` spawns and joins threads per call, which is fine for the
/// seconds-long all-pairs kernels but dominates the cost of millisecond
/// single-source queries. A ThreadPool keeps its workers parked on a
/// condition variable between batches, and hands each work item a stable
/// worker index so callers can maintain per-worker scratch state (the
/// QueryEngine keys its preallocated workspaces off it).
///
/// Items are claimed dynamically (one atomic fetch per item), so skewed
/// per-item cost — e.g. high-degree query nodes — load-balances across
/// workers. The calling thread participates as worker 0.
class ThreadPool {
 public:
  /// Pool with `num_threads` workers total (including the caller during a
  /// dispatch). Values <= 0 use HardwareThreads(). One worker means all
  /// dispatches run inline with zero synchronization.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total workers, including the calling thread: worker indices passed to
  /// dispatched functions lie in [0, NumWorkers()).
  int NumWorkers() const { return static_cast<int>(threads_.size()) + 1; }

  /// Invokes `item_fn(i, worker)` once for every i in [begin, end), blocking
  /// until all items are done. Items are claimed dynamically; `worker`
  /// identifies the executing worker. A one-item range runs inline on the
  /// calling thread as worker 0 without waking the pool. Not reentrant and
  /// not thread-safe: one dispatch at a time per pool.
  void ParallelForIndexed(int64_t begin, int64_t end,
                          const std::function<void(int64_t, int)>& item_fn);

 private:
  void WorkerLoop(int worker);
  void RunItems(const std::function<void(int64_t, int)>& item_fn, int worker);

  std::vector<std::thread> threads_;

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  const std::function<void(int64_t, int)>* job_ = nullptr;  // guarded by mu_
  int64_t job_end_ = 0;                                     // guarded by mu_
  std::atomic<int64_t> next_{0};
  uint64_t generation_ = 0;  // guarded by mu_
  int active_ = 0;           // guarded by mu_
  bool shutdown_ = false;    // guarded by mu_
};

}  // namespace srs
