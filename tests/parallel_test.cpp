// Tests for the parallel execution layer: ParallelFor semantics and the
// bitwise-determinism guarantee of the threaded kernels.

#include "srs/common/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>

#include "srs/baselines/simrank_psum.h"
#include "srs/core/memo_gsr_star.h"
#include "srs/core/simrank_star_exponential.h"
#include "srs/core/simrank_star_geometric.h"
#include "srs/datasets/datasets.h"
#include "srs/graph/generators.h"

namespace srs {
namespace {

TEST(ParallelForTest, CoversRangeExactlyOnce) {
  for (int threads : {1, 2, 3, 8, 64}) {
    std::vector<std::atomic<int>> hits(100);
    ParallelFor(0, 100, threads, [&](int64_t begin, int64_t end) {
      for (int64_t i = begin; i < end; ++i) {
        hits[static_cast<size_t>(i)].fetch_add(1);
      }
    });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1) << threads;
  }
}

TEST(ParallelForTest, EmptyRangeIsNoop) {
  bool called = false;
  ParallelFor(5, 5, 4, [&](int64_t, int64_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelForTest, MoreThreadsThanWork) {
  std::atomic<int64_t> sum{0};
  ParallelFor(0, 3, 16, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) sum.fetch_add(i);
  });
  EXPECT_EQ(sum.load(), 3);
}

TEST(ParallelForTest, HardwareThreadsPositive) {
  EXPECT_GE(HardwareThreads(), 1);
}

TEST(ThreadPoolTest, RunsEveryItemExactlyOnce) {
  for (int threads : {1, 2, 5}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.NumWorkers(), threads);
    std::vector<std::atomic<int>> hits(200);
    pool.ParallelForIndexed(0, 200, [&](int64_t i, int worker) {
      EXPECT_GE(worker, 0);
      EXPECT_LT(worker, pool.NumWorkers());
      hits[static_cast<size_t>(i)].fetch_add(1);
    });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1) << threads;
  }
}

TEST(ThreadPoolTest, ReusableAcrossManyDispatches) {
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int64_t> sum{0};
    pool.ParallelForIndexed(0, 37, [&](int64_t i, int) { sum.fetch_add(i); });
    EXPECT_EQ(sum.load(), 36 * 37 / 2) << "round " << round;
  }
}

TEST(ThreadPoolTest, EmptyRangeIsNoop) {
  ThreadPool pool(3);
  bool called = false;
  pool.ParallelForIndexed(7, 7, [&](int64_t, int) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, SingleItemRunsInlineAsWorkerZero) {
  // A one-item dispatch must not wake the pool: it runs on the calling
  // thread, as worker 0, every time.
  ThreadPool pool(4);
  for (int round = 0; round < 20; ++round) {
    std::thread::id ran_on;
    int ran_as = -1;
    int calls = 0;
    pool.ParallelForIndexed(5, 6, [&](int64_t i, int worker) {
      EXPECT_EQ(i, 5);
      ran_on = std::this_thread::get_id();
      ran_as = worker;
      ++calls;
    });
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(ran_on, std::this_thread::get_id()) << "round " << round;
    EXPECT_EQ(ran_as, 0) << "round " << round;
  }
}

TEST(ThreadPoolTest, NonPositiveThreadCountUsesHardware) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.NumWorkers(), HardwareThreads());
}

TEST(ThreadPoolTest, PartialOverlapOfWorkersAndItems) {
  // More workers than items: the extra workers must park without touching
  // anything, and the dispatch must still complete.
  ThreadPool pool(8);
  std::atomic<int64_t> sum{0};
  pool.ParallelForIndexed(0, 3, [&](int64_t i, int) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 3);
}

TEST(ParallelDeterminismTest, MultiplyDenseBitwiseIdentical) {
  const Graph g = MakeCitHepThLike(0.1, 31).ValueOrDie();
  const CsrMatrix q = g.BackwardTransition();
  DenseMatrix d(g.NumNodes(), g.NumNodes());
  for (int64_t i = 0; i < g.NumNodes(); ++i) d.At(i, i) = 0.4;
  const DenseMatrix serial = q.MultiplyDense(d, 1);
  for (int threads : {2, 4, 7}) {
    EXPECT_EQ(serial.MaxAbsDiff(q.MultiplyDense(d, threads)), 0.0)
        << threads << " threads";
  }
}

TEST(ParallelDeterminismTest, AlgorithmsBitwiseIdenticalAcrossThreadCounts) {
  const Graph g = MakeWebGoogleLike(0.15, 32).ValueOrDie();
  SimilarityOptions serial_opts;
  serial_opts.iterations = 5;
  SimilarityOptions parallel_opts = serial_opts;
  parallel_opts.num_threads = 4;

  EXPECT_EQ(ComputeSimRankStarGeometric(g, serial_opts)
                .ValueOrDie()
                .MaxAbsDiff(
                    ComputeSimRankStarGeometric(g, parallel_opts).ValueOrDie()),
            0.0);
  EXPECT_EQ(ComputeSimRankStarExponential(g, serial_opts)
                .ValueOrDie()
                .MaxAbsDiff(ComputeSimRankStarExponential(g, parallel_opts)
                                .ValueOrDie()),
            0.0);
  EXPECT_EQ(
      ComputeMemoGsrStar(g, serial_opts)
          .ValueOrDie()
          .MaxAbsDiff(ComputeMemoGsrStar(g, parallel_opts).ValueOrDie()),
      0.0);
  EXPECT_EQ(
      ComputeSimRankPsum(g, serial_opts)
          .ValueOrDie()
          .MaxAbsDiff(ComputeSimRankPsum(g, parallel_opts).ValueOrDie()),
      0.0);
}

TEST(ParallelDeterminismTest, RejectsNonPositiveThreads) {
  const Graph g = PathGraph(4).ValueOrDie();
  SimilarityOptions opts;
  opts.num_threads = 0;
  EXPECT_FALSE(ComputeSimRankStarGeometric(g, opts).ok());
}

}  // namespace
}  // namespace srs
