// Concurrency stress for the serving layer, written to be meaningful under
// ThreadSanitizer (ctest label "tsan"/"slow", see .github/workflows/ci.yml):
// many threads hammer one shared ResultCache and one shared SnapshotCache
// through per-thread engines, mixing hits, misses, evictions, Clear(), and
// stats reads. Correctness is asserted throughout — every served vector
// must be bit-identical to the cold reference — so the test catches both
// data races (via TSan) and lost/torn cache updates (via the assertions).

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "srs/engine/query_engine.h"
#include "srs/graph/generators.h"

namespace srs {
namespace {

TEST(EngineStressTest, ResultCacheParallelGetPutEvict) {
  // A deliberately tiny cache so threads continuously evict each other's
  // entries while reading. Values encode their key, so any cross-wired
  // entry is detected.
  ResultCacheOptions options;
  options.capacity_bytes = 32 << 10;
  options.num_shards = 4;
  ResultCache cache(options);
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 4000;
  constexpr int kKeySpace = 200;
  std::atomic<int64_t> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(DeriveSeed(99, static_cast<uint64_t>(t)));
      for (int op = 0; op < kOpsPerThread; ++op) {
        const NodeId q = static_cast<NodeId>(rng.Uniform(kKeySpace));
        const ResultKey key{7, 7, q};
        if (rng.Bernoulli(0.4)) {
          cache.Put(key, std::make_shared<const std::vector<double>>(
                             32, static_cast<double>(q)));
        } else if (ResultCache::Value hit = cache.Get(key)) {
          if (hit->size() != 32 ||
              (*hit)[0] != static_cast<double>(q)) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
        if (op % 1000 == 999) {
          const ResultCacheStats stats = cache.Stats();
          if (stats.bytes > cache.capacity_bytes()) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  const ResultCacheStats stats = cache.Stats();
  EXPECT_LE(stats.bytes, cache.capacity_bytes());
  EXPECT_GT(stats.hits + stats.misses, 0u);
}

TEST(EngineStressTest, SnapshotCacheConcurrentGetSharesOneSnapshot) {
  SnapshotCache cache;
  const Graph g = Rmat(64, 380, 41).ValueOrDie();
  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const GraphSnapshot>> snapshots(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] { snapshots[t] = cache.Get(g); });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_NE(snapshots[t], nullptr);
    // All threads must observe the same fingerprint; at most one racing
    // build wins the insert, so later Gets converge on one pointer.
    EXPECT_EQ(snapshots[t]->fingerprint, snapshots[0]->fingerprint);
  }
  EXPECT_EQ(cache.Get(g).get(), cache.Get(g).get());
  EXPECT_EQ(cache.Stats().entries, 1u);
}

TEST(EngineStressTest, ManyEnginesOneSharedCacheStayBitIdentical) {
  // The documented serving pattern: one engine per thread, all sharing a
  // snapshot cache and a result cache. Every thread loops over a rotating
  // batch; every answer must match the cold reference exactly no matter
  // which engine computed or cached it. One thread periodically clears the
  // cache to stress the invalidation path.
  const Graph g = Rmat(56, 300, 42).ValueOrDie();
  SimilarityOptions sim;
  sim.damping = 0.6;
  sim.iterations = 5;
  QueryEngineOptions cold_opts;
  cold_opts.similarity = sim;
  QueryEngine cold = QueryEngine::Create(g, cold_opts).MoveValueOrDie();
  std::vector<NodeId> all(static_cast<size_t>(g.NumNodes()));
  for (size_t i = 0; i < all.size(); ++i) all[i] = static_cast<NodeId>(i);
  const auto want = cold.BatchScores(QueryMeasure::kSimRankStarGeometric, all)
                        .ValueOrDie();

  ResultCacheOptions cache_options;
  cache_options.capacity_bytes = 24 << 10;  // small: constant eviction
  auto cache = std::make_shared<ResultCache>(cache_options);
  SnapshotCache snapshots;
  constexpr int kThreads = 6;
  constexpr int kRounds = 40;
  std::atomic<int64_t> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      QueryEngineOptions opts;
      opts.similarity = sim;
      opts.num_threads = 1;  // inline: the stress parallelism is outside
      opts.result_cache = cache;
      opts.snapshot_cache = &snapshots;
      QueryEngine engine = QueryEngine::Create(g, opts).MoveValueOrDie();
      Rng rng(DeriveSeed(7, static_cast<uint64_t>(t)));
      for (int round = 0; round < kRounds; ++round) {
        std::vector<NodeId> batch;
        for (int i = 0; i < 8; ++i) {
          batch.push_back(
              static_cast<NodeId>(rng.Uniform(static_cast<uint64_t>(
                  g.NumNodes()))));
        }
        const auto got =
            engine.BatchScores(QueryMeasure::kSimRankStarGeometric, batch)
                .ValueOrDie();
        for (size_t i = 0; i < batch.size(); ++i) {
          if (got[i] != want[static_cast<size_t>(batch[i])]) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
        if (t == 0 && round % 16 == 15) cache->Clear();
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(snapshots.Stats().entries, 1u);
}

TEST(EngineStressTest, BatchesAndRowStreamsInterleaveOnOneCache) {
  const Graph g = Rmat(48, 240, 43).ValueOrDie();
  SimilarityOptions sim;
  sim.damping = 0.7;
  sim.iterations = 4;
  auto cache = std::make_shared<ResultCache>();
  SnapshotCache snapshots;
  QueryEngineOptions ref_opts;
  ref_opts.similarity = sim;
  ref_opts.snapshot_cache = &snapshots;
  QueryEngine reference = QueryEngine::Create(g, ref_opts).MoveValueOrDie();
  const DenseMatrix want =
      reference.ComputeAllPairs(QueryMeasure::kRwr).ValueOrDie();

  constexpr int kThreads = 6;
  std::atomic<int64_t> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      if (t % 2 == 0) {
        QueryEngineOptions opts;
        opts.similarity = sim;
        opts.tile_size = 8;
        opts.num_threads = 1;
        opts.result_cache = cache;
        opts.snapshot_cache = &snapshots;
        QueryEngine engine = QueryEngine::Create(g, opts).MoveValueOrDie();
        for (int round = 0; round < 4; ++round) {
          SRS_CHECK_OK(engine.ForEachRow(
              QueryMeasure::kRwr,
              std::vector<NodeId>(
                  {0, 5, 11, 17, 23, 29, 35, 41, 47, 5, 11}),
              [&](int64_t, NodeId source, const std::vector<double>& row) {
                for (int64_t v = 0; v < g.NumNodes(); ++v) {
                  if (row[static_cast<size_t>(v)] != want.At(source, v)) {
                    mismatches.fetch_add(1, std::memory_order_relaxed);
                  }
                }
              }));
        }
      } else {
        QueryEngineOptions opts;
        opts.similarity = sim;
        opts.num_threads = 1;
        opts.result_cache = cache;
        opts.snapshot_cache = &snapshots;
        QueryEngine engine = QueryEngine::Create(g, opts).MoveValueOrDie();
        Rng rng(DeriveSeed(13, static_cast<uint64_t>(t)));
        for (int round = 0; round < 16; ++round) {
          const NodeId q = static_cast<NodeId>(
              rng.Uniform(static_cast<uint64_t>(g.NumNodes())));
          const auto got =
              engine.BatchScores(QueryMeasure::kRwr, {q}).ValueOrDie();
          for (int64_t v = 0; v < g.NumNodes(); ++v) {
            if (got[0][static_cast<size_t>(v)] != want.At(q, v)) {
              mismatches.fetch_add(1, std::memory_order_relaxed);
            }
          }
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  const ResultCacheStats stats = cache->Stats();
  EXPECT_GT(stats.hits, 0u);
}

}  // namespace
}  // namespace srs
