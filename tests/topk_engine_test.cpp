// Correctness of top-k retrieval, QueryEngine::BatchTopK
// (engine/query_engine.h):
//  * exactness — the top-k set AND order equal the sorted full row
//    (RankedBefore: higher score first, ties by ascending node id) across
//    the random-graph corpus × all three measures × both kernel backends
//    at prune_epsilon = 0 × multiple thread counts and k's;
//  * the reported partial scores are lower bounds within the returned
//    residual_bound of the full-accuracy scores;
//  * with early termination disabled, scores are bitwise the full-row
//    scores;
//  * cached top-k answers decode bit-identically to cold ones, and top-k
//    entries never alias full-row entries in a shared cache;
//  * the residual-bound helpers and the collector behave as documented.

#include "srs/engine/topk_engine.h"

#include <gtest/gtest.h>

#include <cmath>

#include "srs/core/single_source_kernel.h"
#include "srs/core/topk.h"
#include "srs/engine/query_engine.h"
#include "srs/graph/generators.h"

#include "rank_rows.h"

namespace srs {
namespace {

constexpr QueryMeasure kAllMeasures[] = {QueryMeasure::kSimRankStarGeometric,
                                         QueryMeasure::kSimRankStarExponential,
                                         QueryMeasure::kRwr};

std::vector<Graph> RandomCorpus() {
  std::vector<Graph> corpus;
  corpus.push_back(Rmat(60, 360, 11).ValueOrDie());
  corpus.push_back(Rmat(45, 150, 12).ValueOrDie());
  corpus.push_back(ErdosRenyi(80, 240, 13).ValueOrDie());
  corpus.push_back(CollaborationCliqueGraph(40, 30, 2, 5, 14).ValueOrDie());
  corpus.push_back(StarGraph(12).ValueOrDie());  // extreme skew, many ties
  corpus.push_back(PathGraph(9).ValueOrDie());
  return corpus;
}

std::vector<NodeId> AllNodes(const Graph& g) {
  std::vector<NodeId> nodes;
  for (NodeId v = 0; v < g.NumNodes(); ++v) nodes.push_back(v);
  return nodes;
}

/// Accuracy-driven K: the regime where the a-priori iteration bound is
/// conservative and early termination has room to fire.
SimilarityOptions BaseOptions() {
  SimilarityOptions sim;
  sim.damping = 0.6;
  sim.epsilon = 1e-6;
  return sim;
}

TEST(BatchTopKTest, ExactSetAndOrderAcrossCorpus) {
  for (const Graph& g : RandomCorpus()) {
    const std::vector<NodeId> batch = AllNodes(g);
    // Full-accuracy reference rows from the dense QueryEngine.
    QueryEngineOptions ref_opts;
    ref_opts.similarity = BaseOptions();
    QueryEngine reference = QueryEngine::Create(g, ref_opts).MoveValueOrDie();
    for (QueryMeasure measure : kAllMeasures) {
      const auto full_rows = reference.BatchScores(measure, batch).ValueOrDie();
      for (KernelBackendKind backend :
           {KernelBackendKind::kDense, KernelBackendKind::kSparse}) {
        for (int threads : {1, 4}) {
          for (int k : {1, 3, 10, static_cast<int>(g.NumNodes())}) {
            QueryEngineOptions opts;
            opts.similarity = BaseOptions();
            opts.similarity.backend = backend;
            opts.similarity.top_k = k;
            opts.num_threads = threads;
            QueryEngine engine = QueryEngine::Create(g, opts).MoveValueOrDie();
            const auto results = engine.BatchTopK(measure, batch).ValueOrDie();
            for (size_t i = 0; i < batch.size(); ++i) {
              const TopKResult& got = results[i];
              const auto want = TopK(full_rows[i], static_cast<size_t>(k),
                                     batch[i]);
              ASSERT_EQ(got.ranking.size(), want.size())
                  << QueryMeasureToString(measure) << " backend="
                  << static_cast<int>(backend) << " k=" << k
                  << " query=" << batch[i];
              for (size_t r = 0; r < want.size(); ++r) {
                // The SET and ORDER are exact even under early
                // termination...
                ASSERT_EQ(got.ranking[r].node, want[r].node)
                    << QueryMeasureToString(measure) << " backend="
                    << static_cast<int>(backend) << " threads=" << threads
                    << " k=" << k << " query=" << batch[i] << " rank=" << r;
                // ...and the reported partial score is a lower bound
                // within residual_bound of the full-accuracy score.
                const double full = full_rows[i][static_cast<size_t>(
                    want[r].node)];
                ASSERT_LE(got.ranking[r].score, full + 1e-12);
                ASSERT_GE(got.ranking[r].score,
                          full - got.residual_bound - 1e-12);
              }
              ASSERT_GE(got.levels_evaluated, 1);
              ASSERT_LE(got.levels_evaluated, got.levels_total);
            }
          }
        }
      }
    }
  }
}

TEST(BatchTopKTest, DisabledEarlyTerminationIsBitwiseFullRowSort) {
  for (const Graph& g : RandomCorpus()) {
    const std::vector<NodeId> batch = AllNodes(g);
    QueryEngineOptions ref_opts;
    ref_opts.similarity = BaseOptions();
    QueryEngine reference = QueryEngine::Create(g, ref_opts).MoveValueOrDie();
    QueryEngineOptions opts;
    opts.similarity = BaseOptions();
    opts.similarity.top_k = 5;
    opts.similarity.topk_early_termination = false;
    QueryEngine engine = QueryEngine::Create(g, opts).MoveValueOrDie();
    for (QueryMeasure measure : kAllMeasures) {
      const auto want = RankRows(reference, measure, batch, 5).ValueOrDie();
      const auto got = engine.BatchTopK(measure, batch).ValueOrDie();
      for (size_t i = 0; i < batch.size(); ++i) {
        ASSERT_EQ(got[i].ranking.size(), want[i].size());
        ASSERT_EQ(got[i].levels_evaluated, got[i].levels_total);
        ASSERT_EQ(got[i].residual_bound, 0.0);
        for (size_t r = 0; r < want[i].size(); ++r) {
          ASSERT_EQ(got[i].ranking[r].node, want[i][r].node);
          // Bitwise: the drained stepwise cursor performs exactly the
          // one-shot kernel's operations.
          ASSERT_EQ(got[i].ranking[r].score, want[i][r].score)
              << QueryMeasureToString(measure) << " query=" << batch[i]
              << " rank=" << r;
        }
      }
    }
  }
}

TEST(BatchTopKTest, EarlyTerminationActuallyFires) {
  // On a mid-sized random graph with accuracy-driven K, small k must
  // terminate early for at least some queries — otherwise the whole
  // subsystem is an expensive no-op and this test rots loudly.
  const Graph g = ErdosRenyi(400, 800, 99).ValueOrDie();
  QueryEngineOptions opts;
  opts.similarity = BaseOptions();
  opts.similarity.top_k = 1;
  QueryEngine engine = QueryEngine::Create(g, opts).MoveValueOrDie();
  const auto results =
      engine.BatchTopK(QueryMeasure::kSimRankStarGeometric, AllNodes(g))
          .ValueOrDie();
  int early = 0;
  for (const TopKResult& r : results) {
    ASSERT_GT(r.levels_total, 1);
    if (r.levels_evaluated < r.levels_total) {
      ++early;
      EXPECT_GT(r.residual_bound, 0.0);
    }
  }
  EXPECT_GT(early, 0);
}

TEST(BatchTopKTest, CachedAnswersBitIdenticalToCold) {
  const Graph g = Rmat(60, 360, 11).ValueOrDie();
  const std::vector<NodeId> batch = AllNodes(g);
  for (QueryMeasure measure : kAllMeasures) {
    QueryEngineOptions cold_opts;
    cold_opts.similarity = BaseOptions();
    cold_opts.similarity.top_k = 4;
    QueryEngine cold = QueryEngine::Create(g, cold_opts).MoveValueOrDie();
    const auto want = cold.BatchTopK(measure, batch).ValueOrDie();

    QueryEngineOptions cached_opts = cold_opts;
    cached_opts.result_cache = std::make_shared<ResultCache>();
    QueryEngine cached = QueryEngine::Create(g, cached_opts).MoveValueOrDie();
    cached.BatchTopK(measure, batch).ValueOrDie();  // warm
    const auto got = cached.BatchTopK(measure, batch).ValueOrDie();  // hits
    ASSERT_GT(cached_opts.result_cache->Stats().hits, uint64_t{0});

    for (size_t i = 0; i < batch.size(); ++i) {
      ASSERT_EQ(got[i].ranking.size(), want[i].ranking.size());
      ASSERT_EQ(got[i].levels_evaluated, want[i].levels_evaluated);
      ASSERT_EQ(got[i].levels_total, want[i].levels_total);
      ASSERT_EQ(got[i].residual_bound, want[i].residual_bound);
      EXPECT_TRUE(got[i].served_from_cache);
      EXPECT_FALSE(want[i].served_from_cache);
      for (size_t r = 0; r < want[i].ranking.size(); ++r) {
        ASSERT_EQ(got[i].ranking[r].node, want[i].ranking[r].node);
        ASSERT_EQ(got[i].ranking[r].score, want[i].ranking[r].score)
            << QueryMeasureToString(measure) << " query=" << batch[i];
      }
    }
  }
}

TEST(BatchTopKTest, SharedCacheNeverAliasesTopKAndFullRows) {
  // Warm one shared cache through a top-k engine, then serve full rows
  // from a full-row engine on the same cache (and vice versa): both must be
  // bit-identical to cold runs — the digests keep the two value shapes
  // apart.
  const Graph g = Rmat(50, 300, 31).ValueOrDie();
  const std::vector<NodeId> batch = AllNodes(g);
  auto cache = std::make_shared<ResultCache>();

  QueryEngineOptions topk_opts;
  topk_opts.similarity = BaseOptions();
  topk_opts.similarity.top_k = 5;
  topk_opts.result_cache = cache;
  QueryEngine topk = QueryEngine::Create(g, topk_opts).MoveValueOrDie();
  const auto topk_warm =
      topk.BatchTopK(QueryMeasure::kSimRankStarGeometric, batch).ValueOrDie();

  QueryEngineOptions full_opts;
  full_opts.similarity = BaseOptions();
  full_opts.result_cache = cache;
  QueryEngine full = QueryEngine::Create(g, full_opts).MoveValueOrDie();
  const auto got =
      full.BatchScores(QueryMeasure::kSimRankStarGeometric, batch)
          .ValueOrDie();

  QueryEngineOptions cold_opts;
  cold_opts.similarity = BaseOptions();
  QueryEngine cold = QueryEngine::Create(g, cold_opts).MoveValueOrDie();
  const auto want =
      cold.BatchScores(QueryMeasure::kSimRankStarGeometric, batch)
          .ValueOrDie();
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << "query " << batch[i];
  }

  // And back: the full rows warmed above must not leak into top-k answers.
  const auto topk_again =
      topk.BatchTopK(QueryMeasure::kSimRankStarGeometric, batch).ValueOrDie();
  for (size_t i = 0; i < batch.size(); ++i) {
    ASSERT_EQ(topk_again[i].ranking.size(), topk_warm[i].ranking.size());
    for (size_t r = 0; r < topk_warm[i].ranking.size(); ++r) {
      EXPECT_EQ(topk_again[i].ranking[r].score,
                topk_warm[i].ranking[r].score);
    }
  }
}

TEST(BatchTopKTest, OneEngineServesRowsAndRankingsOnOneCache) {
  // An engine created with top_k >= 1 serves full rows under the canonical
  // full-row key: its rows hit the entries a top_k = 0 engine warmed,
  // while its rankings stay apart from them.
  const Graph g = Rmat(50, 300, 31).ValueOrDie();
  const std::vector<NodeId> batch = AllNodes(g);
  auto cache = std::make_shared<ResultCache>();
  QueryEngineOptions rows_opts;
  rows_opts.similarity = BaseOptions();
  rows_opts.result_cache = cache;
  QueryEngine rows = QueryEngine::Create(g, rows_opts).MoveValueOrDie();
  const auto want =
      rows.BatchScores(QueryMeasure::kSimRankStarGeometric, batch)
          .ValueOrDie();

  QueryEngineOptions both_opts = rows_opts;
  both_opts.similarity.top_k = 5;
  QueryEngine both = QueryEngine::Create(g, both_opts).MoveValueOrDie();
  const uint64_t misses = cache->Stats().misses;
  const auto got =
      both.BatchScores(QueryMeasure::kSimRankStarGeometric, batch)
          .ValueOrDie();
  EXPECT_EQ(cache->Stats().misses, misses) << "rows must all hit";
  const auto ranked =
      both.BatchTopK(QueryMeasure::kSimRankStarGeometric, batch)
          .ValueOrDie();
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << "query " << batch[i];
    EXPECT_FALSE(ranked[i].served_from_cache) << "query " << batch[i];
    const auto expected = TopK(want[i], 5, batch[i]);
    ASSERT_EQ(ranked[i].ranking.size(), expected.size());
    for (size_t r = 0; r < expected.size(); ++r) {
      EXPECT_EQ(ranked[i].ranking[r].node, expected[r].node);
    }
  }
}

TEST(BatchTopKTest, DigestsSeparateTopKConfigurations) {
  SimilarityOptions full = BaseOptions();
  SimilarityOptions top5 = full;
  top5.top_k = 5;
  SimilarityOptions top10 = full;
  top10.top_k = 10;
  SimilarityOptions top5_exhaustive = top5;
  top5_exhaustive.topk_early_termination = false;
  for (int tag : {0, 1, 2}) {
    EXPECT_NE(ResultDigest(full, tag), ResultDigest(top5, tag));
    EXPECT_NE(ResultDigest(top5, tag), ResultDigest(top10, tag));
    EXPECT_NE(ResultDigest(top5, tag), ResultDigest(top5_exhaustive, tag));
  }
  // With top_k == 0 the termination flag is inert and must not fragment
  // full-row caches.
  SimilarityOptions full_flagged = full;
  full_flagged.topk_early_termination = false;
  EXPECT_EQ(ResultDigest(full, 0), ResultDigest(full_flagged, 0));
}

TEST(BatchTopKTest, ValidatesOptionsAndBatch) {
  const Graph g = PathGraph(6).ValueOrDie();
  QueryEngineOptions opts;
  QueryEngine unranked = QueryEngine::Create(g, opts).MoveValueOrDie();
  const Status no_k = unranked.BatchTopK(QueryMeasure::kRwr, {0}).status();
  EXPECT_EQ(no_k.code(), StatusCode::kInvalidArgument);  // top_k defaults to 0
  EXPECT_NE(no_k.message().find("similarity.top_k"), std::string::npos)
      << no_k.ToString();
  opts.similarity.top_k = -3;
  EXPECT_EQ(QueryEngine::Create(g, opts).status().code(),
            StatusCode::kInvalidArgument);
  opts.similarity.top_k = 2;
  QueryEngine engine = QueryEngine::Create(g, opts).MoveValueOrDie();
  EXPECT_EQ(engine.BatchTopK(QueryMeasure::kRwr, {}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.BatchTopK(QueryMeasure::kRwr, {99}).status().code(),
            StatusCode::kOutOfRange);

  // A k beyond n − 1 is served clamped: every other node, exactly ranked.
  opts.similarity.top_k = 100;
  QueryEngine big = QueryEngine::Create(g, opts).MoveValueOrDie();
  const auto results = big.BatchTopK(QueryMeasure::kRwr, {0}).ValueOrDie();
  EXPECT_EQ(results[0].ranking.size(), static_cast<size_t>(g.NumNodes() - 1));
}

TEST(BatchTopKTest, EncodeDecodeRoundTripsExactly) {
  TopKResult result;
  result.ranking = {{7, 0.5}, {3, 0.25}, {9, 0.25}};
  result.levels_evaluated = 13;
  result.levels_total = 28;
  result.residual_bound = 1.25e-4;
  std::vector<double> encoded;
  EncodeTopKResult(result, &encoded);
  TopKResult decoded;
  ASSERT_TRUE(DecodeTopKResult(encoded, &decoded));
  EXPECT_EQ(decoded.levels_evaluated, 13);
  EXPECT_EQ(decoded.levels_total, 28);
  EXPECT_EQ(decoded.residual_bound, 1.25e-4);
  ASSERT_EQ(decoded.ranking.size(), result.ranking.size());
  for (size_t i = 0; i < result.ranking.size(); ++i) {
    EXPECT_EQ(decoded.ranking[i].node, result.ranking[i].node);
    EXPECT_EQ(decoded.ranking[i].score, result.ranking[i].score);
  }
  EXPECT_FALSE(DecodeTopKResult({1.0, 2.0}, &decoded));     // too short
  EXPECT_FALSE(DecodeTopKResult({1, 2, 0, 5}, &decoded));   // odd payload
}

TEST(TopKCollectorTest, KeepsBestKWithThreshold) {
  TopKCollector collector;
  collector.Reset(3);
  EXPECT_FALSE(collector.full());
  collector.Offer(4, 0.1);
  collector.Offer(1, 0.5);
  collector.Offer(2, 0.3);
  ASSERT_TRUE(collector.full());
  EXPECT_EQ(collector.threshold(), 0.1);
  collector.Offer(9, 0.05);  // below threshold: rejected
  EXPECT_EQ(collector.threshold(), 0.1);
  collector.Offer(0, 0.1);  // ties the worst, smaller id wins
  EXPECT_EQ(collector.worst().node, 0);
  collector.Offer(7, 0.4);
  std::vector<RankedNode> sorted;
  collector.ExtractSorted(&sorted);
  ASSERT_EQ(sorted.size(), size_t{3});
  EXPECT_EQ(sorted[0].node, 1);
  EXPECT_EQ(sorted[1].node, 7);
  EXPECT_EQ(sorted[2].node, 2);
  EXPECT_EQ(collector.size(), size_t{0});  // reusable after extraction
}

TEST(ResidualTailsTest, TailsAreMonotoneSuffixSumsEndingAtZero) {
  const std::vector<double> weights =
      GeometricStarLengthWeights(0.6, /*k_max=*/8);
  const std::vector<double> tails = BinomialResidualTails(weights, 1.0, 1.7);
  ASSERT_EQ(tails.size(), weights.size());
  EXPECT_EQ(tails.back(), 0.0);
  double suffix = 0.0;
  for (size_t l = weights.size(); l-- > 1;) {
    suffix += weights[l];  // amplitudes cap at 1 with these gammas
    EXPECT_GE(tails[l - 1], suffix);        // a true upper bound...
    EXPECT_LE(tails[l - 1], suffix + 1e-9); // ...and a tight one
    if (l + 1 < tails.size()) EXPECT_GE(tails[l - 1], tails[l]);
  }

  const std::vector<double> rwr = RwrResidualTails(0.6, 5, 0.9);
  ASSERT_EQ(rwr.size(), size_t{6});
  EXPECT_EQ(rwr.back(), 0.0);
  // gamma < 1 must tighten the tail below the pure series weights.
  const std::vector<double> loose = RwrResidualTails(0.6, 5, 1.0);
  EXPECT_LT(rwr[0], loose[0]);
}

}  // namespace
}  // namespace srs
