// Property / metamorphic tests for the serving layer over random graphs:
//  * scores lie in [0, 1] for every measure;
//  * the SimRank* semantics are symmetric: S(a,b) == S(b,a);
//  * ComputeRows row i is bit-identical to the BatchScores single-source
//    result for i, for any tile size and thread count;
//  * cache-hit answers are bit-identical to cold answers, including across
//    engines sharing one cache;
//  * ForEachRow streams rows in source order, duplicates included.

#include <gtest/gtest.h>

#include <numeric>

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
  corpus.push_back(ErdosRenyi(50, 250, 13).ValueOrDie());
  corpus.push_back(
      CollaborationCliqueGraph(40, 30, 2, 5, 14).ValueOrDie());
  corpus.push_back(StarGraph(12).ValueOrDie());  // extreme skew
  return corpus;
}

std::vector<NodeId> AllNodes(const Graph& g) {
  std::vector<NodeId> nodes(static_cast<size_t>(g.NumNodes()));
  std::iota(nodes.begin(), nodes.end(), NodeId{0});
  return nodes;
}

TEST(EnginePropertyTest, ScoresLieInUnitInterval) {
  for (const Graph& g : RandomCorpus()) {
    QueryEngineOptions opts;
    opts.similarity.damping = 0.7;
    opts.similarity.iterations = 8;
    QueryEngine engine = QueryEngine::Create(g, opts).MoveValueOrDie();
    for (QueryMeasure measure : kAllMeasures) {
      const auto scores =
          engine.BatchScores(measure, AllNodes(g)).ValueOrDie();
      for (size_t q = 0; q < scores.size(); ++q) {
        for (size_t v = 0; v < scores[q].size(); ++v) {
          EXPECT_GE(scores[q][v], 0.0)
              << QueryMeasureToString(measure) << " (" << q << "," << v << ")";
          EXPECT_LE(scores[q][v], 1.0)
              << QueryMeasureToString(measure) << " (" << q << "," << v << ")";
        }
      }
    }
  }
}

TEST(EnginePropertyTest, SimRankStarSemanticsAreSymmetric) {
  // Ŝ = Σ_l w_l 2^{-l} Σ_α binom(l,α) Q^α (Qᵀ)^{l−α} is symmetric for both
  // the geometric and the exponential weights; the single-source columns
  // must agree across the diagonal (up to summation-order rounding).
  for (const Graph& g : RandomCorpus()) {
    QueryEngineOptions opts;
    opts.similarity.damping = 0.6;
    opts.similarity.iterations = 6;
    QueryEngine engine = QueryEngine::Create(g, opts).MoveValueOrDie();
    for (QueryMeasure measure : {QueryMeasure::kSimRankStarGeometric,
                                 QueryMeasure::kSimRankStarExponential}) {
      const auto scores =
          engine.BatchScores(measure, AllNodes(g)).ValueOrDie();
      for (size_t a = 0; a < scores.size(); ++a) {
        for (size_t b = a + 1; b < scores.size(); ++b) {
          EXPECT_NEAR(scores[a][b], scores[b][a], 1e-12)
              << QueryMeasureToString(measure) << " pair (" << a << "," << b
              << ")";
        }
      }
    }
  }
}

TEST(EnginePropertyTest, AllPairsRowsBitIdenticalToQueryEngine) {
  for (const Graph& g : RandomCorpus()) {
    SimilarityOptions sim;
    sim.damping = 0.6;
    sim.iterations = 7;
    QueryEngineOptions qopts;
    qopts.similarity = sim;
    QueryEngine reference = QueryEngine::Create(g, qopts).MoveValueOrDie();
    const std::vector<NodeId> sources = AllNodes(g);
    for (QueryMeasure measure : kAllMeasures) {
      const auto want = reference.BatchScores(measure, sources).ValueOrDie();
      for (int tile : {1, 7, 64}) {
        for (int threads : {1, 4}) {
          QueryEngineOptions aopts;
          aopts.similarity = sim;
          aopts.tile_size = tile;
          aopts.num_threads = threads;
          QueryEngine engine = QueryEngine::Create(g, aopts).MoveValueOrDie();
          const DenseMatrix rows =
              engine.ComputeRows(measure, sources).ValueOrDie();
          ASSERT_EQ(rows.rows(), static_cast<int64_t>(sources.size()));
          ASSERT_EQ(rows.cols(), g.NumNodes());
          for (size_t i = 0; i < sources.size(); ++i) {
            for (int64_t v = 0; v < g.NumNodes(); ++v) {
              // Bitwise equality: both paths run the same kernel with the
              // same operation order.
              ASSERT_EQ(rows.At(static_cast<int64_t>(i), v), want[i][v])
                  << QueryMeasureToString(measure) << " tile=" << tile
                  << " threads=" << threads << " source=" << sources[i]
                  << " node=" << v;
            }
          }
        }
      }
    }
  }
}

TEST(EnginePropertyTest, CachedAnswersBitIdenticalToColdAnswers) {
  const Graph g = Rmat(64, 400, 21).ValueOrDie();
  SimilarityOptions sim;
  sim.damping = 0.6;
  sim.iterations = 6;
  const std::vector<NodeId> batch = AllNodes(g);
  for (QueryMeasure measure : kAllMeasures) {
    QueryEngineOptions cold_opts;
    cold_opts.similarity = sim;
    QueryEngine cold = QueryEngine::Create(g, cold_opts).MoveValueOrDie();
    const auto want = cold.BatchScores(measure, batch).ValueOrDie();

    QueryEngineOptions cached_opts;
    cached_opts.similarity = sim;
    cached_opts.num_threads = 2;
    cached_opts.result_cache = std::make_shared<ResultCache>();
    QueryEngine cached = QueryEngine::Create(g, cached_opts).MoveValueOrDie();
    const auto first = cached.BatchScores(measure, batch).ValueOrDie();
    const auto second = cached.BatchScores(measure, batch).ValueOrDie();
    const auto stats = cached_opts.result_cache->Stats();
    EXPECT_GE(stats.hits, batch.size()) << QueryMeasureToString(measure);
    for (size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(first[i], want[i]) << "cold-vs-first " << i;
      EXPECT_EQ(second[i], first[i]) << "hit-vs-miss " << i;
    }
  }
}

TEST(EnginePropertyTest, CacheIsSharedAcrossEnginesBitIdentically) {
  // BatchScores warms the cache; ComputeRows on another engine with the
  // same options must hit it (same fingerprint × digest × query keys) and
  // still emit bit-identical rows. Top-k over cached rows matches the cold
  // ranking.
  const Graph g = Rmat(48, 260, 22).ValueOrDie();
  SimilarityOptions sim;
  sim.damping = 0.7;
  sim.iterations = 5;
  auto cache = std::make_shared<ResultCache>();
  const std::vector<NodeId> sources = AllNodes(g);

  QueryEngineOptions qopts;
  qopts.similarity = sim;
  qopts.result_cache = cache;
  QueryEngine qe = QueryEngine::Create(g, qopts).MoveValueOrDie();
  const auto want =
      qe.BatchScores(QueryMeasure::kSimRankStarGeometric, sources)
          .ValueOrDie();
  const uint64_t misses_after_warm = cache->Stats().misses;

  QueryEngineOptions aopts;
  aopts.similarity = sim;
  aopts.tile_size = 16;
  aopts.result_cache = cache;
  QueryEngine ape = QueryEngine::Create(g, aopts).MoveValueOrDie();
  const DenseMatrix rows =
      ape.ComputeRows(QueryMeasure::kSimRankStarGeometric, sources)
          .ValueOrDie();
  EXPECT_EQ(cache->Stats().misses, misses_after_warm)
      << "all-pairs pass should be served entirely from the warmed cache";
  for (size_t i = 0; i < sources.size(); ++i) {
    for (int64_t v = 0; v < g.NumNodes(); ++v) {
      ASSERT_EQ(rows.At(static_cast<int64_t>(i), v), want[i][v]);
    }
  }

  QueryEngine cold = QueryEngine::Create(g, QueryEngineOptions{sim})
                         .MoveValueOrDie();
  const auto cold_topk =
      RankRows(cold, QueryMeasure::kSimRankStarGeometric, sources, 5)
          .ValueOrDie();
  const auto cached_topk =
      RankRows(qe, QueryMeasure::kSimRankStarGeometric, sources, 5)
          .ValueOrDie();
  for (size_t i = 0; i < sources.size(); ++i) {
    ASSERT_EQ(cached_topk[i].size(), cold_topk[i].size());
    for (size_t r = 0; r < cold_topk[i].size(); ++r) {
      EXPECT_EQ(cached_topk[i][r].node, cold_topk[i][r].node);
      EXPECT_EQ(cached_topk[i][r].score, cold_topk[i][r].score);
    }
  }
}

TEST(EnginePropertyTest, ForEachRowStreamsInSourceOrderWithDuplicates) {
  const Graph g = Rmat(30, 120, 23).ValueOrDie();
  QueryEngineOptions opts;
  opts.similarity.iterations = 4;
  opts.tile_size = 4;
  QueryEngine engine = QueryEngine::Create(g, opts).MoveValueOrDie();
  const std::vector<NodeId> sources = {5, 1, 5, 29, 0, 1, 5};
  std::vector<int64_t> seen_indices;
  std::vector<NodeId> seen_sources;
  SRS_CHECK_OK(engine.ForEachRow(
      QueryMeasure::kRwr, sources,
      [&](int64_t index, NodeId source, const std::vector<double>& row) {
        EXPECT_EQ(row.size(), static_cast<size_t>(g.NumNodes()));
        seen_indices.push_back(index);
        seen_sources.push_back(source);
      }));
  std::vector<int64_t> expected_indices(sources.size());
  std::iota(expected_indices.begin(), expected_indices.end(), 0);
  EXPECT_EQ(seen_indices, expected_indices);
  EXPECT_EQ(seen_sources, sources);
}

TEST(EnginePropertyTest, AllPairsValidatesSources) {
  const Graph g = PathGraph(5).ValueOrDie();
  QueryEngine engine = QueryEngine::Create(g).MoveValueOrDie();
  EXPECT_EQ(engine.ComputeRows(QueryMeasure::kRwr, {}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.ComputeRows(QueryMeasure::kRwr, {0, 5}).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(engine.ComputeRows(QueryMeasure::kRwr, {-1}).status().code(),
            StatusCode::kOutOfRange);
  QueryEngineOptions bad;
  bad.similarity.damping = -1.0;
  EXPECT_EQ(QueryEngine::Create(g, bad).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(EnginePropertyTest, ComputeAllPairsMatchesExplicitSourceSet) {
  const Graph g = Rmat(25, 100, 24).ValueOrDie();
  QueryEngineOptions opts;
  opts.similarity.iterations = 5;
  QueryEngine engine = QueryEngine::Create(g, opts).MoveValueOrDie();
  const DenseMatrix full =
      engine.ComputeAllPairs(QueryMeasure::kSimRankStarGeometric)
          .ValueOrDie();
  const DenseMatrix rows =
      engine
          .ComputeRows(QueryMeasure::kSimRankStarGeometric, AllNodes(g))
          .ValueOrDie();
  ASSERT_EQ(full.rows(), rows.rows());
  for (int64_t r = 0; r < full.rows(); ++r) {
    for (int64_t c = 0; c < full.cols(); ++c) {
      ASSERT_EQ(full.At(r, c), rows.At(r, c));
    }
  }
}

}  // namespace
}  // namespace srs
