// Tests for the batched query engine: batch results must be bit-identical
// to the sequential single-source entry points for every measure and any
// thread count, bounded-heap top-k over the rows must agree with the
// full-sort ranking, and malformed batches must fail with the proper
// Status.

#include "srs/engine/query_engine.h"

#include <gtest/gtest.h>

#include <numeric>

#include "srs/core/single_source.h"
#include "srs/graph/generators.h"
#include "srs/graph/graph_builder.h"

#include "rank_rows.h"

namespace srs {
namespace {

SimilarityOptions Opts(double c, int k) {
  SimilarityOptions o;
  o.damping = c;
  o.iterations = k;
  return o;
}

std::vector<NodeId> AllNodes(const Graph& g) {
  std::vector<NodeId> nodes(static_cast<size_t>(g.NumNodes()));
  std::iota(nodes.begin(), nodes.end(), NodeId{0});
  return nodes;
}

Result<std::vector<double>> Sequential(QueryMeasure measure, const Graph& g,
                                       NodeId query,
                                       const SimilarityOptions& opts) {
  switch (measure) {
    case QueryMeasure::kSimRankStarGeometric:
      return SingleSourceSimRankStarGeometric(g, query, opts);
    case QueryMeasure::kSimRankStarExponential:
      return SingleSourceSimRankStarExponential(g, query, opts);
    case QueryMeasure::kRwr:
      return SingleSourceRwr(g, query, opts);
  }
  return Status::InvalidArgument("unknown measure");
}

TEST(QueryEngineTest, BatchBitIdenticalToSequentialAllMeasures) {
  const Graph g = Rmat(72, 460, 31).ValueOrDie();
  const SimilarityOptions opts = Opts(0.6, 7);
  for (int threads : {1, 4}) {
    QueryEngineOptions eopts;
    eopts.similarity = opts;
    eopts.num_threads = threads;
    QueryEngine engine = QueryEngine::Create(g, eopts).MoveValueOrDie();
    const std::vector<NodeId> batch = AllNodes(g);
    for (QueryMeasure measure : {QueryMeasure::kSimRankStarGeometric,
                                 QueryMeasure::kSimRankStarExponential,
                                 QueryMeasure::kRwr}) {
      const std::vector<std::vector<double>> got =
          engine.BatchScores(measure, batch).ValueOrDie();
      ASSERT_EQ(got.size(), batch.size());
      for (size_t i = 0; i < batch.size(); ++i) {
        const std::vector<double> want =
            Sequential(measure, g, batch[i], opts).ValueOrDie();
        ASSERT_EQ(got[i].size(), want.size());
        for (size_t j = 0; j < want.size(); ++j) {
          // Bitwise equality, not tolerance: the engine runs the same
          // operations in the same order as the sequential path.
          EXPECT_EQ(got[i][j], want[j])
              << QueryMeasureToString(measure) << " threads=" << threads
              << " query=" << batch[i] << " node=" << j;
        }
      }
    }
  }
}

TEST(QueryEngineTest, RepeatedBatchesReuseWorkspacesConsistently) {
  // Second and later batches hit the steady-state (no-allocation) path;
  // they must produce the same bits as the first.
  const Graph g = Rmat(50, 300, 7).ValueOrDie();
  QueryEngineOptions eopts;
  eopts.similarity = Opts(0.8, 9);
  eopts.num_threads = 3;
  QueryEngine engine = QueryEngine::Create(g, eopts).MoveValueOrDie();
  const std::vector<NodeId> batch = {0, 7, 7, 49, 3};
  const auto first =
      engine.BatchScores(QueryMeasure::kSimRankStarGeometric, batch)
          .ValueOrDie();
  for (int round = 0; round < 3; ++round) {
    const auto again =
        engine.BatchScores(QueryMeasure::kSimRankStarGeometric, batch)
            .ValueOrDie();
    ASSERT_EQ(again.size(), first.size());
    for (size_t i = 0; i < first.size(); ++i) {
      EXPECT_EQ(again[i], first[i]) << "round " << round << " entry " << i;
    }
  }
}

TEST(QueryEngineTest, TopKAgreesWithFullSortRanking) {
  const Graph g = Rmat(64, 400, 13).ValueOrDie();
  QueryEngineOptions eopts;
  eopts.similarity = Opts(0.6, 6);
  eopts.num_threads = 2;
  QueryEngine engine = QueryEngine::Create(g, eopts).MoveValueOrDie();
  const std::vector<NodeId> batch = AllNodes(g);
  for (size_t k : {size_t{1}, size_t{5}, size_t{64}, size_t{1000}}) {
    const auto rankings =
        RankRows(engine, QueryMeasure::kSimRankStarGeometric, batch, k)
            .ValueOrDie();
    const auto scores =
        engine.BatchScores(QueryMeasure::kSimRankStarGeometric, batch)
            .ValueOrDie();
    for (size_t i = 0; i < batch.size(); ++i) {
      const std::vector<RankedNode> want = TopK(scores[i], k, batch[i]);
      ASSERT_EQ(rankings[i].size(), want.size()) << "k=" << k;
      for (size_t r = 0; r < want.size(); ++r) {
        EXPECT_EQ(rankings[i][r].node, want[r].node)
            << "k=" << k << " query=" << batch[i] << " rank=" << r;
        EXPECT_EQ(rankings[i][r].score, want[r].score);
      }
    }
  }
}

TEST(QueryEngineTest, EmptyBatchIsInvalidArgument) {
  const Graph g = PathGraph(5).ValueOrDie();
  QueryEngine engine = QueryEngine::Create(g).MoveValueOrDie();
  EXPECT_EQ(engine.BatchScores(QueryMeasure::kRwr, {}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(RankRows(engine, QueryMeasure::kRwr, {}, 3).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(QueryEngineTest, OutOfRangeQueryIsRejectedWithoutPartialResults) {
  const Graph g = PathGraph(5).ValueOrDie();
  QueryEngine engine = QueryEngine::Create(g).MoveValueOrDie();
  EXPECT_EQ(engine.BatchScores(QueryMeasure::kSimRankStarGeometric, {0, 5})
                .status()
                .code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(engine.BatchScores(QueryMeasure::kSimRankStarGeometric, {-1})
                .status()
                .code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(
      RankRows(engine, QueryMeasure::kRwr, {2, 99}, 3).status().code(),
      StatusCode::kOutOfRange);
}

TEST(QueryEngineTest, RejectsBadSimilarityOptions) {
  const Graph g = PathGraph(4).ValueOrDie();
  QueryEngineOptions eopts;
  eopts.similarity.damping = 1.5;
  EXPECT_EQ(QueryEngine::Create(g, eopts).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(QueryEngineTest, DefaultThreadCountUsesHardware) {
  const Graph g = PathGraph(4).ValueOrDie();
  QueryEngineOptions eopts;
  eopts.num_threads = 0;  // auto
  QueryEngine engine = QueryEngine::Create(g, eopts).MoveValueOrDie();
  EXPECT_EQ(engine.NumWorkers(), HardwareThreads());
  // Still serves correctly.
  const auto scores =
      engine.BatchScores(QueryMeasure::kRwr, {0, 1, 2, 3}).ValueOrDie();
  EXPECT_EQ(scores.size(), 4u);
}

TEST(QueryEngineTest, TopKExcludesQueryAndHonorsTies) {
  // Out-star: leaves 1..4 share in-neighbor 0, so the non-query leaves tie
  // exactly and must appear in ascending id order.
  GraphBuilder b(5);
  SRS_CHECK_OK(b.AddEdge(0, 1));
  SRS_CHECK_OK(b.AddEdge(0, 2));
  SRS_CHECK_OK(b.AddEdge(0, 3));
  SRS_CHECK_OK(b.AddEdge(0, 4));
  const Graph g = b.Build().MoveValueOrDie();
  QueryEngineOptions eopts;
  eopts.similarity = Opts(0.6, 8);
  QueryEngine engine = QueryEngine::Create(g, eopts).MoveValueOrDie();
  const auto rankings =
      RankRows(engine, QueryMeasure::kSimRankStarGeometric, {1}, 4)
          .ValueOrDie();
  ASSERT_EQ(rankings.size(), 1u);
  ASSERT_EQ(rankings[0].size(), 4u);  // everything but the query
  std::vector<NodeId> tied_leaves;
  for (const RankedNode& r : rankings[0]) {
    EXPECT_NE(r.node, 1);  // query excluded
    if (r.node >= 2) tied_leaves.push_back(r.node);
  }
  EXPECT_EQ(tied_leaves, (std::vector<NodeId>{2, 3, 4}));
}

}  // namespace
}  // namespace srs
