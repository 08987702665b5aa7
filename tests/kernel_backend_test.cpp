// Property tests for the pluggable kernel backends (core/kernel_backend.h):
//  * at prune_epsilon = 0 the sparse frontier backend is BITWISE identical
//    to the dense reference, across random graphs, all three measures, and
//    multiple thread counts — through QueryEngine's batches and its tiled
//    row streams;
//  * at prune_epsilon > 0 it deviates by at most the analytic ∞-norm bound
//    derived from the epsilon, the series weights, and the transition
//    matrices' row sums;
//  * backend and prune epsilon are folded into result-cache digests, so
//    pruned and exact answers never alias in a shared cache.

#include "srs/core/kernel_backend.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "srs/core/single_source_kernel.h"
#include "srs/engine/query_engine.h"
#include "srs/engine/snapshot.h"
#include "srs/graph/generators.h"
#include "srs/matrix/ops.h"

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
  corpus.push_back(StarGraph(12).ValueOrDie());  // extreme skew
  corpus.push_back(PathGraph(9).ValueOrDie());   // frontiers stay tiny
  return corpus;
}

std::vector<NodeId> AllNodes(const Graph& g) {
  std::vector<NodeId> nodes(static_cast<size_t>(g.NumNodes()));
  std::iota(nodes.begin(), nodes.end(), NodeId{0});
  return nodes;
}

SimilarityOptions BaseOptions() {
  SimilarityOptions sim;
  sim.damping = 0.6;
  sim.iterations = 7;
  return sim;
}

/// The analytic |sparse − dense| bound for `measure` on `g` (plus a tiny
/// slack for floating-point rounding, which the bound does not model).
double BoundFor(const Graph& g, QueryMeasure measure,
                const SimilarityOptions& sim) {
  const std::shared_ptr<const GraphSnapshot> snap = MakeGraphSnapshot(g);
  double bound = 0.0;
  if (measure == QueryMeasure::kRwr) {
    bound = RwrPruneErrorBound(
        sim.damping, EffectiveIterations(sim, /*exponential=*/false),
        MaxAbsRowSum(snap->wt), sim.prune_epsilon);
  } else {
    const bool exponential =
        measure == QueryMeasure::kSimRankStarExponential;
    const int k_max = EffectiveIterations(sim, exponential);
    const std::vector<double> weights =
        exponential ? ExponentialStarLengthWeights(sim.damping, k_max)
                    : GeometricStarLengthWeights(sim.damping, k_max);
    bound = BinomialPruneErrorBound(weights, MaxAbsRowSum(snap->q),
                                    MaxAbsRowSum(snap->qt),
                                    sim.prune_epsilon);
  }
  return bound + 1e-9;
}

TEST(KernelBackendTest, SparseBitIdenticalToDenseAtZeroEpsilon) {
  for (const Graph& g : RandomCorpus()) {
    SimilarityOptions sim = BaseOptions();
    QueryEngineOptions dense_opts;
    dense_opts.similarity = sim;
    QueryEngine dense = QueryEngine::Create(g, dense_opts).MoveValueOrDie();
    const std::vector<NodeId> batch = AllNodes(g);
    for (int threads : {1, 4}) {
      QueryEngineOptions sparse_opts;
      sparse_opts.similarity = sim;
      sparse_opts.similarity.backend = KernelBackendKind::kSparse;
      sparse_opts.similarity.prune_epsilon = 0.0;
      sparse_opts.num_threads = threads;
      QueryEngine sparse =
          QueryEngine::Create(g, sparse_opts).MoveValueOrDie();
      for (QueryMeasure measure : kAllMeasures) {
        const auto want = dense.BatchScores(measure, batch).ValueOrDie();
        const auto got = sparse.BatchScores(measure, batch).ValueOrDie();
        ASSERT_EQ(got.size(), want.size());
        for (size_t i = 0; i < batch.size(); ++i) {
          ASSERT_EQ(got[i].size(), want[i].size());
          for (size_t j = 0; j < want[i].size(); ++j) {
            // Bitwise, not approximate: the sparse backend replays the
            // dense operation order exactly when nothing is pruned.
            ASSERT_EQ(got[i][j], want[i][j])
                << QueryMeasureToString(measure) << " threads=" << threads
                << " query=" << batch[i] << " node=" << j;
          }
        }
      }
    }
  }
}

TEST(KernelBackendTest, SparseMatchesDenseWithinAnalyticBound) {
  for (const Graph& g : RandomCorpus()) {
    const std::vector<NodeId> batch = AllNodes(g);
    for (double eps : {1e-2, 1e-4}) {
      SimilarityOptions sim = BaseOptions();
      QueryEngineOptions dense_opts;
      dense_opts.similarity = sim;
      QueryEngine dense = QueryEngine::Create(g, dense_opts).MoveValueOrDie();

      QueryEngineOptions sparse_opts;
      sparse_opts.similarity = sim;
      sparse_opts.similarity.backend = KernelBackendKind::kSparse;
      sparse_opts.similarity.prune_epsilon = eps;
      sparse_opts.num_threads = 3;
      QueryEngine sparse =
          QueryEngine::Create(g, sparse_opts).MoveValueOrDie();

      for (QueryMeasure measure : kAllMeasures) {
        const double bound = BoundFor(g, measure, sparse_opts.similarity);
        const auto want = dense.BatchScores(measure, batch).ValueOrDie();
        const auto got = sparse.BatchScores(measure, batch).ValueOrDie();
        for (size_t i = 0; i < batch.size(); ++i) {
          for (size_t j = 0; j < want[i].size(); ++j) {
            ASSERT_NEAR(got[i][j], want[i][j], bound)
                << QueryMeasureToString(measure) << " eps=" << eps
                << " query=" << batch[i] << " node=" << j;
          }
        }
      }
    }
  }
}

TEST(KernelBackendTest, AllPairsSparseRowsBitIdenticalAtZeroEpsilon) {
  const Graph g = Rmat(48, 260, 21).ValueOrDie();
  SimilarityOptions sim = BaseOptions();
  QueryEngineOptions qopts;
  qopts.similarity = sim;
  QueryEngine reference = QueryEngine::Create(g, qopts).MoveValueOrDie();
  const std::vector<NodeId> sources = AllNodes(g);
  for (QueryMeasure measure : kAllMeasures) {
    const auto want = reference.BatchScores(measure, sources).ValueOrDie();
    for (int tile : {3, 32}) {
      QueryEngineOptions aopts;
      aopts.similarity = sim;
      aopts.similarity.backend = KernelBackendKind::kSparse;
      aopts.tile_size = tile;
      aopts.num_threads = 2;
      QueryEngine engine = QueryEngine::Create(g, aopts).MoveValueOrDie();
      const DenseMatrix rows = engine.ComputeRows(measure, sources).ValueOrDie();
      for (size_t i = 0; i < sources.size(); ++i) {
        for (int64_t v = 0; v < g.NumNodes(); ++v) {
          ASSERT_EQ(rows.At(static_cast<int64_t>(i), v), want[i][v])
              << QueryMeasureToString(measure) << " tile=" << tile
              << " source=" << sources[i] << " node=" << v;
        }
      }
    }
  }
}

TEST(KernelBackendTest, DigestsSeparateBackendsAndEpsilons) {
  SimilarityOptions dense = BaseOptions();
  SimilarityOptions sparse0 = dense;
  sparse0.backend = KernelBackendKind::kSparse;
  SimilarityOptions sparse4 = sparse0;
  sparse4.prune_epsilon = 1e-4;
  for (int tag : {0, 1, 2}) {
    EXPECT_NE(ResultDigest(dense, tag), ResultDigest(sparse0, tag));
    EXPECT_NE(ResultDigest(sparse0, tag), ResultDigest(sparse4, tag));
    EXPECT_NE(ResultDigest(dense, tag), ResultDigest(sparse4, tag));
  }
  // The dense backend ignores prune_epsilon, so an inert epsilon must not
  // fragment dense caches.
  SimilarityOptions dense_eps = dense;
  dense_eps.prune_epsilon = 1e-4;
  EXPECT_EQ(ResultDigest(dense, 0), ResultDigest(dense_eps, 0));
}

TEST(KernelBackendTest, SharedCacheNeverServesPrunedAnswersToDense) {
  // Warm a shared cache with heavily pruned sparse answers, then serve the
  // same batch with a dense engine: the dense answers must be bit-identical
  // to a cold dense run, i.e. the pruned entries must not alias.
  const Graph g = Rmat(50, 300, 31).ValueOrDie();
  const std::vector<NodeId> batch = AllNodes(g);
  auto cache = std::make_shared<ResultCache>();

  QueryEngineOptions sparse_opts;
  sparse_opts.similarity = BaseOptions();
  sparse_opts.similarity.backend = KernelBackendKind::kSparse;
  sparse_opts.similarity.prune_epsilon = 1e-2;
  sparse_opts.result_cache = cache;
  QueryEngine sparse = QueryEngine::Create(g, sparse_opts).MoveValueOrDie();
  sparse.BatchScores(QueryMeasure::kSimRankStarGeometric, batch).ValueOrDie();

  QueryEngineOptions dense_opts;
  dense_opts.similarity = BaseOptions();
  dense_opts.result_cache = cache;
  QueryEngine cached = QueryEngine::Create(g, dense_opts).MoveValueOrDie();
  const auto got =
      cached.BatchScores(QueryMeasure::kSimRankStarGeometric, batch)
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
}

TEST(KernelBackendTest, PruningSparsifiesScores) {
  // At eps = 1e-2 on a sparse random graph, far-apart pairs must actually
  // be dropped — the point of sieving during propagation.
  const Graph g = ErdosRenyi(200, 400, 7).ValueOrDie();
  QueryEngineOptions opts;
  opts.similarity = BaseOptions();
  opts.similarity.backend = KernelBackendKind::kSparse;
  opts.similarity.prune_epsilon = 1e-2;
  QueryEngine sparse = QueryEngine::Create(g, opts).MoveValueOrDie();
  QueryEngineOptions dopts;
  dopts.similarity = BaseOptions();
  QueryEngine dense = QueryEngine::Create(g, dopts).MoveValueOrDie();
  const std::vector<NodeId> batch = AllNodes(g);
  int64_t nnz_sparse = 0;
  int64_t nnz_dense = 0;
  const auto a =
      sparse.BatchScores(QueryMeasure::kSimRankStarGeometric, batch)
          .ValueOrDie();
  const auto b =
      dense.BatchScores(QueryMeasure::kSimRankStarGeometric, batch)
          .ValueOrDie();
  for (size_t i = 0; i < batch.size(); ++i) {
    for (size_t j = 0; j < a[i].size(); ++j) {
      nnz_sparse += a[i][j] != 0.0;
      nnz_dense += b[i][j] != 0.0;
    }
  }
  EXPECT_LT(nnz_sparse, nnz_dense);
  EXPECT_GT(nnz_sparse, 0);
}

TEST(KernelBackendTest, ValidateRejectsBadPruneEpsilon) {
  const Graph g = PathGraph(4).ValueOrDie();
  QueryEngineOptions opts;
  opts.similarity.backend = KernelBackendKind::kSparse;
  opts.similarity.prune_epsilon = -1e-3;
  EXPECT_EQ(QueryEngine::Create(g, opts).status().code(),
            StatusCode::kInvalidArgument);
  opts.similarity.prune_epsilon = 1.0;
  EXPECT_EQ(QueryEngine::Create(g, opts).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(KernelBackendTest, BackendKindStringsRoundTrip) {
  KernelBackendKind kind;
  ASSERT_TRUE(ParseKernelBackendKind("dense", &kind));
  EXPECT_EQ(kind, KernelBackendKind::kDense);
  ASSERT_TRUE(ParseKernelBackendKind("sparse", &kind));
  EXPECT_EQ(kind, KernelBackendKind::kSparse);
  EXPECT_FALSE(ParseKernelBackendKind("frontier", &kind));
  EXPECT_STREQ(KernelBackendKindToString(KernelBackendKind::kDense), "dense");
  EXPECT_STREQ(KernelBackendKindToString(KernelBackendKind::kSparse),
               "sparse");
  EXPECT_STREQ(MakeDenseKernelBackend()->Name(), "dense");
  EXPECT_STREQ(MakeSparseFrontierBackend(0.0)->Name(), "sparse");
}

}  // namespace
}  // namespace srs
