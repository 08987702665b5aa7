// Differential fuzz harness for the sharding subsystem (shard/): random
// graphs × shard counts × partitioners, asserting that at prune_epsilon =
// 0 the ShardCoordinator's answers are **bit-identical** to the unsharded
// engine's — full score rows against QueryEngine::BatchScores (dense AND
// sparse backends) and top-k rankings with their termination diagnostics
// against QueryEngine::BatchTopK — across all three measures. On top of
// the identity sweep:
//
//  * shard-pruning soundness — on a two-community graph whose far shard
//    provably cannot place a candidate, the aged-bound prunes must fire
//    (counters > 0) while the ranking stays exactly the engine's;
//  * delta-under-sharding — ShardedGraph::Derive along a version chain
//    must equal a from-scratch Create over the child snapshot (same cuts,
//    same per-shard statistics), and coordinator answers over the derived
//    view must stay bit-identical to the unsharded engines on the same
//    version.
//
// Two lanes share this binary (tests/CMakeLists.txt): the *Fast* tests run
// small configurations in the PR lane; the full sweep carries the "slow"
// label and reruns nightly under --gtest_repeat with SRS_FUZZ_SEED wired
// to the CI run id.

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "srs/common/rng.h"
#include "srs/engine/query_engine.h"
#include "srs/engine/snapshot.h"
#include "srs/engine/topk_engine.h"
#include "srs/graph/delta.h"
#include "srs/graph/generators.h"
#include "srs/graph/graph_builder.h"
#include "srs/graph/versioned_graph.h"
#include "srs/shard/coordinator.h"
#include "srs/shard/partitioner.h"
#include "srs/shard/sharded_graph.h"

namespace srs {
namespace {

constexpr QueryMeasure kAllMeasures[] = {QueryMeasure::kSimRankStarGeometric,
                                         QueryMeasure::kSimRankStarExponential,
                                         QueryMeasure::kRwr};

uint64_t FuzzSeed() {
  static std::atomic<uint64_t> invocation{0};
  uint64_t base = 20260808;
  if (const char* env = std::getenv("SRS_FUZZ_SEED")) {
    const uint64_t parsed = std::strtoull(env, nullptr, 10);
    if (parsed != 0) base = parsed;
  }
  // --gtest_repeat re-enters the test body; advancing the seed per
  // invocation makes every repetition a fresh sample of the same
  // reproducible stream (the failing seed is printed on any mismatch).
  return base + invocation.fetch_add(1);
}

/// Bitwise equality — EXPECT_EQ on doubles admits -0.0 == +0.0 and would
/// mask representation drift; the sharding contract is stronger.
void ExpectBitEqual(const std::vector<double>& got,
                    const std::vector<double>& want,
                    const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  if (!got.empty() &&
      std::memcmp(got.data(), want.data(),
                  got.size() * sizeof(double)) != 0) {
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i], want[i]) << context << " first diff at entry " << i;
    }
    FAIL() << context << " bit drift not visible at value level";
  }
}

void ExpectSameTopK(const TopKResult& got, const TopKResult& want,
                    const std::string& context) {
  ASSERT_EQ(got.ranking.size(), want.ranking.size()) << context;
  for (size_t r = 0; r < got.ranking.size(); ++r) {
    EXPECT_EQ(got.ranking[r].node, want.ranking[r].node)
        << context << " rank " << r;
    EXPECT_EQ(got.ranking[r].score, want.ranking[r].score)
        << context << " rank " << r;
  }
  // The shard-level prunes are provable no-ops, so even the
  // branch-and-bound trajectory — which levels ran, where it settled —
  // must match the engine's.
  EXPECT_EQ(got.levels_evaluated, want.levels_evaluated) << context;
  EXPECT_EQ(got.levels_total, want.levels_total) << context;
  EXPECT_EQ(got.residual_bound, want.residual_bound) << context;
}

SimilarityOptions BaseOptions() {
  SimilarityOptions sim;
  sim.damping = 0.6;
  sim.iterations = 5;
  return sim;
}

struct FuzzConfig {
  int num_graphs = 2;
  int64_t max_nodes = 48;
  std::vector<int> shard_counts = {1, 2, 3, 7};
};

/// The identity sweep: sharded full rows and top-k vs the unsharded
/// engines, dense and sparse backends, every measure, both partitioners.
void RunShardingIdentityFuzz(uint64_t seed, const FuzzConfig& config) {
  SCOPED_TRACE("fuzz seed " + std::to_string(seed));
  for (int gi = 0; gi < config.num_graphs; ++gi) {
    Rng rng(DeriveSeed(seed, static_cast<uint64_t>(gi)));
    const int64_t n = 16 + static_cast<int64_t>(
                               rng.Uniform(config.max_nodes - 15));
    const int64_t m = n * (1 + static_cast<int64_t>(rng.Uniform(3)));
    Result<Graph> built =
        gi % 2 == 0 ? ErdosRenyi(n, std::min(m, n * (n - 1) / 2), rng.Next())
                    : Rmat(n, m, rng.Next());
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    const Graph& g = built.ValueOrDie();
    SCOPED_TRACE("graph " + std::to_string(gi) + ": n=" + std::to_string(n));

    std::vector<NodeId> queries;
    for (int i = 0; i < 4; ++i) {
      queries.push_back(static_cast<NodeId>(rng.Uniform(n)));
    }

    // One snapshot shared by every party — the engines through the cache,
    // the coordinator through its ShardedGraph view.
    SnapshotCache snapshots(4);
    const std::shared_ptr<const GraphSnapshot> snap = snapshots.Get(g);

    // Unsharded references: dense (the bit-exact baseline) and sparse at
    // prune_epsilon = 0 (bit-identical to dense by the backend contract).
    SimilarityOptions sims[2];
    sims[0] = BaseOptions();
    sims[1] = sims[0];
    sims[1].backend = KernelBackendKind::kSparse;
    sims[1].prune_epsilon = 0.0;

    for (QueryMeasure measure : kAllMeasures) {
      SCOPED_TRACE(QueryMeasureToString(measure));
      std::vector<std::vector<std::vector<double>>> want_rows(2);
      std::vector<std::vector<TopKResult>> want_topk(2);
      for (int b = 0; b < 2; ++b) {
        QueryEngineOptions qopts;
        qopts.similarity = sims[b];
        qopts.snapshot_cache = &snapshots;
        QueryEngine engine =
            QueryEngine::Create(g, qopts).MoveValueOrDie();
        want_rows[b] = engine.BatchScores(measure, queries).ValueOrDie();

        QueryEngineOptions topts;
        topts.similarity = sims[b];
        topts.similarity.top_k = 3;
        topts.snapshot_cache = &snapshots;
        QueryEngine topk = QueryEngine::Create(g, topts).MoveValueOrDie();
        want_topk[b] = topk.BatchTopK(measure, queries).ValueOrDie();
      }

      for (int shards : config.shard_counts) {
        SCOPED_TRACE("shards " + std::to_string(shards));
        const UniformRangePartitioner uniform;
        const EdgeBalancedPartitioner balanced;
        const Partitioner& partitioner =
            shards % 2 == 0 ? static_cast<const Partitioner&>(balanced)
                            : static_cast<const Partitioner&>(uniform);
        const std::shared_ptr<const ShardedGraph> sharded =
            ShardedGraph::Create(snap, shards, partitioner);

        for (int b = 0; b < 2; ++b) {
          SCOPED_TRACE(b == 0 ? "backend dense" : "backend sparse");
          ShardCoordinatorOptions copts;
          copts.similarity = sims[b];
          copts.similarity.shards = shards > 1 ? shards : 0;
          copts.num_threads = 1 + static_cast<int>(rng.Uniform(2));

          ShardCoordinator full =
              ShardCoordinator::Create(sharded, copts).MoveValueOrDie();
          const auto got_rows =
              full.BatchScores(measure, queries).ValueOrDie();
          for (size_t i = 0; i < queries.size(); ++i) {
            ExpectBitEqual(got_rows[i], want_rows[b][i],
                           "full row query " + std::to_string(queries[i]));
          }

          ShardCoordinatorOptions topk_opts = copts;
          topk_opts.similarity.top_k = 3;
          ShardCoordinator ranked =
              ShardCoordinator::Create(sharded, topk_opts).MoveValueOrDie();
          const auto got_topk =
              ranked.BatchTopK(measure, queries).ValueOrDie();
          for (size_t i = 0; i < queries.size(); ++i) {
            ExpectSameTopK(got_topk[i], want_topk[b][i],
                           "top-k query " + std::to_string(queries[i]));
          }
        }
      }
    }
  }
}

TEST(ShardingFuzzTest, FastIdentity) {
  FuzzConfig config;  // small: PR fast lane (see tests/CMakeLists.txt)
  RunShardingIdentityFuzz(FuzzSeed(), config);
}

TEST(ShardingFuzzTest, IdentitySweep) {
  FuzzConfig config;
  config.num_graphs = 6;
  config.max_nodes = 200;
  RunShardingIdentityFuzz(FuzzSeed() + 0x51a2, config);
}

/// Two communities with no edges between them: the query's community
/// lives entirely in shard 0, so shard 1's partials stay at zero and the
/// aged-bound prunes must eventually skip its scans / drop its candidates
/// wholesale — without perturbing the exact ranking.
TEST(ShardingFuzzTest, FastPruningSoundness) {
  constexpr int64_t kCommunity = 24;
  GraphBuilder b(2 * kCommunity);
  Rng rng(FuzzSeed());
  for (int64_t c = 0; c < 2; ++c) {
    const int64_t base = c * kCommunity;
    // A ring plus random chords keeps every node reachable and scores
    // spread out (distinct gaps help the separation test settle late).
    for (int64_t i = 0; i < kCommunity; ++i) {
      SRS_CHECK_OK(b.AddEdge(static_cast<NodeId>(base + i),
                             static_cast<NodeId>(base + (i + 1) % kCommunity)));
    }
    for (int i = 0; i < 3 * kCommunity; ++i) {
      SRS_CHECK_OK(
          b.AddEdge(static_cast<NodeId>(base + rng.Uniform(kCommunity)),
                    static_cast<NodeId>(base + rng.Uniform(kCommunity))));
    }
  }
  const Graph g = b.Build().MoveValueOrDie();

  SimilarityOptions sim;
  sim.damping = 0.8;  // slow tail decay: many levels, many scan points
  sim.epsilon = 1e-8;
  sim.top_k = 3;

  SnapshotCache snapshots(2);
  const std::shared_ptr<const GraphSnapshot> snap = snapshots.Get(g);
  // The uniform cut at n/2 puts each community in its own shard.
  const std::shared_ptr<const ShardedGraph> sharded =
      ShardedGraph::Create(snap, 2, UniformRangePartitioner());
  ASSERT_EQ(sharded->slice(0).range.end, kCommunity);

  QueryEngineOptions topts;
  topts.similarity = sim;
  topts.snapshot_cache = &snapshots;
  QueryEngine engine = QueryEngine::Create(g, topts).MoveValueOrDie();

  ShardCoordinatorOptions copts;
  copts.similarity = sim;
  copts.similarity.shards = 2;
  MetricsRegistry registry;
  copts.registry = &registry;
  ShardCoordinator coordinator =
      ShardCoordinator::Create(sharded, copts).MoveValueOrDie();

  std::vector<NodeId> queries;
  for (NodeId q = 0; q < 8; ++q) queries.push_back(q);  // all in shard 0

  for (QueryMeasure measure : kAllMeasures) {
    SCOPED_TRACE(QueryMeasureToString(measure));
    const auto want = engine.BatchTopK(measure, queries).ValueOrDie();
    const auto got = coordinator.BatchTopK(measure, queries).ValueOrDie();
    for (size_t i = 0; i < queries.size(); ++i) {
      ExpectSameTopK(got[i], want[i],
                     "top-k query " + std::to_string(queries[i]));
    }
  }

  // Soundness has teeth only if the prunes actually fired: shard 1 (all
  // zero partials, threshold positive) must have had scans skipped or its
  // candidate list dropped, and the skips must be visible both in the
  // counters and in the registry's per-shard families.
  const ShardCounters& far = coordinator.shard_counters()[1];
  EXPECT_GT(far.pruned_scans + far.dropped_candidates, 0u)
      << "prunes never fired: pruned_scans=" << far.pruned_scans
      << " dropped_candidates=" << far.dropped_candidates
      << " scans=" << far.scans;
  const MetricsSnapshot metrics = registry.Snapshot();
  const MetricLabels far_labels = {{"shard", "1"}};
  const MetricSnapshot* pruned =
      metrics.Find("srs_shard_topk_scans_pruned_total", far_labels);
  const MetricSnapshot* dropped =
      metrics.Find("srs_shard_topk_candidates_dropped_total", far_labels);
  ASSERT_NE(pruned, nullptr);
  ASSERT_NE(dropped, nullptr);
  EXPECT_EQ(static_cast<uint64_t>(pruned->value) +
                static_cast<uint64_t>(dropped->value),
            far.pruned_scans + far.dropped_candidates);
}

/// Deltas under sharding: Derive along the version chain must equal a
/// from-scratch Create over the child snapshot, and the coordinator over
/// the derived view must stay bit-identical to the unsharded engines.
void RunDeltaUnderShardingFuzz(uint64_t seed, int num_versions,
                               int max_ops) {
  SCOPED_TRACE("fuzz seed " + std::to_string(seed));
  Rng rng(seed);
  const int64_t n = 32 + static_cast<int64_t>(rng.Uniform(32));
  Result<Graph> base = Rmat(n, 4 * n, rng.Next());
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  VersionedGraph vg(Graph(base.ValueOrDie()));
  SnapshotCache snapshots(16);

  constexpr int kShards = 3;
  // The uniform partitioner's cuts depend only on n, so a from-scratch
  // Create over the child snapshot reproduces Derive's cuts exactly and
  // the slice statistics are directly comparable.
  const UniformRangePartitioner partitioner;
  Result<std::shared_ptr<const GraphSnapshot>> snap0 = snapshots.Get(vg, 0);
  ASSERT_TRUE(snap0.ok());
  std::shared_ptr<const ShardedGraph> derived =
      ShardedGraph::Create(snap0.ValueOrDie(), kShards, partitioner);

  SimilarityOptions sim = BaseOptions();

  for (int v = 1; v <= num_versions; ++v) {
    SCOPED_TRACE("version " + std::to_string(v));
    EdgeDelta::Builder builder;
    const int ops = 1 + static_cast<int>(
                            rng.Uniform(static_cast<uint64_t>(max_ops)));
    for (int i = 0; i < ops; ++i) {
      const NodeId u = static_cast<NodeId>(rng.Uniform(n));
      const NodeId w = static_cast<NodeId>(rng.Uniform(n));
      if (rng.Bernoulli(0.6)) {
        builder.Insert(u, w);
      } else {
        builder.Remove(u, w);
      }
    }
    Result<EdgeDelta> delta = builder.Build(n);
    ASSERT_TRUE(delta.ok());
    Result<uint64_t> applied = vg.Apply(delta.ValueOrDie());
    ASSERT_TRUE(applied.ok()) << applied.status().ToString();

    Result<std::shared_ptr<const GraphSnapshot>> child =
        snapshots.Get(vg, static_cast<uint64_t>(v));
    ASSERT_TRUE(child.ok());
    derived = ShardedGraph::Derive(derived, child.ValueOrDie());
    const std::shared_ptr<const ShardedGraph> rebuilt =
        ShardedGraph::Create(child.ValueOrDie(), kShards, partitioner);

    ASSERT_EQ(derived->num_shards(), rebuilt->num_shards());
    for (int s = 0; s < kShards; ++s) {
      SCOPED_TRACE("shard " + std::to_string(s));
      EXPECT_EQ(derived->slice(s).range.begin, rebuilt->slice(s).range.begin);
      EXPECT_EQ(derived->slice(s).range.end, rebuilt->slice(s).range.end);
      EXPECT_EQ(derived->slice(s).q_nnz, rebuilt->slice(s).q_nnz);
      EXPECT_EQ(derived->slice(s).wt_nnz, rebuilt->slice(s).wt_nnz);
      EXPECT_EQ(derived->slice(s).touched_rows,
                rebuilt->slice(s).touched_rows);
    }

    std::vector<NodeId> queries;
    for (int i = 0; i < 3; ++i) {
      queries.push_back(static_cast<NodeId>(rng.Uniform(n)));
    }
    for (QueryMeasure measure : kAllMeasures) {
      SCOPED_TRACE(QueryMeasureToString(measure));
      QueryEngineOptions qopts;
      qopts.similarity = sim;
      qopts.snapshot_cache = &snapshots;
      QueryEngine engine =
          QueryEngine::Create({vg, static_cast<uint64_t>(v)}, qopts)
              .MoveValueOrDie();
      const auto want = engine.BatchScores(measure, queries).ValueOrDie();

      ShardCoordinatorOptions copts;
      copts.similarity = sim;
      copts.similarity.shards = kShards;
      ShardCoordinator coordinator =
          ShardCoordinator::Create(derived, copts).MoveValueOrDie();
      const auto got = coordinator.BatchScores(measure, queries).ValueOrDie();
      for (size_t i = 0; i < queries.size(); ++i) {
        ExpectBitEqual(got[i], want[i],
                       "post-delta query " + std::to_string(queries[i]));
      }
    }
  }
}

TEST(ShardingFuzzTest, FastDeltaUnderSharding) {
  RunDeltaUnderShardingFuzz(FuzzSeed() + 0x7de1, 3, 12);
}

TEST(ShardingFuzzTest, DeltaUnderShardingSweep) {
  RunDeltaUnderShardingFuzz(FuzzSeed() + 0xd317, 10, 48);
}

}  // namespace
}  // namespace srs
