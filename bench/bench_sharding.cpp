// Scatter/gather sharding shootout: single-source serving through the
// ShardCoordinator swept across shard counts, against the unsharded
// QueryEngine baselines on the same snapshot. Two shapes per
// configuration: full score rows (per-level fan-out across the shard
// slices) and top-k (the engine's branch-and-bound loop plus the aged
// shard-level prunes, whose per-shard fire counts are reported next to
// the timings). Every sharded answer is asserted bit-identical to the
// baseline before anything is timed — a sharded speedup that changed the
// bits would be a bug, not a result.
//
// Shard-level parallelism is real (one ThreadPool task per shard per
// level), so the wall-clock win at S >= 2 tracks the machine's core
// count: on a single-core box the sweep degenerates to measuring
// coordination overhead, which is the honest number to publish there
// (BENCH_sharding.json records `hardware_threads` so readers can tell).
//
// `--large` switches to the n >= 1M tier (R-MAT avg degree 8 and a
// copying-model graph of avg degree 3, as in bench_topk/bench_kernels).
//
// Usage: bench_sharding [scale] [seed] [--json] [--json-out PATH] [--large]

#include <cstdio>
#include <string>
#include <vector>

#include "srs/common/parallel.h"
#include "srs/common/rng.h"
#include "srs/common/table_printer.h"
#include "srs/engine/query_engine.h"
#include "srs/engine/snapshot.h"
#include "srs/engine/topk_engine.h"
#include "srs/graph/generators.h"
#include "srs/shard/coordinator.h"
#include "srs/shard/partitioner.h"
#include "srs/shard/sharded_graph.h"

#include "bench_util.h"

namespace {

using namespace srs;

struct Dataset {
  std::string name;
  Graph graph;
};

uint64_t PruneCount(const ShardCoordinator& c) {
  uint64_t fired = 0;
  for (const ShardCounters& s : c.shard_counters()) {
    fired += s.pruned_scans + s.dropped_candidates;
  }
  return fired;
}

void Die(const char* what) {
  std::fprintf(stderr, "bench_sharding: sharded answer diverged (%s)\n",
               what);
  std::exit(1);
}

int Run(const bench::BenchArgs& args) {
  const int threads = HardwareThreads();
  std::vector<Dataset> datasets;
  if (args.large) {
    const int64_t n = static_cast<int64_t>(1000000 * args.scale);
    datasets.push_back(
        {"rmat_deg8", Rmat(n, 8 * n, DeriveSeed(args.seed, 1)).ValueOrDie()});
    datasets.push_back(
        {"copying_deg3",
         CopyingModelGraph(n, 3.0, 0.35, DeriveSeed(args.seed, 2))
             .ValueOrDie()});
  } else {
    const int64_t n = static_cast<int64_t>(50000 * args.scale);
    datasets.push_back(
        {"rmat_deg8", Rmat(n, 8 * n, DeriveSeed(args.seed, 1)).ValueOrDie()});
    datasets.push_back(
        {"er_deg4",
         ErdosRenyi(n, 4 * n, DeriveSeed(args.seed, 2)).ValueOrDie()});
  }

  SimilarityOptions sim;
  sim.damping = 0.6;
  sim.epsilon = args.large ? 1e-4 : 1e-6;

  const std::vector<int> shard_counts = {1, 2, 4};
  const QueryMeasure measures[] = {QueryMeasure::kSimRankStarGeometric,
                                   QueryMeasure::kRwr};
  const int num_queries = args.large ? 4 : 8;

  std::printf(
      "Sharded scatter/gather vs unsharded engines, C=%.1f, %d queries "
      "per timing, %d hardware thread(s)\n",
      sim.damping, num_queries, threads);

  bench::PrintHeader(
      "dataset x measure x shape x shards -> ms/query vs unsharded");
  TablePrinter table({"dataset", "measure", "shape", "shards", "ms/query",
                      "speedup vs unsharded", "prunes"});

  for (const Dataset& dataset : datasets) {
    const Graph& g = dataset.graph;
    const int64_t n = g.NumNodes();
    std::vector<NodeId> batch;
    for (int i = 0; i < num_queries; ++i) {
      batch.push_back(static_cast<NodeId>((int64_t{7919} * (i + 1)) % n));
    }

    SnapshotCache snapshots(4);
    const std::shared_ptr<const GraphSnapshot> snap = snapshots.Get(g);

    for (QueryMeasure measure : measures) {
      // --- Full rows ---------------------------------------------------
      QueryEngineOptions qopts;
      qopts.similarity = sim;
      qopts.num_threads = threads;
      qopts.snapshot_cache = &snapshots;
      QueryEngine engine = QueryEngine::Create(g, qopts).MoveValueOrDie();
      auto base_rows = engine.BatchScores(measure, batch).ValueOrDie();
      const double full_base_sec = bench::TimeSeconds(
          [&] { base_rows = engine.BatchScores(measure, batch).ValueOrDie(); });

      // --- Top-k -------------------------------------------------------
      QueryEngineOptions topts;
      topts.similarity = sim;
      topts.similarity.top_k = 10;
      topts.num_threads = threads;
      topts.snapshot_cache = &snapshots;
      QueryEngine topk = QueryEngine::Create(g, topts).MoveValueOrDie();
      auto base_topk = topk.BatchTopK(measure, batch).ValueOrDie();
      const double topk_base_sec = bench::TimeSeconds(
          [&] { base_topk = topk.BatchTopK(measure, batch).ValueOrDie(); });

      for (int shards : shard_counts) {
        const std::shared_ptr<const ShardedGraph> sharded =
            ShardedGraph::Create(snap, shards, EdgeBalancedPartitioner());

        ShardCoordinatorOptions copts;
        copts.similarity = sim;
        copts.similarity.shards = shards > 1 ? shards : 0;
        copts.num_threads = threads;

        ShardCoordinator full =
            ShardCoordinator::Create(sharded, copts).MoveValueOrDie();
        auto rows = full.BatchScores(measure, batch).ValueOrDie();
        for (size_t i = 0; i < batch.size(); ++i) {
          if (rows[i] != base_rows[i]) Die("full rows");
        }
        const double full_sec = bench::TimeSeconds(
            [&] { rows = full.BatchScores(measure, batch).ValueOrDie(); });

        ShardCoordinatorOptions ropts = copts;
        ropts.similarity.top_k = 10;
        ShardCoordinator ranked =
            ShardCoordinator::Create(sharded, ropts).MoveValueOrDie();
        auto rankings = ranked.BatchTopK(measure, batch).ValueOrDie();
        for (size_t i = 0; i < batch.size(); ++i) {
          if (rankings[i].ranking.size() != base_topk[i].ranking.size()) {
            Die("top-k size");
          }
          for (size_t r = 0; r < rankings[i].ranking.size(); ++r) {
            if (rankings[i].ranking[r].node != base_topk[i].ranking[r].node ||
                rankings[i].ranking[r].score !=
                    base_topk[i].ranking[r].score) {
              Die("top-k ranking");
            }
          }
        }
        const double topk_sec = bench::TimeSeconds([&] {
          rankings = ranked.BatchTopK(measure, batch).ValueOrDie();
        });
        const uint64_t prunes = PruneCount(ranked);

        struct Row {
          const char* shape;
          double sec;
          double base_sec;
          uint64_t prunes;
        };
        const Row result_rows[] = {
            {"full", full_sec, full_base_sec, 0},
            {"topk", topk_sec, topk_base_sec, prunes},
        };
        for (const Row& row : result_rows) {
          const double ms = 1e3 * row.sec / batch.size();
          const double speedup = row.base_sec / row.sec;
          table.AddRow({dataset.name, QueryMeasureToString(measure),
                        row.shape,
                        TablePrinter::Fmt(static_cast<int64_t>(shards)),
                        TablePrinter::Fmt(ms, 3),
                        TablePrinter::Fmt(speedup, 2),
                        TablePrinter::Fmt(static_cast<int64_t>(row.prunes))});
          if (args.json) {
            bench::JsonLine("bench_sharding")
                .Add("dataset", dataset.name)
                .Add("nodes", n)
                .Add("edges", g.NumEdges())
                .Add("measure", QueryMeasureToString(measure))
                .Add("shape", row.shape)
                .Add("shards", shards)
                .Add("hardware_threads", threads)
                .Add("ms_per_query", ms)
                .Add("speedup_vs_unsharded", speedup)
                .Add("prune_events", static_cast<int64_t>(row.prunes))
                .Print();
          }
        }
      }
    }
  }
  table.Print();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return Run(bench::ParseArgs(argc, argv));
}
