// Multi-source / all-pairs serving throughput: QueryEngine::ForEachRow's
// tiled, pooled row computation against the naive per-source loop (one
// SingleSourceSimRankStarGeometric call per source, rebuilding the
// snapshot every time — the only way to get these rows before the engine
// existed). Sweeps tile size × worker count; the acceptance bar is ≥2×
// over the naive loop at 8 threads on the medium (CitPatent-like) graph.
// A second table shows the result cache turning a repeated source sweep
// into pure lookups.
//
// Usage: bench_all_pairs [scale] [seed]

#include <cstdio>
#include <numeric>

#include "srs/common/parallel.h"
#include "srs/common/rng.h"
#include "srs/common/table_printer.h"
#include "srs/core/single_source.h"
#include "srs/datasets/datasets.h"
#include "srs/engine/query_engine.h"
#include "srs/engine/result_cache.h"

#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace srs;
  const bench::BenchArgs args = bench::ParseArgs(argc, argv);

  const Graph g =
      MakeCitPatentLike(args.scale, DeriveSeed(args.seed, 0)).ValueOrDie();
  SimilarityOptions sim;
  sim.damping = 0.6;
  sim.iterations = 5;

  // Sources: every 8th node — a "medium" multi-source request large enough
  // to amortize tiling but far from trivial all-pairs cost at scale 1.
  std::vector<NodeId> sources;
  for (int64_t v = 0; v < g.NumNodes(); v += 8) {
    sources.push_back(static_cast<NodeId>(v));
  }

  std::printf("QueryEngine::ForEachRow on a CitPatent-like graph "
              "(|V|=%lld, |E|=%lld), gsr-star K=5, %zu sources, %d hardware "
              "threads\n",
              static_cast<long long>(g.NumNodes()),
              static_cast<long long>(g.NumEdges()), sources.size(),
              HardwareThreads());

  // Baseline: the naive per-source loop.
  double checksum_naive = 0.0;
  const double naive_sec = bench::TimeSeconds([&] {
    for (NodeId s : sources) {
      const std::vector<double> row =
          SingleSourceSimRankStarGeometric(g, s, sim).ValueOrDie();
      checksum_naive += row.empty() ? 0.0 : row.back();
    }
  });
  std::printf("naive per-source loop: %.3f s (%.1f rows/s)\n", naive_sec,
              sources.size() / naive_sec);
  if (args.json) {
    bench::JsonLine("bench_all_pairs")
        .Add("config", "naive_loop")
        .Add("nodes", g.NumNodes())
        .Add("edges", g.NumEdges())
        .Add("sources", static_cast<int64_t>(sources.size()))
        .Add("sec", naive_sec)
        .Add("rows_per_sec", sources.size() / naive_sec)
        .Print();
  }

  bench::PrintHeader("tile size x worker count -> rows/sec");
  TablePrinter table(
      {"tile", "threads", "sec", "rows/s", "vs naive", "checksum"});
  for (int tile : {8, 32, 128}) {
    for (int threads : {1, 2, 4, 8}) {
      QueryEngineOptions opts;
      opts.similarity = sim;
      opts.num_threads = threads;
      opts.tile_size = tile;
      QueryEngine engine = QueryEngine::Create(g, opts).MoveValueOrDie();
      double checksum = 0.0;
      // Warm-up sizes the tile buffers and workspaces; the timed run then
      // measures the allocation-free steady state.
      SRS_CHECK_OK(engine.ForEachRow(
          QueryMeasure::kSimRankStarGeometric, {sources[0]},
          [](int64_t, NodeId, const std::vector<double>&) {}));
      const double sec = bench::TimeSeconds([&] {
        SRS_CHECK_OK(engine.ForEachRow(
            QueryMeasure::kSimRankStarGeometric, sources,
            [&](int64_t, NodeId, const std::vector<double>& row) {
              checksum += row.empty() ? 0.0 : row.back();
            }));
      });
      table.AddRow({TablePrinter::Fmt(static_cast<int64_t>(tile)),
                    TablePrinter::Fmt(static_cast<int64_t>(threads)),
                    TablePrinter::Fmt(sec, 3),
                    TablePrinter::Fmt(sources.size() / sec, 1),
                    TablePrinter::Fmt(naive_sec / sec, 2),
                    TablePrinter::Fmt(checksum, 6)});
      if (args.json) {
        bench::JsonLine("bench_all_pairs")
            .Add("config", "tiled_engine")
            .Add("tile", tile)
            .Add("threads", threads)
            .Add("sec", sec)
            .Add("rows_per_sec", sources.size() / sec)
            .Add("speedup_vs_naive", naive_sec / sec)
            .Print();
      }
    }
  }
  table.Print();

  bench::PrintHeader("result cache: repeated sweep over the same sources");
  auto cache = std::make_shared<ResultCache>();
  QueryEngineOptions opts;
  opts.similarity = sim;
  opts.num_threads = 8;
  opts.tile_size = 32;
  opts.result_cache = cache;
  QueryEngine engine = QueryEngine::Create(g, opts).MoveValueOrDie();
  TablePrinter cache_table({"pass", "sec", "rows/s"});
  for (int pass = 1; pass <= 3; ++pass) {
    const double sec = bench::TimeSeconds([&] {
      SRS_CHECK_OK(engine.ForEachRow(
          QueryMeasure::kSimRankStarGeometric, sources,
          [](int64_t, NodeId, const std::vector<double>&) {}));
    });
    cache_table.AddRow({TablePrinter::Fmt(static_cast<int64_t>(pass)),
                        TablePrinter::Fmt(sec, 4),
                        TablePrinter::Fmt(sources.size() / sec, 1)});
    if (args.json) {
      bench::JsonLine("bench_all_pairs")
          .Add("config", "cached_sweep")
          .Add("pass", pass)
          .Add("sec", sec)
          .Add("rows_per_sec", sources.size() / sec)
          .Print();
    }
  }
  cache_table.Print();
  std::printf("%s\n", cache->StatsString().c_str());
  return 0;
}
