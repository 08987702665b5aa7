// Query-engine throughput: batches of single-source SimRank* queries over
// a shared graph snapshot, swept across batch size × worker count. The
// engine reuses per-worker workspaces, so after the first batch the hot
// loop performs zero per-query heap allocations; scaling beyond ~4× at 8
// workers on an 8-core machine is the acceptance bar for the batching
// design (dynamic item claiming over a parked pool).
//
// Rows where the workload cannot profit from the pool — fewer queries
// than workers, or per-query work so small that dispatch overhead
// dominates — are marked `below_parallel_threshold`; their sub-1x
// "speedups" measure pool overhead, not a scaling regression (the smoke
// tier's n=400 graph at batch 1 x 8 threads is the canonical example).

#include <cstdio>

#include "srs/common/parallel.h"
#include "srs/common/table_printer.h"
#include "srs/datasets/datasets.h"
#include "srs/engine/query_engine.h"

#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace srs;
  const bench::BenchArgs args = bench::ParseArgs(argc, argv);

  // The largest of the synthetic stand-ins (CitPatent-like, 4000 nodes at
  // scale 1) keeps per-query cost realistic while the sweep stays fast.
  const Graph g = MakeCitPatentLike(args.scale).ValueOrDie();
  std::printf("QueryEngine throughput on a CitPatent-like graph (|V|=%lld, "
              "|E|=%lld), gsr-star K=5, top-10, %d hardware threads\n",
              static_cast<long long>(g.NumNodes()),
              static_cast<long long>(g.NumEdges()), HardwareThreads());

  // Per-query single-thread cost below which pool dispatch overhead (a
  // few microseconds of wake/claim/park per item) is a visible fraction
  // of the work itself.
  constexpr double kMinParallelSecPerQuery = 100e-6;

  bench::PrintHeader("batch size x worker count -> queries/sec");
  TablePrinter table(
      {"batch", "threads", "sec", "queries/s", "speedup", "parallelizable"});
  for (int batch_size : {1, 8, 64}) {
    std::vector<NodeId> batch(static_cast<size_t>(batch_size));
    for (int i = 0; i < batch_size; ++i) {
      batch[static_cast<size_t>(i)] =
          static_cast<NodeId>((int64_t{7919} * i) % g.NumNodes());
    }
    double baseline = 0.0;
    for (int threads : {1, 2, 4, 8}) {
      QueryEngineOptions opts;
      opts.similarity.damping = 0.6;
      opts.similarity.iterations = 5;
      opts.num_threads = threads;
      QueryEngine engine = QueryEngine::Create(g, opts).MoveValueOrDie();
      // Warm-up batch: sizes the per-worker workspaces so the timed run
      // measures the allocation-free steady state.
      bench::RankFullRows(engine, QueryMeasure::kSimRankStarGeometric, batch,
                          10);
      const int reps = batch_size >= 64 ? 3 : 10;
      const double sec = bench::TimeSeconds([&] {
        for (int r = 0; r < reps; ++r) {
          bench::RankFullRows(engine, QueryMeasure::kSimRankStarGeometric,
                              batch, 10);
        }
      });
      const double qps = reps * batch_size / sec;
      if (threads == 1) baseline = sec;
      const bool below_threshold =
          threads > 1 &&
          (batch_size < threads ||
           baseline / (reps * batch_size) < kMinParallelSecPerQuery);
      table.AddRow({TablePrinter::Fmt(static_cast<int64_t>(batch_size)),
                    TablePrinter::Fmt(static_cast<int64_t>(threads)),
                    TablePrinter::Fmt(sec, 3), TablePrinter::Fmt(qps, 1),
                    TablePrinter::Fmt(baseline / sec, 2),
                    below_threshold ? "no" : "yes"});
      if (args.json) {
        bench::JsonLine("bench_query_engine")
            .Add("nodes", g.NumNodes())
            .Add("edges", g.NumEdges())
            .Add("batch", batch_size)
            .Add("threads", threads)
            .Add("sec", sec)
            .Add("queries_per_sec", qps)
            .Add("speedup_vs_1_thread", baseline / sec)
            .Add("below_parallel_threshold", below_threshold ? 1 : 0)
            .Print();
      }
    }
  }
  table.Print();
  return 0;
}
