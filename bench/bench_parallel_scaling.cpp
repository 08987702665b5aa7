// Parallel scaling (extension beyond the paper, whose measurements are
// single-threaded): wall-clock time of the all-pairs algorithms as the
// worker count grows. Row-partitioned kernels give bitwise-identical
// results at any thread count (asserted by parallel_test.cpp), so this is
// pure speedup.

#include <cstdio>

#include "srs/baselines/simrank_psum.h"
#include "srs/common/parallel.h"
#include "srs/common/table_printer.h"
#include "srs/core/memo_esr_star.h"
#include "srs/core/memo_gsr_star.h"
#include "srs/core/simrank_star_geometric.h"
#include "srs/datasets/datasets.h"
#include "srs/engine/query_engine.h"

#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace srs;
  const bench::BenchArgs args = bench::ParseArgs(argc, argv);
  const Graph g = MakeCitHepThLike(0.7 * args.scale, 108).ValueOrDie();

  std::printf("Parallel scaling on a CitHepTh-like graph (|V|=%lld, "
              "|E|=%lld), K = 10, %d hardware threads\n",
              static_cast<long long>(g.NumNodes()),
              static_cast<long long>(g.NumEdges()), HardwareThreads());

  TablePrinter table({"threads", "memo-gSR*", "memo-eSR*", "iter-gSR*",
                      "psum-SR"});
  for (int threads : {1, 2, 4, 8}) {
    if (threads > 2 * HardwareThreads()) break;
    SimilarityOptions opts;
    opts.iterations = 10;
    opts.num_threads = threads;
    const double t_memo_gsr = bench::TimeSeconds(
        [&] { ComputeMemoGsrStar(g, opts).ValueOrDie(); });
    const double t_memo_esr = bench::TimeSeconds(
        [&] { ComputeMemoEsrStar(g, opts).ValueOrDie(); });
    const double t_iter = bench::TimeSeconds(
        [&] { ComputeSimRankStarGeometric(g, opts).ValueOrDie(); });
    const double t_psum = bench::TimeSeconds(
        [&] { ComputeSimRankPsum(g, opts).ValueOrDie(); });
    table.AddRow({TablePrinter::Fmt(static_cast<int64_t>(threads)),
                  TablePrinter::Fmt(t_memo_gsr, 3),
                  TablePrinter::Fmt(t_memo_esr, 3),
                  TablePrinter::Fmt(t_iter, 3),
                  TablePrinter::Fmt(t_psum, 3)});
  }
  table.Print();

  // Query-time scaling goes through the QueryEngine: one shared snapshot,
  // a parked worker pool, and per-worker reusable workspaces (the all-pairs
  // kernels above parallelize rows; the engine parallelizes whole queries).
  std::printf("\nBatched single-source queries (32-query batch, gsr-star)\n");
  TablePrinter query_table({"threads", "engine-batch", "queries/s"});
  std::vector<NodeId> batch(32);
  for (size_t i = 0; i < batch.size(); ++i) {
    batch[i] = static_cast<NodeId>((31 * i) % g.NumNodes());
  }
  for (int threads : {1, 2, 4, 8}) {
    if (threads > 2 * HardwareThreads()) break;
    QueryEngineOptions qopts;
    qopts.similarity.iterations = 10;
    qopts.num_threads = threads;
    QueryEngine engine = QueryEngine::Create(g, qopts).MoveValueOrDie();
    // Warm-up: size the per-worker workspaces.
    bench::RankFullRows(engine, QueryMeasure::kSimRankStarGeometric, batch,
                        10);
    const double t_batch = bench::TimeSeconds([&] {
      bench::RankFullRows(engine, QueryMeasure::kSimRankStarGeometric, batch,
                          10);
    });
    query_table.AddRow({TablePrinter::Fmt(static_cast<int64_t>(threads)),
                        TablePrinter::Fmt(t_batch, 3),
                        TablePrinter::Fmt(batch.size() / t_batch, 1)});
  }
  query_table.Print();
  return 0;
}
