// Top-k shootout: bound-based early termination (QueryEngine::BatchTopK)
// vs full-row-then-sort (BatchScores ranked by TopKInto), swept across k ×
// graph density × kernel backend. Uses an accuracy-driven iteration count
// (epsilon = 1e-8 → K = 36 at C = 0.6, the accuracy a user demanding
// exact rankings would configure): the a-priori bound is conservative,
// while the a-posteriori separation test stops at a level set by the
// *actual score gaps*, independent of the requested accuracy — and since
// level l of the binomial kernels costs l+1 matvecs, stopping halfway
// saves quadratically. The flat per-level cost of RWR profits less; its
// rows quantify that boundary honestly.
//
// The acceptance bar: on the n >= 50k low-degree config (avg degree <= 4),
// top-k is >= 2x faster than full-row-then-sort for k <= 10. Each row
// reports the early-termination level histogram across the query batch, so
// *where* the bound fires is visible next to the speedup.
//
// `--large` switches to the n >= 1M tier: top-10 latency on an R-MAT
// graph (avg degree 8) and a copying-model graph (avg degree 3), swept
// across the SIMD dispatch ladder (common/cpu_features.h) and both node
// layouts (original vs degree-sorted, timings including the map back to
// original ids) instead of the backend/k grid — `speedup_vs_reference`
// is the layout + kernel win over the pre-ladder scalar baseline on the
// original layout, and the full-row baseline is skipped (at K = 36 on 1M
// nodes it would take minutes per rung without informing the comparison).
//
// Usage: bench_topk [scale] [seed] [--json] [--json-out PATH] [--large]

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "srs/common/cpu_features.h"
#include "srs/common/rng.h"
#include "srs/common/table_printer.h"
#include "srs/engine/query_engine.h"
#include "srs/engine/topk_engine.h"
#include "srs/graph/generators.h"
#include "srs/graph/reorder.h"

#include "bench_util.h"

namespace {

using namespace srs;

/// "13:5,14:3" — levels_evaluated -> query count, ascending.
std::string LevelHistogram(const std::vector<TopKResult>& results) {
  std::map<int, int> hist;
  for (const TopKResult& r : results) ++hist[r.levels_evaluated];
  std::string out;
  for (const auto& [levels, count] : hist) {
    if (!out.empty()) out += ',';
    out += std::to_string(levels) + ":" + std::to_string(count);
  }
  return out;
}

double AvgLevels(const std::vector<TopKResult>& results) {
  int64_t sum = 0;
  for (const TopKResult& r : results) sum += r.levels_evaluated;
  return static_cast<double>(sum) / static_cast<double>(results.size());
}

std::vector<SimdLevel> LadderOnThisMachine() {
  std::vector<SimdLevel> levels = {SimdLevel::kReference,
                                   SimdLevel::kPortable};
  if (DetectedSimdLevel() >= SimdLevel::kAvx2) {
    levels.push_back(SimdLevel::kAvx2);
  }
  return levels;
}

/// The n >= 1M tier: top-10 latency across the SIMD dispatch ladder and
/// both node layouts. The degree-sorted layout's timings include mapping
/// the returned rankings back to original ids; `speedup_vs_reference` is
/// always against the (original layout, reference rung) time.
int RunLargeTier(const bench::BenchArgs& args) {
  const int64_t n = static_cast<int64_t>(1000000 * args.scale);
  struct Dataset {
    const char* name;
    Graph graph;
  };
  std::vector<Dataset> datasets;
  datasets.push_back(
      {"rmat_deg8", Rmat(n, 8 * n, DeriveSeed(args.seed, 1)).ValueOrDie()});
  datasets.push_back(
      {"copying_deg3",
       CopyingModelGraph(n, 3.0, 0.35, DeriveSeed(args.seed, 2))
           .ValueOrDie()});

  SimilarityOptions sim;
  sim.damping = 0.6;
  sim.epsilon = 1e-8;  // accuracy-driven K, as in the smoke tier
  sim.top_k = 10;

  std::printf(
      "Top-10 early termination across the SIMD ladder at n=%lld, C=0.6, "
      "epsilon-driven K (1e-8), 4 queries per timing, 1 thread (detected "
      "rung: %s)\n",
      static_cast<long long>(n), SimdLevelName(DetectedSimdLevel()));

  bench::PrintHeader("dataset x measure x layout x simd -> ms/query");
  TablePrinter table({"dataset", "measure", "layout", "simd", "ms/query",
                      "speedup vs reference", "avg levels"});

  const QueryMeasure measures[] = {QueryMeasure::kSimRankStarGeometric,
                                   QueryMeasure::kRwr};
  for (const Dataset& dataset : datasets) {
    const Graph& g = dataset.graph;
    const ReorderedGraph sorted = DegreeSortedGraph(g);
    std::vector<NodeId> batch;
    for (int i = 0; i < 4; ++i) {
      batch.push_back(static_cast<NodeId>((int64_t{7919} * (i + 1)) % n));
    }
    std::vector<NodeId> sorted_batch;
    for (NodeId q : batch) sorted_batch.push_back(sorted.old_to_new[q]);

    struct LayoutConfig {
      const char* name;
      const Graph* graph;
      const std::vector<NodeId>* batch;
      const std::vector<NodeId>* new_to_old;  // null for the original ids
    };
    const LayoutConfig layouts[] = {
        {"original", &g, &batch, nullptr},
        {"degree_sorted", &sorted.graph, &sorted_batch, &sorted.new_to_old},
    };
    for (QueryMeasure measure : measures) {
      double reference_sec = 0.0;
      for (const LayoutConfig& layout : layouts) {
        QueryEngineOptions opts;
        opts.similarity = sim;
        QueryEngine engine =
            QueryEngine::Create(*layout.graph, opts).MoveValueOrDie();
        std::vector<TopKResult> results;
        const auto run_batch = [&] {
          results = engine.BatchTopK(measure, *layout.batch).ValueOrDie();
          if (layout.new_to_old != nullptr) {
            for (TopKResult& r : results) {
              for (RankedNode& rn : r.ranking) {
                rn.node = (*layout.new_to_old)[rn.node];
              }
            }
          }
        };
        for (SimdLevel level : LadderOnThisMachine()) {
          SetSimdLevelForTesting(level);
          run_batch();  // warm-up
          const double sec = bench::TimeSeconds(run_batch);
          if (layout.new_to_old == nullptr &&
              level == SimdLevel::kReference) {
            reference_sec = sec;
          }
          const double speedup = reference_sec / sec;
          const double ms = 1e3 * sec / batch.size();
          table.AddRow({dataset.name, QueryMeasureToString(measure),
                        layout.name, SimdLevelName(level),
                        TablePrinter::Fmt(ms, 3),
                        TablePrinter::Fmt(speedup, 2),
                        TablePrinter::Fmt(AvgLevels(results), 1)});
          if (args.json) {
            bench::JsonLine("bench_topk_large")
                .Add("dataset", dataset.name)
                .Add("nodes", n)
                .Add("edges", g.NumEdges())
                .Add("measure", QueryMeasureToString(measure))
                .Add("k", 10)
                .Add("layout", layout.name)
                .Add("simd", SimdLevelName(level))
                .Add("ms_per_query", ms)
                .Add("speedup_vs_reference", speedup)
                .Add("avg_levels_evaluated", AvgLevels(results))
                .Print();
          }
        }
        ResetSimdLevelForTesting();
      }
    }
  }
  table.Print();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::ParseArgs(argc, argv);
  if (args.large) return RunLargeTier(args);

  const int64_t n = static_cast<int64_t>(50000 * args.scale);
  const std::vector<int> degrees = {2, 4, 8};
  const std::vector<int> ks = {1, 10, 100};
  const QueryMeasure measures[] = {QueryMeasure::kSimRankStarGeometric,
                                   QueryMeasure::kRwr};
  struct BackendConfig {
    const char* name;
    KernelBackendKind kind;
    double prune_eps;
  };
  const BackendConfig backends[] = {
      {"dense", KernelBackendKind::kDense, 0.0},
      {"sparse", KernelBackendKind::kSparse, 1e-4},
  };

  SimilarityOptions sim;
  sim.damping = 0.6;
  sim.epsilon = 1e-8;  // accuracy-driven K — the early-termination regime

  std::printf(
      "Top-k early termination vs full-row-then-sort on Erdős–Rényi graphs "
      "of %lld nodes,\nC=0.6, epsilon-driven K (1e-8), 8 queries per "
      "timing, 1 thread\n",
      static_cast<long long>(n));

  bench::PrintHeader(
      "avg degree x measure x backend x k -> ms/query vs full-row sort");
  TablePrinter table({"deg", "measure", "backend", "k", "topk ms/q",
                      "fullrow ms/q", "speedup", "avg levels", "levels"});

  for (int degree : degrees) {
    const Graph g =
        ErdosRenyi(n, n * degree,
                   DeriveSeed(args.seed, static_cast<uint64_t>(degree)))
            .ValueOrDie();

    // 8 well-spread queries; the same batch serves every config.
    std::vector<NodeId> batch;
    for (int i = 0; i < 8; ++i) {
      batch.push_back(static_cast<NodeId>((int64_t{7919} * i) % n));
    }

    for (const BackendConfig& backend : backends) {
      SimilarityOptions backend_sim = sim;
      backend_sim.backend = backend.kind;
      backend_sim.prune_epsilon = backend.prune_eps;

      for (QueryMeasure measure : measures) {
        // Full-row-then-sort baseline: cost is k-independent (a bounded
        // heap over n scores), so one timing serves every k below.
        QueryEngineOptions full_opts;
        full_opts.similarity = backend_sim;
        QueryEngine full = QueryEngine::Create(g, full_opts).MoveValueOrDie();
        bench::RankFullRows(full, measure, batch, 10);  // warm-up sizing
        const double full_sec = bench::TimeSeconds(
            [&] { bench::RankFullRows(full, measure, batch, 10); });
        const double full_ms = 1e3 * full_sec / batch.size();

        for (int k : ks) {
          if (k >= n) continue;
          QueryEngineOptions topk_opts;
          topk_opts.similarity = backend_sim;
          topk_opts.similarity.top_k = k;
          QueryEngine engine =
              QueryEngine::Create(g, topk_opts).MoveValueOrDie();
          engine.BatchTopK(measure, batch).ValueOrDie();  // warm-up sizing
          std::vector<TopKResult> results;
          const double topk_sec = bench::TimeSeconds([&] {
            results = engine.BatchTopK(measure, batch).ValueOrDie();
          });
          const double topk_ms = 1e3 * topk_sec / batch.size();
          const std::string hist = LevelHistogram(results);
          table.AddRow({TablePrinter::Fmt(static_cast<int64_t>(degree)),
                        QueryMeasureToString(measure), backend.name,
                        TablePrinter::Fmt(static_cast<int64_t>(k)),
                        TablePrinter::Fmt(topk_ms, 3),
                        TablePrinter::Fmt(full_ms, 3),
                        TablePrinter::Fmt(full_sec / topk_sec, 2),
                        TablePrinter::Fmt(AvgLevels(results), 1), hist});
          if (args.json) {
            bench::JsonLine("bench_topk")
                .Add("nodes", n)
                .Add("avg_degree", degree)
                .Add("measure", QueryMeasureToString(measure))
                .Add("backend", backend.name)
                .Add("prune_eps", backend.prune_eps)
                .Add("k", k)
                .Add("ms_per_query_topk", topk_ms)
                .Add("ms_per_query_fullrow", full_ms)
                .Add("speedup_vs_fullrow", full_sec / topk_sec)
                .Add("avg_levels_evaluated", AvgLevels(results))
                .Add("levels_total", results[0].levels_total)
                .Add("levels_histogram", hist)
                .Print();
          }
        }
      }
    }
  }
  table.Print();
  return 0;
}
