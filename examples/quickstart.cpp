// Quickstart: build a small citation graph, compute SimRank* and SimRank,
// and see the zero-similarity fix in action on the paper's Figure 1 graph.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart

#include <cstdio>

#include "srs/baselines/simrank_psum.h"
#include "srs/common/json.h"
#include "srs/core/memo_gsr_star.h"
#include "srs/engine/result_cache.h"
#include "srs/engine/service.h"
#include "srs/engine/query_engine.h"
#include "srs/eval/ranking.h"
#include "srs/graph/delta.h"
#include "srs/graph/fixtures.h"
#include "srs/graph/graph_builder.h"
#include "srs/observability/metrics.h"
#include "srs/server/client.h"
#include "srs/server/server.h"

int main() {
  // --- 1. Build a graph by hand (or load one: srs::LoadEdgeList). ---------
  srs::GraphBuilder builder(4);
  SRS_CHECK_OK(builder.AddEdge(0, 1));  // 0 cites 1
  SRS_CHECK_OK(builder.AddEdge(0, 2));
  SRS_CHECK_OK(builder.AddEdge(1, 3));
  SRS_CHECK_OK(builder.AddEdge(2, 3));
  srs::Graph tiny = builder.Build().ValueOrDie();
  std::printf("tiny graph: %lld nodes, %lld edges\n",
              static_cast<long long>(tiny.NumNodes()),
              static_cast<long long>(tiny.NumEdges()));

  // --- 2. All-pairs SimRank* (the paper's memo-gSR*, Algorithm 1). --------
  srs::SimilarityOptions options;
  options.damping = 0.6;
  options.iterations = 10;
  srs::DenseMatrix s = srs::ComputeMemoGsrStar(tiny, options).ValueOrDie();
  std::printf("SimRank*(1,2) = %.4f  (nodes 1 and 2 share in-neighbor 0)\n\n",
              s.At(1, 2));

  // --- 3. The Figure 1 graph: SimRank vs SimRank* on pair (h, d). ---------
  const srs::Graph fig1 = srs::Fig1CitationGraph();
  srs::SimilarityOptions paper_opts;
  paper_opts.damping = 0.8;  // the figure uses C = 0.8
  paper_opts.iterations = 15;
  srs::DenseMatrix sr = srs::ComputeSimRankPsum(fig1, paper_opts).ValueOrDie();
  srs::DenseMatrix star =
      srs::ComputeMemoGsrStar(fig1, paper_opts).ValueOrDie();

  const srs::NodeId h = fig1.FindLabel("h").ValueOrDie();
  const srs::NodeId d = fig1.FindLabel("d").ValueOrDie();
  std::printf("Figure 1, pair (h, d):\n");
  std::printf("  SimRank   s(h,d)  = %.4f   <- the zero-similarity defect\n",
              sr.At(h, d));
  std::printf("  SimRank*  s*(h,d) = %.4f   <- fixed: the paths through 'a' "
              "now count\n\n",
              star.At(h, d));

  // --- 4. Query-time serving through the SrsService facade. ---------------
  // One service owns the graph's version chain, a shared result cache, and
  // a small LRU of warm engines; one QueryRequest describes any
  // single-source workload. top_k >= 1 serves rankings through the
  // QueryEngine's early-terminating BatchTopK.
  auto cache = std::make_shared<srs::ResultCache>();
  srs::SrsServiceOptions service_opts;
  service_opts.similarity = paper_opts;
  service_opts.num_threads = 0;  // 0 = all hardware threads
  service_opts.result_cache = cache;
  std::unique_ptr<srs::SrsService> service =
      srs::SrsService::Create(srs::Graph(fig1), service_opts).ValueOrDie();

  srs::QueryRequest ranked;
  ranked.measure = srs::QueryMeasure::kSimRankStarGeometric;
  ranked.sources = {h, d};
  ranked.options = paper_opts;
  ranked.options.top_k = 3;
  srs::QueryResponse top3 = service->Query(ranked).ValueOrDie();
  for (const srs::QueryRowResult& row : top3.rows) {
    std::printf("top-3 nodes most similar to '%s' (batched single-source "
                "SimRank*):\n",
                fig1.LabelOf(row.source).c_str());
    for (const srs::RankedNode& r : row.ranking) {
      std::printf("  %-2s %.4f\n", fig1.LabelOf(r.node).c_str(), r.score);
    }
  }

  // --- 5. Full score rows, served from the shared result cache. -----------
  // top_k == 0 serves whole rows (QueryEngine::BatchScores); a repeated
  // request is answered from the cache without recomputation. StreamRows
  // does the same for tiled source sets up to full all-pairs.
  srs::QueryRequest rows_request;
  rows_request.measure = srs::QueryMeasure::kSimRankStarGeometric;
  rows_request.sources = {h, d};
  rows_request.options = paper_opts;
  srs::QueryResponse rows = service->Query(rows_request).ValueOrDie();
  std::printf("\nfull-row serving: s*(h,d) = %.4f (matches step 3 above)\n",
              rows.rows[0].scores[static_cast<size_t>(d)]);
  // A second pass over the same sources is served entirely from the cache.
  service->Query(rows_request).ValueOrDie();
  std::printf("%s\n", cache->StatsString().c_str());

  // --- 6. Top-k with bound-based early termination. -----------------------
  // The service's ranked path is QueryEngine::BatchTopK; driving the engine
  // directly shows the mechanics. Each query's level recurrence stops as
  // soon as the analytic residual bounds prove the top-k set and order —
  // exact, while often evaluating a fraction of the levels the
  // accuracy-driven K would run (the win grows with the accuracy demand;
  // see bench_topk).
  srs::QueryEngineOptions engine_opts;
  engine_opts.similarity = paper_opts;
  engine_opts.similarity.epsilon = 1e-8;  // accuracy-driven iteration count
  engine_opts.similarity.iterations = 0;
  engine_opts.similarity.top_k = 1;
  srs::QueryEngine engine =
      srs::QueryEngine::Create(fig1, engine_opts).MoveValueOrDie();
  const std::vector<srs::TopKResult> results =
      engine.BatchTopK(srs::QueryMeasure::kSimRankStarGeometric, {h})
          .ValueOrDie();
  std::printf(
      "\nQueryEngine::BatchTopK: '%s' is most similar to '%s' — settled "
      "after %d of %d levels\n",
      fig1.LabelOf(h).c_str(),
      fig1.LabelOf(results[0].ranking[0].node).c_str(),
      results[0].levels_evaluated, results[0].levels_total);

  // --- 7. Dynamic updates: apply a delta and re-query. --------------------
  // Real graphs mutate. ApplyDelta applies the edge batch copy-on-write,
  // derives the new snapshot incrementally, carries provably-unaffected
  // cached rows across the version, and swaps the served version — the
  // answers are bit-identical to rebuilding the mutated graph, without the
  // rebuild. Here 'd' gains the citation h -> d, which lifts its
  // similarity standing around 'h'.
  srs::EdgeDelta::Builder delta;
  delta.Insert(h, d);
  const uint64_t v1 =
      service->ApplyDelta(delta.Build(service->NumNodes()).ValueOrDie())
          .ValueOrDie();
  srs::QueryRequest after_request = ranked;
  after_request.sources = {h};
  after_request.version = v1;  // kLatestVersion now resolves to v1 too
  srs::QueryResponse after = service->Query(after_request).ValueOrDie();
  std::printf("\nafter inserting edge %s -> %s (version %llu), top-3 for "
              "'%s':\n",
              fig1.LabelOf(h).c_str(), fig1.LabelOf(d).c_str(),
              static_cast<unsigned long long>(v1), fig1.LabelOf(h).c_str());
  for (const srs::RankedNode& r : after.rows[0].ranking) {
    std::printf("  %-2s %.4f\n", fig1.LabelOf(r.node).c_str(), r.score);
  }

  // --- 8. Serve it over TCP: srs_serve in miniature. ----------------------
  // SrsServer is the long-lived front door over the same service:
  // line-delimited JSON on a TCP port, concurrent queries coalesced into
  // engine batches, bounded admission, graceful delta swaps. (The
  // standalone binary is tools/srs_serve; `srs_serve --graph my.edges`
  // prints the port, then: printf '{"op":"query","sources":[4]}\n' | nc.)
  std::unique_ptr<srs::SrsServer> server =
      srs::SrsServer::Start(service.get()).ValueOrDie();
  srs::SrsClient client =
      srs::SrsClient::Connect("127.0.0.1", server->port()).ValueOrDie();
  srs::JsonValue request = srs::JsonValue::MakeObject();
  request.Set("op", "query");
  srs::JsonValue sources = srs::JsonValue::MakeArray();
  sources.Append(static_cast<int64_t>(h));
  request.Set("sources", std::move(sources));
  request.Set("top_k", 3);
  srs::JsonValue response = client.Call(request).ValueOrDie();
  std::printf("\nserved over 127.0.0.1:%d -> %s\n", server->port(),
              response.Encode().c_str());

  // --- 9. Observability: per-request traces + the metrics registry. -------
  // Add "trace": true to any query and the response echoes the stage
  // timings (queue wait, snapshot resolve, kernel, total). Every layer
  // also records into the process-global MetricsRegistry; one snapshot of
  // it backs srs_serve's /metrics (Prometheus), /statusz (JSON), the
  // `stats` wire op, and srs_query --stats. The standalone server exposes
  // it over HTTP: `srs_serve --graph my.edges --metrics-port 9100`.
  request.Set("trace", true);
  srs::JsonValue traced = client.Call(request).ValueOrDie();
  std::printf("stage timings -> %s\n", traced.Find("trace")->Encode().c_str());
  const srs::MetricsSnapshot snap = srs::GlobalMetrics().Snapshot();
  std::printf("registry: %.0f service queries, %.0f result-cache hits\n",
              snap.ValueOf("srs_service_queries_total", 0.0),
              snap.ValueOf("srs_result_cache_hits_total", 0.0));

  server->RequestShutdown();
  server->Wait();
  return 0;
}
