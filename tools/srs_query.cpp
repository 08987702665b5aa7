// srs_query — command-line similarity search over an edge-list graph.
//
// Usage:
//   srs_query --graph FILE [--query NODE]... [--sources-file FILE]
//             [--measure NAME] [--topk K] [--damping C]
//             [--iterations K | --epsilon E] [--threads N] [--tile T]
//             [--backend dense|sparse] [--prune-eps E] [--cache-mb MB]
//             [--apply-delta FILE]... [--version V]
//             [--stats] [--undirected] [--all-pairs OUT.tsv]
//
// Measures: gsr-star (default), esr-star, simrank, rwr, prank, mc-star.
// With --query (repeatable) and/or --sources-file (one node id per line),
// prints the top-k similar nodes per query as stable `rank<TAB>node<TAB>
// score` lines. The single-source measures (gsr-star, esr-star, rwr) are
// served by QueryEngine::BatchTopK: the graph snapshot is normalized once,
// the batch fans out across --threads pooled workers, and each query's
// level recurrence stops as soon as the analytic residual bounds prove its
// top-k (exact set and order; scores are then lower-bound partials —
// engine/query_engine.h). --topk must lie in [1, n] whenever point queries
// are made. With --all-pairs, the engine measures stream the score matrix
// tile by tile through QueryEngine::ForEachRow (rows restricted to
// --sources-file when given, the whole graph otherwise); simrank/prank
// fall back to their dense all-pairs algorithms. --backend selects the
// kernel backend for the engine measures: "dense" (bit-exact reference) or
// "sparse" frontier propagation, which sieves entries <= --prune-eps at
// every product (0 = bit-identical to dense; 1e-4 is the paper's sieve).
// --cache-mb enables a sharded LRU result cache shared by all engines —
// top-k answers and full rows are kept under distinct digests and never
// alias; --stats prints its hit/miss/eviction counters plus the top-k
// early-termination summary on exit. Scores below 1e-4 are sieved out of
// the TSV.
//
// Dynamic graphs: each --apply-delta FILE (repeatable, applied in order)
// is a batch of edge inserts/deletes — `+ u v` / `- u v` per line with
// original node ids, '#' comments — applied copy-on-write on top of the
// loaded graph (graph/versioned_graph.h). Under --undirected every op is
// mirrored, matching how the edge list was loaded. The engine measures
// then serve the chosen --version (0 = the loaded graph, default = after
// the last delta) through incrementally patched snapshots, bit-identical
// to reloading the mutated edge list from scratch; the matrix-based
// measures materialize the served version first.
//
// Examples:
//   srs_query --graph cit.txt --query 42 --query 7 --topk 20 --threads 8
//   srs_query --graph dblp.txt --undirected --measure esr-star --query 7
//   srs_query --graph web.txt --query 3 --backend sparse --prune-eps 1e-4
//   srs_query --graph web.txt --all-pairs scores.tsv --threads 8 --tile 64
//   srs_query --graph web.txt --sources-file seeds.txt --all-pairs out.tsv \
//             --cache-mb 256 --stats
//   srs_query --graph cit.txt --apply-delta day1.delta --apply-delta \
//             day2.delta --query 42 --topk 10

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>

#include "cli_flags.h"
#include "srs/baselines/p_rank.h"
#include "srs/baselines/rwr.h"
#include "srs/baselines/simrank_psum.h"
#include "srs/common/memory_tracker.h"
#include "srs/common/parallel.h"
#include "srs/core/memo_esr_star.h"
#include "srs/core/memo_gsr_star.h"
#include "srs/core/monte_carlo.h"
#include "srs/core/sieve.h"
#include "srs/core/single_source.h"
#include "srs/engine/result_cache.h"
#include "srs/engine/service.h"
#include "srs/eval/ranking.h"
#include "srs/graph/delta.h"
#include "srs/graph/graph_io.h"
#include "srs/graph/stats.h"
#include "srs/graph/versioned_graph.h"
#include "srs/observability/metrics.h"

namespace {

constexpr double kSieveThreshold = 1e-4;

/// One requested node id plus where it came from ("--query" or
/// "file.txt:12"), so a bad id can be reported against its source.
struct LabeledQuery {
  int64_t label;
  std::string origin;
};

struct CliOptions {
  std::string graph_path;
  std::string measure = "gsr-star";
  std::string all_pairs_out;
  std::string sources_file;
  std::vector<std::string> delta_files;
  std::vector<int64_t> queries;
  int64_t version = -1;  // -1 = after the last applied delta
  int topk = 10;
  int tile = 0;      // 0 = engine default
  int cache_mb = 0;  // 0 = no result cache
  bool undirected = false;
  bool stats = false;
  srs::SimilarityOptions sim;
};

void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --graph FILE [--query NODE]... [--sources-file "
               "FILE]\n"
               "          [--measure gsr-star|esr-star|simrank|rwr|prank|"
               "mc-star]\n"
               "          [--topk K] [--damping C] [--iterations K] "
               "[--epsilon E] [--threads N]\n"
               "          [--tile T] [--backend dense|sparse] "
               "[--prune-eps E] [--cache-mb MB]\n"
               "          [--apply-delta FILE]... [--version V]\n"
               "          [--stats] [--undirected] [--all-pairs OUT.tsv]\n",
               argv0);
}

using srs::cli::ParseDoubleFlag;
using srs::cli::ParseIntFlag;

bool ParseCli(int argc, char** argv, CliOptions* options) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    // `--flag=value` reaches the same strict parsers as `--flag value`.
    std::string inline_value;
    bool has_inline = false;
    if (arg.rfind("--", 0) == 0) {
      const size_t eq = arg.find('=');
      if (eq != std::string::npos) {
        inline_value = arg.substr(eq + 1);
        arg.resize(eq);
        has_inline = true;
      }
    }
    auto next_value = [&]() -> const char* {
      if (has_inline) return inline_value.c_str();
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--graph") {
      const char* v = next_value();
      if (v == nullptr) return false;
      options->graph_path = v;
    } else if (arg == "--measure") {
      const char* v = next_value();
      if (v == nullptr) return false;
      options->measure = v;
    } else if (arg == "--query") {
      long long id = 0;
      if (!ParseIntFlag("--query", next_value(),
                        std::numeric_limits<long long>::min(),
                        std::numeric_limits<long long>::max(), &id)) {
        return false;
      }
      options->queries.push_back(id);
    } else if (arg == "--sources-file") {
      const char* v = next_value();
      if (v == nullptr) return false;
      options->sources_file = v;
    } else if (arg == "--topk") {
      if (!ParseIntFlag("--topk", next_value(), 0, 1 << 30,
                        &options->topk)) {
        return false;
      }
    } else if (arg == "--damping") {
      if (!ParseDoubleFlag("--damping", next_value(),
                           &options->sim.damping)) {
        return false;
      }
    } else if (arg == "--iterations") {
      if (!ParseIntFlag("--iterations", next_value(), 0, 1 << 30,
                        &options->sim.iterations)) {
        return false;
      }
    } else if (arg == "--epsilon") {
      if (!ParseDoubleFlag("--epsilon", next_value(),
                           &options->sim.epsilon)) {
        return false;
      }
    } else if (arg == "--threads") {
      int t = 0;
      if (!ParseIntFlag("--threads", next_value(), 0, 1 << 20, &t)) {
        return false;
      }
      options->sim.num_threads = t <= 0 ? srs::HardwareThreads() : t;
    } else if (arg == "--tile") {
      if (!ParseIntFlag("--tile", next_value(), 0, 1 << 20,
                        &options->tile)) {
        return false;
      }
    } else if (arg == "--backend") {
      const char* v = next_value();
      if (v == nullptr) return false;
      if (!srs::ParseKernelBackendKind(v, &options->sim.backend)) {
        std::fprintf(stderr, "unknown backend '%s' (dense|sparse)\n", v);
        return false;
      }
    } else if (arg == "--prune-eps") {
      if (!ParseDoubleFlag("--prune-eps", next_value(),
                           &options->sim.prune_epsilon)) {
        return false;
      }
    } else if (arg == "--stats") {
      options->stats = true;
    } else if (arg == "--cache-mb") {
      if (!ParseIntFlag("--cache-mb", next_value(), 0, 1 << 20,
                        &options->cache_mb)) {
        return false;
      }
    } else if (arg == "--apply-delta") {
      const char* v = next_value();
      if (v == nullptr) return false;
      options->delta_files.push_back(v);
    } else if (arg == "--version") {
      long long version = 0;
      if (!ParseIntFlag("--version", next_value(), 0,
                        std::numeric_limits<long long>::max(), &version)) {
        return false;
      }
      options->version = version;
    } else if (arg == "--all-pairs") {
      const char* v = next_value();
      if (v == nullptr) return false;
      options->all_pairs_out = v;
    } else if (arg == "--undirected") {
      options->undirected = true;
    } else if (arg == "--help" || arg == "-h") {
      return false;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return false;
    }
  }
  return !options->graph_path.empty() &&
         (!options->queries.empty() || !options->sources_file.empty() ||
          !options->all_pairs_out.empty());
}

bool IsEngineMeasure(const std::string& measure, srs::QueryMeasure* out) {
  if (measure == "gsr-star") {
    *out = srs::QueryMeasure::kSimRankStarGeometric;
    return true;
  }
  if (measure == "esr-star") {
    *out = srs::QueryMeasure::kSimRankStarExponential;
    return true;
  }
  if (measure == "rwr") {
    *out = srs::QueryMeasure::kRwr;
    return true;
  }
  return false;
}

/// Maps original node ids (labels) to internal NodeIds, validating each
/// against the loaded graph. A bad id fails fast with a message naming the
/// id and where it came from (flag or file:line) instead of surfacing a
/// raw engine status later.
srs::Result<std::vector<srs::NodeId>> MapLabels(
    const srs::Graph& g, const std::vector<LabeledQuery>& labels) {
  std::vector<srs::NodeId> mapped;
  mapped.reserve(labels.size());
  for (const LabeledQuery& q : labels) {
    srs::Result<srs::NodeId> node = g.FindLabel(std::to_string(q.label));
    if (!node.ok()) {
      return srs::Status::InvalidArgument(
          q.origin + ": node id " + std::to_string(q.label) +
          " is not in the loaded graph (" + std::to_string(g.NumNodes()) +
          " nodes)");
    }
    mapped.push_back(node.ValueOrDie());
  }
  return mapped;
}

/// Reads one node id per line ('#' comments and blank lines ignored),
/// tagging each with its file:line origin for later validation messages.
srs::Result<std::vector<LabeledQuery>> ReadSourcesFile(
    const std::string& path) {
  std::ifstream in(path);
  if (!in) return srs::Status::IoError("cannot read " + path);
  std::vector<LabeledQuery> ids;
  std::string line;
  int64_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    char* end = nullptr;
    const long long value = std::strtoll(line.c_str() + first, &end, 10);
    if (end == line.c_str() + first) {
      return srs::Status::InvalidArgument(path + ":" +
                                          std::to_string(line_no) +
                                          ": expected a node id");
    }
    ids.push_back({value, path + ":" + std::to_string(line_no)});
  }
  return ids;
}

srs::Result<srs::DenseMatrix> ComputeDenseAllPairs(const srs::Graph& g,
                                                   const CliOptions& options) {
  if (options.measure == "simrank")
    return srs::ComputeSimRankPsum(g, options.sim);
  if (options.measure == "prank") return srs::ComputePRank(g, options.sim);
  return srs::Status::InvalidArgument("measure '" + options.measure +
                                      "' does not support --all-pairs");
}

/// Top-k answers for every query in `batch`, in batch order. The engine
/// measures are served through the SrsService facade (one ranked
/// QueryRequest; BatchTopK's bound-based early termination underneath,
/// the requested --version through an incrementally patched snapshot);
/// mc-star and the matrix-based measures fall back to per-query full-row
/// evaluation and report no termination diagnostics (levels_total == 0).
srs::Result<std::vector<srs::TopKResult>> ComputeBatchTopK(
    const srs::Graph& g, srs::SrsService* service, uint64_t version,
    const std::vector<srs::NodeId>& batch, const CliOptions& options) {
  srs::QueryMeasure measure;
  if (IsEngineMeasure(options.measure, &measure)) {
    srs::QueryRequest request;
    request.measure = measure;
    request.sources = batch;
    request.options = options.sim;
    request.options.top_k = options.topk;
    request.version = version;
    SRS_ASSIGN_OR_RETURN(srs::QueryResponse response,
                         service->Query(request));
    std::vector<srs::TopKResult> results;
    results.reserve(response.rows.size());
    for (srs::QueryRowResult& row : response.rows) {
      srs::TopKResult result;
      result.ranking = std::move(row.ranking);
      result.levels_evaluated = row.levels_evaluated;
      result.levels_total = row.levels_total;
      result.residual_bound = row.residual_bound;
      result.served_from_cache = row.served_from_cache;
      results.push_back(std::move(result));
    }
    return results;
  }
  // Matrix-based measures fall back to rows of one full computation.
  srs::DenseMatrix all_pairs;
  if (options.measure != "mc-star") {
    if (options.measure != "simrank" && options.measure != "prank") {
      return srs::Status::InvalidArgument("unknown measure '" +
                                          options.measure + "'");
    }
    SRS_ASSIGN_OR_RETURN(all_pairs, ComputeDenseAllPairs(g, options));
  }
  std::vector<srs::TopKResult> results;
  results.reserve(batch.size());
  for (srs::NodeId query : batch) {
    std::vector<double> scores;
    if (options.measure == "mc-star") {
      srs::MonteCarloOptions mc;
      mc.damping = options.sim.damping;
      SRS_ASSIGN_OR_RETURN(scores, srs::MonteCarloSimRankStar(g, query, mc));
    } else {
      SRS_ASSIGN_OR_RETURN(scores, srs::RowScores(all_pairs, query));
    }
    srs::TopKResult result;
    result.ranking =
        srs::TopK(scores, static_cast<size_t>(options.topk), query);
    results.push_back(std::move(result));
  }
  return results;
}

/// Writes sieved scores for `sources` (or every node when empty) as TSV.
/// Engine measures stream tiles through the service's row serving
/// (QueryEngine::ForEachRow underneath); the dense baselines materialize
/// their matrix first.
srs::Status WriteAllPairs(const srs::Graph& g, srs::SrsService* service,
                          uint64_t version,
                          const std::vector<srs::NodeId>& sources,
                          const CliOptions& options) {
  std::ofstream out(options.all_pairs_out);
  if (!out) return srs::Status::IoError("cannot write " +
                                        options.all_pairs_out);
  out << "# u\tv\tscore (" << options.measure << ", >= " << kSieveThreshold
      << ")\n";
  int64_t written = 0;
  srs::QueryMeasure measure;
  if (IsEngineMeasure(options.measure, &measure)) {
    srs::QueryRequest request;
    request.measure = measure;
    request.options = options.sim;
    request.version = version;
    request.sources = sources;
    if (request.sources.empty()) {
      request.sources.resize(static_cast<size_t>(g.NumNodes()));
      for (size_t i = 0; i < request.sources.size(); ++i) {
        request.sources[i] = static_cast<srs::NodeId>(i);
      }
    }
    SRS_RETURN_NOT_OK(service->StreamRows(
        request,
        [&](int64_t /*index*/, srs::NodeId source,
            const std::vector<double>& row) {
          for (size_t v = 0; v < row.size(); ++v) {
            if (row[v] < kSieveThreshold) continue;
            out << g.LabelOf(source) << "\t"
                << g.LabelOf(static_cast<srs::NodeId>(v)) << "\t" << row[v]
                << "\n";
            ++written;
          }
        }));
  } else {
    SRS_ASSIGN_OR_RETURN(srs::DenseMatrix scores,
                         ComputeDenseAllPairs(g, options));
    const srs::CsrMatrix sparse = srs::ToSparseScores(scores, kSieveThreshold);
    for (int64_t u = 0; u < sparse.rows(); ++u) {
      for (int64_t k = sparse.RowBegin(u); k < sparse.RowEnd(u); ++k) {
        out << g.LabelOf(static_cast<srs::NodeId>(u)) << "\t"
            << g.LabelOf(sparse.col_idx()[k]) << "\t" << sparse.values()[k]
            << "\n";
      }
    }
    written = sparse.nnz();
  }
  std::fprintf(stderr, "wrote %lld scored pairs to %s\n",
               static_cast<long long>(written),
               options.all_pairs_out.c_str());
  return srs::Status::OK();
}

/// Maps one delta file's raw ops (original ids + file:line origins)
/// through the loaded graph's labels into an applicable EdgeDelta. Under
/// --undirected every op is mirrored, matching how the edge list was
/// loaded — so serving the delta stays bit-identical to reloading the
/// mutated undirected edge list from scratch.
srs::Result<srs::EdgeDelta> BuildDeltaFromFile(const srs::Graph& g,
                                               bool undirected,
                                               const std::string& path) {
  SRS_ASSIGN_OR_RETURN(std::vector<srs::RawEdgeOp> raw,
                       srs::LoadEdgeDeltaOps(path));
  srs::EdgeDelta::Builder builder;
  builder.Reserve(raw.size());
  for (const srs::RawEdgeOp& op : raw) {
    auto map_label = [&](int64_t label) -> srs::Result<srs::NodeId> {
      srs::Result<srs::NodeId> node = g.FindLabel(std::to_string(label));
      if (!node.ok()) {
        return srs::Status::InvalidArgument(
            op.origin + ": node id " + std::to_string(label) +
            " is not in the loaded graph (" + std::to_string(g.NumNodes()) +
            " nodes; deltas cannot add nodes)");
      }
      return node;
    };
    SRS_ASSIGN_OR_RETURN(srs::NodeId u, map_label(op.u));
    SRS_ASSIGN_OR_RETURN(srs::NodeId v, map_label(op.v));
    if (op.insert) {
      builder.Insert(u, v);
      if (undirected && u != v) builder.Insert(v, u);
    } else {
      builder.Remove(u, v);
      if (undirected && u != v) builder.Remove(v, u);
    }
  }
  return builder.Build(g.NumNodes());
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions options;
  if (!ParseCli(argc, argv, &options)) {
    Usage(argv[0]);
    return 2;
  }

  srs::EdgeListOptions io;
  io.undirected = options.undirected;
  srs::Result<srs::Graph> loaded = srs::LoadEdgeList(options.graph_path, io);
  if (!loaded.ok()) {
    std::fprintf(stderr, "error: %s\n", loaded.status().ToString().c_str());
    return 1;
  }
  const srs::Graph& g = loaded.ValueOrDie();
  std::fprintf(stderr, "loaded %s: %s\n", options.graph_path.c_str(),
               srs::StatsToString(srs::ComputeStats(g)).c_str());

  if (srs::Status st = options.sim.Validate(); !st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
    return 1;
  }

  // One result cache shared by the all-pairs and the top-k serving paths:
  // rows streamed for the TSV warm the cache for the point queries below.
  std::shared_ptr<srs::ResultCache> cache;
  if (options.cache_mb > 0) {
    srs::ResultCacheOptions cache_options;
    cache_options.capacity_bytes =
        static_cast<size_t>(options.cache_mb) << 20;
    cache = std::make_shared<srs::ResultCache>(cache_options);
    // --stats reads the cache through the metrics registry, the same
    // surface srs_serve exposes over HTTP.
    cache->RegisterMetrics();
  }

  // The engine measures are served through one SrsService facade: it owns
  // the version chain, wires the shared caches into every engine it
  // creates, and serves ranked point queries and streamed rows alike.
  srs::QueryMeasure engine_measure;
  const bool use_service = IsEngineMeasure(options.measure, &engine_measure);
  std::unique_ptr<srs::SrsService> service;
  if (use_service) {
    srs::SrsServiceOptions service_options;
    service_options.similarity = options.sim;
    service_options.num_threads = options.sim.num_threads;
    service_options.tile_size = options.tile;
    service_options.result_cache = cache;
    srs::Result<std::unique_ptr<srs::SrsService>> created =
        srs::SrsService::Create(srs::Graph(g), service_options);
    if (!created.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   created.status().ToString().c_str());
      return 1;
    }
    service = created.MoveValueOrDie();
  }

  // --apply-delta builds a copy-on-write version chain over the loaded
  // graph; --version picks the version served (default: the last one).
  // The matrix-based measures keep their own chain since they have no
  // incremental path (they materialize the served version below).
  std::optional<srs::VersionedGraph> versioned;
  uint64_t serve_version = 0;
  if (!options.delta_files.empty() || options.version >= 0) {
    if (!use_service) versioned.emplace(srs::Graph(g));
    for (const std::string& path : options.delta_files) {
      srs::Result<srs::EdgeDelta> delta =
          BuildDeltaFromFile(g, options.undirected, path);
      if (!delta.ok()) {
        std::fprintf(stderr, "error: %s\n",
                     delta.status().ToString().c_str());
        return 1;
      }
      srs::Result<uint64_t> applied =
          use_service ? service->ApplyDelta(delta.ValueOrDie())
                      : versioned->Apply(delta.ValueOrDie());
      if (!applied.ok()) {
        std::fprintf(stderr, "error: %s\n",
                     applied.status().ToString().c_str());
        return 1;
      }
      const uint64_t version = applied.ValueOrDie();
      const int64_t edges = use_service
                                ? service->graph().NumEdges(version)
                                : versioned->NumEdges(version);
      std::fprintf(stderr,
                   "applied %s: %zu op(s) -> version %llu (%lld edges)\n",
                   path.c_str(), delta.ValueOrDie().size(),
                   static_cast<unsigned long long>(version),
                   static_cast<long long>(edges));
    }
    const uint64_t head = use_service ? service->graph().CurrentVersion()
                                      : versioned->CurrentVersion();
    serve_version = options.version >= 0
                        ? static_cast<uint64_t>(options.version)
                        : head;
    if (serve_version > head) {
      std::fprintf(stderr,
                   "error: --version: %lld is out of range (have versions "
                   "0..%llu)\n",
                   static_cast<long long>(options.version),
                   static_cast<unsigned long long>(head));
      return 1;
    }
  }
  // The matrix-based measures run over the served version materialized as
  // a standalone graph.
  std::optional<srs::Graph> materialized;
  const srs::Graph* dense_graph = &g;
  if (versioned.has_value()) {
    srs::Result<srs::Graph> built = versioned->Materialize(serve_version);
    if (!built.ok()) {
      std::fprintf(stderr, "error: %s\n", built.status().ToString().c_str());
      return 1;
    }
    materialized.emplace(built.MoveValueOrDie());
    dense_graph = &*materialized;
  }

  // --query and --sources-file take the ORIGINAL node ids from the file;
  // each is validated against the loaded graph before anything runs.
  std::vector<LabeledQuery> query_labels;
  query_labels.reserve(options.queries.size());
  for (int64_t label : options.queries) {
    query_labels.push_back({label, "--query"});
  }
  if (!options.sources_file.empty()) {
    srs::Result<std::vector<LabeledQuery>> from_file =
        ReadSourcesFile(options.sources_file);
    if (!from_file.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   from_file.status().ToString().c_str());
      return 1;
    }
    query_labels.insert(query_labels.end(), from_file.ValueOrDie().begin(),
                        from_file.ValueOrDie().end());
  }
  srs::Result<std::vector<srs::NodeId>> batch = MapLabels(g, query_labels);
  if (!batch.ok()) {
    std::fprintf(stderr, "error: %s\n", batch.status().ToString().c_str());
    return 1;
  }

  if (!options.all_pairs_out.empty()) {
    // With explicit sources the TSV is restricted to those rows.
    if (srs::Status st = WriteAllPairs(*dense_graph, service.get(),
                                       serve_version, batch.ValueOrDie(),
                                       options);
        !st.ok()) {
      std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
      return 1;
    }
  }

  if (!batch.ValueOrDie().empty()) {
    // k is validated against the loaded graph like the node ids above: a
    // bad value fails fast naming the offending k, not a raw engine error.
    if (options.topk < 1 || options.topk > g.NumNodes()) {
      std::fprintf(stderr,
                   "error: --topk: k = %d is out of range for %lld nodes "
                   "(need 1 <= k <= n)\n",
                   options.topk, static_cast<long long>(g.NumNodes()));
      return 1;
    }
    srs::Result<std::vector<srs::TopKResult>> results =
        ComputeBatchTopK(*dense_graph, service.get(), serve_version,
                         batch.ValueOrDie(), options);
    if (!results.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   results.status().ToString().c_str());
      return 1;
    }
    for (size_t i = 0; i < batch.ValueOrDie().size(); ++i) {
      const srs::TopKResult& result = results.ValueOrDie()[i];
      std::printf("# top-%d %s scores for node %lld\n", options.topk,
                  options.measure.c_str(),
                  static_cast<long long>(query_labels[i].label));
      int rank = 1;
      for (const srs::RankedNode& r : result.ranking) {
        std::printf("%d\t%s\t%.6f\n", rank++, g.LabelOf(r.node).c_str(),
                    r.score);
      }
    }
  }

  if (options.stats) {
    // Everything below comes from the global metrics registry — the same
    // single source of truth srs_serve's "stats" op and /metrics endpoint
    // read. BatchTopK records the per-query termination levels
    // (cache-served answers excluded, so the tally describes work this
    // run actually did), and the result cache registered its counters at
    // construction above.
    const srs::MetricsSnapshot snap = srs::GlobalMetrics().Snapshot();
    if (cache != nullptr) {
      const auto hits =
          static_cast<uint64_t>(snap.ValueOf("srs_result_cache_hits_total"));
      const uint64_t lookups =
          hits + static_cast<uint64_t>(
                     snap.ValueOf("srs_result_cache_misses_total"));
      const double hit_rate =
          lookups == 0
              ? 0.0
              : 100.0 * static_cast<double>(hits) /
                    static_cast<double>(lookups);
      std::fprintf(
          stderr, "result-cache: %llu hits / %llu lookups (%.1f%%), %zu "
          "entries (%s), %llu evictions\n",
          static_cast<unsigned long long>(hits),
          static_cast<unsigned long long>(lookups), hit_rate,
          static_cast<size_t>(snap.ValueOf("srs_result_cache_entries")),
          srs::FormatBytes(static_cast<size_t>(
                               snap.ValueOf("srs_result_cache_bytes")))
              .c_str(),
          static_cast<unsigned long long>(
              snap.ValueOf("srs_result_cache_evictions_total")));
    } else {
      std::fprintf(stderr,
                   "result-cache: disabled (pass --cache-mb to enable)\n");
    }
    const auto levels_evaluated = static_cast<int64_t>(
        snap.ValueOf("srs_topk_levels_evaluated_total"));
    const auto levels_total =
        static_cast<int64_t>(snap.ValueOf("srs_topk_levels_possible_total"));
    if (levels_total > 0) {
      std::fprintf(stderr,
                   "top-k early termination: %lld of %lld series levels "
                   "evaluated (%.0f%%)\n",
                   static_cast<long long>(levels_evaluated),
                   static_cast<long long>(levels_total),
                   100.0 * static_cast<double>(levels_evaluated) /
                       static_cast<double>(levels_total));
    }
  }
  return 0;
}
