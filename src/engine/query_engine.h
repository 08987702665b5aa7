#pragma once

/// \file query_engine.h
/// \brief The serving engine: batched single-source similarity over a
/// graph snapshot, as full rows, early-terminating top-k rankings, or
/// streamed source sets up to all-pairs.
///
/// The one-off entry points in core/single_source.h rebuild the normalized
/// transition matrices (`Q`, `Qᵀ`, `Wᵀ`) and allocate fresh level-vector
/// buffers on every call — fine for a CLI invocation, hopeless for serving
/// heavy query traffic. The QueryEngine is the serving path:
///
///  * it obtains the graph's transition structure as a shared immutable
///    `GraphSnapshot` (engine/snapshot.h) — memoized in a SnapshotCache, so
///    several engines over one graph share a single copy;
///  * it owns a reusable ThreadPool (common/parallel.h) whose workers stay
///    parked between batches, and one scratch state per worker (backend
///    workspace, score buffer, top-k sieve scratch), each sized by the
///    first query that uses it and reused thereafter, so the steady-state
///    hot loop performs **zero per-query heap allocations**;
///  * every serving shape runs through one routine: with a shared
///    `ResultCache` (engine/result_cache.h) it probes the cache serially,
///    then fans only the misses out across the pool, whose workers claim
///    them dynamically (load-balancing the skewed per-query cost of
///    power-law graphs). A batch of pure cache hits wakes no worker.
///
/// The three shapes:
///
///  * `BatchScores` — full score rows ŝ(q, ·), one per query;
///  * `BatchTopK` — the `similarity.top_k` best nodes per query, served
///    with bound-based early termination: the level recurrence is
///    evaluated *stepwise* through the kernel backend's partial-evaluation
///    hook (KernelBackend::Begin*Column, core/kernel_backend.h) and, after
///    every level, checked against the analytic residual tails of
///    core/topk.h. Because all level contributions are non-negative,
///    partial scores only grow, which yields a branch-and-bound loop — a
///    monotone **sieve** drops candidates that cannot reach the running
///    k-th partial score even with the whole tail, and iteration
///    **terminates** once every adjacent pair among the top k+1 partials
///    is separated by more than the tail. The returned set and order equal
///    those of the backend's full-row scores sorted under RankedBefore
///    (bit-for-bit the dense reference's ranking at prune_epsilon = 0);
///    the reported scores are the partial sums at the termination level,
///    within `TopKResult::residual_bound` of the full-accuracy scores;
///  * `ForEachRow` / `ComputeRows` / `ComputeAllPairs` — source *sets* up
///    to the full n×n matrix, processed in tiles of `tile_size` sources
///    whose row buffers are reused tile after tile, so memory is bounded by
///    the tile rather than the source set, and emitted in source order.
///
/// Full rows are bit-identical to the sequential single-source functions
/// for any thread count, tile size, batch composition, and cache state
/// (asserted by tests/query_engine_test.cpp and
/// tests/engine_property_test.cpp). Full rows are cached under the
/// canonical full-row digest whatever `top_k` says; top-k answers under a
/// digest that folds `top_k` and `topk_early_termination`, so the two
/// value shapes never alias. With `similarity.backend =
/// KernelBackendKind::kSparse`, queries run through sparse frontier
/// propagation instead: bit-identical at `prune_epsilon = 0`, and within
/// the analytic bound of core/kernel_backend.h otherwise.
///
/// \code
///   QueryEngineOptions opts;
///   opts.similarity.epsilon = 1e-6;  // accuracy-driven K
///   opts.similarity.top_k = 10;
///   SRS_ASSIGN_OR_RETURN(QueryEngine engine, QueryEngine::Create(g, opts));
///   auto rankings = engine.BatchTopK(QueryMeasure::kSimRankStarGeometric,
///                                    {7, 42, 99});
///   auto rows = engine.BatchScores(QueryMeasure::kRwr, {7});
/// \endcode

#include <functional>
#include <memory>
#include <vector>

#include "srs/common/parallel.h"
#include "srs/common/result.h"
#include "srs/core/kernel_backend.h"
#include "srs/core/options.h"
#include "srs/core/topk.h"
#include "srs/engine/result_cache.h"
#include "srs/engine/snapshot.h"
#include "srs/engine/topk_engine.h"
#include "srs/eval/ranking.h"
#include "srs/graph/graph.h"
#include "srs/graph/versioned_graph.h"
#include "srs/matrix/dense_matrix.h"

namespace srs {

/// Similarity measures the engine can serve in single-source form.
enum class QueryMeasure {
  kSimRankStarGeometric,
  kSimRankStarExponential,
  kRwr,
};

/// Human-readable name of a measure ("gsr-star", "esr-star", "rwr").
const char* QueryMeasureToString(QueryMeasure measure);

/// Stable small-integer tag of a measure, used in result-cache digests.
int QueryMeasureTag(QueryMeasure measure);

/// \brief Shared evaluation core of the serving paths: the kernel backend,
/// precomputed series weights, residual tails, and result-cache digests of
/// one (snapshot, SimilarityOptions) pair.
///
/// The QueryEngine and the ShardCoordinator (shard/coordinator.h) both
/// evaluate and key their cache entries through this one component — which
/// is what makes their rows bit-identical and their ResultCache entries
/// interchangeable. Any new measure, backend, or digest ingredient is added
/// here once. The backend (dense reference or sparse frontier propagation;
/// see core/kernel_backend.h) is selected by `similarity.backend`, and both
/// the backend and its prune epsilon are folded into the digests so pruned
/// and exact answers never alias in a shared cache.
class MeasureEvaluator {
 public:
  MeasureEvaluator() = default;
  MeasureEvaluator(std::shared_ptr<const GraphSnapshot> snapshot,
                   const SimilarityOptions& similarity);

  const std::shared_ptr<const GraphSnapshot>& snapshot() const {
    return snapshot_;
  }
  int64_t num_nodes() const { return snapshot_->num_nodes; }

  /// Fresh per-worker scratch owned by this evaluator's backend.
  std::unique_ptr<KernelWorkspace> NewWorkspace() const {
    return backend_->NewWorkspace();
  }

  /// Result-cache key of `query`'s answer under `measure` and the options
  /// exactly as configured — a top-k answer when `top_k` >= 1.
  ResultKey KeyFor(QueryMeasure measure, NodeId query) const {
    return ResultKey{snapshot_->fingerprint,
                     digests_[QueryMeasureTag(measure)], query};
  }

  /// Result-cache key of the full row ŝ(query, ·) under `measure`: the
  /// canonical full-row digest (top-k knobs normalized away), whatever
  /// `top_k` is configured.
  ResultKey RowKeyFor(QueryMeasure measure, NodeId query) const {
    return ResultKey{snapshot_->fingerprint,
                     row_digests_[QueryMeasureTag(measure)], query};
  }

  /// Writes ŝ(query, ·) into `*out` (resized and overwritten), using
  /// `workspace` (from NewWorkspace()) for scratch. The caller validates
  /// `query`.
  void Compute(QueryMeasure measure, NodeId query,
               KernelWorkspace* workspace, std::vector<double>* out) const;

  /// Stepwise variant of Compute for bound-based early termination
  /// (QueryEngine::BatchTopK): seeds level 0 of ŝ(query, ·) into `*out`
  /// and returns the backend's cursor (owned by `workspace`, valid until
  /// the next Begin on it). Draining the cursor is bitwise identical to
  /// Compute.
  PartialColumnEvaluation* BeginCompute(QueryMeasure measure, NodeId query,
                                        KernelWorkspace* workspace,
                                        std::vector<double>* out) const;

  /// Residual tails of `measure`'s series (core/topk.h): tails[L] bounds
  /// what levels > L can still add to any score entry; tails.back() == 0.
  /// Precomputed from the series weights and the snapshot's transition
  /// row sums.
  const std::vector<double>& ResidualTails(QueryMeasure measure) const {
    return tails_[QueryMeasureTag(measure)];
  }

  /// Rejects an empty batch (InvalidArgument) or any out-of-range node
  /// (OutOfRange); `what` names the entries in messages ("query",
  /// "source").
  Status ValidateBatch(const std::vector<NodeId>& nodes,
                       const char* what) const;

 private:
  std::shared_ptr<const GraphSnapshot> snapshot_;
  std::shared_ptr<const KernelBackend> backend_;
  double damping_ = 0.0;
  std::vector<double> geometric_weights_;
  std::vector<double> exponential_weights_;
  int rwr_iterations_ = 0;
  // ResultDigest per measure, indexed by QueryMeasureTag: of the options as
  // configured, and of the canonical full-row options.
  uint64_t digests_[3] = {0, 0, 0};
  uint64_t row_digests_[3] = {0, 0, 0};
  // ResidualTails per measure, indexed by QueryMeasureTag.
  std::vector<double> tails_[3];
};

/// \brief Configuration of a QueryEngine.
struct QueryEngineOptions {
  /// Measure parameters for every shape served. `similarity.top_k` is the
  /// k of BatchTopK (which requires it >= 1); the full-row shapes ignore
  /// it. `similarity.num_threads` is ignored; the pool size below governs
  /// parallelism.
  SimilarityOptions similarity;

  /// Worker threads in the reusable pool (the dispatching thread counts as
  /// one). <= 0 means HardwareThreads().
  int num_threads = 1;

  /// Sources per cache-blocked tile of ForEachRow / ComputeRows; <= 0
  /// means the default (32). Memory is bounded by tile_size × n doubles
  /// regardless of the source-set size. Performance-only — rows are
  /// identical for any value.
  int tile_size = 32;

  /// Optional shared cache of answers; null disables result caching.
  /// Safe to share with other engines and across threads.
  std::shared_ptr<ResultCache> result_cache;

  /// Snapshot memo used at Create(); null means GlobalSnapshotCache().
  SnapshotCache* snapshot_cache = nullptr;
};

/// \brief Serves batches of single-source similarity queries — full rows,
/// top-k rankings, or streamed source sets — over one immutable graph
/// snapshot.
///
/// Thread-compatible: concurrent calls into one engine are not supported
/// (the pool and per-worker state are reused across calls); create one
/// engine per serving thread or serialize access externally. The snapshot
/// and the result cache *are* safely shared between engines on different
/// threads.
class QueryEngine {
 public:
  /// Row consumer of ForEachRow: `index` is the position in the source
  /// set, `source` the node, `scores` its full row ŝ(source, ·) (valid
  /// only during the call).
  using RowCallback =
      std::function<void(int64_t index, NodeId source,
                         const std::vector<double>& scores)>;

  /// Snapshots the referenced graph's transition structure (via the
  /// snapshot cache) and spins up the worker pool. `graph` is either a
  /// plain Graph or `{versioned_graph, version}` (engine/snapshot.h): a
  /// versioned ref is resolved through the cache by (fingerprint, version)
  /// and built incrementally from the nearest cached ancestor, sharing
  /// every unmodified transition row with it — answers are bit-identical
  /// to an engine over `vg.Materialize(version)`. InvalidArgument on bad
  /// options or an out-of-range version.
  static Result<QueryEngine> Create(const GraphRef& graph,
                                    const QueryEngineOptions& options = {});

  QueryEngine(QueryEngine&&) = default;
  QueryEngine& operator=(QueryEngine&&) = default;

  /// Nodes in the snapshot.
  int64_t NumNodes() const { return eval_.num_nodes(); }

  /// Workers in the pool.
  int NumWorkers() const { return pool_->NumWorkers(); }

  const QueryEngineOptions& options() const { return options_; }

  /// The shared snapshot this engine serves from.
  const std::shared_ptr<const GraphSnapshot>& snapshot() const {
    return eval_.snapshot();
  }

  /// Full score vectors ŝ(q, ·), one per query, in batch order. The batch
  /// must be non-empty (InvalidArgument) and every node in range
  /// (OutOfRange); on error no query is evaluated. With a result cache,
  /// repeated queries are served from it bit-identically.
  Result<std::vector<std::vector<double>>> BatchScores(
      QueryMeasure measure, const std::vector<NodeId>& queries);

  /// Top-k answers with k = `options().similarity.top_k`, one per query,
  /// in batch order (query node excluded, ties by ascending id; a k beyond
  /// n − 1 is served clamped). InvalidArgument when `top_k` < 1, plus the
  /// batch errors of BatchScores; on error no query is evaluated. With a
  /// result cache, repeated queries decode to bit-identical answers
  /// (`served_from_cache` set).
  Result<std::vector<TopKResult>> BatchTopK(
      QueryMeasure measure, const std::vector<NodeId>& queries);

  /// Streams ŝ(source, ·) for every source, tile by tile, invoking `fn` in
  /// ascending index order. The source set must be non-empty
  /// (InvalidArgument) and every node in range (OutOfRange); on error no
  /// row is computed. Duplicate sources are each emitted.
  Status ForEachRow(QueryMeasure measure, const std::vector<NodeId>& sources,
                    const RowCallback& fn);

  /// Materializes the |sources| × n score matrix, rows in source order.
  Result<DenseMatrix> ComputeRows(QueryMeasure measure,
                                  const std::vector<NodeId>& sources);

  /// Materializes the full n × n score matrix (sources = all nodes).
  Result<DenseMatrix> ComputeAllPairs(QueryMeasure measure);

 private:
  /// Per-worker scratch, reused across queries and sized by the first
  /// shape that needs each piece: the backend workspace (every shape) and
  /// the branch-and-bound state of BatchTopK.
  struct WorkerState {
    std::unique_ptr<KernelWorkspace> workspace;
    std::vector<double> partial;     // the growing score vector
    std::vector<NodeId> candidates;  // survivors of the sieve
    TopKCollector collector;         // top-(k+1) partials per level
    std::vector<RankedNode> top;     // sorted extraction scratch
  };

  QueryEngine(std::shared_ptr<const GraphSnapshot> snapshot,
              const QueryEngineOptions& options);

  /// The one dispatch routine of every shape, over `queries[0, count)`.
  /// With a result cache, probes each query's key (the configured top-k
  /// key when `ranked`, else the full-row key) serially and offers a hit
  /// to `hit(i, value)`, which returns false to treat it as a miss; then
  /// fans the misses out across the pool as `miss(i, state, caching)`,
  /// which computes the answer and — when `caching` — returns the value to
  /// cache.
  template <typename HitFn, typename MissFn>
  void Serve(QueryMeasure measure, bool ranked, const NodeId* queries,
             int64_t count, HitFn&& hit, MissFn&& miss);

  /// Evaluates one query to top-k termination (early or exhausted) and
  /// fills `*result`; `k` is the clamped top_k (>= 1).
  void EvaluateTopK(QueryMeasure measure, NodeId query, size_t k,
                    WorkerState* state, TopKResult* result) const;

  /// One sieve + separation pass at the current level. Fills
  /// `state->top` (sorted best-first, up to k+1 entries), compacts
  /// `state->candidates`, and returns true when the top-k set and order
  /// are provably settled. On failure `*min_gap` is the smallest adjacent
  /// partial-score gap observed — the tail must drop below it before
  /// separation can possibly pass, which schedules the next scan.
  static bool SieveAndCheckSettled(size_t k, double tail, WorkerState* state,
                                   double* min_gap);

  QueryEngineOptions options_;
  MeasureEvaluator eval_;

  // unique_ptr keeps the engine movable: the pool's threads hold its
  // address.
  std::unique_ptr<ThreadPool> pool_;
  std::vector<WorkerState> workers_;
  // Positions of the current dispatch's cache misses.
  std::vector<int64_t> misses_;
  // tile_size row buffers of ForEachRow, each sized by its first row and
  // reused for every tile thereafter (the cache-blocking working set).
  std::vector<std::vector<double>> tile_rows_;
};

}  // namespace srs
