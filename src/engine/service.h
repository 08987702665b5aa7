#pragma once

/// \file service.h
/// \brief SrsService — the one serving facade over the similarity engine.
///
/// One QueryEngine (engine/query_engine.h) serves every shape: full score
/// rows, rankings with bound-based early termination, and streamed source
/// sets. Every embedder — the CLI, the quickstart, the srs_serve server —
/// would otherwise create engines by hand, wire the same snapshot/result
/// caches into each, and re-create them per version of a dynamic graph.
/// SrsService is that wiring, once:
///
///  * one `QueryRequest` describes any single-source workload — measure,
///    source batch, a full `SimilarityOptions` (whose `top_k` selects
///    full-row vs ranked serving), the graph version to serve, and an
///    optional deadline;
///  * the service owns the `VersionedGraph` and a small LRU of warm
///    engines keyed by (serving shape, options digest, version), so
///    repeated requests with the same configuration reuse a live engine —
///    pool, workspaces, and snapshot already in place;
///  * `ApplyDelta` is the graceful update path: it applies the EdgeDelta,
///    derives the child snapshot incrementally from the served parent,
///    carries provably-unaffected ResultCache rows across the version
///    (engine/delta_invalidation.h), and atomically swaps the served
///    version — all under the service lock, so a query observes either
///    the old version or the new one, never a mix;
///  * answers are bit-identical to driving the underlying engine directly
///    with the same options (asserted by tests/service_test.cpp).
///
/// Calls are serialized internally (engines are thread-compatible, not
/// thread-safe); parallelism comes from the engines' worker pools. For a
/// concurrent front door with request coalescing and backpressure, see
/// server/server.h, which drives one SrsService from a single dispatcher.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "srs/common/result.h"
#include "srs/core/options.h"
#include "srs/engine/query_engine.h"
#include "srs/engine/result_cache.h"
#include "srs/engine/snapshot.h"
#include "srs/eval/ranking.h"
#include "srs/graph/delta.h"
#include "srs/graph/graph.h"
#include "srs/graph/versioned_graph.h"
#include "srs/observability/metrics.h"
#include "srs/observability/trace.h"
#include "srs/shard/coordinator.h"
#include "srs/storage/data_dir.h"

namespace srs {

/// Sentinel version: serve whatever version is current at dispatch.
inline constexpr uint64_t kLatestVersion = ~uint64_t{0};

/// \brief One single-source workload, in any serving shape.
struct QueryRequest {
  QueryMeasure measure = QueryMeasure::kSimRankStarGeometric;

  /// Query nodes, answered in order. Must be non-empty and in range.
  std::vector<NodeId> sources;

  /// Full measure configuration. `top_k == 0` serves full score rows;
  /// `top_k >= 1` serves rankings through the early-terminating
  /// QueryEngine::BatchTopK.
  /// `shards >= 2` routes either shape through a ShardCoordinator
  /// (shard/coordinator.h) instead — bit-identical answers at
  /// prune_epsilon = 0, partitioned serving. `num_threads` is ignored —
  /// the service's pool size governs.
  SimilarityOptions options;

  /// Graph version to serve; kLatestVersion means the currently served
  /// head. Out-of-range versions are InvalidArgument.
  uint64_t version = kLatestVersion;

  /// Optional deadline. A request whose deadline has already passed at
  /// dispatch fails with DeadlineExceeded instead of computing.
  std::optional<std::chrono::steady_clock::time_point> deadline;

  /// When true, the response's `trace` records stage timings (wire
  /// clients opt in with `"trace": true`).
  bool collect_trace = false;
};

/// \brief One source's answer: a full row or a ranking, plus diagnostics.
struct QueryRowResult {
  NodeId source = 0;

  /// Full-row serving: ŝ(source, ·), all n scores. Empty when ranked.
  std::vector<double> scores;

  /// Ranked serving: best-first top-k (RankedBefore order). Empty when
  /// full-row.
  std::vector<RankedNode> ranking;

  /// Early-termination diagnostics (TopKResult semantics); zero for
  /// full-row serving, which always runs the series to completion.
  int levels_evaluated = 0;
  int levels_total = 0;
  double residual_bound = 0.0;

  /// True when the answer was decoded from the shared ResultCache
  /// (ranked serving only; full-row cache hits are not distinguishable
  /// from the engine's own accounting).
  bool served_from_cache = false;
};

/// \brief A whole request's answer.
struct QueryResponse {
  /// The version actually served (resolves kLatestVersion).
  uint64_t version = 0;

  /// True when rows carry rankings, false when full score rows.
  bool ranked = false;

  /// True when a warm engine served this request (no engine construction).
  bool engine_reused = false;

  /// Stage timings, filled when the request set `collect_trace` (the
  /// server layers add admission/batch facts on top of the service's
  /// resolve/compute timings).
  RequestTrace trace;

  /// One row per source, in request order.
  std::vector<QueryRowResult> rows;
};

/// \brief Configuration of an SrsService.
struct SrsServiceOptions {
  /// The service's default measure configuration. Requests carry their own
  /// options; this one seeds protocol-level defaults and keys the
  /// cross-delta ResultCache propagation (rows cached under other option
  /// digests simply age out after a delta).
  SimilarityOptions similarity;

  /// Worker threads of every engine the service creates. <= 0 means
  /// HardwareThreads().
  int num_threads = 1;

  /// Tile size of streamed-row serving (QueryEngine::ForEachRow); 0 = the
  /// engine default. Performance-only — scores are identical for any value.
  int tile_size = 0;

  /// Shared score cache wired into every engine; null disables result
  /// caching (and delta-aware propagation).
  std::shared_ptr<ResultCache> result_cache;

  /// Snapshot memo; null means GlobalSnapshotCache().
  SnapshotCache* snapshot_cache = nullptr;

  /// Warm engines kept in the service's LRU. Each entry holds one engine
  /// (one serving shape × options digest × version).
  size_t max_engines = 8;

  /// Data directory for the durable snapshot + delta WAL pair
  /// (storage/data_dir.h). Empty disables persistence. With a directory
  /// set, Create() initializes fresh state there (overwriting what it
  /// holds), Recover() restarts from it, and every ApplyDelta logs its
  /// delta (fsync'd) before swapping the served version.
  std::string data_dir;

  /// WAL size past which the next ApplyDelta checkpoints (fresh snapshot
  /// file + log truncation). Graph-level compactions always checkpoint —
  /// the materialized graph is free at that moment — so this bound only
  /// matters for long runs of small overlay deltas.
  uint64_t wal_max_bytes = 64ull << 20;
};

/// Monotonic counters describing a service's behavior.
struct ServiceStats {
  uint64_t queries = 0;          ///< Query() + StreamRows() calls served
  uint64_t rows_served = 0;      ///< individual source rows answered
  uint64_t engines_created = 0;  ///< cold engine constructions
  uint64_t engines_reused = 0;   ///< requests served by a warm engine
  uint64_t deltas_applied = 0;   ///< successful ApplyDelta() calls
  uint64_t cache_rows_retained = 0;  ///< ResultCache rows carried across deltas
  uint64_t cache_rows_evicted = 0;   ///< ResultCache rows dropped by deltas
  uint64_t checkpoints = 0;      ///< snapshot files written (durable mode)
  uint64_t wal_bytes = 0;        ///< current WAL size (durable mode)
};

/// \brief Owns a versioned graph and serves every engine shape behind one
/// request/response API.
///
/// Thread-safe: all public calls serialize on an internal mutex. One
/// service per served graph; the ResultCache and SnapshotCache may be
/// shared across services.
class SrsService {
 public:
  /// Validates `options`, roots a version chain at `base`, and resolves
  /// the root snapshot (warming the snapshot cache). With
  /// `options.data_dir` set, also initializes durable state there (initial
  /// snapshot file + empty WAL). InvalidArgument on bad options.
  static Result<std::unique_ptr<SrsService>> Create(
      Graph base, const SrsServiceOptions& options = {});

  /// Restarts from `options.data_dir` (which must hold state — see
  /// `DurableStore::HasState`): loads the checksummed snapshot file, seeds
  /// the snapshot cache with it (no renormalization), replays the WAL tail
  /// through the same `VersionedGraph::Apply` chain the crashed process
  /// ran — verifying each record's version fingerprint before applying —
  /// and serves at the recovered head. The result is bit-identical to a
  /// process that applied the same deltas and never crashed: same version
  /// ids, same version fingerprints, same query bytes. IoError on any
  /// corruption; recovery details are in `recovery_info()`.
  static Result<std::unique_ptr<SrsService>> Recover(
      const SrsServiceOptions& options);

  SrsService(const SrsService&) = delete;
  SrsService& operator=(const SrsService&) = delete;

  /// Answers `request` — full rows or rankings per `options.top_k` — via a
  /// warm or freshly created engine. InvalidArgument on bad options or
  /// version, OutOfRange on bad sources, DeadlineExceeded when the
  /// request's deadline has already passed at dispatch.
  Result<QueryResponse> Query(const QueryRequest& request);

  /// Streams full rows for `request.sources` in order through `fn`
  /// (QueryEngine::ForEachRow semantics: the row is valid only during the
  /// call). `request.options.top_k` is ignored — streamed rows are always
  /// full. `fn` runs *outside* the service lock, so it may safely re-enter
  /// the service (Stats(), Query(), even another StreamRows). A stream
  /// whose warm engine is busy with another stream — a concurrent one, or
  /// the very stream whose callback this is — runs on a private engine
  /// that is not entered into the LRU.
  using RowCallback = QueryEngine::RowCallback;
  Status StreamRows(const QueryRequest& request, const RowCallback& fn);

  /// Applies `delta` on the current head, derives the child snapshot
  /// incrementally, propagates the ResultCache across the version step
  /// (retaining provably-unaffected rows bit-intact), and swaps the served
  /// version. Returns the new version id. Queries admitted before the
  /// swap serve the old version; queries after serve the new one — never
  /// a mix of both.
  Result<uint64_t> ApplyDelta(const EdgeDelta& delta);

  /// The version kLatestVersion currently resolves to.
  uint64_t ServedVersion() const;

  /// Nodes in the served graph (version-independent).
  int64_t NumNodes() const;

  /// The service's default measure configuration (seed for per-request
  /// overrides at the protocol layer).
  const SimilarityOptions& default_similarity() const {
    return options_.similarity;
  }

  /// The owned version chain. The reference is stable, but concurrent
  /// ApplyDelta() calls mutate it — single-threaded embedders (the CLI)
  /// may read it freely, concurrent ones must quiesce writes first.
  const VersionedGraph& graph() const { return graph_; }

  /// Current counters (a consistent view under the service lock).
  ServiceStats Stats() const;

  /// What recovery found (all-zero defaults for a service that was
  /// Create()d rather than Recover()ed).
  RecoveryInfo recovery_info() const;

  /// Warm engines currently resident — never exceeds
  /// `options.max_engines` (the LRU evicts *before* building a
  /// replacement, so a cold build does not transiently hold victim +
  /// newcomer).
  size_t WarmEngineCount() const;

  /// Registers this service's counters (`srs_service_*`), recovery facts,
  /// and its result/snapshot caches' metrics in `registry` (the global
  /// one when null).
  void RegisterMetrics(MetricsRegistry* registry = nullptr);

 private:
  /// One warm engine: exactly one of the two pointers is set — the
  /// coordinator for the sharded shapes folded into `key`. Slots are
  /// shared_ptrs so an engine streaming outside the service lock survives
  /// its own LRU eviction; `exec_mu` is held by the stream using the
  /// (thread-compatible) engine after it has left the service lock.
  struct EngineSlot {
    uint64_t key = 0;
    uint64_t last_use = 0;
    std::mutex exec_mu;
    std::unique_ptr<QueryEngine> engine;
    std::unique_ptr<ShardCoordinator> sharded;
  };

  SrsService(VersionedGraph graph, const SrsServiceOptions& options);

  /// Resolves a request's version (kLatestVersion → served head) or
  /// InvalidArgument.
  Result<uint64_t> ResolveVersion(uint64_t requested) const;

  /// Memo key of one (shape, options, version) engine configuration.
  uint64_t EngineKey(int shape_tag, const SimilarityOptions& options,
                     uint64_t version) const;

  /// A fresh engine over (`options`, `version`) wired to the service's
  /// pool size and caches. Call with `mu_` held.
  Result<std::unique_ptr<QueryEngine>> NewEngine(
      const SimilarityOptions& options, uint64_t version);

  /// Finds the slot for `key` (refreshing LRU order) or creates one via
  /// `build`, evicting the least-recently-used slot first so residency
  /// never exceeds max_engines. `reused` reports which path was taken.
  /// Call with `mu_` held.
  template <typename BuildFn>
  Result<std::shared_ptr<EngineSlot>> GetSlot(uint64_t key, bool* reused,
                                              BuildFn build);

  /// The sharded view serving (shards, version). The served head's views
  /// are memoized per shard count and carried across ApplyDelta
  /// incrementally (ShardedGraph::Derive); historical versions build an
  /// ad-hoc view from their snapshot. Call with `mu_` held.
  Result<std::shared_ptr<const ShardedGraph>> ShardedGraphFor(
      int shards, uint64_t version);

  SrsServiceOptions options_;
  VersionedGraph graph_;
  /// Durable snapshot/WAL pair; null when `options.data_dir` is empty.
  std::unique_ptr<DurableStore> store_;
  RecoveryInfo recovery_info_;

  mutable std::mutex mu_;
  uint64_t served_version_ = 0;
  /// Snapshot of the served head — the propagation parent of the next
  /// delta.
  std::shared_ptr<const GraphSnapshot> head_snapshot_;
  /// Sharded views of the head, one per shard count in active use —
  /// re-derived (not rebuilt) on every ApplyDelta.
  std::map<int, std::shared_ptr<const ShardedGraph>> sharded_heads_;
  std::vector<std::shared_ptr<EngineSlot>> engines_;
  uint64_t use_counter_ = 0;
  ServiceStats stats_;
  PolledRegistration metrics_;
};

}  // namespace srs
