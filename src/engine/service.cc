#include "srs/engine/service.h"

#include <algorithm>
#include <string>
#include <utility>

#include "srs/common/hashing.h"
#include "srs/common/logging.h"
#include "srs/common/timer.h"
#include "srs/engine/delta_invalidation.h"
#include "srs/observability/instruments.h"

namespace srs {

namespace {

// Serving-shape tags folded into engine memo keys (private to the
// service's LRU — unrelated to QueryMeasureTag).
constexpr int kShapeFullRow = 0;
constexpr int kShapeRanked = 1;
constexpr int kShapeStream = 2;
constexpr int kShapeShardedFull = 3;
constexpr int kShapeShardedRanked = 4;

SnapshotCache* ResolveSnapshotCache(const SrsServiceOptions& options) {
  return options.snapshot_cache != nullptr ? options.snapshot_cache
                                           : &GlobalSnapshotCache();
}

}  // namespace

SrsService::SrsService(VersionedGraph graph, const SrsServiceOptions& options)
    : options_(options), graph_(std::move(graph)) {}

Result<std::unique_ptr<SrsService>> SrsService::Create(
    Graph base, const SrsServiceOptions& options) {
  // The defaults are validated up front so protocol-level merging always
  // starts from a servable configuration; per-request options are
  // validated again by the engines they reach.
  SRS_RETURN_NOT_OK(ValidateSimilarityOptions(options.similarity));
  std::unique_ptr<SrsService> service(
      new SrsService(VersionedGraph(std::move(base)), options));
  SRS_ASSIGN_OR_RETURN(
      service->head_snapshot_,
      ResolveSnapshotCache(service->options_)->Get(service->graph_, 0));
  if (!options.data_dir.empty()) {
    SRS_ASSIGN_OR_RETURN(
        service->store_,
        DurableStore::Initialize(options.data_dir,
                                 *service->graph_.MaterializedBase(0),
                                 *service->head_snapshot_));
    service->stats_.wal_bytes = service->store_->WalSizeBytes();
    ++service->stats_.checkpoints;
  }
  return service;
}

Result<std::unique_ptr<SrsService>> SrsService::Recover(
    const SrsServiceOptions& options) {
  if (options.data_dir.empty()) {
    return Status::InvalidArgument("Recover requires options.data_dir");
  }
  SRS_RETURN_NOT_OK(ValidateSimilarityOptions(options.similarity));
  DurableStore::Recovered recovered;
  SRS_ASSIGN_OR_RETURN(std::unique_ptr<DurableStore> store,
                       DurableStore::Recover(options.data_dir, &recovered));

  // Re-root the chain at the snapshot's version: ids and fingerprints
  // continue the crashed process's chain, so replay below reproduces them
  // exactly.
  std::unique_ptr<SrsService> service(new SrsService(
      VersionedGraph::Restore(std::move(recovered.snapshot.graph),
                              recovered.snapshot.version,
                              recovered.snapshot.version_fingerprint,
                              recovered.snapshot.base_fingerprint),
      options));
  service->store_ = std::move(store);
  service->recovery_info_ = recovered.info;

  // Seed the cache with the file-loaded snapshot: the serving matrices
  // arrive bit-exact from disk, so neither the root nor any replayed
  // version pays the O(m log m) renormalization.
  SnapshotCache* cache = ResolveSnapshotCache(service->options_);
  service->head_snapshot_ = cache->Seed(recovered.snapshot.snapshot);
  service->served_version_ = recovered.snapshot.version;

  for (const Wal::Record& record : recovered.tail) {
    // The log is trusted only if it provably extends this snapshot:
    // recompute each record's version fingerprint from the chain and
    // refuse to serve on a mismatch (foreign log, reordered records).
    const uint64_t expect_vfp =
        service->graph_.NextVersionFingerprint(record.delta);
    if (expect_vfp != record.version_fingerprint) {
      return Status::IoError(
          "wal record for version " + std::to_string(record.version) +
          " does not extend the snapshot chain (fingerprint mismatch)");
    }
    SRS_ASSIGN_OR_RETURN(const uint64_t version,
                         service->graph_.Apply(record.delta));
    SRS_CHECK(version == record.version);
    SRS_ASSIGN_OR_RETURN(service->head_snapshot_,
                         cache->Get(service->graph_, version));
    service->served_version_ = version;
  }
  service->stats_.wal_bytes = service->store_->WalSizeBytes();
  return service;
}

Result<uint64_t> SrsService::ResolveVersion(uint64_t requested) const {
  if (requested == kLatestVersion) return served_version_;
  if (requested < graph_.FirstVersion() ||
      requested > graph_.CurrentVersion()) {
    return Status::InvalidArgument(
        "version " + std::to_string(requested) +
        " out of range; serving [" + std::to_string(graph_.FirstVersion()) +
        ", " + std::to_string(graph_.CurrentVersion()) + "]");
  }
  return requested;
}

uint64_t SrsService::EngineKey(int shape_tag,
                               const SimilarityOptions& options,
                               uint64_t version) const {
  // ResultDigest already folds every score-affecting option plus the
  // version fingerprint; the shape tag keeps the three engine kinds from
  // ever sharing a slot even under identical options.
  uint64_t h = FnvHashCombine(kFnvOffsetBasis,
                              static_cast<uint64_t>(shape_tag));
  h = FnvHashCombine(
      h, ResultDigest(options, shape_tag, graph_.VersionFingerprint(version)));
  return FnvHashCombine(h, version);
}

template <typename BuildFn>
Result<std::shared_ptr<SrsService::EngineSlot>> SrsService::GetSlot(
    uint64_t key, bool* reused, BuildFn build) {
  for (const std::shared_ptr<EngineSlot>& slot : engines_) {
    if (slot->key == key) {
      slot->last_use = ++use_counter_;
      *reused = true;
      ++stats_.engines_reused;
      return slot;
    }
  }
  // Evict the LRU victim *before* building the newcomer, so peak
  // residency is max_engines warm engines — not max_engines + 1 while the
  // new one constructs. A stream still running on the victim keeps it
  // alive through its own shared_ptr.
  while (engines_.size() >= std::max<size_t>(1, options_.max_engines)) {
    size_t victim = 0;
    for (size_t i = 1; i < engines_.size(); ++i) {
      if (engines_[i]->last_use < engines_[victim]->last_use) victim = i;
    }
    engines_.erase(engines_.begin() + static_cast<std::ptrdiff_t>(victim));
  }
  auto slot = std::make_shared<EngineSlot>();
  slot->key = key;
  SRS_RETURN_NOT_OK(build(slot.get()));
  slot->last_use = ++use_counter_;
  *reused = false;
  ++stats_.engines_created;
  engines_.push_back(slot);
  return slot;
}

Result<std::shared_ptr<const ShardedGraph>> SrsService::ShardedGraphFor(
    int shards, uint64_t version) {
  if (version == served_version_ && head_snapshot_ != nullptr) {
    auto it = sharded_heads_.find(shards);
    if (it != sharded_heads_.end() &&
        it->second->snapshot()->version_fingerprint ==
            head_snapshot_->version_fingerprint) {
      return it->second;
    }
    std::shared_ptr<const ShardedGraph> sharded =
        ShardedGraph::Create(head_snapshot_, shards,
                             EdgeBalancedPartitioner());
    sharded_heads_[shards] = sharded;
    return sharded;
  }
  // Historical version: an ad-hoc view over its snapshot — correct, just
  // not carried across deltas (old versions are not where deltas land).
  SRS_ASSIGN_OR_RETURN(std::shared_ptr<const GraphSnapshot> snapshot,
                       ResolveSnapshotCache(options_)->Get(graph_, version));
  return ShardedGraph::Create(std::move(snapshot), shards,
                              EdgeBalancedPartitioner());
}

Result<std::unique_ptr<QueryEngine>> SrsService::NewEngine(
    const SimilarityOptions& options, uint64_t version) {
  QueryEngineOptions opts;
  opts.similarity = options;
  opts.num_threads = options_.num_threads;
  opts.tile_size = options_.tile_size;
  opts.result_cache = options_.result_cache;
  opts.snapshot_cache = ResolveSnapshotCache(options_);
  SRS_ASSIGN_OR_RETURN(QueryEngine engine,
                       QueryEngine::Create({graph_, version}, opts));
  return std::make_unique<QueryEngine>(std::move(engine));
}

Result<QueryResponse> SrsService::Query(const QueryRequest& request) {
  std::lock_guard<std::mutex> lock(mu_);
  if (request.deadline.has_value() &&
      std::chrono::steady_clock::now() >= *request.deadline) {
    return Status::DeadlineExceeded("deadline passed before dispatch");
  }
  // One timing switch for both consumers: the batch-latency histograms
  // and a requested trace. Off, the query path reads the clock zero
  // times beyond the deadline check above.
  const bool timed = MetricsEnabled() || request.collect_trace;
  Timer stage;
  SRS_ASSIGN_OR_RETURN(const uint64_t version,
                       ResolveVersion(request.version));
  const bool ranked = request.options.top_k > 0;
  // Sharded serving runs both shapes through one ShardCoordinator per
  // (options digest, version). Answers are bit-identical to the engine's at
  // prune_epsilon = 0 (shard/coordinator.h), but cached and memoized under
  // shard-folded digests, so the two serving modes never alias.
  const bool sharded = request.options.shards >= 2;

  QueryResponse response;
  response.version = version;
  response.ranked = ranked;
  ++stats_.queries;

  const int shape = sharded ? (ranked ? kShapeShardedRanked : kShapeShardedFull)
                            : (ranked ? kShapeRanked : kShapeFullRow);
  SRS_ASSIGN_OR_RETURN(
      std::shared_ptr<EngineSlot> slot,
      GetSlot(EngineKey(shape, request.options, version),
              &response.engine_reused, [&](EngineSlot* s) -> Status {
                if (!sharded) {
                  SRS_ASSIGN_OR_RETURN(s->engine,
                                       NewEngine(request.options, version));
                  return Status::OK();
                }
                SRS_ASSIGN_OR_RETURN(
                    std::shared_ptr<const ShardedGraph> sharded_graph,
                    ShardedGraphFor(request.options.shards, version));
                ShardCoordinatorOptions opts;
                opts.similarity = request.options;
                opts.num_threads = options_.num_threads;
                opts.result_cache = options_.result_cache;
                SRS_ASSIGN_OR_RETURN(
                    ShardCoordinator coordinator,
                    ShardCoordinator::Create(std::move(sharded_graph), opts));
                s->sharded =
                    std::make_unique<ShardCoordinator>(std::move(coordinator));
                return Status::OK();
              }));
  const double resolve_s = timed ? stage.Seconds() : 0.0;
  std::vector<TopKResult> rankings;
  std::vector<std::vector<double>> scores;
  if (ranked) {
    SRS_ASSIGN_OR_RETURN(
        rankings,
        sharded ? slot->sharded->BatchTopK(request.measure, request.sources)
                : slot->engine->BatchTopK(request.measure, request.sources));
  } else {
    SRS_ASSIGN_OR_RETURN(
        scores,
        sharded ? slot->sharded->BatchScores(request.measure, request.sources)
                : slot->engine->BatchScores(request.measure, request.sources));
  }
  if (timed) {
    const double compute_s = stage.Seconds() - resolve_s;
    const char* shape_name = ranked ? "ranked" : "full";
    QueryBatchSecondsHistogram(shape_name)->Observe(compute_s);
    QueryBatchSourcesHistogram(shape_name)->Observe(
        static_cast<double>(request.sources.size()));
    if (request.collect_trace) {
      response.trace.collected = true;
      response.trace.resolve_ms = resolve_s * 1e3;
      response.trace.compute_ms = compute_s * 1e3;
    }
  }
  response.rows.resize(request.sources.size());
  for (size_t i = 0; i < response.rows.size(); ++i) {
    QueryRowResult& row = response.rows[i];
    row.source = request.sources[i];
    if (!ranked) {
      row.scores = std::move(scores[i]);
      continue;
    }
    row.ranking = std::move(rankings[i].ranking);
    row.levels_evaluated = rankings[i].levels_evaluated;
    row.levels_total = rankings[i].levels_total;
    row.residual_bound = rankings[i].residual_bound;
    row.served_from_cache = rankings[i].served_from_cache;
  }
  stats_.rows_served += response.rows.size();
  if (request.collect_trace) {
    response.trace.engine_reused = response.engine_reused;
  }
  return response;
}

Status SrsService::StreamRows(const QueryRequest& request,
                              const RowCallback& fn) {
  // The service lock covers only version/slot resolution. The stream
  // itself — and therefore every `fn` invocation — runs outside it, so a
  // callback that re-enters the service (Stats(), Query(), another
  // StreamRows) cannot self-deadlock. The engine only reads its immutable
  // snapshot, so a concurrent ApplyDelta is safe; eviction of this slot
  // mid-stream is safe too (the shared_ptr keeps the engine alive).
  std::shared_ptr<EngineSlot> slot;
  std::unique_lock<std::mutex> exec;
  std::unique_ptr<QueryEngine> private_engine;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (request.deadline.has_value() &&
        std::chrono::steady_clock::now() >= *request.deadline) {
      return Status::DeadlineExceeded("deadline passed before dispatch");
    }
    SRS_ASSIGN_OR_RETURN(const uint64_t version,
                         ResolveVersion(request.version));
    const uint64_t key = EngineKey(kShapeStream, request.options, version);
    bool reused = false;
    SRS_ASSIGN_OR_RETURN(
        slot, GetSlot(key, &reused, [&](EngineSlot* s) -> Status {
          SRS_ASSIGN_OR_RETURN(s->engine,
                               NewEngine(request.options, version));
          return Status::OK();
        }));
    // A busy warm engine belongs to another stream — possibly the one
    // whose callback issued this call, which would wait on itself forever.
    // Never block on it: build a private engine instead.
    exec = std::unique_lock<std::mutex>(slot->exec_mu, std::try_to_lock);
    if (!exec.owns_lock()) {
      SRS_ASSIGN_OR_RETURN(private_engine,
                           NewEngine(request.options, version));
      ++stats_.engines_created;
    }
    ++stats_.queries;
  }
  QueryEngine* engine =
      private_engine != nullptr ? private_engine.get() : slot->engine.get();
  Timer stream_timer;
  SRS_RETURN_NOT_OK(engine->ForEachRow(request.measure, request.sources, fn));
  if (MetricsEnabled()) {
    QueryBatchSecondsHistogram("allpairs")->Observe(stream_timer.Seconds());
    QueryBatchSourcesHistogram("allpairs")->Observe(
        static_cast<double>(request.sources.size()));
  }
  if (exec.owns_lock()) exec.unlock();
  std::lock_guard<std::mutex> lock(mu_);
  stats_.rows_served += request.sources.size();
  return Status::OK();
}

Result<uint64_t> SrsService::ApplyDelta(const EdgeDelta& delta) {
  std::lock_guard<std::mutex> lock(mu_);
  if (store_ != nullptr) {
    // Write-ahead ordering: validate what Apply would validate, frame the
    // record with the version/fingerprint the chain is about to mint, and
    // fsync it — only then mutate. An acknowledged delta is durable even
    // if the process dies on the very next instruction.
    if (delta.num_nodes() != graph_.NumNodes()) {
      return Status::InvalidArgument(
          "delta built for " + std::to_string(delta.num_nodes()) +
          " nodes applied to a graph of " +
          std::to_string(graph_.NumNodes()));
    }
    Wal::Record record;
    record.version = graph_.CurrentVersion() + 1;
    record.version_fingerprint = graph_.NextVersionFingerprint(delta);
    record.delta = delta;
    SRS_RETURN_NOT_OK(store_->LogDelta(record));
  }
  SRS_ASSIGN_OR_RETURN(const uint64_t version, graph_.Apply(delta));
  // Deriving through the cache is the incremental path: only the rows the
  // delta touched are recomputed and patched over the head snapshot.
  SRS_ASSIGN_OR_RETURN(
      std::shared_ptr<const GraphSnapshot> child,
      ResolveSnapshotCache(options_)->Get(graph_, version));
  if (options_.result_cache != nullptr && head_snapshot_ != nullptr &&
      child->version == head_snapshot_->version + 1) {
    // Carry provably-unaffected rows (under the service's default digest)
    // across the version step; rows cached under other option digests age
    // out on their own. Propagation failure would leave stale-but-
    // unreachable entries, never a wrong answer — the version fingerprint
    // in every digest guarantees that — so it is not fatal here.
    Result<DeltaInvalidationStats> propagated =
        PropagateResultCacheAcrossDelta(options_.result_cache.get(),
                                        *head_snapshot_, *child,
                                        options_.similarity);
    if (propagated.ok()) {
      stats_.cache_rows_retained += propagated.ValueOrDie().retained;
      stats_.cache_rows_evicted += propagated.ValueOrDie().evicted;
    }
  }
  // Carry the sharded head views across the version step. Derive reuses
  // the cut points and adjusts per-shard statistics from delta_touched —
  // O(|touched| + shards) per view instead of an O(n) rebuild.
  for (auto& entry : sharded_heads_) {
    entry.second = ShardedGraph::Derive(entry.second, child);
  }
  // The swap: from here on, kLatestVersion resolves to the child. Requests
  // already dispatched finished before we took the lock, so every response
  // is wholly one version.
  head_snapshot_ = std::move(child);
  served_version_ = version;
  ++stats_.deltas_applied;
  if (store_ != nullptr) {
    // Checkpoint when the chain just compacted (the materialized graph is
    // sitting right there) or the log has outgrown its budget — the
    // on-disk mirror of the in-memory compact_fraction policy. A failed
    // checkpoint is not fatal: the delta above is already durable in the
    // WAL, so recovery still lands on this exact version.
    const bool compacted = graph_.IsCompacted(version);
    if (compacted || store_->WalSizeBytes() > options_.wal_max_bytes) {
      Status persisted = Status::OK();
      if (compacted) {
        persisted = store_->WriteCheckpoint(*graph_.MaterializedBase(version),
                                            *head_snapshot_);
      } else {
        Result<Graph> materialized = graph_.Materialize(version);
        persisted = materialized.ok()
                        ? store_->WriteCheckpoint(
                              materialized.ValueOrDie(), *head_snapshot_)
                        : materialized.status();
      }
      if (persisted.ok()) {
        ++stats_.checkpoints;
      } else {
        SRS_LOG(Warning) << "checkpoint failed (will retry after next "
                            "delta): "
                         << persisted.ToString();
      }
    }
    stats_.wal_bytes = store_->WalSizeBytes();
  }
  return version;
}

uint64_t SrsService::ServedVersion() const {
  std::lock_guard<std::mutex> lock(mu_);
  return served_version_;
}

int64_t SrsService::NumNodes() const { return graph_.NumNodes(); }

ServiceStats SrsService::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

RecoveryInfo SrsService::recovery_info() const {
  std::lock_guard<std::mutex> lock(mu_);
  return recovery_info_;
}

size_t SrsService::WarmEngineCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return engines_.size();
}

void SrsService::RegisterMetrics(MetricsRegistry* registry) {
  MetricsRegistry* reg = registry != nullptr ? registry : &GlobalMetrics();
  metrics_.Reset();
  struct Field {
    const char* name;
    const char* help;
    MetricType type;
    double (*get)(const ServiceStats&);
  };
  static constexpr Field kFields[] = {
      {"srs_service_queries_total", "Query()/StreamRows() calls served",
       MetricType::kCounter,
       [](const ServiceStats& s) { return static_cast<double>(s.queries); }},
      {"srs_service_rows_served_total", "Individual source rows answered",
       MetricType::kCounter,
       [](const ServiceStats& s) {
         return static_cast<double>(s.rows_served);
       }},
      {"srs_service_engines_created_total", "Cold engine constructions",
       MetricType::kCounter,
       [](const ServiceStats& s) {
         return static_cast<double>(s.engines_created);
       }},
      {"srs_service_engines_reused_total",
       "Requests served by a warm engine", MetricType::kCounter,
       [](const ServiceStats& s) {
         return static_cast<double>(s.engines_reused);
       }},
      {"srs_service_deltas_applied_total", "Successful ApplyDelta() calls",
       MetricType::kCounter,
       [](const ServiceStats& s) {
         return static_cast<double>(s.deltas_applied);
       }},
      {"srs_service_cache_rows_retained_total",
       "ResultCache rows carried across deltas bit-intact",
       MetricType::kCounter,
       [](const ServiceStats& s) {
         return static_cast<double>(s.cache_rows_retained);
       }},
      {"srs_service_cache_rows_evicted_total",
       "ResultCache rows dropped by delta invalidation",
       MetricType::kCounter,
       [](const ServiceStats& s) {
         return static_cast<double>(s.cache_rows_evicted);
       }},
      {"srs_service_checkpoints_total",
       "Snapshot checkpoint files written (durable mode)",
       MetricType::kCounter,
       [](const ServiceStats& s) {
         return static_cast<double>(s.checkpoints);
       }},
      {"srs_service_wal_bytes", "Current WAL size (durable mode)",
       MetricType::kGauge,
       [](const ServiceStats& s) {
         return static_cast<double>(s.wal_bytes);
       }},
  };
  for (const Field& field : kFields) {
    metrics_.Add(reg, field.name, field.help, field.type, {},
                 [this, get = field.get] { return get(Stats()); });
  }
  metrics_.Add(reg, "srs_service_served_version",
               "Graph version kLatestVersion currently resolves to",
               MetricType::kGauge, {},
               [this] { return static_cast<double>(ServedVersion()); });
  metrics_.Add(reg, "srs_service_num_nodes", "Nodes in the served graph",
               MetricType::kGauge, {},
               [this] { return static_cast<double>(NumNodes()); });
  metrics_.Add(reg, "srs_service_warm_engines",
               "Warm engines resident in the service LRU",
               MetricType::kGauge, {},
               [this] { return static_cast<double>(WarmEngineCount()); });
  struct RecoveryField {
    const char* name;
    const char* help;
    double (*get)(const RecoveryInfo&);
  };
  static constexpr RecoveryField kRecovery[] = {
      {"srs_recovery_from_disk",
       "1 when this process restarted from on-disk state",
       [](const RecoveryInfo& r) {
         return r.recovered_from_disk ? 1.0 : 0.0;
       }},
      {"srs_recovery_snapshot_version",
       "Version of the snapshot file recovery loaded",
       [](const RecoveryInfo& r) {
         return static_cast<double>(r.snapshot_version);
       }},
      {"srs_recovery_replayed_deltas",
       "WAL records replayed on top of the recovered snapshot",
       [](const RecoveryInfo& r) {
         return static_cast<double>(r.replayed_deltas);
       }},
      {"srs_recovery_skipped_obsolete",
       "Obsolete WAL records recovery skipped",
       [](const RecoveryInfo& r) {
         return static_cast<double>(r.skipped_obsolete);
       }},
      {"srs_recovery_wal_tail_truncated",
       "1 when recovery truncated a torn WAL tail",
       [](const RecoveryInfo& r) {
         return r.wal_tail_truncated ? 1.0 : 0.0;
       }},
  };
  for (const RecoveryField& field : kRecovery) {
    metrics_.Add(reg, field.name, field.help, MetricType::kGauge, {},
                 [this, get = field.get] { return get(recovery_info()); });
  }
  if (options_.result_cache != nullptr) {
    options_.result_cache->RegisterMetrics(reg);
  }
  ResolveSnapshotCache(options_)->RegisterMetrics(reg);
}

}  // namespace srs
