#include "srs/engine/query_engine.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <string>

#include "srs/core/single_source_kernel.h"
#include "srs/core/topk.h"
#include "srs/observability/instruments.h"

namespace srs {

const char* QueryMeasureToString(QueryMeasure measure) {
  switch (measure) {
    case QueryMeasure::kSimRankStarGeometric:
      return "gsr-star";
    case QueryMeasure::kSimRankStarExponential:
      return "esr-star";
    case QueryMeasure::kRwr:
      return "rwr";
  }
  return "unknown";
}

int QueryMeasureTag(QueryMeasure measure) {
  return static_cast<int>(measure);
}

MeasureEvaluator::MeasureEvaluator(
    std::shared_ptr<const GraphSnapshot> snapshot,
    const SimilarityOptions& similarity)
    : snapshot_(std::move(snapshot)),
      backend_(MakeKernelBackend(similarity)),
      damping_(similarity.damping) {
  const int k_geo = EffectiveIterations(similarity, /*exponential=*/false);
  const int k_exp = EffectiveIterations(similarity, /*exponential=*/true);
  geometric_weights_ = GeometricStarLengthWeights(similarity.damping, k_geo);
  exponential_weights_ =
      ExponentialStarLengthWeights(similarity.damping, k_exp);
  rwr_iterations_ = k_geo;
  // Full rows are keyed the same whatever the top-k knobs say; normalize
  // them so the row digests are the canonical full-row ones.
  SimilarityOptions rows = similarity;
  rows.top_k = 0;
  rows.topk_early_termination = true;
  for (QueryMeasure m : {QueryMeasure::kSimRankStarGeometric,
                         QueryMeasure::kSimRankStarExponential,
                         QueryMeasure::kRwr}) {
    // The snapshot's version fingerprint goes into every digest: the key's
    // graph fingerprint is version-stable, so this is what keeps answers
    // from different versions of one chain apart in a shared cache.
    digests_[QueryMeasureTag(m)] = ResultDigest(
        similarity, QueryMeasureTag(m), snapshot_->version_fingerprint);
    row_digests_[QueryMeasureTag(m)] = ResultDigest(
        rows, QueryMeasureTag(m), snapshot_->version_fingerprint);
  }
  // O(k_max) from the snapshot's memoized row sums — engine creation over
  // a cached snapshot does no O(nnz) work.
  tails_[QueryMeasureTag(QueryMeasure::kSimRankStarGeometric)] =
      BinomialResidualTails(geometric_weights_, snapshot_->gamma_q,
                            snapshot_->gamma_qt);
  tails_[QueryMeasureTag(QueryMeasure::kSimRankStarExponential)] =
      BinomialResidualTails(exponential_weights_, snapshot_->gamma_q,
                            snapshot_->gamma_qt);
  tails_[QueryMeasureTag(QueryMeasure::kRwr)] = RwrResidualTails(
      damping_, rwr_iterations_, snapshot_->gamma_wt);
}

void MeasureEvaluator::Compute(QueryMeasure measure, NodeId query,
                               KernelWorkspace* workspace,
                               std::vector<double>* out) const {
  switch (measure) {
    case QueryMeasure::kSimRankStarGeometric:
      backend_->AccumulateBinomialColumn(snapshot_->q, snapshot_->qt, query,
                                         geometric_weights_, workspace, out);
      return;
    case QueryMeasure::kSimRankStarExponential:
      backend_->AccumulateBinomialColumn(snapshot_->q, snapshot_->qt, query,
                                         exponential_weights_, workspace,
                                         out);
      return;
    case QueryMeasure::kRwr:
      backend_->RwrColumn(snapshot_->wt, snapshot_->w, query, damping_,
                          rwr_iterations_, workspace, out);
      return;
  }
  SRS_CHECK(false) << "unknown QueryMeasure";
}

PartialColumnEvaluation* MeasureEvaluator::BeginCompute(
    QueryMeasure measure, NodeId query, KernelWorkspace* workspace,
    std::vector<double>* out) const {
  switch (measure) {
    case QueryMeasure::kSimRankStarGeometric:
      return backend_->BeginBinomialColumn(snapshot_->q, snapshot_->qt,
                                           query, geometric_weights_,
                                           workspace, out);
    case QueryMeasure::kSimRankStarExponential:
      return backend_->BeginBinomialColumn(snapshot_->q, snapshot_->qt,
                                           query, exponential_weights_,
                                           workspace, out);
    case QueryMeasure::kRwr:
      return backend_->BeginRwrColumn(snapshot_->wt, snapshot_->w, query,
                                      damping_, rwr_iterations_, workspace,
                                      out);
  }
  SRS_CHECK(false) << "unknown QueryMeasure";
  return nullptr;
}

Status MeasureEvaluator::ValidateBatch(const std::vector<NodeId>& nodes,
                                       const char* what) const {
  if (nodes.empty()) {
    return Status::InvalidArgument(std::string(what) + " batch is empty");
  }
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (nodes[i] < 0 || nodes[i] >= snapshot_->num_nodes) {
      return Status::OutOfRange(
          "batch entry " + std::to_string(i) + ": " + what + " node " +
          std::to_string(nodes[i]) + " out of range for " +
          std::to_string(snapshot_->num_nodes) + " nodes");
    }
  }
  return Status::OK();
}

QueryEngine::QueryEngine(std::shared_ptr<const GraphSnapshot> snapshot,
                         const QueryEngineOptions& options)
    : options_(options), eval_(std::move(snapshot), options.similarity) {
  pool_ = std::make_unique<ThreadPool>(options_.num_threads);
  workers_.resize(static_cast<size_t>(pool_->NumWorkers()));
  for (WorkerState& worker : workers_) {
    worker.workspace = eval_.NewWorkspace();
  }
}

Result<QueryEngine> QueryEngine::Create(const GraphRef& graph,
                                        const QueryEngineOptions& options) {
  SRS_RETURN_NOT_OK(ValidateSimilarityOptions(options.similarity));
  QueryEngineOptions resolved = options;
  if (resolved.num_threads <= 0) resolved.num_threads = HardwareThreads();
  if (resolved.tile_size <= 0) resolved.tile_size = 32;
  SRS_ASSIGN_OR_RETURN(std::shared_ptr<const GraphSnapshot> snapshot,
                       graph.Resolve(resolved.snapshot_cache));
  return QueryEngine(std::move(snapshot), resolved);
}

template <typename HitFn, typename MissFn>
void QueryEngine::Serve(QueryMeasure measure, bool ranked,
                        const NodeId* queries, int64_t count, HitFn&& hit,
                        MissFn&& miss) {
  ResultCache* cache = options_.result_cache.get();
  auto key = [&](int64_t i) {
    return ranked ? eval_.KeyFor(measure, queries[i])
                  : eval_.RowKeyFor(measure, queries[i]);
  };
  // Probe serially (a hit is a hash lookup plus a copy or decode), then fan
  // only the misses out: a batch of pure hits dispatches nothing.
  // Duplicate misses in one batch are each computed; the second Put merely
  // refreshes the entry.
  misses_.clear();
  for (int64_t i = 0; i < count; ++i) {
    ResultCache::Value cached = cache != nullptr ? cache->Get(key(i)) : nullptr;
    if (cached == nullptr || !hit(i, std::move(cached))) misses_.push_back(i);
  }
  pool_->ParallelForIndexed(
      0, static_cast<int64_t>(misses_.size()), [&](int64_t m, int worker) {
        const int64_t i = misses_[static_cast<size_t>(m)];
        ResultCache::Value fresh =
            miss(i, &workers_[static_cast<size_t>(worker)], cache != nullptr);
        if (cache != nullptr) cache->Put(key(i), std::move(fresh));
      });
}

Result<std::vector<std::vector<double>>> QueryEngine::BatchScores(
    QueryMeasure measure, const std::vector<NodeId>& queries) {
  SRS_RETURN_NOT_OK(eval_.ValidateBatch(queries, "query"));
  std::vector<std::vector<double>> results(queries.size());
  Serve(
      measure, /*ranked=*/false, queries.data(),
      static_cast<int64_t>(queries.size()),
      [&](int64_t i, ResultCache::Value hit) {
        results[static_cast<size_t>(i)] = *hit;
        return true;
      },
      [&](int64_t i, WorkerState* state, bool caching) -> ResultCache::Value {
        std::vector<double>& row = results[static_cast<size_t>(i)];
        eval_.Compute(measure, queries[static_cast<size_t>(i)],
                      state->workspace.get(), &row);
        if (!caching) return nullptr;
        return std::make_shared<const std::vector<double>>(row);
      });
  return results;
}

Result<std::vector<TopKResult>> QueryEngine::BatchTopK(
    QueryMeasure measure, const std::vector<NodeId>& queries) {
  if (options_.similarity.top_k < 1) {
    return Status::InvalidArgument(
        "similarity.top_k: must be >= 1 for top-k serving, got " +
        std::to_string(options_.similarity.top_k));
  }
  SRS_RETURN_NOT_OK(eval_.ValidateBatch(queries, "query"));
  // A ranking can never hold more than n − 1 nodes (the query is
  // excluded); clamping keeps the per-level collector small on tiny
  // graphs. The *requested* k still keys the cache via the options digest.
  const size_t k = static_cast<size_t>(std::max<int64_t>(
      0, std::min<int64_t>(options_.similarity.top_k, NumNodes() - 1)));
  std::vector<TopKResult> results(queries.size());
  Serve(
      measure, /*ranked=*/true, queries.data(),
      static_cast<int64_t>(queries.size()),
      // The evaluator's configured digests fold top_k and the termination
      // policy (engine/result_cache.h), so this key can only ever hit
      // another top-k answer of the same configuration.
      [&](int64_t i, ResultCache::Value hit) {
        TopKResult& result = results[static_cast<size_t>(i)];
        if (!DecodeTopKResult(*hit, &result)) return false;
        result.served_from_cache = true;
        return true;
      },
      [&](int64_t i, WorkerState* state, bool caching) -> ResultCache::Value {
        TopKResult& result = results[static_cast<size_t>(i)];
        EvaluateTopK(measure, queries[static_cast<size_t>(i)], k, state,
                     &result);
        if (!caching) return nullptr;
        auto encoded = std::make_shared<std::vector<double>>();
        EncodeTopKResult(result, encoded.get());
        return encoded;
      });
  if (MetricsEnabled()) {
    // Cache-served answers are skipped: their level counts describe the
    // original cold computation, not work this call did — the same rule
    // srs_query's early-termination tally applies.
    Histogram* levels = TopKTerminationLevelsHistogram();
    uint64_t evaluated = 0, possible = 0;
    for (const TopKResult& result : results) {
      if (result.served_from_cache) continue;
      levels->Observe(static_cast<double>(result.levels_evaluated));
      evaluated += static_cast<uint64_t>(result.levels_evaluated);
      possible += static_cast<uint64_t>(result.levels_total);
    }
    if (possible > 0) {
      TopKLevelsEvaluatedCounter()->Increment(evaluated);
      TopKLevelsPossibleCounter()->Increment(possible);
    }
  }
  return results;
}

bool QueryEngine::SieveAndCheckSettled(size_t k, double tail,
                                       WorkerState* state, double* min_gap) {
  const std::vector<double>& partial = state->partial;
  // Top-(k+1) partials among the surviving candidates: the first k are the
  // running answer, the (k+1)-th is the best any outsider could displace.
  state->collector.Reset(k + 1);
  for (NodeId v : state->candidates) {
    state->collector.Offer(v, partial[v]);
  }
  const size_t m = state->collector.size();
  state->collector.ExtractSorted(&state->top);

  if (m > k) {
    // Sieve against the running k-th partial score: a candidate that
    // cannot reach it even with the whole tail is provably outside the
    // top-k. The sieve is monotone — partials grow by at most the tail
    // shrink per level, and the threshold never decreases — so a dropped
    // candidate could never have re-qualified.
    const double theta = state->top[k - 1].score;
    size_t kept = 0;
    for (NodeId v : state->candidates) {
      if (partial[v] + tail >= theta) state->candidates[kept++] = v;
    }
    state->candidates.resize(kept);
  }

  // Settled iff every adjacent pair of the collected partials is strictly
  // separated by more than the tail: then no remaining level can reorder
  // them or promote an outsider (everyone else sits at or below the
  // (k+1)-th, which the k-th provably clears). Ties cannot be separated —
  // those queries run to completion, where tie-break by node id is exact.
  bool settled = true;
  *min_gap = tail;
  for (size_t i = 0; i + 1 < m; ++i) {
    const double gap = state->top[i].score - state->top[i + 1].score;
    if (!(gap > tail)) settled = false;
    *min_gap = std::min(*min_gap, gap);
  }
  return settled;
}

void QueryEngine::EvaluateTopK(QueryMeasure measure, NodeId query, size_t k,
                               WorkerState* state, TopKResult* result) const {
  const std::vector<double>& tails = eval_.ResidualTails(measure);
  if (k == 0) {  // single-node graph: nothing to rank
    result->ranking.clear();
    result->levels_evaluated = 0;
    result->levels_total = static_cast<int>(tails.size());
    result->residual_bound = 0.0;
    return;
  }

  PartialColumnEvaluation* eval =
      eval_.BeginCompute(measure, query, state->workspace.get(),
                         &state->partial);

  const int64_t n = eval_.num_nodes();
  state->candidates.clear();
  state->candidates.reserve(static_cast<size_t>(n - 1));
  for (NodeId v = 0; v < n; ++v) {
    if (v != query) state->candidates.push_back(v);
  }

  const bool allow_early = options_.similarity.topk_early_termination;
  bool settled = false;
  // Scan scheduling. A full sieve-and-check pass costs O(candidates) — for
  // kernels whose levels are cheap (RWR: one matvec) that can rival the
  // level itself, so passes run only when they can plausibly do work:
  //  * `max_ub` bounds the best candidate partial (refreshed by scans;
  //    between scans it grows by at most the tail mass consumed since,
  //    `ub_tail` − tail). While it stays ≤ the tail, a scan is provably a
  //    no-op: the sieve keeps everyone (θ ≤ max ≤ tail) and no pair can
  //    be separated by more than the tail.
  //  * a scan also runs whenever it is cheap relative to the *next level*
  //    (candidates ≤ ~¼ of the level's edge traversals — always true for
  //    the binomial kernels, whose level l costs l+1 matvecs, and for RWR
  //    on denser graphs) — a delayed stop there would cost far more than
  //    the scan saves;
  //  * otherwise, after a failed scan the next one waits until the tail
  //    drops below the smallest adjacent gap observed (`scan_below`) —
  //    before that, separation cannot pass unless the gaps themselves
  //    moved, which a 4×-decay refresh bounds (`tail/4`: at most every
  //    ~2.7 levels at C = 0.6).
  // The schedule depends only on partials, tails, and the snapshot shape,
  // so it is as deterministic — and backend-independent at prune_epsilon =
  // 0 — as the termination test itself.
  const bool rwr = measure == QueryMeasure::kRwr;
  const int64_t level_nnz =
      rwr ? eval_.snapshot()->wt.nnz() : eval_.snapshot()->q.nnz();
  double max_ub = 0.0;
  double ub_tail = tails[0];
  double scan_below = std::numeric_limits<double>::infinity();
  while (true) {
    const double tail = tails[static_cast<size_t>(eval->Level())];
    // A zero tail means the series is complete (only the last level): the
    // partials *are* the full-row scores, bit for bit.
    if (tail == 0.0) break;
    const bool plausible = max_ub + (ub_tail - tail) > tail;
    const int64_t next_level_cost =
        (rwr ? int64_t{1} : int64_t{eval->Level()} + 2) * level_nnz;
    const bool scheduled =
        4 * static_cast<int64_t>(state->candidates.size()) <=
            next_level_cost ||
        tail < scan_below;
    if (allow_early && plausible && scheduled) {
      double min_gap = 0.0;
      if (SieveAndCheckSettled(k, tail, state, &min_gap)) {
        settled = true;
        break;
      }
      max_ub = state->top.empty() ? 0.0 : state->top[0].score;
      ub_tail = tail;
      scan_below = std::max(min_gap, 0.25 * tail);
    }
    if (!eval->AdvanceLevel()) break;
  }

  if (!settled) {
    // Ran to completion: rank the surviving candidates exactly. The sieve
    // only ever dropped provably-out nodes, so the survivors contain the
    // true top-k.
    state->collector.Reset(k);
    for (NodeId v : state->candidates) {
      state->collector.Offer(v, state->partial[v]);
    }
    state->collector.ExtractSorted(&state->top);
  }
  const size_t count = std::min(k, state->top.size());
  result->ranking.assign(state->top.begin(),
                         state->top.begin() + static_cast<int64_t>(count));
  result->levels_evaluated = eval->Level() + 1;
  result->levels_total = eval->MaxLevel() + 1;
  result->residual_bound = tails[static_cast<size_t>(eval->Level())];
}

Status QueryEngine::ForEachRow(QueryMeasure measure,
                               const std::vector<NodeId>& sources,
                               const RowCallback& fn) {
  SRS_RETURN_NOT_OK(eval_.ValidateBatch(sources, "source"));
  const int64_t total = static_cast<int64_t>(sources.size());
  const int64_t tile = options_.tile_size;
  tile_rows_.resize(static_cast<size_t>(tile));
  // Cache hits for the current tile, parallel to its slots; a null slot
  // means the row was computed into tile_rows_.
  std::vector<ResultCache::Value> hits(static_cast<size_t>(tile));
  for (int64_t t0 = 0; t0 < total; t0 += tile) {
    const int64_t count = std::min(total - t0, tile);
    const NodeId* tile_sources = sources.data() + t0;
    // Each miss writes its own slot, so the tile buffer is race-free.
    Serve(
        measure, /*ranked=*/false, tile_sources, count,
        [&](int64_t slot, ResultCache::Value hit) {
          hits[static_cast<size_t>(slot)] = std::move(hit);
          return true;
        },
        [&](int64_t slot, WorkerState* state,
            bool caching) -> ResultCache::Value {
          std::vector<double>& row = tile_rows_[static_cast<size_t>(slot)];
          eval_.Compute(measure, tile_sources[slot], state->workspace.get(),
                        &row);
          if (!caching) return nullptr;
          return std::make_shared<const std::vector<double>>(row);
        });
    for (int64_t slot = 0; slot < count; ++slot) {
      ResultCache::Value& hit = hits[static_cast<size_t>(slot)];
      fn(t0 + slot, tile_sources[slot],
         hit != nullptr ? *hit : tile_rows_[static_cast<size_t>(slot)]);
      hit = nullptr;
    }
  }
  return Status::OK();
}

Result<DenseMatrix> QueryEngine::ComputeRows(
    QueryMeasure measure, const std::vector<NodeId>& sources) {
  // Validate before sizing the result: a bad source set must not pay the
  // (possibly huge) |sources| × n allocation on its way to the error.
  SRS_RETURN_NOT_OK(eval_.ValidateBatch(sources, "source"));
  DenseMatrix out(static_cast<int64_t>(sources.size()), eval_.num_nodes());
  SRS_RETURN_NOT_OK(ForEachRow(
      measure, sources,
      [&](int64_t index, NodeId /*source*/, const std::vector<double>& row) {
        std::copy(row.begin(), row.end(), out.Row(index));
      }));
  return out;
}

Result<DenseMatrix> QueryEngine::ComputeAllPairs(QueryMeasure measure) {
  if (eval_.num_nodes() == 0) {
    return Status::InvalidArgument("all-pairs over an empty graph");
  }
  std::vector<NodeId> sources(static_cast<size_t>(eval_.num_nodes()));
  std::iota(sources.begin(), sources.end(), NodeId{0});
  return ComputeRows(measure, sources);
}

void EncodeTopKResult(const TopKResult& result, std::vector<double>* out) {
  out->clear();
  out->reserve(3 + 2 * result.ranking.size());
  out->push_back(static_cast<double>(result.levels_evaluated));
  out->push_back(static_cast<double>(result.levels_total));
  out->push_back(result.residual_bound);
  for (const RankedNode& r : result.ranking) {
    out->push_back(static_cast<double>(r.node));
    out->push_back(r.score);
  }
}

bool DecodeTopKResult(const std::vector<double>& encoded, TopKResult* out) {
  if (encoded.size() < 3 || (encoded.size() - 3) % 2 != 0) return false;
  out->levels_evaluated = static_cast<int>(encoded[0]);
  out->levels_total = static_cast<int>(encoded[1]);
  out->residual_bound = encoded[2];
  out->served_from_cache = false;  // provenance is the caller's to set
  const size_t count = (encoded.size() - 3) / 2;
  out->ranking.clear();
  out->ranking.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    out->ranking.push_back(
        {static_cast<NodeId>(encoded[3 + 2 * i]), encoded[4 + 2 * i]});
  }
  return true;
}

}  // namespace srs
