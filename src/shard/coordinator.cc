#include "srs/shard/coordinator.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "srs/core/series_reference.h"
#include "srs/matrix/ops.h"
#include "srs/observability/instruments.h"

namespace srs {

ShardCoordinator::ShardCoordinator(std::shared_ptr<const ShardedGraph> graph,
                                   const ShardCoordinatorOptions& options)
    : options_(options),
      sharded_(std::move(graph)),
      eval_(sharded_->snapshot(), options.similarity),
      damping_(options.similarity.damping) {
  // Same k / weight constructions as MeasureEvaluator's ctor — the sharded
  // accumulation must consume bit-identical coefficients.
  const int k_geo =
      EffectiveIterations(options_.similarity, /*exponential=*/false);
  const int k_exp =
      EffectiveIterations(options_.similarity, /*exponential=*/true);
  geometric_weights_ = GeometricStarLengthWeights(damping_, k_geo);
  exponential_weights_ = ExponentialStarLengthWeights(damping_, k_exp);
  rwr_iterations_ = k_geo;
  effective_k_ = static_cast<size_t>(
      std::max<int64_t>(0, std::min<int64_t>(options_.similarity.top_k,
                                             eval_.num_nodes() - 1)));
  pool_ = std::make_unique<ThreadPool>(options_.num_threads);

  const size_t shards = static_cast<size_t>(sharded_->num_shards());
  candidates_.resize(shards);
  last_max_.assign(shards, 0.0);
  last_tail_.assign(shards, 0.0);
  scanned_.assign(shards, 0);
  counters_.assign(shards, ShardCounters{});

  MetricsRegistry* reg =
      options_.registry != nullptr ? options_.registry : &GlobalMetrics();
  metric_levels_.reserve(shards);
  metric_scans_.reserve(shards);
  metric_pruned_.reserve(shards);
  metric_dropped_.reserve(shards);
  for (size_t s = 0; s < shards; ++s) {
    const MetricLabels labels = {{"shard", std::to_string(s)}};
    metric_levels_.push_back(reg->GetCounter(
        "srs_shard_levels_total",
        "Per-shard level-range computations executed", labels));
    metric_scans_.push_back(reg->GetCounter(
        "srs_shard_topk_scans_total",
        "Per-shard top-k sieve scans that offered candidates", labels));
    metric_pruned_.push_back(reg->GetCounter(
        "srs_shard_topk_scans_pruned_total",
        "Per-shard top-k sieve scans skipped by the aged upper bound",
        labels));
    metric_dropped_.push_back(reg->GetCounter(
        "srs_shard_topk_candidates_dropped_total",
        "Per-shard candidates dropped wholesale by the shard bound",
        labels));
  }
}

Result<ShardCoordinator> ShardCoordinator::Create(
    std::shared_ptr<const ShardedGraph> graph,
    const ShardCoordinatorOptions& options) {
  if (graph == nullptr) {
    return Status::InvalidArgument("ShardCoordinator requires a graph");
  }
  SRS_RETURN_NOT_OK(ValidateSimilarityOptions(options.similarity));
  ShardCoordinatorOptions resolved = options;
  if (resolved.num_threads <= 0) resolved.num_threads = HardwareThreads();
  // The digest separation from the unsharded engines hinges on the folded
  // shard count describing the partition actually served.
  const int graph_shards = graph->num_shards();
  const int folded =
      resolved.similarity.shards > 1 ? resolved.similarity.shards : 1;
  if (folded != graph_shards) {
    return Status::InvalidArgument(
        "similarity.shards: must equal the sharded graph's shard count (" +
        std::to_string(graph_shards) + "), got " +
        std::to_string(resolved.similarity.shards));
  }
  if (graph_shards <= 1 &&
      resolved.similarity.backend == KernelBackendKind::kSparse &&
      resolved.similarity.prune_epsilon > 0.0) {
    // A <= 1 shard count folds into the *unsharded* digest, but the
    // coordinator computes with the dense reference arithmetic — under a
    // lossy sparse config its answers would alias the unsharded sparse
    // engine's in a shared cache. Refuse rather than poison.
    return Status::InvalidArgument(
        "similarity.shards: sharded serving with <= 1 shard requires "
        "prune_epsilon = 0 under the sparse backend, got prune_epsilon = " +
        std::to_string(resolved.similarity.prune_epsilon));
  }
  if (resolved.similarity.top_k == 0) {
    // Full-row shape: canonicalize the inert top-k knob exactly as the
    // full-row engines do, so digests stay canonical.
    resolved.similarity.topk_early_termination = true;
  }
  return ShardCoordinator(std::move(graph), resolved);
}

void ShardCoordinator::BeginSharded(QueryMeasure measure, NodeId query,
                                    std::vector<double>* out) {
  const int64_t n = eval_.num_nodes();
  cur_out_ = out;
  cur_level_ = 0;
  cur_rwr_ = measure == QueryMeasure::kRwr;

  if (cur_rwr_) {
    // RwrColumnCursor::Begin (reference rung), verbatim.
    cur_k_max_ = rwr_iterations_;
    ck_ = 1.0;
    ws_.Prepare(n, /*k_max=*/0);
    out->assign(static_cast<size_t>(n), 0.0);
    std::vector<double>& v = ws_.t;
    std::fill(v.begin(), v.end(), 0.0);
    v[static_cast<size_t>(query)] = 1.0;
    Axpy((1.0 - damping_) * ck_, v, out);
    return;
  }

  // BinomialColumnCursor::Begin (reference rung), verbatim.
  cur_weights_ = measure == QueryMeasure::kSimRankStarGeometric
                     ? &geometric_weights_
                     : &exponential_weights_;
  cur_k_max_ = static_cast<int>(cur_weights_->size()) - 1;
  ws_.Prepare(n, cur_k_max_);
  out->assign(static_cast<size_t>(n), 0.0);
  ws_.level[0].assign(static_cast<size_t>(n), 0.0);
  ws_.level[0][static_cast<size_t>(query)] = 1.0;  // D_{0,0} = e_q
  std::copy(ws_.level[0].begin(), ws_.level[0].end(), ws_.t.begin());
  Axpy((*cur_weights_)[0], ws_.level[0], out);
}

bool ShardCoordinator::AdvanceSharded() {
  if (cur_level_ >= cur_k_max_) return false;
  const int l = ++cur_level_;
  const GraphSnapshot& snap = *eval_.snapshot();
  const int num_shards = sharded_->num_shards();

  if (cur_rwr_) {
    // RwrColumnCursor::Advance, row-partitioned. The new C^k and the
    // level's Axpy coefficient are computed once, with the reference's
    // exact rounding (multiply, store, multiply), before the fan-out.
    const double next_ck = ck_ * damping_;
    const double c = (1.0 - damping_) * next_ck;
    double* out = cur_out_->data();
    const double* v = ws_.t.data();
    double* scratch = ws_.scratch.data();
    pool_->ParallelForIndexed(0, num_shards, [&](int64_t s, int) {
      const ShardRange range = sharded_->slice(static_cast<int>(s)).range;
      snap.wt.MultiplyVectorRange(range.begin, range.end, v, scratch);
      for (int64_t r = range.begin; r < range.end; ++r) {
        out[r] += c * scratch[r];
      }
      ++counters_[static_cast<size_t>(s)].levels;
      metric_levels_[static_cast<size_t>(s)]->Increment();
    });
    ws_.t.swap(ws_.scratch);
    ck_ = next_ck;
    return true;
  }

  // BinomialColumnCursor::Advance (reference rung), row-partitioned: each
  // shard advances every alpha of its row range, copies its slice of the
  // new t chain into next[0], and accumulates its slice of the level's
  // weighted contribution — all reads are of previous-level vectors or of
  // the shard's own writes, so the fan-out is race-free and every output
  // element sees the reference's per-chain operation order.
  const double pow2 = std::ldexp(1.0, -l);
  coeff_.resize(static_cast<size_t>(l) + 1);
  for (int alpha = 0; alpha <= l; ++alpha) {
    coeff_[static_cast<size_t>(alpha)] =
        (*cur_weights_)[static_cast<size_t>(l)] * pow2 *
        BinomialCoefficient(l, alpha);
  }
  double* out = cur_out_->data();
  pool_->ParallelForIndexed(0, num_shards, [&](int64_t s, int) {
    const ShardRange range = sharded_->slice(static_cast<int>(s)).range;
    const int64_t lo = range.begin;
    const int64_t hi = range.end;
    for (int alpha = l; alpha >= 1; --alpha) {
      snap.q.MultiplyVectorRange(
          lo, hi, ws_.level[static_cast<size_t>(alpha - 1)].data(),
          ws_.next[static_cast<size_t>(alpha)].data());
    }
    snap.qt.MultiplyVectorRange(lo, hi, ws_.t.data(), ws_.scratch.data());
    std::copy(ws_.scratch.begin() + lo, ws_.scratch.begin() + hi,
              ws_.next[0].begin() + lo);
    for (int alpha = 0; alpha <= l; ++alpha) {
      const double c = coeff_[static_cast<size_t>(alpha)];
      const double* x = ws_.next[static_cast<size_t>(alpha)].data();
      for (int64_t r = lo; r < hi; ++r) {
        out[r] += c * x[r];
      }
    }
    ++counters_[static_cast<size_t>(s)].levels;
    metric_levels_[static_cast<size_t>(s)]->Increment();
  });
  ws_.t.swap(ws_.scratch);
  ws_.level.swap(ws_.next);
  return true;
}

void ShardCoordinator::ComputeSharded(QueryMeasure measure, NodeId query,
                                      std::vector<double>* out) {
  BeginSharded(measure, query, out);
  while (AdvanceSharded()) {
  }
}

Result<std::vector<std::vector<double>>> ShardCoordinator::BatchScores(
    QueryMeasure measure, const std::vector<NodeId>& queries) {
  SRS_RETURN_NOT_OK(eval_.ValidateBatch(queries, "query"));
  std::vector<std::vector<double>> results(queries.size());
  ResultCache* cache = options_.result_cache.get();
  // Queries run serially — the parallelism is *inside* each query, across
  // the shards of every level — so one pool serves both axes.
  for (size_t i = 0; i < queries.size(); ++i) {
    if (cache != nullptr) {
      if (ResultCache::Value hit =
              cache->Get(eval_.KeyFor(measure, queries[i]))) {
        results[i] = *hit;
        continue;
      }
    }
    ComputeSharded(measure, queries[i], &results[i]);
    if (cache != nullptr) {
      cache->Put(eval_.KeyFor(measure, queries[i]),
                 std::make_shared<const std::vector<double>>(results[i]));
    }
  }
  return results;
}

bool ShardCoordinator::SieveAndCheckSettled(double tail, double* min_gap) {
  const int num_shards = sharded_->num_shards();
  // Top-(k+1) partials among the survivors, offered in shard order —
  // which is ascending node order, exactly the unsharded engine's scan. A
  // shard whose aged upper bound cannot clear the admission threshold is
  // skipped: every one of its offers would be rejected, so the collector
  // state is identical either way.
  collector_.Reset(effective_k_ + 1);
  for (int s = 0; s < num_shards; ++s) {
    const size_t si = static_cast<size_t>(s);
    const std::vector<NodeId>& cand = candidates_[si];
    if (cand.empty()) continue;
    if (scanned_[si] && collector_.full() &&
        last_max_[si] + (last_tail_[si] - tail) < collector_.threshold()) {
      ++counters_[si].pruned_scans;
      metric_pruned_[si]->Increment();
      continue;  // last_max_/last_tail_ keep their last-scan values
    }
    double shard_max = 0.0;
    for (NodeId v : cand) {
      const double p = partial_[static_cast<size_t>(v)];
      collector_.Offer(v, p);
      shard_max = std::max(shard_max, p);
    }
    last_max_[si] = shard_max;
    last_tail_[si] = tail;
    scanned_[si] = 1;
    ++counters_[si].scans;
    metric_scans_[si]->Increment();
  }
  const size_t m = collector_.size();
  collector_.ExtractSorted(&top_);

  if (m > effective_k_) {
    // The engine's monotone sieve, shard by shard. A shard whose stale
    // bound already fails θ is cleared wholesale: partial[v] + tail <=
    // last_max + last_tail < θ for every member.
    const double theta = top_[effective_k_ - 1].score;
    for (int s = 0; s < num_shards; ++s) {
      const size_t si = static_cast<size_t>(s);
      std::vector<NodeId>& cand = candidates_[si];
      if (cand.empty()) continue;
      if (scanned_[si] && last_max_[si] + last_tail_[si] < theta) {
        counters_[si].dropped_candidates += cand.size();
        metric_dropped_[si]->Increment(cand.size());
        cand.clear();
        continue;
      }
      size_t kept = 0;
      for (NodeId v : cand) {
        if (partial_[static_cast<size_t>(v)] + tail >= theta) {
          cand[kept++] = v;
        }
      }
      cand.resize(kept);
    }
  }

  // Identical separation test to QueryEngine::SieveAndCheckSettled.
  bool settled = true;
  *min_gap = tail;
  for (size_t i = 0; i + 1 < m; ++i) {
    const double gap = top_[i].score - top_[i + 1].score;
    if (!(gap > tail)) settled = false;
    *min_gap = std::min(*min_gap, gap);
  }
  return settled;
}

void ShardCoordinator::EvaluateOne(QueryMeasure measure, NodeId query,
                                   TopKResult* result) {
  const std::vector<double>& tails = eval_.ResidualTails(measure);
  if (effective_k_ == 0) {  // single-node graph: nothing to rank
    result->ranking.clear();
    result->levels_evaluated = 0;
    result->levels_total = static_cast<int>(tails.size());
    result->residual_bound = 0.0;
    return;
  }

  BeginSharded(measure, query, &partial_);

  const int num_shards = sharded_->num_shards();
  int64_t total_candidates = 0;
  for (int s = 0; s < num_shards; ++s) {
    const size_t si = static_cast<size_t>(s);
    const ShardRange range = sharded_->slice(s).range;
    candidates_[si].clear();
    candidates_[si].reserve(static_cast<size_t>(range.size()));
    for (NodeId v = range.begin; v < range.end; ++v) {
      if (v != query) candidates_[si].push_back(v);
    }
    total_candidates += static_cast<int64_t>(candidates_[si].size());
    scanned_[si] = 0;
    last_max_[si] = 0.0;
    last_tail_[si] = 0.0;
  }

  // QueryEngine::EvaluateTopK's scan-scheduling loop, verbatim — same
  // control inputs (partials, tails, snapshot shape), so the sharded path
  // terminates at the same level with the same collector contents.
  const bool allow_early = options_.similarity.topk_early_termination;
  bool settled = false;
  const bool rwr = measure == QueryMeasure::kRwr;
  const int64_t level_nnz =
      rwr ? eval_.snapshot()->wt.nnz() : eval_.snapshot()->q.nnz();
  double max_ub = 0.0;
  double ub_tail = tails[0];
  double scan_below = std::numeric_limits<double>::infinity();
  while (true) {
    const double tail = tails[static_cast<size_t>(cur_level_)];
    if (tail == 0.0) break;
    const bool plausible = max_ub + (ub_tail - tail) > tail;
    const int64_t next_level_cost =
        (rwr ? int64_t{1} : int64_t{cur_level_} + 2) * level_nnz;
    const bool scheduled =
        4 * total_candidates <= next_level_cost || tail < scan_below;
    if (allow_early && plausible && scheduled) {
      double min_gap = 0.0;
      if (SieveAndCheckSettled(tail, &min_gap)) {
        settled = true;
        break;
      }
      total_candidates = 0;
      for (const std::vector<NodeId>& cand : candidates_) {
        total_candidates += static_cast<int64_t>(cand.size());
      }
      max_ub = top_.empty() ? 0.0 : top_[0].score;
      ub_tail = tail;
      scan_below = std::max(min_gap, 0.25 * tail);
    }
    if (!AdvanceSharded()) break;
  }

  if (!settled) {
    // Ran to completion: rank the survivors exactly. The shard prune
    // applies here too — with the series complete the aged bound is just
    // last_max + last_tail, still an upper bound on every member.
    const double tail = tails[static_cast<size_t>(cur_level_)];
    collector_.Reset(effective_k_);
    for (int s = 0; s < num_shards; ++s) {
      const size_t si = static_cast<size_t>(s);
      const std::vector<NodeId>& cand = candidates_[si];
      if (cand.empty()) continue;
      if (scanned_[si] && collector_.full() &&
          last_max_[si] + (last_tail_[si] - tail) < collector_.threshold()) {
        ++counters_[si].pruned_scans;
        metric_pruned_[si]->Increment();
        continue;
      }
      for (NodeId v : cand) {
        collector_.Offer(v, partial_[static_cast<size_t>(v)]);
      }
      ++counters_[si].scans;
      metric_scans_[si]->Increment();
    }
    collector_.ExtractSorted(&top_);
  }
  const size_t count = std::min(effective_k_, top_.size());
  result->ranking.assign(top_.begin(),
                         top_.begin() + static_cast<int64_t>(count));
  result->levels_evaluated = cur_level_ + 1;
  result->levels_total = cur_k_max_ + 1;
  result->residual_bound = tails[static_cast<size_t>(cur_level_)];
}

Result<std::vector<TopKResult>> ShardCoordinator::BatchTopK(
    QueryMeasure measure, const std::vector<NodeId>& queries) {
  if (options_.similarity.top_k < 1) {
    return Status::InvalidArgument(
        "similarity.top_k: must be >= 1 for top-k serving, got " +
        std::to_string(options_.similarity.top_k));
  }
  SRS_RETURN_NOT_OK(eval_.ValidateBatch(queries, "query"));
  std::vector<TopKResult> results(queries.size());
  ResultCache* cache = options_.result_cache.get();
  for (size_t i = 0; i < queries.size(); ++i) {
    const NodeId query = queries[i];
    TopKResult& result = results[i];
    if (cache != nullptr) {
      if (ResultCache::Value hit = cache->Get(eval_.KeyFor(measure, query))) {
        if (DecodeTopKResult(*hit, &result)) {
          result.served_from_cache = true;
          continue;
        }
      }
    }
    EvaluateOne(measure, query, &result);
    if (cache != nullptr) {
      auto encoded = std::make_shared<std::vector<double>>();
      EncodeTopKResult(result, encoded.get());
      cache->Put(eval_.KeyFor(measure, query), std::move(encoded));
    }
  }
  if (MetricsEnabled()) {
    // Same accounting rule as QueryEngine: cache-served answers describe
    // the original cold computation, not work this call did.
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

}  // namespace srs
