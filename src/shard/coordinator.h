#pragma once

/// \file coordinator.h
/// \brief Scatter/gather query coordination over an in-process ShardedGraph.
///
/// The ShardCoordinator serves the same two shapes as QueryEngine's
/// BatchScores and BatchTopK — full score rows and early-terminating top-k
/// rankings — but
/// row-partitioned across shards: every level of the level recurrence is
/// fanned out over the shard slices (each shard computing its node range of
/// every level vector via CsrOverlay::MultiplyVectorRange), merged at a
/// per-level barrier in deterministic shard order, and accumulated with the
/// reference kernel's exact arithmetic.
///
/// **Bit-identity.** At `prune_epsilon = 0` the sharded answer equals the
/// unsharded one bit for bit, for every measure, both kernel backends, and
/// both serving shapes. The argument is a chain of documented equalities:
/// each shard's row slice is the same ascending gather chain the full SpMV
/// performs for those rows (matrix/csr_overlay.h), every SIMD rung keeps
/// one strict ascending accumulation chain per output with no FMA
/// (matrix/csr_kernels.h), and the coordinator's per-level accumulation
/// replays the reference cursor's per-element operation order
/// (core/single_source_kernel.cc). The differential fuzz suite
/// (tests/sharding_fuzz_test.cpp) asserts the identity end to end.
///
/// **Top-k shard pruning.** The top-k path replicates QueryEngine's
/// branch-and-bound loop exactly, with one addition: each shard remembers
/// the maximum partial score it exposed at its last sieve scan together
/// with the residual tail at that moment. Because partial scores grow by
/// at most the tail mass consumed between levels, `last_max + (last_tail −
/// tail)` is a current upper bound on every partial in the shard — when it
/// falls strictly below the collector's admission threshold, the shard's
/// entire Offer scan is skipped as a *provable no-op* (the collector state
/// is unchanged from what offering would produce), and when `last_max +
/// last_tail` falls below the sieve threshold θ, the shard's whole
/// candidate list is dropped wholesale (every member fails the per-
/// candidate test). Both prunes are observationally equivalent to the
/// unsharded scan, so rankings stay bit-identical; both are counted in the
/// per-shard metric families (`srs_shard_*`).
///
/// The coordinator computes with the dense reference arithmetic regardless
/// of `similarity.backend` — identical to both backends at prune_epsilon =
/// 0 (the regime the identity guarantee covers). A sharded configuration's
/// ResultDigest folds the shard count, so its cache entries never alias an
/// unsharded engine's.

#include <cstdint>
#include <memory>
#include <vector>

#include "srs/common/parallel.h"
#include "srs/common/result.h"
#include "srs/core/single_source_kernel.h"
#include "srs/core/topk.h"
#include "srs/engine/query_engine.h"
#include "srs/engine/result_cache.h"
#include "srs/engine/topk_engine.h"
#include "srs/eval/ranking.h"
#include "srs/graph/graph.h"
#include "srs/observability/metrics.h"
#include "srs/shard/sharded_graph.h"

namespace srs {

/// \brief Configuration of a ShardCoordinator.
struct ShardCoordinatorOptions {
  /// Measure parameters. `similarity.shards` must equal the sharded
  /// graph's shard count — it is what keys the coordinator's cache digests
  /// apart from the unsharded engines'. `top_k >= 1` serves rankings,
  /// 0 full rows. `num_threads` inside is ignored; the pool size below
  /// governs.
  SimilarityOptions similarity;

  /// Worker threads fanning the per-level shard tasks out (the caller
  /// counts as one; shards beyond the pool width queue). <= 0 means
  /// HardwareThreads().
  int num_threads = 1;

  /// Optional shared score cache; null disables result caching. Safe to
  /// share with the unsharded engines — sharded digests never alias
  /// theirs.
  std::shared_ptr<ResultCache> result_cache;

  /// Registry for the per-shard metric families; null means
  /// GlobalMetrics().
  MetricsRegistry* registry = nullptr;
};

/// Monotonic per-shard counters (mirrored into `srs_shard_*` metrics).
struct ShardCounters {
  uint64_t levels = 0;        ///< level-range computations executed
  uint64_t scans = 0;         ///< top-k sieve scans that offered candidates
  uint64_t pruned_scans = 0;  ///< sieve scans skipped by the aged bound
  uint64_t dropped_candidates = 0;  ///< candidates dropped wholesale
};

/// \brief Fans single-source queries out across the shards of one
/// ShardedGraph and merges per-shard partial results into answers
/// bit-identical (at prune_epsilon = 0) to the unsharded engines.
///
/// Thread-compatible like the engines: one coordinator per serving thread
/// or external serialization; the sharded graph, snapshot, and result
/// cache are safely shared.
class ShardCoordinator {
 public:
  /// Validates options against `graph` (shard-count mismatch and, for
  /// unsharded shard counts, lossy sparse configs whose digests would
  /// alias are InvalidArgument) and sizes the per-shard state.
  static Result<ShardCoordinator> Create(
      std::shared_ptr<const ShardedGraph> graph,
      const ShardCoordinatorOptions& options);

  ShardCoordinator(ShardCoordinator&&) = default;
  ShardCoordinator& operator=(ShardCoordinator&&) = default;

  int64_t NumNodes() const { return eval_.num_nodes(); }
  int num_shards() const { return sharded_->num_shards(); }
  const ShardCoordinatorOptions& options() const { return options_; }
  const std::shared_ptr<const ShardedGraph>& sharded_graph() const {
    return sharded_;
  }
  const std::shared_ptr<const GraphSnapshot>& snapshot() const {
    return eval_.snapshot();
  }

  /// Full score vectors ŝ(q, ·), one per query, in batch order — the
  /// sharded counterpart of QueryEngine::BatchScores with identical
  /// validation and caching behavior.
  Result<std::vector<std::vector<double>>> BatchScores(
      QueryMeasure measure, const std::vector<NodeId>& queries);

  /// Top-k answers, one per query, in batch order — the sharded
  /// counterpart of QueryEngine::BatchTopK (requires `similarity.top_k` >=
  /// 1), with shard-level pruning layered under the engine's exact
  /// branch-and-bound loop.
  Result<std::vector<TopKResult>> BatchTopK(
      QueryMeasure measure, const std::vector<NodeId>& queries);

  /// Per-shard counters since construction (index = shard).
  const std::vector<ShardCounters>& shard_counters() const {
    return counters_;
  }

 private:
  ShardCoordinator(std::shared_ptr<const ShardedGraph> graph,
                   const ShardCoordinatorOptions& options);

  /// Seeds level 0 of ŝ(query, ·) into `*out` — the reference cursor's
  /// Begin, verbatim.
  void BeginSharded(QueryMeasure measure, NodeId query,
                    std::vector<double>* out);

  /// Accumulates the next level, fanning the row ranges across shards;
  /// false once the series is exhausted.
  bool AdvanceSharded();

  /// Computes ŝ(query, ·) to completion into `*out`.
  void ComputeSharded(QueryMeasure measure, NodeId query,
                      std::vector<double>* out);

  /// One sieve + separation pass over the per-shard candidate lists —
  /// QueryEngine::SieveAndCheckSettled with the shard-level prunes.
  bool SieveAndCheckSettled(double tail, double* min_gap);

  /// Evaluates one top-k query (QueryEngine::EvaluateTopK, sharded).
  void EvaluateOne(QueryMeasure measure, NodeId query, TopKResult* result);

  ShardCoordinatorOptions options_;
  std::shared_ptr<const ShardedGraph> sharded_;
  /// Digests, residual tails, batch validation — shared with the engines
  /// so sharded cache keys and bounds come from the same code paths.
  MeasureEvaluator eval_;
  size_t effective_k_ = 0;

  /// Series state mirroring MeasureEvaluator's private weights (same
  /// constructions, hence the same bits).
  double damping_ = 0.0;
  std::vector<double> geometric_weights_;
  std::vector<double> exponential_weights_;
  int rwr_iterations_ = 0;

  std::unique_ptr<ThreadPool> pool_;

  /// Coordinator-owned recurrence buffers (full-n; shards write disjoint
  /// row ranges of them).
  SingleSourceWorkspace ws_;
  std::vector<double> coeff_;

  /// Active cursor state (one query in flight at a time).
  bool cur_rwr_ = false;
  int cur_level_ = 0;
  int cur_k_max_ = 0;
  double ck_ = 1.0;
  const std::vector<double>* cur_weights_ = nullptr;
  std::vector<double>* cur_out_ = nullptr;

  /// Top-k branch-and-bound state, per shard where shard-local.
  std::vector<double> partial_;
  std::vector<std::vector<NodeId>> candidates_;
  std::vector<double> last_max_;
  std::vector<double> last_tail_;
  std::vector<char> scanned_;
  TopKCollector collector_;
  std::vector<RankedNode> top_;

  std::vector<ShardCounters> counters_;
  std::vector<Counter*> metric_levels_;
  std::vector<Counter*> metric_scans_;
  std::vector<Counter*> metric_pruned_;
  std::vector<Counter*> metric_dropped_;
};

}  // namespace srs
