#pragma once

/// \file topk_engine.h
/// \brief The top-k answer type of QueryEngine::BatchTopK
/// (engine/query_engine.h) and its ResultCache encoding.
///
/// Top-k answers are cached under digests that fold the `top_k` /
/// `topk_early_termination` knobs (engine/result_cache.h), so they never
/// alias full rows or other k's, and a cached answer decodes to the bits
/// of the cold one.

#include <vector>

#include "srs/eval/ranking.h"

namespace srs {

/// \brief One query's top-k answer plus early-termination diagnostics.
struct TopKResult {
  /// Best-first ranking (RankedBefore order), the query node excluded;
  /// size min(top_k, n − 1). Scores are partial sums: lower bounds within
  /// `residual_bound` of the backend's full-accuracy scores.
  std::vector<RankedNode> ranking;

  /// Levels of the series actually evaluated (1 = only level 0) and the
  /// total the configuration would run without early termination.
  int levels_evaluated = 0;
  int levels_total = 0;

  /// Residual tail at the termination level: every full-accuracy score
  /// exceeds its reported partial by at most this. Exactly 0 when the
  /// series ran to completion.
  double residual_bound = 0.0;

  /// True when this answer was decoded from the ResultCache instead of
  /// evaluated — `levels_evaluated` then describes the original cold
  /// computation, not work done by this call. Not part of the cached
  /// encoding (it is provenance of the answer, not the answer).
  bool served_from_cache = false;
};

/// Encodes a TopKResult as the flat vector stored in a ResultCache and the
/// exact inverse. Layout: [levels_evaluated, levels_total, residual_bound,
/// node_0, score_0, ..., node_{m-1}, score_{m-1}] — node ids are exact in
/// a double. Exposed for tests.
void EncodeTopKResult(const TopKResult& result, std::vector<double>* out);
bool DecodeTopKResult(const std::vector<double>& encoded, TopKResult* out);

/// Former names of the one serving engine, kept for the benchmark harness
/// (perfbench/traced.cc), which is compiled against them.
class QueryEngine;
struct QueryEngineOptions;
using TopKEngine = QueryEngine;
using TopKEngineOptions = QueryEngineOptions;

}  // namespace srs
