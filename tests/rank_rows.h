#pragma once

// The full-row-then-rank reference of the engine tests: full rows from
// QueryEngine::BatchScores, each ranked top-k (query excluded) with the
// serving paths' bounded heap, TopKInto (eval/ranking.h).

#include <vector>

#include "srs/common/result.h"
#include "srs/engine/query_engine.h"
#include "srs/eval/ranking.h"

namespace srs {

inline Result<std::vector<std::vector<RankedNode>>> RankRows(
    QueryEngine& engine, QueryMeasure measure,
    const std::vector<NodeId>& queries, size_t k) {
  SRS_ASSIGN_OR_RETURN(std::vector<std::vector<double>> rows,
                       engine.BatchScores(measure, queries));
  std::vector<std::vector<RankedNode>> rankings(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    TopKInto(rows[i], k, queries[i], &rankings[i]);
  }
  return rankings;
}

}  // namespace srs
