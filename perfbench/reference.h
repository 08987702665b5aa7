#pragma once

// Independent reference for geometric SimRank* (gsr-star). It shares no
// code with the library under test: it keeps its own copy of the edge set
// and evaluates the paper's truncated series
//
//   S_K = (1 - C) * sum_{l=0..K} (C/2)^l * sum_a binom(l, a) Q^a (Q^T)^(l-a)
//
// one column at a time, where Q is the row-normalized in-link matrix
// (Q[i][j] = 1/|I(i)| for j in I(i)). SelfCheck() pins the column routine
// against K rounds of S = (C/2)(QS + SQ^T) + (1 - C)I on a tiny graph.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfref {

class Graph {
 public:
  // Directed edges u -> v over nodes [0, n).
  Graph(int64_t n, const std::vector<std::pair<int32_t, int32_t>>& edges);

  int64_t n() const { return n_; }

  // One column (= row, S is symmetric) of S_K for `source`.
  std::vector<double> GsrStarColumn(int32_t source, double damping,
                                    int iterations) const;

 private:
  void MultiplyQ(const std::vector<double>& x, std::vector<double>* y) const;
  void MultiplyQt(const std::vector<double>& x, std::vector<double>* y) const;

  int64_t n_;
  std::vector<int64_t> in_ptr_, out_ptr_;
  std::vector<int32_t> in_idx_, out_idx_;
  std::vector<double> inv_indeg_;
};

struct Ranked {
  int32_t node;
  double score;
};

// The k best nodes of `column` other than `source`, best first, ties by
// ascending id.
std::vector<Ranked> TopK(const std::vector<double>& column, int32_t source,
                         int k);

// Empty when the column routine agrees with the dense recurrence on a
// fixed tiny graph; otherwise a description of the first mismatch.
std::string SelfCheck();

}  // namespace perfref
