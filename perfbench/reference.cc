#include "reference.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfref {

Graph::Graph(int64_t n, const std::vector<std::pair<int32_t, int32_t>>& edges)
    : n_(n),
      in_ptr_(static_cast<size_t>(n) + 1, 0),
      out_ptr_(static_cast<size_t>(n) + 1, 0),
      in_idx_(edges.size()),
      out_idx_(edges.size()),
      inv_indeg_(static_cast<size_t>(n), 0.0) {
  for (const auto& [u, v] : edges) {
    ++in_ptr_[static_cast<size_t>(v) + 1];
    ++out_ptr_[static_cast<size_t>(u) + 1];
  }
  for (size_t i = 0; i < static_cast<size_t>(n); ++i) {
    in_ptr_[i + 1] += in_ptr_[i];
    out_ptr_[i + 1] += out_ptr_[i];
  }
  std::vector<int64_t> in_fill(in_ptr_.begin(), in_ptr_.end() - 1);
  std::vector<int64_t> out_fill(out_ptr_.begin(), out_ptr_.end() - 1);
  for (const auto& [u, v] : edges) {
    in_idx_[static_cast<size_t>(in_fill[static_cast<size_t>(v)]++)] = u;
    out_idx_[static_cast<size_t>(out_fill[static_cast<size_t>(u)]++)] = v;
  }
  for (size_t i = 0; i < static_cast<size_t>(n); ++i) {
    const int64_t deg = in_ptr_[i + 1] - in_ptr_[i];
    if (deg > 0) inv_indeg_[i] = 1.0 / static_cast<double>(deg);
  }
}

// (Qx)[i] = (1/|I(i)|) * sum_{j in I(i)} x[j]
void Graph::MultiplyQ(const std::vector<double>& x,
                      std::vector<double>* y) const {
  for (size_t i = 0; i < static_cast<size_t>(n_); ++i) {
    double sum = 0.0;
    for (int64_t e = in_ptr_[i]; e < in_ptr_[i + 1]; ++e) {
      sum += x[static_cast<size_t>(in_idx_[static_cast<size_t>(e)])];
    }
    (*y)[i] = sum * inv_indeg_[i];
  }
}

// (Q^T x)[j] = sum_{i in O(j)} x[i] / |I(i)|
void Graph::MultiplyQt(const std::vector<double>& x,
                       std::vector<double>* y) const {
  for (size_t j = 0; j < static_cast<size_t>(n_); ++j) {
    double sum = 0.0;
    for (int64_t e = out_ptr_[j]; e < out_ptr_[j + 1]; ++e) {
      const size_t i = static_cast<size_t>(out_idx_[static_cast<size_t>(e)]);
      sum += x[i] * inv_indeg_[i];
    }
    (*y)[j] = sum;
  }
}

std::vector<double> Graph::GsrStarColumn(int32_t source, double damping,
                                         int iterations) const {
  const size_t n = static_cast<size_t>(n_);
  const int k = iterations;
  // u[m] = (Q^T)^m e_source
  std::vector<std::vector<double>> u(static_cast<size_t>(k) + 1,
                                     std::vector<double>(n, 0.0));
  u[0][static_cast<size_t>(source)] = 1.0;
  for (int m = 1; m <= k; ++m) {
    MultiplyQt(u[static_cast<size_t>(m) - 1], &u[static_cast<size_t>(m)]);
  }
  // w[a] = sum_{l=a..K} c_l binom(l, a) u[l-a], c_l = (1-C)(C/2)^l, then
  // Horner in Q: x = w[K]; x = Q x + w[a] for a = K-1 .. 0.
  auto coeff = [&](int l, int a) {
    double binom = 1.0;
    for (int i = 1; i <= a; ++i) binom = binom * (l - a + i) / i;
    return (1.0 - damping) * std::pow(damping / 2.0, l) * binom;
  };
  std::vector<double> x(n, 0.0), tmp(n, 0.0);
  for (int a = k; a >= 0; --a) {
    if (a < k) {
      MultiplyQ(x, &tmp);
      x.swap(tmp);
    }
    for (int l = a; l <= k; ++l) {
      const double c = coeff(l, a);
      const std::vector<double>& ul = u[static_cast<size_t>(l - a)];
      for (size_t i = 0; i < n; ++i) x[i] += c * ul[i];
    }
  }
  return x;
}

std::vector<Ranked> TopK(const std::vector<double>& column, int32_t source,
                         int k) {
  std::vector<Ranked> all;
  all.reserve(column.size());
  for (size_t i = 0; i < column.size(); ++i) {
    if (static_cast<int32_t>(i) != source) {
      all.push_back({static_cast<int32_t>(i), column[i]});
    }
  }
  const size_t keep = std::min(all.size(), static_cast<size_t>(k));
  std::partial_sort(all.begin(), all.begin() + static_cast<long>(keep),
                    all.end(), [](const Ranked& a, const Ranked& b) {
                      return a.score != b.score ? a.score > b.score
                                                : a.node < b.node;
                    });
  all.resize(keep);
  return all;
}

std::string SelfCheck() {
  // A 7-node digraph with a source-only node (0), a sink, a 2-cycle and
  // shared in-neighbours: every branch of Q / Q^T is exercised.
  const int64_t n = 7;
  const std::vector<std::pair<int32_t, int32_t>> edges = {
      {0, 1}, {0, 2}, {1, 3}, {2, 3}, {2, 4}, {3, 5},
      {4, 5}, {5, 4}, {1, 6}, {4, 6}, {0, 4}};
  const double c = 0.6;
  const int k = 5;
  Graph g(n, edges);

  // Dense Q, then K rounds of S = (C/2)(QS + SQ^T) + (1-C)I from
  // S_0 = (1-C)I.
  std::vector<std::vector<double>> q(n, std::vector<double>(n, 0.0));
  std::vector<int> indeg(n, 0);
  for (const auto& e : edges) ++indeg[static_cast<size_t>(e.second)];
  for (const auto& [u, v] : edges) {
    q[static_cast<size_t>(v)][static_cast<size_t>(u)] = 1.0 / indeg[v];
  }
  std::vector<std::vector<double>> s(n, std::vector<double>(n, 0.0));
  for (int64_t i = 0; i < n; ++i) s[i][i] = 1.0 - c;
  for (int round = 0; round < k; ++round) {
    std::vector<std::vector<double>> next(n, std::vector<double>(n, 0.0));
    for (int64_t i = 0; i < n; ++i) {
      for (int64_t j = 0; j < n; ++j) {
        double qs = 0.0, sqt = 0.0;
        for (int64_t m = 0; m < n; ++m) {
          qs += q[i][m] * s[m][j];
          sqt += s[i][m] * q[j][m];
        }
        next[i][j] = c / 2.0 * (qs + sqt) + (i == j ? 1.0 - c : 0.0);
      }
    }
    s.swap(next);
  }
  for (int32_t src = 0; src < n; ++src) {
    const std::vector<double> col = g.GsrStarColumn(src, c, k);
    for (int64_t i = 0; i < n; ++i) {
      if (std::fabs(col[static_cast<size_t>(i)] - s[i][src]) > 1e-12) {
        char msg[160];
        std::snprintf(msg, sizeof(msg),
                      "reference self-check: S[%lld][%d] series %.17g vs "
                      "recurrence %.17g",
                      static_cast<long long>(i), src,
                      col[static_cast<size_t>(i)], s[i][src]);
        return msg;
      }
    }
  }
  return "";
}

}  // namespace perfref
