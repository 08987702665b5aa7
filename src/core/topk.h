#pragma once

/// \file topk.h
/// \brief Top-k machinery: bounded collector and per-level residual bounds.
///
/// The dominant user-facing workload for link-based similarity is "give me
/// the k most similar nodes", yet every full-row serving path pays for all
/// n scores at full series accuracy before ranking them. The two pieces
/// here let QueryEngine::BatchTopK (engine/query_engine.h) answer top-k
/// queries by *stopping the level recurrence early*:
///
///  * `TopKCollector` — a bounded max-heap of (node, score) candidates in
///    the library-wide RankedBefore order (higher score first, ties by
///    ascending node id) with an O(1) threshold accessor: the score a
///    candidate must beat to enter the current top-k.
///  * `BinomialResidualTails` / `RwrResidualTails` — for each level L, an
///    upper bound on the total contribution every level > L can still add
///    to *any* entry of the score vector. Once the k-th partial score is
///    separated from every unexplored candidate by more than this tail,
///    the remaining levels cannot change the top-k set or its order, and
///    iteration stops.
///
/// Why the tails are valid bounds: all level vectors are non-negative, so
/// partial scores only grow as levels accumulate, and every D_{l,α} =
/// Q^α (Qᵀ)^{l−α} e_q satisfies ‖D_{l,α}‖∞ ≤ 1 — Qᵀ contracts the ℓ1 norm
/// (its column sums are Q's row sums, ≤ 1 for a row-normalized matrix), Q
/// contracts the ∞ norm (sub-stochastic rows), and ‖·‖∞ ≤ ‖·‖1 bridges the
/// two starting from ‖e_q‖1 = 1. The transition matrices' max row sums can
/// only tighten this cap, never loosen it, so the tail of level L is at
/// most Σ_{l>L} w_l · min(1, amplification_l). The same argument applies
/// verbatim to the sparse frontier backend's pruned vectors (pruning only
/// removes non-negative mass), which is what makes BatchTopK's
/// termination test exact *relative to its backend's own full-row scores*
/// at any prune epsilon — and therefore exact in the absolute sense at
/// prune_epsilon = 0, where the backend reproduces the dense reference bit
/// for bit.

#include <cstdint>
#include <vector>

#include "srs/eval/ranking.h"
#include "srs/graph/graph.h"

namespace srs {

/// \brief Bounded max-heap of ranking candidates with a threshold accessor.
///
/// Holds at most k candidates under RankedBefore; Offer() is O(1) for a
/// candidate that cannot enter (one comparison against threshold()) and
/// O(log k) otherwise. Reset() reuses the heap's capacity, so a collector
/// kept in per-worker scratch allocates nothing at steady state.
class TopKCollector {
 public:
  /// Empties the collector and sets its capacity to `k` (> 0).
  void Reset(size_t k);

  /// Offers one candidate; keeps it only if it ranks before the current
  /// worst retained candidate (or the collector is not yet full).
  void Offer(NodeId node, double score);

  /// Candidates currently held (≤ capacity).
  size_t size() const { return heap_.size(); }

  /// True once `size() == k`.
  bool full() const { return heap_.size() == k_; }

  /// The score a new candidate must *beat* (under RankedBefore, i.e. beat
  /// on score or tie it with a smaller node id) to displace the current
  /// worst retained candidate. Meaningful only when full(); the worst
  /// retained candidate itself is exposed for tie handling via worst().
  double threshold() const { return heap_.front().score; }

  /// The worst retained candidate (heap top). Requires size() > 0.
  const RankedNode& worst() const { return heap_.front(); }

  /// Moves the collected candidates into `*out` sorted best-first
  /// (RankedBefore). The collector is left empty with capacity intact;
  /// `out`'s capacity is reused.
  void ExtractSorted(std::vector<RankedNode>* out);

 private:
  size_t k_ = 0;
  // Max-heap under RankedBefore: front() = worst retained candidate.
  std::vector<RankedNode> heap_;
};

/// Residual tails of the binomial column series Σ_l w_l Σ_α binom(l,α)/2^l
/// D_{l,α}: tails[L] bounds the ∞-norm of everything levels L+1..k_max can
/// still add, tails[k_max] == 0. Per-level amplitude is capped at
/// min(1, ((gamma_q + gamma_qt)/2)^l) where `gamma_q` / `gamma_qt` are the
/// max abs row sums of Q and Qᵀ (matrix/ops.h) — the 1 comes from the
/// ℓ1/ℓ∞ contraction argument in the file comment.
std::vector<double> BinomialResidualTails(
    const std::vector<double>& length_weights, double gamma_q,
    double gamma_qt);

/// Residual tails of the truncated RWR series (1−C)·Σ_k C^k (Wᵀ)^k e_q for
/// k_max + 1 levels: tails[L] = Σ_{k>L} (1−C)·C^k·min(1, gamma_wt^k),
/// tails[k_max] == 0.
std::vector<double> RwrResidualTails(double damping, int k_max,
                                     double gamma_wt);

}  // namespace srs
