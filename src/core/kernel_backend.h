#pragma once

/// \file kernel_backend.h
/// \brief Pluggable single-source kernel backends.
///
/// The serving engine evaluates every query through one of two
/// interchangeable implementations of the level-vector recurrences:
///
///  * **dense** (`MakeDenseKernelBackend`) — the reference path, a thin
///    wrapper over the allocation-free kernels in single_source_kernel.h.
///    Bit-identical to the sequential single-source entry points.
///  * **sparse** (`MakeSparseFrontierBackend`) — frontier propagation: each
///    level vector is kept as a sorted (index, value) frontier
///    (matrix/sparse_vector.h), products are computed by scattering only
///    the CSR rows incident to the frontier, and entries with |value| <=
///    prune_epsilon are sieved out after every product (the paper's §4.3
///    threshold sieve applied *during* propagation). A frontier that grows
///    past a fraction of n switches that vector to a dense representation
///    — push/pull hybrid in the style of direction-optimizing BFS — so the
///    backend never does more work per product than the dense path.
///
/// Accuracy contract: at prune_epsilon = 0 the sparse backend emits
/// *bitwise* the dense backend's scores (asserted by
/// tests/kernel_backend_test.cpp); at prune_epsilon > 0 it deviates in
/// ∞-norm by at most the analytic bounds below, which propagate one
/// epsilon of clipping per product through the series weights.
///
/// Both backends consume matrices as `CsrOverlay`s (matrix/csr_overlay.h):
/// a static snapshot is an overlay with no patches (zero-cost veneer over
/// the CSR), while a versioned snapshot carries per-row patches the
/// kernels gather/scatter straight through — the dynamic-graph serving
/// path of graph/versioned_graph.h never materializes a patched matrix.
///
/// Workspaces are backend-owned: the engine asks its backend for one opaque
/// KernelWorkspace per worker thread and passes it back on every call.
/// Buffers are sized by the first query and reused, so the steady state
/// allocates nothing regardless of backend.
///
/// Both kernels are exposed in two forms: one-shot (the full column in one
/// call) and stepwise via Begin*Column / PartialColumnEvaluation, which
/// adds one level per AdvanceLevel() so QueryEngine::BatchTopK
/// (engine/query_engine.h) can stop as soon as its residual bounds
/// (core/topk.h) prove the top-k. The one-shot forms are implemented as a
/// fully drained cursor, so the two can never diverge.

#include <memory>
#include <vector>

#include "srs/core/options.h"
#include "srs/graph/graph.h"
#include "srs/matrix/csr_overlay.h"

namespace srs {

/// \brief Opaque per-worker scratch created by KernelBackend::NewWorkspace
/// and only ever handed back to the backend that made it.
struct KernelWorkspace {
  virtual ~KernelWorkspace() = default;
};

/// \brief Stepwise (level-at-a-time) view of one in-progress column
/// evaluation — the partial-evaluation hook behind bound-based top-k early
/// termination (core/topk.h, engine/topk_engine.h).
///
/// Obtained from KernelBackend::BeginBinomialColumn / BeginRwrColumn. The
/// object lives inside the KernelWorkspace the evaluation was begun on and
/// stays valid until the next Begin call on that workspace; nothing is
/// allocated per query. After Begin, the output vector holds level 0's
/// contribution; each AdvanceLevel() adds exactly one more level, and the
/// partial sums after any level are honest prefixes of the full result:
/// draining the cursor reproduces the backend's one-shot evaluation bit
/// for bit (the base-class one-shot entry points are *implemented* as a
/// drained cursor, so the two can never diverge).
class PartialColumnEvaluation {
 public:
  virtual ~PartialColumnEvaluation() = default;

  /// Index of the last level whose contribution is in the output vector
  /// (0 right after Begin).
  virtual int Level() const = 0;

  /// Final level of the series; the evaluation is complete when
  /// Level() == MaxLevel().
  virtual int MaxLevel() const = 0;

  /// Accumulates level Level()+1 into the output vector; returns false
  /// (and does nothing) once the series is exhausted.
  virtual bool AdvanceLevel() = 0;
};

/// \brief One implementation of the single-source recurrences.
///
/// Implementations are immutable and thread-safe: all mutable state lives
/// in the per-worker KernelWorkspace.
class KernelBackend {
 public:
  virtual ~KernelBackend() = default;

  /// Stable human-readable name ("dense", "sparse").
  virtual const char* Name() const = 0;

  /// Fresh scratch for one worker; sized lazily by the first query.
  virtual std::unique_ptr<KernelWorkspace> NewWorkspace() const = 0;

  /// Begins a stepwise evaluation of Σ_l w_l Σ_α binom(l,α)/2^l ·
  /// Q^α (Qᵀ)^{l−α} e_q: seeds level 0 into `*out` (resized to q.rows()
  /// and overwritten) and returns a cursor owned by `workspace` (valid
  /// until the next Begin on it; `out` must stay alive as long as the
  /// cursor is advanced). `q` is the backward transition matrix, `qt` its
  /// transpose; `length_weights[l]` includes any normalizing constants.
  /// The caller validates `query`.
  virtual PartialColumnEvaluation* BeginBinomialColumn(
      const CsrOverlay& q, const CsrOverlay& qt, NodeId query,
      const std::vector<double>& length_weights, KernelWorkspace* workspace,
      std::vector<double>* out) const = 0;

  /// Begins a stepwise evaluation of the truncated RWR series
  /// (1−C)·Σ_{k≤k_max} C^k (Wᵀ)^k e_q. `wt` is the transposed forward
  /// transition and `w` its transpose (the forward transition itself) —
  /// the scatter source for sparse backends; dense backends ignore it.
  virtual PartialColumnEvaluation* BeginRwrColumn(
      const CsrOverlay& wt, const CsrOverlay& w, NodeId query, double damping,
      int k_max, KernelWorkspace* workspace,
      std::vector<double>* out) const = 0;

  /// One-shot: accumulates the full binomial column into `*out` by
  /// draining BeginBinomialColumn's cursor — bitwise identical to stepping
  /// it by hand.
  void AccumulateBinomialColumn(const CsrOverlay& q, const CsrOverlay& qt,
                                NodeId query,
                                const std::vector<double>& length_weights,
                                KernelWorkspace* workspace,
                                std::vector<double>* out) const {
    PartialColumnEvaluation* eval =
        BeginBinomialColumn(q, qt, query, length_weights, workspace, out);
    while (eval->AdvanceLevel()) {
    }
  }

  /// One-shot: accumulates the full RWR column by draining BeginRwrColumn's
  /// cursor.
  void RwrColumn(const CsrOverlay& wt, const CsrOverlay& w, NodeId query,
                 double damping, int k_max, KernelWorkspace* workspace,
                 std::vector<double>* out) const {
    PartialColumnEvaluation* eval =
        BeginRwrColumn(wt, w, query, damping, k_max, workspace, out);
    while (eval->AdvanceLevel()) {
    }
  }
};

/// The dense reference backend.
std::shared_ptr<const KernelBackend> MakeDenseKernelBackend();

/// The sparse frontier-propagation backend with the given prune epsilon
/// (>= 0; 0 reproduces dense bit for bit).
std::shared_ptr<const KernelBackend> MakeSparseFrontierBackend(
    double prune_epsilon);

/// The backend selected by `options.backend` / `options.prune_epsilon`.
std::shared_ptr<const KernelBackend> MakeKernelBackend(
    const SimilarityOptions& options);

/// Analytic ∞-norm bound on |sparse − dense| for the binomial column
/// kernel: one product clips at most `prune_epsilon` per entry, errors
/// amplify by at most `gamma_q` = ‖Q‖∞ per Q product and `gamma_qt` =
/// ‖Qᵀ‖∞ per Qᵀ product (MaxAbsRowSum of the respective matrix), and the
/// per-level errors enter the output through the series weights. Exact
/// floating-point rounding is not covered — callers add a tiny slack.
double BinomialPruneErrorBound(const std::vector<double>& length_weights,
                               double gamma_q, double gamma_qt,
                               double prune_epsilon);

/// Analytic ∞-norm bound on |sparse − dense| for the truncated RWR series
/// with `gamma_wt` = ‖Wᵀ‖∞.
double RwrPruneErrorBound(double damping, int k_max, double gamma_wt,
                          double prune_epsilon);

}  // namespace srs
