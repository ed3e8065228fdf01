#ifndef UDM_MICROCLUSTER_MC_DENSITY_H_
#define UDM_MICROCLUSTER_MC_DENSITY_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/exec_context.h"
#include "common/result.h"
#include "common/scratch.h"
#include "kde/eval.h"
#include "kde/kernel.h"
#include "kde/kernel_table.h"
#include "kde/spatial_index.h"
#include "microcluster/microcluster.h"

namespace udm {

/// Scalable error-based density estimation from a micro-cluster summary
/// (paper §2.1, Eqs. 9-10): each cluster acts as one pseudo-point at its
/// centroid c(C) with error width Δ_j(C) (Lemma 1), weighted by its
/// population,
///
///   f_Q(x) = (1/N) · Σ_C n(C) · Π_j Q'_{h_j}(x_j − c_j(C), Δ_j(C)).
///
/// Evaluation is O(m·|S|) per query for m clusters — independent of the
/// data size N, which is the paper's scalability argument — and for large
/// summaries the same cell-pruned spatial index as the exact estimators
/// applies over the centroids (the per-cell max-variance bound absorbs
/// each cluster's Δ spread, and the per-cell max log-weight seeds the
/// bound, so radius-wide clusters cannot be pruned optimistically).
/// Bandwidths are Silverman over the *underlying data's* statistics,
/// recovered from the additive CF tuples, so no second pass over the data
/// is needed.
class McDensityModel {
 public:
  /// Builds the model from a summary. `clusters` must be non-empty with at
  /// least one member point overall; empty clusters are skipped. Shared
  /// tuning knobs come from DensityEvalOptions (kde/eval.h).
  static Result<McDensityModel> Build(std::span<const MicroCluster> clusters,
                                      const DensityEvalOptions& options = {});

  /// Density at `x` over all dimensions (Eq. 10).
  double Evaluate(std::span<const double> x) const;

  /// Density at `x` over the subspace `dims` — the g(x, S, D) primitive the
  /// classifier computes per candidate subspace (§3).
  double EvaluateSubspace(std::span<const double> x,
                          std::span<const size_t> dims) const;

  /// log of EvaluateSubspace via log-sum-exp (stable in high dimensions).
  double LogEvaluateSubspace(std::span<const double> x,
                             std::span<const size_t> dims) const;

  /// LogEvaluateSubspace over a block of equal-size candidate subspaces —
  /// the classifier roll-up's entry (DESIGN.md §4l). `dims` holds
  /// out.size() rows of `len` sorted dimensions; out[j] is bit-identical
  /// to LogEvaluateSubspace(x, row j), and the kde.* counters move by the
  /// same totals. Rows are scored subspace_lanes() at a time in SIMD
  /// lanes; a lone row, and every row of an indexed model, takes the
  /// per-candidate path instead.
  void LogEvaluateSubspaces(std::span<const double> x,
                            std::span<const size_t> dims, size_t len,
                            std::span<double> out) const;

  /// Rows LogEvaluateSubspaces scores per SIMD block (1 at the scalar
  /// level or with a spatial index: every row on the per-candidate path).
  size_t subspace_lanes() const {
    return index_.has_value() ? 1 : simd_->subspace_lanes;
  }

  /// Batch evaluation behind the unified EvalRequest API (kde/eval.h):
  /// densities — or log-densities with request.log_space — for every
  /// query point, optionally parallel and under an ExecContext.
  /// request.index selects the spatial-index policy; every mode returns
  /// bit-identical densities at any thread count.
  Result<EvalResult> Evaluate(const EvalRequest& request) const;

  /// Number of pseudo-points m (non-empty clusters).
  size_t num_clusters() const { return weights_.size(); }

  /// Total underlying data count N = Σ n(C).
  uint64_t total_count() const { return total_count_; }

  size_t num_dims() const { return num_dims_; }

  /// Per-dimension Silverman bandwidths recovered from the summary.
  const std::vector<double>& bandwidths() const { return bandwidths_; }

  /// Pseudo-point centroids, row-major num_clusters() x num_dims(). The
  /// model's mass concentrates at these points — useful as probe locations
  /// for drift scoring and diagnostics. When a spatial index was built the
  /// clusters are stored in its cell-contiguous order (centroids() and
  /// weights() stay pairwise aligned, but not in Build input order).
  std::span<const double> centroids() const { return centroids_; }

  /// Per-cluster weights n(C)/N, aligned with centroids().
  std::span<const double> weights() const { return weights_; }

  /// Whether Build built a spatial index (IndexMode::kForce succeeds).
  bool has_index() const { return index_.has_value(); }
  /// Occupied index cells (0 without an index) — serving observability.
  size_t index_cells() const {
    return index_.has_value() ? index_->num_cells() : 0;
  }

 private:
  /// Context-aware implementations (check + charge, then the O(m·|S|)
  /// column-major table sweep — cell-pruned when `index` is non-null)
  /// shared by every public entry point. `counters`, when non-null,
  /// accumulates pruning/cell work accounting.
  Result<double> SubspaceDensity(std::span<const double> x,
                                 std::span<const size_t> dims,
                                 ExecContext& ctx, ScratchArena& scratch,
                                 const kde_internal::SpatialIndex* index,
                                 kde_internal::IndexedEvalCounters* counters)
      const;
  Result<double> SubspaceLogDensity(
      std::span<const double> x, std::span<const size_t> dims,
      ExecContext& ctx, ScratchArena& scratch,
      const kde_internal::SpatialIndex* index,
      kde_internal::IndexedEvalCounters* counters) const;

  /// The shared sweep core over table positions [first, first+len):
  /// fills `terms[0..len)` with `seed[first+i] + Σ_dims log Q'` (seed =
  /// nullptr seeds 0 — the linear path; log_weights_ — the log path),
  /// routed through the model's SIMD dispatch.
  void SweepLogTerms(std::span<const double> x, std::span<const size_t> dims,
                     const double* seed, size_t first, size_t len,
                     double* terms) const;

  /// Dense (non-indexed) evaluation of a tile of `count` queries against
  /// shared table panels (see ErrorKernelDensity::EvalTileDense); the
  /// weighted sum needs no ÷N — weights are already normalized.
  Status EvalTileDense(std::span<const double> points, size_t count,
                       std::span<const size_t> dims, bool log_space,
                       ExecContext& ctx, ScratchArena& scratch, double* out,
                       kde_internal::IndexedEvalCounters* counters) const;

  McDensityModel(std::vector<double> centroids,
                 kde_internal::ErrorKernelTable table,
                 std::vector<double> weights, uint64_t total_count,
                 size_t num_dims, std::vector<double> bandwidths,
                 const DensityEvalOptions& options);

  std::vector<double> centroids_;  // row-major m x d (public accessor)
  /// Column-major precompute over (centroid, Δ) pseudo-points (§4f).
  kde_internal::ErrorKernelTable table_;
  std::vector<double> weights_;      // n(C)/N per cluster
  std::vector<double> log_weights_;  // log(n(C)/N), precomputed
  uint64_t total_count_;
  size_t num_dims_;
  std::vector<size_t> all_dims_;  // cached identity subspace (0..d-1)
  std::vector<double> bandwidths_;
  KernelNormalization normalization_;
  double log_prune_threshold_;
  /// Kernel dispatch resolved from DensityEvalOptions::simd at build time.
  const kde_internal::SimdDispatch* simd_;
  /// Cell-pruned spatial index over the (re-packed) pseudo-points, seeded
  /// with per-cell max log-weights; absent below
  /// DensityIndexOptions::min_points or when disabled.
  std::optional<kde_internal::SpatialIndex> index_;
};

}  // namespace udm

#endif  // UDM_MICROCLUSTER_MC_DENSITY_H_
