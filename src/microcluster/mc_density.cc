#include "microcluster/mc_density.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>

#include "common/math_util.h"
#include "common/simd.h"
#include "kde/bandwidth.h"
#include "kde/batch_eval.h"
#include "kde/eval_obs.h"
#include "kde/kernel.h"
#include "kde/simd_sweep.h"

namespace udm {

using kde_internal::CellsPrunedCounter;
using kde_internal::CellsVisitedCounter;
using kde_internal::CountEvalTrip;
using kde_internal::ErrorKernelTable;
using kde_internal::ExpSumState;
using kde_internal::Gather;
using kde_internal::GatherRows;
using kde_internal::GetSimdDispatch;
using kde_internal::IndexedEvalCounters;
using kde_internal::IndexedPrunedSum;
using kde_internal::kEvalChunk;
using kde_internal::KernelEvalCounter;
using kde_internal::PrunedTermsCounter;
using kde_internal::ResolveIndexMode;
using kde_internal::ShouldBuildIndex;
using kde_internal::SpatialIndex;

namespace {

void CountIndexedCells(const IndexedEvalCounters& local,
                       IndexedEvalCounters* out) {
  if (local.cells_visited != 0) {
    CellsVisitedCounter().Increment(local.cells_visited);
  }
  if (local.cells_pruned != 0) {
    CellsPrunedCounter().Increment(local.cells_pruned);
  }
  if (out != nullptr) {
    out->cells_visited += local.cells_visited;
    out->cells_pruned += local.cells_pruned;
    out->pruned_terms += local.pruned_terms;
  }
}

}  // namespace

McDensityModel::McDensityModel(std::vector<double> centroids,
                               ErrorKernelTable table,
                               std::vector<double> weights,
                               uint64_t total_count, size_t num_dims,
                               std::vector<double> bandwidths,
                               const DensityEvalOptions& options)
    : centroids_(std::move(centroids)),
      table_(std::move(table)),
      weights_(std::move(weights)),
      log_weights_(weights_.size()),
      total_count_(total_count),
      num_dims_(num_dims),
      all_dims_(num_dims),
      bandwidths_(std::move(bandwidths)),
      normalization_(options.normalization),
      log_prune_threshold_(options.log_prune_threshold),
      simd_(&GetSimdDispatch(EffectiveSimdLevel(options.simd))) {
  for (size_t c = 0; c < weights_.size(); ++c) {
    log_weights_[c] = std::log(weights_[c]);
  }
  for (size_t j = 0; j < num_dims_; ++j) all_dims_[j] = j;
  if (ShouldBuildIndex(options.index, weights_.size())) {
    // The log-weight seed makes the cell bound cover the weighted term
    // n(C)/N · Q'(...), so a heavy cluster can never be pruned by a bound
    // that only saw its geometry.
    index_ = SpatialIndex::Build(table_.values, weights_.size(), num_dims_,
                                 table_.neg_inv_two_var, table_.log_norm,
                                 bandwidths_, log_weights_, options.index);
    // Re-pack every per-cluster array into the index's cell-contiguous
    // order so all paths (and the public accessors) agree on one order.
    const std::span<const size_t> perm = index_->permutation();
    table_.Permute(perm);
    centroids_ = GatherRows(centroids_, weights_.size(), num_dims_, perm);
    weights_ = Gather(weights_, perm);
    log_weights_ = Gather(log_weights_, perm);
  }
}

Result<McDensityModel> McDensityModel::Build(
    std::span<const MicroCluster> clusters,
    const DensityEvalOptions& options) {
  if (clusters.empty()) {
    return Status::InvalidArgument("McDensityModel::Build: no clusters");
  }
  if (options.bandwidth_scale <= 0.0 || options.min_bandwidth <= 0.0) {
    return Status::InvalidArgument(
        "McDensityModel::Build: bandwidth knobs must be positive");
  }
  if (std::isnan(options.log_prune_threshold) ||
      options.log_prune_threshold <= 0.0) {
    return Status::InvalidArgument(
        "McDensityModel::Build: log_prune_threshold must be positive");
  }
  const size_t d = clusters[0].NumDims();
  const AggregatedStats agg = AggregateStats(clusters);
  if (agg.total_count == 0) {
    return Status::InvalidArgument(
        "McDensityModel::Build: summary holds no points");
  }

  std::vector<double> centroids;
  std::vector<double> deltas;
  std::vector<double> weights;
  for (const MicroCluster& c : clusters) {
    if (c.IsEmpty()) continue;
    if (c.NumDims() != d) {
      return Status::InvalidArgument(
          "McDensityModel::Build: cluster dimension mismatch");
    }
    for (size_t j = 0; j < d; ++j) {
      centroids.push_back(c.Centroid(j));
      deltas.push_back(c.DeltaAt(j));
    }
    weights.push_back(static_cast<double>(c.Count()) /
                      static_cast<double>(agg.total_count));
  }

  std::vector<DimensionStats> bandwidth_stats = agg.dims;
  if (options.deconvolve_bandwidth) {
    // The additive EF2 sums recover the mean error mass per dimension.
    for (size_t j = 0; j < d; ++j) {
      double ef2_sum = 0.0;
      for (const MicroCluster& c : clusters) ef2_sum += c.ef2()[j];
      const double mean_psi2 =
          ef2_sum / static_cast<double>(agg.total_count);
      const double corrected =
          std::max(bandwidth_stats[j].variance - mean_psi2,
                   0.01 * bandwidth_stats[j].variance);
      bandwidth_stats[j].variance = corrected;
      bandwidth_stats[j].stddev = std::sqrt(corrected);
    }
  }
  std::vector<double> bandwidths = ComputeBandwidthsFromStats(
      bandwidth_stats, agg.total_count, options.bandwidth_rule,
      options.bandwidth_scale, options.min_bandwidth);

  ErrorKernelTable table =
      ErrorKernelTable::Build(centroids, deltas, weights.size(), d, bandwidths,
                              options.normalization);
  return McDensityModel(std::move(centroids), std::move(table),
                        std::move(weights), agg.total_count, d,
                        std::move(bandwidths), options);
}

void McDensityModel::SweepLogTerms(std::span<const double> x,
                                   std::span<const size_t> dims,
                                   const double* seed, size_t first,
                                   size_t len, double* terms) const {
  if (seed != nullptr) {
    std::copy_n(seed + first, len, terms);
  } else {
    std::fill_n(terms, len, 0.0);
  }
  for (size_t dim : dims) {
    UDM_DCHECK(dim < num_dims_);
    simd_->sweep(x[dim], table_.ValuesCol(dim) + first,
                 table_.NegInvTwoVarCol(dim) + first,
                 table_.LogNormCol(dim) + first, terms, len);
  }
}

double McDensityModel::Evaluate(std::span<const double> x) const {
  UDM_CHECK(x.size() == num_dims_) << "Evaluate: dimension mismatch";
  return EvaluateSubspace(x, all_dims_);
}

double McDensityModel::EvaluateSubspace(std::span<const double> x,
                                        std::span<const size_t> dims) const {
  UDM_CHECK(x.size() == num_dims_) << "EvaluateSubspace: point dimension";
  ExecContext unbounded;
  Result<double> result =
      SubspaceDensity(x, dims, unbounded, ScratchArena::ThreadLocal(),
                      index_.has_value() ? &*index_ : nullptr, nullptr);
  UDM_CHECK(result.ok()) << result.status().ToString();
  return result.value();
}

double McDensityModel::LogEvaluateSubspace(std::span<const double> x,
                                           std::span<const size_t> dims) const {
  UDM_CHECK(x.size() == num_dims_) << "LogEvaluateSubspace: point dimension";
  ExecContext unbounded;
  Result<double> result = SubspaceLogDensity(
      x, dims, unbounded, ScratchArena::ThreadLocal(),
      index_.has_value() ? &*index_ : nullptr, nullptr);
  UDM_CHECK(result.ok()) << result.status().ToString();
  return result.value();
}

Result<EvalResult> McDensityModel::Evaluate(const EvalRequest& request) const {
  UDM_ASSIGN_OR_RETURN(
      const SpatialIndex* index,
      ResolveIndexMode(index_, request.index, "McDensityModel"));
  const bool log_space = request.log_space;
  std::atomic<uint64_t> pruned_total{0};
  std::atomic<uint64_t> cells_visited_total{0};
  std::atomic<uint64_t> cells_pruned_total{0};
  const auto count_tile = [&](const IndexedEvalCounters& counters) {
    if (counters.pruned_terms != 0) {
      pruned_total.fetch_add(counters.pruned_terms,
                             std::memory_order_relaxed);
    }
    if (counters.cells_visited != 0) {
      cells_visited_total.fetch_add(counters.cells_visited,
                                    std::memory_order_relaxed);
    }
    if (counters.cells_pruned != 0) {
      cells_pruned_total.fetch_add(counters.cells_pruned,
                                   std::memory_order_relaxed);
    }
  };
  // The indexed path prunes per query, so it cannot share panels; the
  // dense path tiles queries against each cache-resident table panel.
  // Large kAuto batches probe whether the index actually prunes and fall
  // back to the dense tiled path (bit-identical) when it does not.
  const size_t dense_tile = kde_internal::QueryTileSize(weights_.size());
  index = kde_internal::ResolveBatchIndex(
      index, request, num_dims_, dense_tile, all_dims_,
      [&](std::span<const double> x, std::span<const size_t> dims,
          IndexedEvalCounters& counters) {
        ExecContext unbounded;
        (void)(log_space
                   ? SubspaceLogDensity(x, dims, unbounded,
                                        ScratchArena::ThreadLocal(), index,
                                        &counters)
                   : SubspaceDensity(x, dims, unbounded,
                                     ScratchArena::ThreadLocal(), index,
                                     &counters));
      });
  const size_t tile = index != nullptr ? 1 : dense_tile;
  Result<EvalResult> result = kde_internal::BatchEvaluateTiles(
      request, num_dims_, weights_.size(), tile, "mc_density.eval_batch",
      [this, log_space, index, &count_tile](
          std::span<const double> points, size_t count,
          std::span<const size_t> dims, ExecContext& ctx,
          ScratchArena& scratch, double* out) -> Status {
        IndexedEvalCounters counters;
        if (index == nullptr) {
          const Status status = EvalTileDense(points, count, dims, log_space,
                                              ctx, scratch, out, &counters);
          count_tile(counters);
          return status;
        }
        for (size_t q = 0; q < count; ++q) {
          const std::span<const double> x =
              points.subspan(q * num_dims_, num_dims_);
          const Result<double> density =
              log_space
                  ? SubspaceLogDensity(x, dims, ctx, scratch, index,
                                       &counters)
                  : SubspaceDensity(x, dims, ctx, scratch, index, &counters);
          if (!density.ok()) {
            count_tile(counters);
            return density.status();
          }
          out[q] = density.value();
        }
        count_tile(counters);
        return Status::OK();
      });
  if (result.ok()) {
    result.value().stats.pruned_terms =
        pruned_total.load(std::memory_order_relaxed);
    result.value().stats.cells_visited =
        cells_visited_total.load(std::memory_order_relaxed);
    result.value().stats.cells_pruned =
        cells_pruned_total.load(std::memory_order_relaxed);
    result.value().stats.simd = simd_->level;
  }
  return result;
}

Status McDensityModel::EvalTileDense(std::span<const double> points,
                                     size_t count,
                                     std::span<const size_t> dims,
                                     bool log_space, ExecContext& ctx,
                                     ScratchArena& scratch, double* out,
                                     IndexedEvalCounters* counters) const {
  UDM_RETURN_IF_ERROR(ctx.Check());
  const size_t m = weights_.size();
  std::span<double> log_terms =
      scratch.Doubles(ScratchArena::kLogTerms, count * m);
  double max_term[kde_internal::kMaxQueryTile];
  std::fill_n(max_term, count, -std::numeric_limits<double>::infinity());
  // Panel loop: chunk-outer, query-inner — every query in the tile sweeps
  // the same kEvalChunk panel of the three column streams while it is
  // cache-resident. Per-query arithmetic (seeded sweep, max scan,
  // exp-and-sum) matches the per-point path element for element.
  for (size_t start = 0; start < m; start += kEvalChunk) {
    const size_t end = std::min(start + kEvalChunk, m);
    const size_t len = end - start;
    Status charge = ctx.ChargeKernelEvals(len * dims.size() * count);
    if (!charge.ok()) return CountEvalTrip(std::move(charge));
    KernelEvalCounter().Increment(len * dims.size() * count);
    for (size_t q = 0; q < count; ++q) {
      double* terms = log_terms.data() + q * m + start;
      SweepLogTerms(points.subspan(q * num_dims_, num_dims_), dims,
                    log_weights_.data(), start, len, terms);
      for (size_t i = 0; i < len; ++i) {
        max_term[q] = std::max(max_term[q], terms[i]);
      }
    }
    Status check = ctx.Check();
    if (!check.ok()) return CountEvalTrip(std::move(check));
  }
  for (size_t q = 0; q < count; ++q) {
    if (!std::isfinite(max_term[q])) {
      out[q] = log_space ? -std::numeric_limits<double>::infinity() : 0.0;
      continue;
    }
    ExpSumState state;
    simd_->pruned_exp_accum(log_terms.data() + q * m, m, max_term[q],
                            log_space ? max_term[q] : 0.0,
                            log_prune_threshold_, state);
    if (state.pruned != 0) {
      PrunedTermsCounter().Increment(state.pruned);
      if (counters != nullptr) counters->pruned_terms += state.pruned;
    }
    // Weights n(C)/N are folded into the seeded terms, so the weighted
    // density needs no ÷N here.
    out[q] = log_space ? max_term[q] + std::log(state.Total())
                       : state.Total();
  }
  return Status::OK();
}

Result<double> McDensityModel::SubspaceDensity(
    std::span<const double> x, std::span<const size_t> dims, ExecContext& ctx,
    ScratchArena& scratch, const SpatialIndex* index,
    IndexedEvalCounters* counters) const {
  if (x.size() != num_dims_) {
    return Status::InvalidArgument("EvaluateSubspace: point dimension");
  }
  Status check = ctx.Check();
  if (!check.ok()) return CountEvalTrip(std::move(check));
  const size_t m = weights_.size();
  // Both linear paths fold the cluster weight into the log term
  // (exp(log w + Σ …) rather than w·exp(Σ …)) so the weighted sum shares
  // the log path's gap test — the index's cell bounds already cover the
  // seeded terms, and pruning decisions stay value-determined.
  if (index != nullptr) {
    IndexedEvalCounters local;
    Result<double> total = IndexedPrunedSum(
        *index, x, dims, log_prune_threshold_, /*log_space=*/false, *simd_,
        ctx, scratch,
        [&](size_t first, size_t len, double* terms) {
          SweepLogTerms(x, dims, log_weights_.data(), first, len, terms);
        },
        local);
    CountIndexedCells(local, counters);
    if (total.ok() && local.pruned_terms != 0) {
      PrunedTermsCounter().Increment(local.pruned_terms);
    }
    return total;
  }
  Status charge = ctx.ChargeKernelEvals(m * dims.size());
  if (!charge.ok()) return CountEvalTrip(std::move(charge));
  KernelEvalCounter().Increment(m * dims.size());
  std::span<double> terms = scratch.Doubles(ScratchArena::kLogTerms, m);
  SweepLogTerms(x, dims, log_weights_.data(), 0, m, terms.data());
  double max_term = -std::numeric_limits<double>::infinity();
  for (const double term : terms) max_term = std::max(max_term, term);
  if (!std::isfinite(max_term)) return 0.0;
  ExpSumState state;
  simd_->pruned_exp_accum(terms.data(), m, max_term, /*shift=*/0.0,
                          log_prune_threshold_, state);
  if (state.pruned != 0) {
    PrunedTermsCounter().Increment(state.pruned);
    if (counters != nullptr) counters->pruned_terms += state.pruned;
  }
  return state.Total();
}

Result<double> McDensityModel::SubspaceLogDensity(
    std::span<const double> x, std::span<const size_t> dims, ExecContext& ctx,
    ScratchArena& scratch, const SpatialIndex* index,
    IndexedEvalCounters* counters) const {
  if (x.size() != num_dims_) {
    return Status::InvalidArgument("LogEvaluateSubspace: point dimension");
  }
  Status check = ctx.Check();
  if (!check.ok()) return CountEvalTrip(std::move(check));
  const size_t m = weights_.size();
  if (index != nullptr) {
    IndexedEvalCounters local;
    Result<double> log_sum = IndexedPrunedSum(
        *index, x, dims, log_prune_threshold_, /*log_space=*/true, *simd_,
        ctx, scratch,
        [&](size_t first, size_t len, double* terms) {
          SweepLogTerms(x, dims, log_weights_.data(), first, len, terms);
        },
        local);
    CountIndexedCells(local, counters);
    if (log_sum.ok() && local.pruned_terms != 0) {
      PrunedTermsCounter().Increment(local.pruned_terms);
    }
    return log_sum;
  }
  Status charge = ctx.ChargeKernelEvals(m * dims.size());
  if (!charge.ok()) return CountEvalTrip(std::move(charge));
  KernelEvalCounter().Increment(m * dims.size());
  std::span<double> terms = scratch.Doubles(ScratchArena::kLogTerms, m);
  SweepLogTerms(x, dims, log_weights_.data(), 0, m, terms.data());
  double max_term = -std::numeric_limits<double>::infinity();
  for (const double term : terms) max_term = std::max(max_term, term);
  if (!std::isfinite(max_term)) {
    return -std::numeric_limits<double>::infinity();
  }
  ExpSumState state;
  simd_->pruned_exp_accum(terms.data(), m, max_term, /*shift=*/max_term,
                          log_prune_threshold_, state);
  if (state.pruned != 0) {
    PrunedTermsCounter().Increment(state.pruned);
    if (counters != nullptr) counters->pruned_terms += state.pruned;
  }
  return max_term + std::log(state.Total());
}

void McDensityModel::LogEvaluateSubspaces(std::span<const double> x,
                                          std::span<const size_t> dims,
                                          size_t len,
                                          std::span<double> out) const {
  UDM_CHECK(x.size() == num_dims_ && len != 0 &&
            dims.size() == out.size() * len)
      << "LogEvaluateSubspaces: shape";
  const size_t lanes = subspace_lanes();
  const size_t m = weights_.size();
  uint64_t lane_rows = 0;
  uint64_t pruned = 0;
  for (size_t begin = 0; begin < out.size();) {
    const size_t count = std::min(lanes, out.size() - begin);
    if (count == 1) {
      out[begin] = LogEvaluateSubspace(x, dims.subspan(begin * len, len));
      ++begin;
      continue;
    }
    kde_internal::SubspaceLanes block;
    block.values = table_.values.data();
    block.neg_inv_two_var = table_.neg_inv_two_var.data();
    block.log_norm = table_.log_norm.data();
    block.seed = log_weights_.data();
    block.n = m;
    block.x = x.data();
    block.dims = dims.data() + begin * len;
    block.len = len;
    block.count = count;
    block.gap = log_prune_threshold_;
    block.terms = ScratchArena::ThreadLocal()
                      .Doubles(ScratchArena::kLogTerms,
                               m * kde_internal::kMaxSubspaceLanes)
                      .data();
    pruned += simd_->log_subspace_lanes(block, out.data() + begin);
    lane_rows += count;
    begin += count;
  }
  if (lane_rows != 0) KernelEvalCounter().Increment(lane_rows * m * len);
  if (pruned != 0) PrunedTermsCounter().Increment(pruned);
}

}  // namespace udm
