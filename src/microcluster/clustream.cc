#include "microcluster/clustream.h"

#include <algorithm>
#include <limits>

namespace udm {

Result<CluStreamMaintainer> CluStreamMaintainer::Create(
    size_t num_dims, const Options& options) {
  if (num_dims == 0) {
    return Status::InvalidArgument("CluStreamMaintainer: num_dims == 0");
  }
  if (options.num_clusters < 2) {
    return Status::InvalidArgument(
        "CluStreamMaintainer: need at least two clusters (merging needs a "
        "pair)");
  }
  if (options.boundary_factor <= 0.0) {
    return Status::InvalidArgument(
        "CluStreamMaintainer: boundary_factor must be positive");
  }
  return CluStreamMaintainer(num_dims, options);
}

std::span<const double> CluStreamMaintainer::DistancesFrom(size_t c) {
  for (size_t j = 0; j < num_dims_; ++j) own_[j] = centroids_.At(c, j);
  return centroids_.Distances(AssignmentDistance::kEuclidean, own_, {});
}

double CluStreamMaintainer::MaxBoundary2(size_t c) {
  const MicroCluster& cluster = clusters_[c];
  if (cluster.Count() >= 2) {
    // RMS deviation of the cluster's member *values* (CluStream's
    // definition). The error mass EF2 is deliberately excluded: including
    // it would widen boundaries with the noise level until no point ever
    // fails the fit test and the policy degenerates.
    double mean_var = 0.0;
    for (size_t j = 0; j < num_dims_; ++j) mean_var += cluster.VarianceAt(j);
    mean_var /= static_cast<double>(num_dims_);
    const double boundary =
        options_.boundary_factor * options_.boundary_factor * mean_var;
    if (boundary > 0.0) return boundary;
  }
  // Singleton (or degenerate) cluster: distance to the nearest other
  // centroid, per CluStream's heuristic.
  double nearest = std::numeric_limits<double>::infinity();
  const std::span<const double> dist = DistancesFrom(c);
  for (size_t other = 0; other < dist.size(); ++other) {
    if (other != c) nearest = std::min(nearest, dist[other]);
  }
  return nearest;
}

void CluStreamMaintainer::MergeClosestPair() {
  size_t best_a = 0;
  size_t best_b = 1;
  double best_dist = std::numeric_limits<double>::infinity();
  for (size_t a = 0; a < clusters_.size(); ++a) {
    const std::span<const double> dist = DistancesFrom(a);
    for (size_t b = a + 1; b < dist.size(); ++b) {
      if (dist[b] < best_dist) {
        best_dist = dist[b];
        best_a = a;
        best_b = b;
      }
    }
  }
  clusters_[best_a].Merge(clusters_[best_b]);
  centroids_.SetCentroidOf(best_a, clusters_[best_a]);
  // Swap-erase the absorbed cluster and its centroid column entries.
  const size_t last = clusters_.size() - 1;
  if (best_b != last) clusters_[best_b] = std::move(clusters_[last]);
  clusters_.pop_back();
  centroids_.SwapErase(best_b);
  ++num_merges_;
}

void CluStreamMaintainer::Found(std::span<const double> values,
                                std::span<const double> psi) {
  MicroCluster cluster(num_dims_);
  cluster.AddPoint(values, psi);
  clusters_.push_back(std::move(cluster));
  centroids_.Append(values);
  ++num_creations_;
}

size_t CluStreamMaintainer::Add(std::span<const double> values,
                                std::span<const double> psi) {
  UDM_CHECK(values.size() == num_dims_) << "Add: value size";
  UDM_CHECK(psi.size() == num_dims_) << "Add: psi size";
  ++num_points_;

  if (clusters_.size() < 2) {
    Found(values, psi);
    return clusters_.size() - 1;
  }

  const auto [nearest, nearest_dist] =
      centroids_.Nearest(options_.distance, values, psi);
  if (nearest_dist <= MaxBoundary2(nearest)) {
    clusters_[nearest].AddPoint(values, psi);
    centroids_.SetCentroidOf(nearest, clusters_[nearest]);
    return nearest;
  }

  // The point does not naturally fit: found a new cluster, restoring the
  // budget by merging the closest existing pair first.
  if (clusters_.size() >= options_.num_clusters) MergeClosestPair();
  Found(values, psi);
  return clusters_.size() - 1;
}

Status CluStreamMaintainer::AddDataset(const Dataset& data,
                                       const ErrorModel& errors) {
  if (data.NumDims() != num_dims_) {
    return Status::InvalidArgument("AddDataset: dimension mismatch");
  }
  if (errors.NumRows() != data.NumRows() ||
      errors.NumDims() != data.NumDims()) {
    return Status::InvalidArgument("AddDataset: error model shape mismatch");
  }
  for (size_t i = 0; i < data.NumRows(); ++i) {
    Add(data.Row(i), errors.RowPsi(i));
  }
  return Status::OK();
}

}  // namespace udm
