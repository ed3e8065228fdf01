#include "microcluster/clusterer.h"

#include "obs/metrics.h"

namespace udm {

Result<MicroClusterer> MicroClusterer::Create(size_t num_dims,
                                              const Options& options) {
  if (num_dims == 0) {
    return Status::InvalidArgument("MicroClusterer: num_dims == 0");
  }
  if (options.num_clusters == 0) {
    return Status::InvalidArgument("MicroClusterer: num_clusters == 0");
  }
  return MicroClusterer(num_dims, options);
}

Result<MicroClusterer> MicroClusterer::FromClusters(
    size_t num_dims, const Options& options,
    std::vector<MicroCluster> clusters) {
  UDM_ASSIGN_OR_RETURN(MicroClusterer out, Create(num_dims, options));
  if (clusters.size() > options.num_clusters) {
    return Status::InvalidArgument(
        "MicroClusterer::FromClusters: " + std::to_string(clusters.size()) +
        " clusters exceed the budget of " +
        std::to_string(options.num_clusters));
  }
  for (size_t c = 0; c < clusters.size(); ++c) {
    const MicroCluster& cluster = clusters[c];
    if (cluster.NumDims() != num_dims) {
      return Status::InvalidArgument(
          "MicroClusterer::FromClusters: cluster " + std::to_string(c) +
          " has " + std::to_string(cluster.NumDims()) + " dims, expected " +
          std::to_string(num_dims));
    }
    if (cluster.IsEmpty()) {
      return Status::InvalidArgument(
          "MicroClusterer::FromClusters: cluster " + std::to_string(c) +
          " is empty");
    }
    out.centroids_.Append(cluster.CentroidVector());
    out.num_points_ += cluster.Count();
  }
  out.clusters_ = std::move(clusters);
  return out;
}

size_t MicroClusterer::Add(std::span<const double> values,
                           std::span<const double> psi) {
  UDM_CHECK(values.size() == num_dims_) << "Add: value size";
  UDM_CHECK(psi.size() == num_dims_) << "Add: psi size";
  ++num_points_;
  if (clusters_.size() < options_.num_clusters) {
    // Seeding phase: the first q points found their own clusters ("these q
    // centroids are chosen randomly" — a stream prefix is a random sample
    // in arrival order; no point is ever rejected).
    MicroCluster cluster(num_dims_);
    cluster.AddPoint(values, psi);
    clusters_.push_back(std::move(cluster));
    centroids_.Append(values);
    return clusters_.size() - 1;
  }
  centroid_dims_scored_ += clusters_.size() * num_dims_;
  const size_t c = centroids_.Nearest(options_.distance, values, psi).index;
  clusters_[c].AddPoint(values, psi);
  centroids_.SetCentroidOf(c, clusters_[c]);
  return c;
}

Status MicroClusterer::AddDataset(const Dataset& data,
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

std::vector<MicroCluster> MicroClusterer::TakeClusters() {
  std::vector<MicroCluster> out = std::move(clusters_);
  clusters_.clear();
  centroids_.Clear();
  num_points_ = 0;
  centroid_dims_scored_ = 0;
  return out;
}

Result<std::vector<MicroCluster>> BuildMicroClusters(
    const Dataset& data, const ErrorModel& errors,
    const MicroClusterer::Options& options) {
  UDM_ASSIGN_OR_RETURN(MicroClusterer clusterer,
                       MicroClusterer::Create(data.NumDims(), options));
  UDM_RETURN_IF_ERROR(clusterer.AddDataset(data, errors));
  static obs::Counter& centroid_dims =
      obs::MetricsRegistry::Global().GetCounter(
          "microcluster.assign.centroid_dims");
  centroid_dims.Increment(clusterer.centroid_dims_scored());
  return clusterer.TakeClusters();
}

}  // namespace udm
