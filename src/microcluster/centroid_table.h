#ifndef UDM_MICROCLUSTER_CENTROID_TABLE_H_
#define UDM_MICROCLUSTER_CENTROID_TABLE_H_

#include <cstddef>
#include <limits>
#include <span>

#include "common/simd.h"
#include "microcluster/distance.h"
#include "microcluster/microcluster.h"

namespace udm {

/// The micro-cluster centroids in column-major form, and the one
/// nearest-centroid kernel every maintainer uses (DESIGN.md §4m).
///
/// Column j holds coordinate j of every live centroid, `stride()` doubles
/// apart, so scoring a record against all centroids is one dims-outer
/// sweep, acc[c] += max(0, (x_j − c_jc)² − ψ_j²) (Eq. 5) or
/// acc[c] += (x_j − c_jc)² (kEuclidean), that runs the centroids in SIMD
/// lanes with no data-dependent branch. Every lane performs the same
/// unfused operations in the same dimension order as ErrorAdjustedDistance
/// and SquaredEuclidean, so each distance, and hence each assignment, is
/// bit-identical to the per-centroid reference at every SIMD level. The
/// level is ProcessSimdLevel()'s, read once at construction.
///
/// The stride is the capacity, rounded up to a whole AVX-512 vector; a
/// table that outgrows it re-lays its columns out at twice the size.
class CentroidTable {
 public:
  /// An empty table over `num_dims` dimensions with room for
  /// `capacity_hint` centroids before its first re-layout.
  CentroidTable(size_t num_dims, size_t capacity_hint);

  size_t size() const { return size_; }
  size_t stride() const { return stride_; }

  /// Coordinate `dim` of centroid `c`.
  double At(size_t c, size_t dim) const {
    return columns_[dim * stride_ + c];
  }

  /// Appends a centroid given by its coordinates.
  void Append(std::span<const double> centroid);

  /// Overwrites centroid `c` with `cluster`'s CF1/n.
  void SetCentroidOf(size_t c, const MicroCluster& cluster);

  /// Removes centroid `c` by moving the last centroid into its place
  /// (the column form of a swap-erase).
  void SwapErase(size_t c);

  void Clear() { size_ = 0; }

  /// The distance from `point` (with error vector `psi`; ignored, and may
  /// be empty, for kEuclidean) to every live centroid, in centroid order.
  /// The view is valid until the next call on this table.
  std::span<const double> Distances(AssignmentDistance distance,
                                    std::span<const double> point,
                                    std::span<const double> psi);

  /// The nearest centroid: the first index of the smallest distance under
  /// a strict `<` scan from +inf, as the per-centroid loop took it. When
  /// no distance compares below +inf (all NaN or +inf) it is index 0 with
  /// distance +inf. Requires size() >= 1.
  struct Match {
    size_t index = 0;
    double distance = std::numeric_limits<double>::infinity();
  };
  Match Nearest(AssignmentDistance distance, std::span<const double> point,
                std::span<const double> psi);

 private:
  void Grow();

  size_t num_dims_;
  size_t stride_;
  size_t size_ = 0;
  SimdLevel level_;
  AlignedVector<double> columns_;  // num_dims_ × stride_
  AlignedVector<double> acc_;      // stride_ distances
};

}  // namespace udm

#endif  // UDM_MICROCLUSTER_CENTROID_TABLE_H_
