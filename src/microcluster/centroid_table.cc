// Built with -ffp-contract=off (src/microcluster/CMakeLists.txt): every
// lane must round after each of sub, mul, mul, sub, max, add exactly as
// ErrorAdjustedDistance does, and GCC's default for C++ would fuse the
// vector δ·δ − ψ² into an FMA where the target has one.
#include "microcluster/centroid_table.h"

#include <algorithm>

#include "common/logging.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define UDM_CENTROID_X86 1
#include <immintrin.h>
#if defined(__GNUC__) && !defined(__clang__)
// _mm512_max_pd inlines GCC's deliberately uninitialized
// _mm512_undefined_pd(), which trips -Wmaybe-uninitialized (GCC PR
// 105593); nothing here reads uninitialized data.
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
#else
#define UDM_CENTROID_X86 0
#endif

namespace udm {
namespace {

/// Columns are padded to whole AVX-512 vectors, so every level sweeps
/// full vectors and needs no tail; the padding lanes are never read back.
constexpr size_t kLaneBlock = 8;
/// A large budget over a short stream should not allocate the whole
/// budget up front; past this the table grows by doubling.
constexpr size_t kMaxInitialCapacity = 4096;

size_t RoundUpToBlock(size_t n) {
  return (std::max<size_t>(n, 1) + kLaneBlock - 1) / kLaneBlock * kLaneBlock;
}

// Eq. 5's max(0, t) is written max(t, 0), zero second: maxsd/maxpd return
// their second operand when either is NaN and when both are zero, so it is
// +0 for NaN and for −0, as std::max(0.0, t) is. GCC compiles std::max or
// a ternary on a double to a compare and a data-dependent jump, which
// mispredicts about half the time when δ² and ψ² are the same size.

/// The scalar level: one dimension at a time over the accumulator row,
/// acc[c] = Σ_j term_j(c), j ascending from +0 — the reference's order.
template <bool kErrorAdjusted>
void SweepScalar(const double* point, const double* psi, const double* columns,
                 size_t num_dims, size_t stride, size_t lanes, double* acc) {
  std::fill(acc, acc + lanes, 0.0);
  for (size_t j = 0; j < num_dims; ++j) {
    const double x = point[j];
    const double psi2 = kErrorAdjusted ? psi[j] * psi[j] : 0.0;
    const double* col = columns + j * stride;
    for (size_t c = 0; c < lanes; ++c) {
      const double diff = x - col[c];
      double t = diff * diff;
      if constexpr (kErrorAdjusted) {
#if UDM_CENTROID_X86
        t = _mm_cvtsd_f64(_mm_max_sd(_mm_set_sd(t - psi2), _mm_setzero_pd()));
#else
        t = std::max(0.0, t - psi2);
#endif
      }
      acc[c] += t;
    }
  }
}

#if UDM_CENTROID_X86

// The vector levels keep a block of kVectors vectors of sums in registers
// and run the dimensions inside; each lane still adds its terms in
// ascending j, so a lane's sum does not depend on the width.

template <bool kErrorAdjusted, size_t kVectors>
__attribute__((target("avx2"))) inline void BlockAvx2(
    const double* point, const double* psi, const double* columns,
    size_t num_dims, size_t stride, double* acc) {
  __m256d sum[kVectors];
  for (size_t u = 0; u < kVectors; ++u) sum[u] = _mm256_setzero_pd();
  const __m256d zero = _mm256_setzero_pd();
  for (size_t j = 0; j < num_dims; ++j) {
    const __m256d x = _mm256_set1_pd(point[j]);
    const __m256d psi2 =
        kErrorAdjusted ? _mm256_set1_pd(psi[j] * psi[j]) : zero;
    const double* col = columns + j * stride;
    for (size_t u = 0; u < kVectors; ++u) {
      const __m256d diff = _mm256_sub_pd(x, _mm256_load_pd(col + 4 * u));
      __m256d t = _mm256_mul_pd(diff, diff);
      if constexpr (kErrorAdjusted) {
        t = _mm256_max_pd(_mm256_sub_pd(t, psi2), zero);
      }
      sum[u] = _mm256_add_pd(sum[u], t);
    }
  }
  for (size_t u = 0; u < kVectors; ++u) _mm256_store_pd(acc + 4 * u, sum[u]);
}

template <bool kErrorAdjusted>
__attribute__((target("avx2"))) void SweepAvx2(
    const double* point, const double* psi, const double* columns,
    size_t num_dims, size_t stride, size_t lanes, double* acc) {
  size_t c = 0;
  for (; c + 16 <= lanes; c += 16) {
    BlockAvx2<kErrorAdjusted, 4>(point, psi, columns + c, num_dims, stride,
                                 acc + c);
  }
  for (; c < lanes; c += 4) {
    BlockAvx2<kErrorAdjusted, 1>(point, psi, columns + c, num_dims, stride,
                                 acc + c);
  }
}

template <bool kErrorAdjusted, size_t kVectors>
__attribute__((target("avx512f"))) inline void BlockAvx512(
    const double* point, const double* psi, const double* columns,
    size_t num_dims, size_t stride, double* acc) {
  __m512d sum[kVectors];
  for (size_t u = 0; u < kVectors; ++u) sum[u] = _mm512_setzero_pd();
  const __m512d zero = _mm512_setzero_pd();
  for (size_t j = 0; j < num_dims; ++j) {
    const __m512d x = _mm512_set1_pd(point[j]);
    const __m512d psi2 =
        kErrorAdjusted ? _mm512_set1_pd(psi[j] * psi[j]) : zero;
    const double* col = columns + j * stride;
    for (size_t u = 0; u < kVectors; ++u) {
      const __m512d diff = _mm512_sub_pd(x, _mm512_load_pd(col + 8 * u));
      __m512d t = _mm512_mul_pd(diff, diff);
      if constexpr (kErrorAdjusted) {
        t = _mm512_max_pd(_mm512_sub_pd(t, psi2), zero);
      }
      sum[u] = _mm512_add_pd(sum[u], t);
    }
  }
  for (size_t u = 0; u < kVectors; ++u) _mm512_store_pd(acc + 8 * u, sum[u]);
}

template <bool kErrorAdjusted>
__attribute__((target("avx512f"))) void SweepAvx512(
    const double* point, const double* psi, const double* columns,
    size_t num_dims, size_t stride, size_t lanes, double* acc) {
  size_t c = 0;
  for (; c + 32 <= lanes; c += 32) {
    BlockAvx512<kErrorAdjusted, 4>(point, psi, columns + c, num_dims, stride,
                                   acc + c);
  }
  for (; c < lanes; c += 8) {
    BlockAvx512<kErrorAdjusted, 1>(point, psi, columns + c, num_dims, stride,
                                   acc + c);
  }
}

#endif  // UDM_CENTROID_X86

template <bool kErrorAdjusted>
void Sweep(SimdLevel level, const double* point, const double* psi,
           const double* columns, size_t num_dims, size_t stride, size_t lanes,
           double* acc) {
#if UDM_CENTROID_X86
  if (level == SimdLevel::kAvx512) {
    SweepAvx512<kErrorAdjusted>(point, psi, columns, num_dims, stride, lanes,
                                acc);
    return;
  }
  if (level == SimdLevel::kAvx2) {
    SweepAvx2<kErrorAdjusted>(point, psi, columns, num_dims, stride, lanes,
                              acc);
    return;
  }
#endif
  (void)level;
  SweepScalar<kErrorAdjusted>(point, psi, columns, num_dims, stride, lanes,
                              acc);
}

}  // namespace

CentroidTable::CentroidTable(size_t num_dims, size_t capacity_hint)
    : num_dims_(num_dims),
      stride_(RoundUpToBlock(std::min(capacity_hint, kMaxInitialCapacity))),
      level_(ProcessSimdLevel()),
      columns_(num_dims * stride_, 0.0),
      acc_(stride_, 0.0) {}

void CentroidTable::Grow() {
  const size_t stride = 2 * stride_;
  AlignedVector<double> columns(num_dims_ * stride, 0.0);
  for (size_t j = 0; j < num_dims_; ++j) {
    std::copy_n(columns_.data() + j * stride_, size_,
                columns.data() + j * stride);
  }
  columns_ = std::move(columns);
  acc_.assign(stride, 0.0);
  stride_ = stride;
}

void CentroidTable::Append(std::span<const double> centroid) {
  UDM_DCHECK(centroid.size() == num_dims_) << "CentroidTable: dims";
  if (size_ == stride_) Grow();
  for (size_t j = 0; j < num_dims_; ++j) {
    columns_[j * stride_ + size_] = centroid[j];
  }
  ++size_;
}

void CentroidTable::SetCentroidOf(size_t c, const MicroCluster& cluster) {
  UDM_DCHECK(c < size_ && cluster.NumDims() == num_dims_);
  const double n = static_cast<double>(cluster.Count());
  for (size_t j = 0; j < num_dims_; ++j) {
    columns_[j * stride_ + c] = cluster.cf1()[j] / n;
  }
}

void CentroidTable::SwapErase(size_t c) {
  UDM_DCHECK(c < size_);
  const size_t last = size_ - 1;
  if (c != last) {
    for (size_t j = 0; j < num_dims_; ++j) {
      columns_[j * stride_ + c] = columns_[j * stride_ + last];
    }
  }
  size_ = last;
}

std::span<const double> CentroidTable::Distances(
    AssignmentDistance distance, std::span<const double> point,
    std::span<const double> psi) {
  UDM_DCHECK(point.size() == num_dims_) << "CentroidTable: point dims";
  const size_t lanes = RoundUpToBlock(size_);
  if (distance == AssignmentDistance::kErrorAdjusted) {
    UDM_DCHECK(psi.size() == num_dims_) << "CentroidTable: psi dims";
    Sweep<true>(level_, point.data(), psi.data(), columns_.data(), num_dims_,
                stride_, lanes, acc_.data());
  } else {
    Sweep<false>(level_, point.data(), nullptr, columns_.data(), num_dims_,
                 stride_, lanes, acc_.data());
  }
  return {acc_.data(), size_};
}

CentroidTable::Match CentroidTable::Nearest(AssignmentDistance distance,
                                            std::span<const double> point,
                                            std::span<const double> psi) {
  UDM_DCHECK(size_ > 0) << "CentroidTable::Nearest on an empty table";
  const std::span<const double> dist = Distances(distance, point, psi);
  Match best;
  for (size_t c = 0; c < dist.size(); ++c) {
    if (dist[c] < best.distance) best = {c, dist[c]};
  }
  return best;
}

}  // namespace udm
