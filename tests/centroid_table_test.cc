// CentroidTable's sweep against the per-centroid references: for every
// centroid, the distance the table computes must equal
// ErrorAdjustedDistance (Eq. 5) or SquaredEuclidean bit for bit, and the
// nearest centroid must be the one the strict-`<` first-index loop picks.
// Registered once per forced SIMD level (UDM_SIMD=scalar|avx2|avx512), so
// each level is checked against the same scalar oracle.
#include "microcluster/centroid_table.h"

#include <bit>
#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/math_util.h"
#include "common/random.h"
#include "microcluster/distance.h"

namespace udm {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Row-major centroids plus the table built from them.
struct Fixture {
  size_t num_dims;
  std::vector<std::vector<double>> centroids;

  CentroidTable Table(size_t capacity_hint) const {
    CentroidTable table(num_dims, capacity_hint);
    for (const auto& c : centroids) table.Append(c);
    return table;
  }
};

Fixture RandomFixture(size_t q, size_t d, Rng& rng) {
  Fixture f{d, {}};
  for (size_t c = 0; c < q; ++c) {
    std::vector<double> centroid(d);
    for (double& v : centroid) v = rng.Gaussian(0.0, 1.0);
    f.centroids.push_back(std::move(centroid));
  }
  return f;
}

double Reference(AssignmentDistance distance, std::span<const double> point,
                 std::span<const double> psi, std::span<const double> c) {
  return distance == AssignmentDistance::kErrorAdjusted
             ? ErrorAdjustedDistance(point, psi, c)
             : SquaredEuclidean(point, c);
}

bool SameBits(double a, double b) {
  return (std::isnan(a) && std::isnan(b)) ||
         std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

/// Checks every distance and the argmin of one query against the
/// per-centroid loop.
void ExpectMatchesReference(CentroidTable& table, const Fixture& f,
                            std::span<const double> point,
                            std::span<const double> psi) {
  for (const AssignmentDistance distance :
       {AssignmentDistance::kErrorAdjusted, AssignmentDistance::kEuclidean}) {
    const std::span<const double> got = table.Distances(distance, point, psi);
    ASSERT_EQ(got.size(), f.centroids.size());
    size_t best = 0;
    double best_dist = kInf;
    for (size_t c = 0; c < f.centroids.size(); ++c) {
      const double want = Reference(distance, point, psi, f.centroids[c]);
      EXPECT_TRUE(SameBits(got[c], want))
          << "centroid " << c << " of " << f.centroids.size() << ", d="
          << f.num_dims << ": sweep " << got[c] << " vs reference " << want;
      if (want < best_dist) {
        best_dist = want;
        best = c;
      }
    }
    const CentroidTable::Match match = table.Nearest(distance, point, psi);
    EXPECT_EQ(match.index, best);
    EXPECT_TRUE(SameBits(match.distance, best_dist));
  }
}

TEST(CentroidTableTest, ReportsLevel) {
  RecordProperty("simd", SimdLevelName(ProcessSimdLevel()));
}

TEST(CentroidTableTest, MatchesReferenceAcrossShapesAndErrorScales) {
  Rng rng(17);
  for (const size_t q : {1, 7, 8, 9, 140}) {
    for (const size_t d : {1, 10, 34}) {
      const Fixture f = RandomFixture(q, d, rng);
      CentroidTable table = f.Table(q);
      for (int trial = 0; trial < 20; ++trial) {
        std::vector<double> point(d);
        for (double& v : point) v = rng.Gaussian(0.0, 1.0);
        const std::vector<double> zero(d, 0.0);
        const std::vector<double> huge(d, 1e3);
        // ψ the size of the displacement: the perturbation regime, where
        // δ² − ψ² changes sign from centroid to centroid.
        std::vector<double> matched(d);
        for (double& v : matched) v = std::abs(rng.Gaussian(0.0, 1.2));
        // ψ equal to the displacement from one centroid: δ² − ψ² is
        // exactly 0 there.
        const std::vector<double>& anchor = f.centroids[trial % q];
        std::vector<double> equal(d);
        for (size_t j = 0; j < d; ++j) equal[j] = std::abs(point[j] - anchor[j]);
        for (const std::vector<double>& psi : {zero, huge, matched, equal}) {
          ExpectMatchesReference(table, f, point, psi);
        }
      }
    }
  }
}

TEST(CentroidTableTest, DuplicateCentroidsKeepTheFirstIndex) {
  Rng rng(5);
  Fixture f = RandomFixture(3, 10, rng);
  // Copies of centroid 1 at 5 and 12; a query at that centroid ties all
  // three at distance 0.
  for (size_t c = 3; c < 20; ++c) {
    f.centroids.push_back(c == 5 || c == 12 ? f.centroids[1]
                                            : RandomFixture(1, 10, rng)
                                                  .centroids[0]);
  }
  CentroidTable table = f.Table(20);
  const std::vector<double> psi(10, 0.3);
  for (const AssignmentDistance distance :
       {AssignmentDistance::kErrorAdjusted, AssignmentDistance::kEuclidean}) {
    const CentroidTable::Match match =
        table.Nearest(distance, f.centroids[1], psi);
    EXPECT_EQ(match.index, 1u);
    EXPECT_EQ(match.distance, 0.0);
  }
  ExpectMatchesReference(table, f, f.centroids[12], psi);
}

TEST(CentroidTableTest, NonFiniteCoordinatesMatchTheReference) {
  Rng rng(11);
  for (const size_t q : {1, 9, 140}) {
    const size_t d = 10;
    Fixture f = RandomFixture(q, d, rng);
    // Poison some centroids: NaN, +inf and −inf in different dimensions.
    for (size_t c = 0; c < q; c += 3) {
      f.centroids[c][c % d] = c % 2 == 0 ? kNaN : (c % 4 == 1 ? kInf : -kInf);
    }
    CentroidTable table = f.Table(q);
    const std::vector<double> psi(d, 0.5);
    std::vector<double> point(d);
    for (double& v : point) v = rng.Gaussian(0.0, 1.0);
    ExpectMatchesReference(table, f, point, psi);
    for (const double bad : {kNaN, kInf, -kInf}) {
      std::vector<double> poisoned = point;
      poisoned[3] = bad;
      ExpectMatchesReference(table, f, poisoned, psi);
      // Every coordinate non-finite: no distance compares below +inf
      // (Euclidean: all NaN or +inf), so the argmin stays at index 0.
      const std::vector<double> all_bad(d, bad);
      ExpectMatchesReference(table, f, all_bad, psi);
      const CentroidTable::Match match =
          table.Nearest(AssignmentDistance::kEuclidean, all_bad, psi);
      if (std::isnan(bad)) {
        EXPECT_EQ(match.index, 0u);
        EXPECT_EQ(match.distance, kInf);
      }
    }
  }
}

TEST(CentroidTableTest, GrowthAndSwapEraseKeepTheColumns) {
  Rng rng(23);
  const size_t d = 34;
  Fixture f = RandomFixture(140, d, rng);
  // A hint of 1 forces several re-layouts on the way to 140 centroids.
  CentroidTable table = f.Table(1);
  ASSERT_EQ(table.size(), 140u);
  EXPECT_GE(table.stride(), 140u);
  EXPECT_EQ(table.stride() % 8, 0u);
  for (size_t c = 0; c < 140; c += 13) {
    for (size_t j = 0; j < d; ++j) EXPECT_EQ(table.At(c, j), f.centroids[c][j]);
  }
  std::vector<double> point(d);
  std::vector<double> psi(d);
  for (size_t j = 0; j < d; ++j) {
    point[j] = rng.Gaussian(0.0, 1.0);
    psi[j] = std::abs(rng.Gaussian(0.0, 1.2));
  }
  ExpectMatchesReference(table, f, point, psi);

  // Swap-erase mirrors the row-major swap-erase.
  for (const size_t victim : {size_t{7}, size_t{0}, size_t{136}}) {
    table.SwapErase(victim);
    f.centroids[victim] = f.centroids.back();
    f.centroids.pop_back();
    ExpectMatchesReference(table, f, point, psi);
  }
  // Erasing the last centroid just drops it.
  table.SwapErase(table.size() - 1);
  f.centroids.pop_back();
  ExpectMatchesReference(table, f, point, psi);

  table.Clear();
  EXPECT_EQ(table.size(), 0u);
  EXPECT_TRUE(table.Distances(AssignmentDistance::kEuclidean, point, {})
                  .empty());
}

TEST(CentroidTableTest, SetCentroidOfWritesCf1OverCount) {
  MicroCluster cluster(2);
  cluster.AddPoint(std::vector<double>{1.0, 2.0}, std::vector<double>{0, 0});
  cluster.AddPoint(std::vector<double>{0.1, 4.0}, std::vector<double>{0, 0});
  cluster.AddPoint(std::vector<double>{0.2, 5.0}, std::vector<double>{0, 0});
  CentroidTable table(2, 4);
  table.Append(cluster.CentroidVector());
  table.Append(std::vector<double>{9.0, 9.0});
  for (size_t j = 0; j < 2; ++j) EXPECT_EQ(table.At(0, j), cluster.Centroid(j));
  MicroCluster other(2);
  other.AddPoint(std::vector<double>{3.0, 7.0}, std::vector<double>{0, 0});
  table.SetCentroidOf(1, other);
  EXPECT_EQ(table.At(1, 0), 3.0);
  EXPECT_EQ(table.At(1, 1), 7.0);
  EXPECT_EQ(table.At(0, 1), cluster.Centroid(1));
}

}  // namespace
}  // namespace udm
