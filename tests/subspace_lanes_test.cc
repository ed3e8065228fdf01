// Lane scoring of candidate subspaces (DESIGN.md §4l) against the
// per-candidate column path, bit for bit: the dispatch-level lane kernels
// against the column sweep + max + pruned exp-sum they replace, and
// McDensityModel::LogEvaluateSubspaces against LogEvaluateSubspace —
// block sizes 1..2W+1, subspace sizes 1, 2 and d, a far query whose terms
// are all −inf, a pruning-gap case, and a model with a spatial index —
// with the kde.* counters moving by the same totals.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/simd.h"
#include "dataset/uci_like.h"
#include "error/perturbation.h"
#include "kde/eval_obs.h"
#include "kde/simd_sweep.h"
#include "microcluster/clusterer.h"
#include "microcluster/mc_density.h"

namespace udm {
namespace {

using kde_internal::GetSimdDispatch;
using kde_internal::kMaxSubspaceLanes;
using kde_internal::SimdDispatch;
using kde_internal::SubspaceLanes;

std::vector<SimdLevel> RunnableLevels() {
  std::vector<SimdLevel> levels = {SimdLevel::kScalar};
  const SimdLevel best = DetectBestSimdLevel();
  if (best >= SimdLevel::kAvx2) levels.push_back(SimdLevel::kAvx2);
  if (best >= SimdLevel::kAvx512) levels.push_back(SimdLevel::kAvx512);
  return levels;
}

SimdRequest RequestFor(SimdLevel level) {
  return level == SimdLevel::kAvx512 ? SimdRequest::kAvx512
         : level == SimdLevel::kAvx2 ? SimdRequest::kAvx2
                                     : SimdRequest::kScalar;
}

void ExpectSameBits(double got, double want, const std::string& what) {
  EXPECT_EQ(std::bit_cast<uint64_t>(got), std::bit_cast<uint64_t>(want))
      << what << ": got " << got << " want " << want;
}

/// A random column-major table with per-entry constants and log-weights.
struct Table {
  Table(size_t n, size_t d, uint64_t seed)
      : n(n), d(d), values(n * d), neg_inv_two_var(n * d), log_norm(n * d),
        seed_terms(n) {
    Rng rng(seed);
    for (size_t k = 0; k < n * d; ++k) {
      values[k] = rng.Gaussian(0.0, 4.0);
      const double s = 0.05 + std::fabs(rng.Gaussian(0.4, 0.3));
      neg_inv_two_var[k] = -1.0 / (2.0 * s * s);
      log_norm[k] = -std::log(s) - 0.918938533204672742;
    }
    for (size_t i = 0; i < n; ++i) {
      seed_terms[i] = std::log(0.001 + rng.Uniform());
    }
  }

  /// The column path for one candidate at `dispatch`'s level.
  double ColumnLogDensity(const SimdDispatch& dispatch, const double* x,
                          const size_t* dims, size_t len, double gap,
                          uint64_t* pruned) const {
    std::vector<double> terms(seed_terms);
    for (size_t k = 0; k < len; ++k) {
      const size_t off = dims[k] * n;
      dispatch.sweep(x[dims[k]], values.data() + off,
                     neg_inv_two_var.data() + off, log_norm.data() + off,
                     terms.data(), n);
    }
    double max_term = -std::numeric_limits<double>::infinity();
    for (const double t : terms) max_term = std::max(max_term, t);
    if (!std::isfinite(max_term)) {
      return -std::numeric_limits<double>::infinity();
    }
    kde_internal::ExpSumState state;
    dispatch.pruned_exp_accum(terms.data(), n, max_term, max_term, gap, state);
    *pruned += state.pruned;
    return max_term + std::log(state.Total());
  }

  size_t n;
  size_t d;
  std::vector<double> values;
  std::vector<double> neg_inv_two_var;
  std::vector<double> log_norm;
  std::vector<double> seed_terms;
};

TEST(SubspaceLanesTest, LaneKernelsMatchColumnPathBitForBit) {
  constexpr size_t kDims = 6;
  Rng rng(7);
  for (const SimdLevel level : RunnableLevels()) {
    const SimdDispatch& dispatch = GetSimdDispatch(level);
    ASSERT_GE(dispatch.subspace_lanes, 1u);
    ASSERT_LE(dispatch.subspace_lanes, kMaxSubspaceLanes);
    // The scalar loop takes any count up to the widest block.
    const size_t max_count = level == SimdLevel::kScalar
                                 ? kMaxSubspaceLanes
                                 : dispatch.subspace_lanes;
    for (const size_t n : {1u, 7u, 8u, 140u, 257u}) {
      const Table table(n, kDims, 100 + n);
      std::vector<double> terms(n * kMaxSubspaceLanes);
      for (const size_t len : {size_t{1}, size_t{2}, kDims}) {
        for (size_t count = 1; count <= max_count; ++count) {
          // Query: near the data, far enough to spread terms past the
          // pruning gap, or so far every term is −inf.
          for (const double spread : {1.0, 30.0, 1e200}) {
            std::vector<double> x(kDims);
            for (double& v : x) v = spread * rng.Gaussian(0.0, 1.0);
            std::vector<size_t> dims;
            for (size_t l = 0; l < count; ++l) {
              std::vector<size_t> all(kDims);
              std::iota(all.begin(), all.end(), size_t{0});
              for (size_t k = 0; k < len; ++k) {  // random sorted subset
                std::swap(all[k], all[k + rng.UniformInt(kDims - k)]);
              }
              std::sort(all.begin(), all.begin() + len);
              dims.insert(dims.end(), all.begin(), all.begin() + len);
            }
            for (const double gap : {37.0, 4.0}) {
              SubspaceLanes block;
              block.values = table.values.data();
              block.neg_inv_two_var = table.neg_inv_two_var.data();
              block.log_norm = table.log_norm.data();
              block.seed = table.seed_terms.data();
              block.n = n;
              block.x = x.data();
              block.dims = dims.data();
              block.len = len;
              block.count = count;
              block.gap = gap;
              block.terms = terms.data();
              std::vector<double> out(count);
              const uint64_t pruned =
                  dispatch.log_subspace_lanes(block, out.data());
              uint64_t want_pruned = 0;
              for (size_t l = 0; l < count; ++l) {
                const double want = table.ColumnLogDensity(
                    dispatch, x.data(), dims.data() + l * len, len, gap,
                    &want_pruned);
                ExpectSameBits(out[l], want,
                               std::string(SimdLevelName(level)) +
                                   " n=" + std::to_string(n) +
                                   " len=" + std::to_string(len) +
                                   " count=" + std::to_string(count) +
                                   " lane=" + std::to_string(l));
                if (spread == 1e200) {
                  EXPECT_EQ(out[l], -std::numeric_limits<double>::infinity());
                }
              }
              EXPECT_EQ(pruned, want_pruned) << SimdLevelName(level);
            }
          }
        }
      }
    }
  }
}

/// Micro-cluster models over noisy ionosphere-like data (d = 34).
struct ModelFixture {
  ModelFixture()
      : noisy(Perturb(MakeIonosphereLike(1400, 5).value(), Noise()).value()) {}

  static PerturbationOptions Noise() {
    PerturbationOptions perturb;
    perturb.f = 1.2;
    return perturb;
  }

  McDensityModel Build(size_t num_clusters, SimdLevel level) const {
    MicroClusterer::Options mc;
    mc.num_clusters = num_clusters;
    const auto clusters =
        BuildMicroClusters(noisy.data, noisy.errors, mc).value();
    DensityEvalOptions options;
    options.simd = RequestFor(level);
    return McDensityModel::Build(clusters, options).value();
  }

  UncertainDataset noisy;
};

const ModelFixture& Fixture() {
  static const ModelFixture* fixture = new ModelFixture();
  return *fixture;
}

/// Every block size 1..2W+1 of `len`-dim candidates at `x`, each against
/// LogEvaluateSubspace, with the kde.* counters moving by equal totals.
/// Returns the pruned terms the blocks counted.
uint64_t CheckBlocks(const McDensityModel& model, std::span<const double> x,
                     size_t len, uint64_t seed) {
  const size_t d = model.num_dims();
  const size_t lanes = model.subspace_lanes();
  Rng rng(seed);
  uint64_t pruned_total = 0;
  for (size_t count = 1; count <= 2 * lanes + 1; ++count) {
    std::vector<size_t> dims;
    for (size_t l = 0; l < count; ++l) {
      std::vector<size_t> all(d);
      std::iota(all.begin(), all.end(), size_t{0});
      for (size_t k = 0; k < len; ++k) {
        std::swap(all[k], all[k + rng.UniformInt(d - k)]);
      }
      std::sort(all.begin(), all.begin() + len);
      dims.insert(dims.end(), all.begin(), all.begin() + len);
    }
    obs::Counter& evals = kde_internal::KernelEvalCounter();
    obs::Counter& pruned = kde_internal::PrunedTermsCounter();
    const uint64_t evals0 = evals.Value();
    const uint64_t pruned0 = pruned.Value();
    std::vector<double> want(count);
    for (size_t l = 0; l < count; ++l) {
      want[l] = model.LogEvaluateSubspace(
          x, std::span<const size_t>(dims).subspan(l * len, len));
    }
    const uint64_t evals1 = evals.Value();
    const uint64_t pruned1 = pruned.Value();
    std::vector<double> got(count);
    model.LogEvaluateSubspaces(x, dims, len, got);
    EXPECT_EQ(evals.Value() - evals1, evals1 - evals0) << "count=" << count;
    EXPECT_EQ(pruned.Value() - pruned1, pruned1 - pruned0)
        << "count=" << count;
    pruned_total += pruned1 - pruned0;
    for (size_t l = 0; l < count; ++l) {
      ExpectSameBits(got[l], want[l],
                     "len=" + std::to_string(len) + " count=" +
                         std::to_string(count) + " row=" + std::to_string(l));
    }
  }
  return pruned_total;
}

TEST(SubspaceLanesTest, ModelBlocksMatchLogEvaluateSubspace) {
  const ModelFixture& f = Fixture();
  for (const SimdLevel level : RunnableLevels()) {
    const McDensityModel model = f.Build(140, level);
    ASSERT_FALSE(model.has_index());
    EXPECT_EQ(model.subspace_lanes(), GetSimdDispatch(level).subspace_lanes);
    const size_t d = model.num_dims();
    uint64_t pruned = 0;
    for (size_t row = 0; row < 3; ++row) {
      for (const size_t len : {size_t{1}, size_t{2}, d}) {
        pruned += CheckBlocks(model, f.noisy.data.Row(row), len, 11 + row);
      }
    }
    // A far query spreads full-dimensional terms past the pruning gap.
    std::vector<double> far(f.noisy.data.Row(0).begin(),
                            f.noisy.data.Row(0).end());
    for (double& v : far) v += 25.0;
    pruned += CheckBlocks(model, far, d, 21);
    EXPECT_GT(pruned, 0u) << "no case exercised the pruning gap";
    // A query so far away that every term is −inf.
    const std::vector<double> gone(d, 1e200);
    CheckBlocks(model, gone, 2, 31);
    std::vector<double> out(3);
    const std::vector<size_t> dims = {0, 1, 2};
    model.LogEvaluateSubspaces(gone, dims, 1, out);
    for (const double v : out) {
      EXPECT_EQ(v, -std::numeric_limits<double>::infinity());
    }
  }
}

TEST(SubspaceLanesTest, IndexedModelBlocksMatchLogEvaluateSubspace) {
  const ModelFixture& f = Fixture();
  for (const SimdLevel level : RunnableLevels()) {
    const McDensityModel model = f.Build(600, level);
    ASSERT_TRUE(model.has_index()) << model.num_clusters() << " clusters";
    for (const size_t len : {size_t{1}, size_t{2}, model.num_dims()}) {
      CheckBlocks(model, f.noisy.data.Row(4), len, 41);
    }
  }
}

}  // namespace
}  // namespace udm
