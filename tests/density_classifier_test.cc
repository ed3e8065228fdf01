#include "classify/density_classifier.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "classify/metrics.h"
#include "common/deadline.h"
#include "common/exec_context.h"
#include "common/random.h"
#include "dataset/synthetic.h"
#include "dataset/uci_like.h"
#include "error/perturbation.h"
#include "kde/simd_sweep.h"
#include "obs/metrics.h"

namespace udm {
namespace {

Dataset SeparableData(size_t n = 600, uint64_t seed = 33,
                      size_t num_classes = 2) {
  MixtureDatasetSpec spec;
  spec.num_dims = 3;
  spec.num_informative_dims = 3;
  spec.clusters_per_class = 1;
  spec.class_separation = 5.0;
  std::vector<double> priors(num_classes, 1.0);
  spec.class_priors = priors;
  spec.seed = seed;
  return MakeMixtureDataset(spec, n).value();
}

TEST(DensityClassifierTest, ValidatesInput) {
  const Dataset d = SeparableData(100);
  // Shape mismatch.
  EXPECT_FALSE(
      DensityBasedClassifier::Train(d, ErrorModel::Zero(99, 3)).ok());
  // Single class.
  Dataset one_class = Dataset::Create(1).value();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        one_class.AppendRow(std::vector<double>{1.0 * i}, 0).ok());
  }
  EXPECT_FALSE(
      DensityBasedClassifier::Train(one_class, ErrorModel::Zero(10, 1)).ok());
  // Bad threshold.
  DensityBasedClassifier::Options options;
  options.accuracy_threshold = 0.0;
  EXPECT_FALSE(
      DensityBasedClassifier::Train(d, ErrorModel::Zero(100, 3), options)
          .ok());
  // Empty dataset.
  const Dataset empty = Dataset::Create(3).value();
  EXPECT_FALSE(
      DensityBasedClassifier::Train(empty, ErrorModel::Zero(0, 3)).ok());
  // Non-dense labels (class 1 missing).
  Dataset sparse = Dataset::Create(1).value();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(sparse.AppendRow(std::vector<double>{1.0 * i}, 0).ok());
    ASSERT_TRUE(sparse.AppendRow(std::vector<double>{1.0 * i + 50}, 2).ok());
  }
  EXPECT_FALSE(
      DensityBasedClassifier::Train(sparse, ErrorModel::Zero(10, 1)).ok());
}

TEST(DensityClassifierTest, NamesDistinguishAdjustment) {
  const Dataset d = SeparableData(100);
  const auto zero = DensityBasedClassifier::Train(
                        d, ErrorModel::Zero(d.NumRows(), d.NumDims()))
                        .value();
  EXPECT_EQ(zero.Name(), "density_no_adjust");
  const ErrorModel nonzero =
      ErrorModel::PerDimension(d.NumRows(), std::vector<double>{0.1, 0.1, 0.1})
          .value();
  const auto adjusted = DensityBasedClassifier::Train(d, nonzero).value();
  EXPECT_EQ(adjusted.Name(), "density_error_adjusted");
}

TEST(DensityClassifierTest, ClassifiesCleanSeparableData) {
  const Dataset d = SeparableData(600);
  DensityBasedClassifier::Options options;
  options.num_clusters = 60;
  const auto classifier =
      DensityBasedClassifier::Train(
          d, ErrorModel::Zero(d.NumRows(), d.NumDims()), options)
          .value();
  const ConfusionMatrix matrix = EvaluateClassifier(classifier, d).value();
  EXPECT_GT(matrix.Accuracy(), 0.9);
}

TEST(DensityClassifierTest, PredictDimensionMismatch) {
  const Dataset d = SeparableData(100);
  const auto classifier =
      DensityBasedClassifier::Train(d,
                                    ErrorModel::Zero(d.NumRows(), d.NumDims()))
          .value();
  EXPECT_FALSE(classifier.Predict(std::vector<double>{1.0}).ok());
}

TEST(DensityClassifierTest, ExplanationRulesAreDisjointAndSorted) {
  const Dataset d = SeparableData(600);
  DensityBasedClassifier::Options options;
  options.num_clusters = 60;
  const auto classifier =
      DensityBasedClassifier::Train(
          d, ErrorModel::Zero(d.NumRows(), d.NumDims()), options)
          .value();
  const auto explanation = classifier.Explain(d.Row(0)).value();
  std::set<size_t> used;
  double previous = std::numeric_limits<double>::infinity();
  for (const auto& rule : explanation.selected) {
    EXPECT_LE(rule.log_accuracy, previous);
    previous = rule.log_accuracy;
    for (size_t dim : rule.dims) {
      EXPECT_TRUE(used.insert(dim).second) << "overlapping dim " << dim;
    }
  }
}

TEST(DensityClassifierTest, HugeThresholdTriggersFallback) {
  const Dataset d = SeparableData(300);
  DensityBasedClassifier::Options options;
  options.num_clusters = 40;
  options.accuracy_threshold = 1e9;  // nothing qualifies
  const auto classifier =
      DensityBasedClassifier::Train(
          d, ErrorModel::Zero(d.NumRows(), d.NumDims()), options)
          .value();
  const auto explanation = classifier.Explain(d.Row(0)).value();
  EXPECT_TRUE(explanation.used_fallback);
  EXPECT_TRUE(explanation.selected.empty());
  // Fallback still classifies separable data correctly most of the time.
  const ConfusionMatrix matrix = EvaluateClassifier(classifier, d).value();
  EXPECT_GT(matrix.Accuracy(), 0.8);
}

TEST(DensityClassifierTest, MaxSelectedSubspacesHonored) {
  const Dataset d = SeparableData(300);
  DensityBasedClassifier::Options options;
  options.num_clusters = 40;
  options.max_selected_subspaces = 1;
  const auto classifier =
      DensityBasedClassifier::Train(
          d, ErrorModel::Zero(d.NumRows(), d.NumDims()), options)
          .value();
  const auto explanation = classifier.Explain(d.Row(5)).value();
  EXPECT_LE(explanation.selected.size(), 1u);
}

TEST(DensityClassifierTest, MaxSubspaceDimHonored) {
  const Dataset d = SeparableData(300);
  DensityBasedClassifier::Options options;
  options.num_clusters = 40;
  options.max_subspace_dim = 1;
  const auto classifier =
      DensityBasedClassifier::Train(
          d, ErrorModel::Zero(d.NumRows(), d.NumDims()), options)
          .value();
  const auto explanation = classifier.Explain(d.Row(5)).value();
  for (const auto& rule : explanation.selected) {
    EXPECT_EQ(rule.dims.size(), 1u);
  }
}

TEST(DensityClassifierTest, LogLocalAccuracyFavorsTheRightClass) {
  const Dataset d = SeparableData(600);
  const auto classifier =
      DensityBasedClassifier::Train(d,
                                    ErrorModel::Zero(d.NumRows(), d.NumDims()))
          .value();
  const std::vector<size_t> all_dims{0, 1, 2};
  size_t correct = 0;
  size_t tested = 0;
  for (size_t i = 0; i < d.NumRows(); i += 20) {
    const double acc0 = classifier.LogLocalAccuracy(d.Row(i), all_dims, 0);
    const double acc1 = classifier.LogLocalAccuracy(d.Row(i), all_dims, 1);
    const int predicted = acc0 > acc1 ? 0 : 1;
    correct += (predicted == d.Label(i)) ? 1 : 0;
    ++tested;
  }
  EXPECT_GT(static_cast<double>(correct) / tested, 0.9);
}

TEST(DensityClassifierTest, MultiClass) {
  const Dataset d = SeparableData(900, 41, 3);
  DensityBasedClassifier::Options options;
  options.num_clusters = 60;
  const auto classifier =
      DensityBasedClassifier::Train(
          d, ErrorModel::Zero(d.NumRows(), d.NumDims()), options)
          .value();
  EXPECT_EQ(classifier.NumClasses(), 3u);
  const ConfusionMatrix matrix = EvaluateClassifier(classifier, d).value();
  EXPECT_GT(matrix.Accuracy(), 0.8);
}

TEST(DensityClassifierTest, ErrorAdjustmentHelpsUnderHeavyNoise) {
  // The paper's headline claim (Figs. 4/6): at high f the error-adjusted
  // classifier beats the same classifier with errors ignored. Averaged
  // over several seeds to keep the test robust.
  double adjusted_total = 0.0;
  double unadjusted_total = 0.0;
  const int trials = 3;
  for (int t = 0; t < trials; ++t) {
    MixtureDatasetSpec spec;
    spec.num_dims = 4;
    spec.num_informative_dims = 4;
    spec.clusters_per_class = 1;
    spec.class_separation = 4.0;
    spec.seed = 100 + t;
    const Dataset clean = MakeMixtureDataset(spec, 1200).value();
    PerturbationOptions perturb;
    perturb.f = 2.0;
    perturb.seed = 200 + t;
    const UncertainDataset uncertain = Perturb(clean, perturb).value();

    // Hold out the last quarter as the test set (uses true labels).
    std::vector<size_t> train_idx, test_idx;
    for (size_t i = 0; i < clean.NumRows(); ++i) {
      (i < 900 ? train_idx : test_idx).push_back(i);
    }
    const Dataset train = uncertain.data.Select(train_idx);
    const ErrorModel train_errors = uncertain.errors.Select(train_idx);
    const Dataset test = uncertain.data.Select(test_idx);

    DensityBasedClassifier::Options options;
    options.num_clusters = 80;
    const auto adjusted =
        DensityBasedClassifier::Train(train, train_errors, options).value();
    const auto unadjusted =
        DensityBasedClassifier::Train(
            train, ErrorModel::Zero(train.NumRows(), train.NumDims()), options)
            .value();
    adjusted_total += EvaluateClassifier(adjusted, test).value().Accuracy();
    unadjusted_total +=
        EvaluateClassifier(unadjusted, test).value().Accuracy();
  }
  EXPECT_GT(adjusted_total / trials, unadjusted_total / trials);
}

// A finite query beyond every kernel's reach has no density in any model,
// so every log-accuracy is NaN. The fallback then predicts the class with
// the most training rows instead of class 0, and says so.
TEST(DensityClassifierTest, FarQueryWithoutDensityPredictsTheLargestClass) {
  Rng rng(41);
  Dataset data = Dataset::Create(3).value();
  for (size_t i = 0; i < 224; ++i) {
    const int label = i < 17 ? 0 : 1;  // class 0 holds 17 of 224 rows
    const double center = label == 0 ? 0.0 : 4.0;
    const std::vector<double> row{rng.Gaussian(center, 1.0),
                                  rng.Gaussian(center, 1.0),
                                  rng.Gaussian(center, 1.0)};
    ASSERT_TRUE(data.AppendRow(row, label).ok());
  }
  const DensityBasedClassifier classifier =
      DensityBasedClassifier::Train(data, ErrorModel::Zero(224, 3)).value();

  const std::vector<double> far{1e300, -1e300, 1e300};
  const auto explained = classifier.Explain(far);
  ASSERT_TRUE(explained.ok()) << explained.status().ToString();
  EXPECT_TRUE(explained->used_fallback);
  EXPECT_TRUE(explained->no_density_support);
  EXPECT_EQ(explained->predicted, 1);
  EXPECT_TRUE(explained->selected.empty());
  EXPECT_EQ(classifier.Predict(far).value(), 1);

  // A query inside the data keeps its density-based answer.
  const std::vector<double> near_class0{0.0, 0.0, 0.0};
  const auto near = classifier.Explain(near_class0);
  ASSERT_TRUE(near.ok());
  EXPECT_FALSE(near->no_density_support);
  EXPECT_EQ(near->predicted, 0);
}

TEST(DensityClassifierTest, NonFiniteCoordinatesAreRejected) {
  const Dataset d = SeparableData(200);
  DensityBasedClassifier::Options options;
  options.num_clusters = 20;
  const auto classifier =
      DensityBasedClassifier::Train(
          d, ErrorModel::Zero(d.NumRows(), d.NumDims()), options)
          .value();
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    for (size_t j = 0; j < d.NumDims(); ++j) {
      std::vector<double> x(d.Row(0).begin(), d.Row(0).end());
      x[j] = bad;
      ExecContext ctx;
      EXPECT_EQ(classifier.Explain(x).status().code(),
                StatusCode::kInvalidArgument);
      EXPECT_EQ(classifier.Explain(x, ctx).status().code(),
                StatusCode::kInvalidArgument);
      EXPECT_EQ(classifier.Predict(x).status().code(),
                StatusCode::kInvalidArgument);
      EXPECT_EQ(classifier.Predict(x, ctx).status().code(),
                StatusCode::kInvalidArgument);
    }
  }
  // Finite far-tail coordinates still classify.
  const std::vector<double> far = {1e300, -1e300, 1e300};
  EXPECT_TRUE(classifier.Explain(far).ok());
}

TEST(DensityClassifierTest, ExplainMetricsRecordOncePerCall) {
  const Dataset d = SeparableData(300);
  DensityBasedClassifier::Options options;
  options.num_clusters = 20;
  options.accuracy_threshold = 1e9;  // nothing qualifies: always fallback
  const auto classifier =
      DensityBasedClassifier::Train(
          d, ErrorModel::Zero(d.NumRows(), d.NumDims()), options)
          .value();
  auto& registry = obs::MetricsRegistry::Global();
  obs::Counter& scored =
      registry.GetCounter("classify.explain.candidates_scored");
  obs::Counter& fallbacks = registry.GetCounter("classify.explain.fallbacks");
  obs::Counter& stop_budget =
      registry.GetCounter("classify.explain.stop_budget");
  obs::Histogram& seconds = registry.GetHistogram("classify.explain.seconds");
  const uint64_t scored0 = scored.Value();
  const uint64_t fallbacks0 = fallbacks.Value();
  const uint64_t budget0 = stop_budget.Value();
  const uint64_t calls0 = seconds.Count();

  const auto full = classifier.Explain(d.Row(0)).value();
  EXPECT_TRUE(full.used_fallback);
  EXPECT_EQ(scored.Value() - scored0, d.NumDims());
  EXPECT_EQ(fallbacks.Value() - fallbacks0, 1u);
  EXPECT_EQ(stop_budget.Value() - budget0, 0u);
  EXPECT_EQ(seconds.Count() - calls0, 1u);

  // A budget of one kernel evaluation stops before the first candidate.
  ExecBudget budget;
  budget.max_kernel_evals = 1;
  ExecContext ctx(Deadline(), {}, budget);
  const auto cut = classifier.Explain(d.Row(0), ctx).value();
  EXPECT_EQ(cut.stop_cause, StopCause::kBudget);
  EXPECT_EQ(scored.Value() - scored0, d.NumDims());
  EXPECT_EQ(stop_budget.Value() - budget0, 1u);
  EXPECT_EQ(seconds.Count() - calls0, 2u);
}

double ElapsedUs(Deadline::Clock::time_point from,
                 Deadline::Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

TEST(DensityClassifierTest, DeadlineStopOverrunsByAtMostOneBlock) {
  // The roll-up checks every candidate of a lane block before scoring the
  // block (DESIGN.md §4c), so a deadline that expires mid-block is seen at
  // the next block: the overrun past the deadline is at most one block
  // plus the fallback. Level 1 only (max_evaluations = 1) keeps every
  // block a block of singletons.
  const Dataset clean = MakeIonosphereLike(900, 3).value();
  DensityBasedClassifier::Options options;
  options.num_clusters = 60;
  options.max_evaluations = 1;
  const auto classifier =
      DensityBasedClassifier::Train(
          clean, ErrorModel::Zero(clean.NumRows(), clean.NumDims()), options)
          .value();
  const size_t lanes = kde_internal::ProcessSimdDispatch().subspace_lanes;
  const std::span<const double> x = clean.Row(7);
  std::vector<size_t> all(clean.NumDims());
  for (size_t j = 0; j < all.size(); ++j) all[j] = j;

  const auto time_us = [&](auto&& fn) {
    std::vector<double> samples;
    for (int rep = 0; rep < 21; ++rep) {
      const auto t0 = Deadline::Clock::now();
      fn();
      samples.push_back(ElapsedUs(t0, Deadline::Clock::now()));
    }
    return Median(samples);
  };
  // Level 1 is ceil(d / lanes) blocks, so an unbounded Explain over-
  // estimates one block's cost by at most the fallback; LogLocalAccuracy
  // over all dimensions costs 2 of the fallback's 3 model evaluations.
  // The bound allows two blocks for timing noise. Deadlines land in the
  // first quarter of the roll-up, so one not seen until level 1 ended
  // would overrun by most of an Explain and break it.
  const double explain_us = time_us([&] { (void)classifier.Explain(x); });
  const double fallback_us =
      1.5 * time_us([&] { (void)classifier.LogLocalAccuracy(x, all, 0); });
  const double blocks =
      static_cast<double>((all.size() + lanes - 1) / lanes);
  const double block_us = explain_us / blocks;
  const double bound_us = 2.0 * block_us + fallback_us + 2.0;

  obs::Counter& stop_deadline =
      obs::MetricsRegistry::Global().GetCounter(
          "classify.explain.stop_deadline");
  const uint64_t deadline_stops0 = stop_deadline.Value();
  std::vector<double> overruns;
  for (int step = 1; step <= 60; ++step) {
    const auto budget = std::chrono::duration<double, std::micro>(
        explain_us * (step % 6 + 1) / 24.0);
    const auto start = Deadline::Clock::now();
    const auto at =
        start + std::chrono::duration_cast<Deadline::Clock::duration>(budget);
    ExecContext ctx(Deadline::At(at));
    const auto explained = classifier.Explain(x, ctx);
    const auto end = Deadline::Clock::now();
    if (!explained.ok()) continue;  // expired before the first check
    if (explained->stop_cause != StopCause::kDeadline) continue;
    overruns.push_back(ElapsedUs(at, end));
  }
  ASSERT_GE(overruns.size(), 10u) << "too few deadline stops to judge";
  EXPECT_EQ(stop_deadline.Value() - deadline_stops0, overruns.size());
  EXPECT_LE(Median(overruns), bound_us)
      << "lanes=" << lanes << " block_us=" << block_us
      << " fallback_us=" << fallback_us << " explain_us=" << explain_us;
}

}  // namespace
}  // namespace udm
