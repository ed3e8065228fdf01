#include "classify/density_classifier.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>

#include "common/stopwatch.h"
#include "kde/simd_sweep.h"
#include "obs/metrics.h"

namespace udm {

namespace {

/// Records one Explain call into the `classify.explain.*` metrics when it
/// goes out of scope — once per call, never per candidate.
struct ExplainTally {
  size_t candidates = 0;  // roll-up subspaces scored (not the fallback)
  bool fallback = false;
  StopCause stop = StopCause::kCompleted;
  Stopwatch watch;

  ~ExplainTally() {
    static obs::Counter& scored = obs::MetricsRegistry::Global().GetCounter(
        "classify.explain.candidates_scored");
    static obs::Counter& fallbacks =
        obs::MetricsRegistry::Global().GetCounter("classify.explain.fallbacks");
    static obs::Counter& stop_deadline =
        obs::MetricsRegistry::Global().GetCounter(
            "classify.explain.stop_deadline");
    static obs::Counter& stop_budget =
        obs::MetricsRegistry::Global().GetCounter(
            "classify.explain.stop_budget");
    static obs::Histogram& seconds =
        obs::MetricsRegistry::Global().GetHistogram(
            "classify.explain.seconds");
    scored.Increment(candidates);
    if (fallback) fallbacks.Increment();
    if (stop == StopCause::kDeadline) stop_deadline.Increment();
    if (stop == StopCause::kBudget) stop_budget.Increment();
    seconds.Record(watch.ElapsedSeconds());
  }
};

/// C_{i+1} from L_i (`frontier`: rows of `len` sorted dims) joined with
/// L_1 (`singles`): every extension of a row by a dimension it lacks,
/// sorted lexicographically and deduplicated in one flat buffer of
/// `len + 1`-dim rows — the order a std::set<std::vector<size_t>> gives.
std::vector<size_t> JoinLevel(std::span<const size_t> frontier, size_t len,
                              std::span<const size_t> singles) {
  const size_t width = len + 1;
  std::vector<size_t> joined;
  for (size_t f = 0; f < frontier.size(); f += len) {
    const std::span<const size_t> base = frontier.subspan(f, len);
    for (const size_t extra : singles) {
      if (std::binary_search(base.begin(), base.end(), extra)) continue;
      const auto split = std::upper_bound(base.begin(), base.end(), extra);
      joined.insert(joined.end(), base.begin(), split);
      joined.push_back(extra);
      joined.insert(joined.end(), split, base.end());
    }
  }
  std::vector<size_t> order(joined.size() / width);
  std::iota(order.begin(), order.end(), size_t{0});
  const auto row = [&](size_t r) { return joined.begin() + r * width; };
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return std::lexicographical_compare(row(a), row(a) + width, row(b),
                                        row(b) + width);
  });
  std::vector<size_t> rows;
  rows.reserve(joined.size());
  for (const size_t r : order) {
    if (!rows.empty() && std::equal(row(r), row(r) + width,
                                    rows.end() - static_cast<ptrdiff_t>(width))) {
      continue;
    }
    rows.insert(rows.end(), row(r), row(r) + width);
  }
  return rows;
}

}  // namespace

Result<DensityBasedClassifier> DensityBasedClassifier::Train(
    const Dataset& data, const ErrorModel& errors, const Options& options) {
  if (data.NumRows() == 0) {
    return Status::InvalidArgument("DensityBasedClassifier: empty dataset");
  }
  if (errors.NumRows() != data.NumRows() ||
      errors.NumDims() != data.NumDims()) {
    return Status::InvalidArgument(
        "DensityBasedClassifier: error model shape mismatch");
  }
  if (options.accuracy_threshold <= 0.0) {
    return Status::InvalidArgument(
        "DensityBasedClassifier: accuracy_threshold must be > 0");
  }
  const size_t k = data.NumClasses();
  if (k < 2) {
    return Status::InvalidArgument(
        "DensityBasedClassifier: need at least two classes");
  }

  MicroClusterer::Options mc_options;
  mc_options.num_clusters = options.num_clusters;
  mc_options.distance = options.distance;

  // Summaries are built separately for D and for each D_i (§3); this is the
  // entire preprocessing step.
  UDM_ASSIGN_OR_RETURN(std::vector<MicroCluster> global_summary,
                       BuildMicroClusters(data, errors, mc_options));
  UDM_ASSIGN_OR_RETURN(McDensityModel global_model,
                       McDensityModel::Build(global_summary, options.density));

  std::vector<McDensityModel> class_models;
  std::vector<size_t> class_counts(k, 0);
  class_models.reserve(k);
  for (size_t c = 0; c < k; ++c) {
    const std::vector<size_t> indices =
        data.IndicesOfLabel(static_cast<int>(c));
    if (indices.empty()) {
      return Status::InvalidArgument(
          "DensityBasedClassifier: class " + std::to_string(c) +
          " has no training rows (labels must be dense)");
    }
    class_counts[c] = indices.size();
    const Dataset subset = data.Select(indices);
    const ErrorModel subset_errors = errors.Select(indices);
    UDM_ASSIGN_OR_RETURN(std::vector<MicroCluster> summary,
                         BuildMicroClusters(subset, subset_errors, mc_options));
    UDM_ASSIGN_OR_RETURN(McDensityModel model,
                         McDensityModel::Build(summary, options.density));
    class_models.push_back(std::move(model));
  }

  const std::string name =
      errors.IsZero() ? "density_no_adjust" : "density_error_adjusted";
  return DensityBasedClassifier(std::move(class_models),
                                std::move(global_model),
                                std::move(class_counts), data.NumDims(),
                                options, name);
}

void DensityBasedClassifier::ScoreBlock(std::span<const double> x,
                                        std::span<const size_t> dims,
                                        size_t len,
                                        SubspaceScore* scores) const {
  const size_t count = dims.size() / len;
  UDM_DCHECK(count <= kde_internal::kMaxSubspaceLanes);
  double log_global[kde_internal::kMaxSubspaceLanes];
  double log_class[kde_internal::kMaxSubspaceLanes];
  global_model_.LogEvaluateSubspaces(x, dims, len, {log_global, count});
  const double log_total =
      std::log(static_cast<double>(global_model_.total_count()));
  for (size_t c = 0; c < class_models_.size(); ++c) {
    class_models_[c].LogEvaluateSubspaces(x, dims, len, {log_class, count});
    const double log_count = std::log(static_cast<double>(class_counts_[c]));
    for (size_t j = 0; j < count; ++j) {
      // log A(x,S,l_c) = log|D_c| + log g(x,S,D_c) − log|D| − log g(x,S,D).
      const double log_acc =
          log_count + log_class[j] - log_total - log_global[j];
      if (c == 0 || log_acc > scores[j].log_accuracy) {
        scores[j] = {static_cast<int>(c), log_acc};
      }
    }
  }
}

double DensityBasedClassifier::LogLocalAccuracy(
    std::span<const double> x, std::span<const size_t> dims, int label) const {
  UDM_CHECK(label >= 0 && static_cast<size_t>(label) < class_models_.size())
      << "LogLocalAccuracy: label out of range";
  const double log_global = global_model_.LogEvaluateSubspace(x, dims);
  const double log_total =
      std::log(static_cast<double>(global_model_.total_count()));
  const double log_class =
      class_models_[static_cast<size_t>(label)].LogEvaluateSubspace(x, dims);
  return std::log(static_cast<double>(class_counts_[label])) + log_class -
         log_total - log_global;
}

Result<int> DensityBasedClassifier::Predict(std::span<const double> x) const {
  UDM_ASSIGN_OR_RETURN(const Explanation explanation, Explain(x));
  return explanation.predicted;
}

Result<int> DensityBasedClassifier::Predict(std::span<const double> x,
                                            ExecContext& ctx) const {
  UDM_ASSIGN_OR_RETURN(const Explanation explanation, Explain(x, ctx));
  return explanation.predicted;
}

Result<DensityBasedClassifier::Explanation> DensityBasedClassifier::Explain(
    std::span<const double> x) const {
  ExecContext unbounded;
  return Explain(x, unbounded);
}

Result<DensityBasedClassifier::Explanation> DensityBasedClassifier::Explain(
    std::span<const double> x, ExecContext& ctx) const {
  if (x.size() != num_dims_) {
    return Status::InvalidArgument(
        "DensityBasedClassifier: point dimension mismatch");
  }
  for (size_t j = 0; j < x.size(); ++j) {
    if (!std::isfinite(x[j])) {
      return Status::InvalidArgument(
          "DensityBasedClassifier: non-finite coordinate at dimension " +
          std::to_string(j));
    }
  }
  UDM_RETURN_IF_ERROR(ctx.Check());
  ExplainTally tally;
  const double log_threshold = std::log(options_.accuracy_threshold);

  struct Qualified {
    std::vector<size_t> dims;
    SubspaceScore score;
  };

  size_t& evaluations = tally.candidates;
  const auto budget_left = [&]() {
    return options_.max_evaluations == 0 ||
           evaluations < options_.max_evaluations;
  };

  // Kernel-eval cost of scoring one subspace dimension: every pseudo-point
  // in the global model plus every class model contributes one term.
  // Candidates are scored `lanes` at a time (DESIGN.md §4l).
  size_t pseudo_per_dim = global_model_.num_clusters();
  size_t lanes = global_model_.subspace_lanes();
  for (const McDensityModel& model : class_models_) {
    pseudo_per_dim += model.num_clusters();
    lanes = std::max(lanes, model.subspace_lanes());
  }

  // The roll-up is an anytime algorithm: a deadline/budget violation at a
  // subspace boundary stops expansion and the prediction is made from the
  // subspaces qualified so far. Cancellation is never absorbed.
  StopCause& stop = tally.stop;
  Status cancelled;
  const auto boundary_ok = [&](size_t subspace_dims) {
    Status s = ctx.ChargeKernelEvals(subspace_dims * pseudo_per_dim);
    if (s.ok()) s = ctx.Check();
    if (s.ok()) return true;
    if (s.code() == StatusCode::kCancelled) {
      cancelled = s;
    } else {
      stop = s.code() == StatusCode::kDeadlineExceeded ? StopCause::kDeadline
                                                       : StopCause::kBudget;
    }
    return false;
  };

  // Scores one level's candidates (`rows`: `len` dims each, in std::set
  // order), appending the qualifying ones to `qualifying` and `frontier`.
  // Each candidate's budget, charge and deadline check run in candidate
  // order before its block is scored, so a stop lands on the same
  // candidate as a one-at-a-time scan; a deadline may be seen up to one
  // block late (DESIGN.md §4c).
  std::vector<Qualified> qualifying;
  std::vector<size_t> frontier;
  const auto score_level = [&](const std::vector<size_t>& rows, size_t len,
                               bool capped) {
    frontier.clear();
    const size_t count = rows.size() / len;
    SubspaceScore scores[kde_internal::kMaxSubspaceLanes];
    for (size_t begin = 0; begin < count;) {
      size_t ready = 0;
      bool halted = false;
      while (ready < lanes && begin + ready < count) {
        if ((capped && !budget_left()) || !boundary_ok(len)) {
          halted = true;
          break;
        }
        ++evaluations;
        ++ready;
      }
      if (!cancelled.ok()) return;
      const std::span<const size_t> block(rows.data() + begin * len,
                                          ready * len);
      if (ready != 0) ScoreBlock(x, block, len, scores);
      for (size_t j = 0; j < ready; ++j) {
        if (scores[j].log_accuracy > log_threshold) {  // NaN never qualifies
          const std::span<const size_t> dims = block.subspan(j * len, len);
          frontier.insert(frontier.end(), dims.begin(), dims.end());
          qualifying.push_back({{dims.begin(), dims.end()}, scores[j]});
        }
      }
      if (halted) return;
      begin += ready;
    }
  };

  // Level 1: all singleton subspaces.
  std::vector<size_t> all(num_dims_);
  std::iota(all.begin(), all.end(), size_t{0});
  score_level(all, 1, /*capped=*/false);
  if (!cancelled.ok()) return cancelled;
  const std::vector<size_t> singles = frontier;

  // Roll-up: join L_i with L_1 to form C_{i+1} (Figure 3).
  size_t level = 1;
  while (!frontier.empty() && budget_left() && stop == StopCause::kCompleted &&
         cancelled.ok()) {
    if (options_.max_subspace_dim != 0 && level >= options_.max_subspace_dim) {
      break;
    }
    score_level(JoinLevel(frontier, level, singles), level + 1,
                /*capped=*/true);
    ++level;
  }
  if (!cancelled.ok()) return cancelled;

  Explanation explanation;
  explanation.stop_cause = stop;
  if (qualifying.empty()) {
    // Fallback (paper unspecified): dominant class over all dimensions.
    // Runs even after a deadline/budget stop so every query yields a
    // prediction; the charge is recorded but cannot fail the query.
    (void)ctx.ChargeKernelEvals(num_dims_ * pseudo_per_dim);
    SubspaceScore score;
    ScoreBlock(x, all, num_dims_, &score);
    explanation.predicted = score.label;
    if (std::isnan(score.log_accuracy)) {
      explanation.predicted = static_cast<int>(
          std::max_element(class_counts_.begin(), class_counts_.end()) -
          class_counts_.begin());
      explanation.no_density_support = true;
    }
    explanation.used_fallback = true;
    tally.fallback = true;
    return explanation;
  }

  // Greedy selection of non-overlapping subspaces by descending accuracy.
  std::sort(qualifying.begin(), qualifying.end(),
            [](const Qualified& a, const Qualified& b) {
              if (a.score.log_accuracy != b.score.log_accuracy) {
                return a.score.log_accuracy > b.score.log_accuracy;
              }
              return a.dims < b.dims;  // deterministic tie-break
            });
  std::vector<bool> used_dims(num_dims_, false);
  for (const Qualified& q : qualifying) {
    if (options_.max_selected_subspaces != 0 &&
        explanation.selected.size() >= options_.max_selected_subspaces) {
      break;
    }
    bool overlaps = false;
    for (size_t dim : q.dims) {
      if (used_dims[dim]) {
        overlaps = true;
        break;
      }
    }
    if (overlaps) continue;
    for (size_t dim : q.dims) used_dims[dim] = true;
    explanation.selected.push_back(
        Rule{q.dims, q.score.label, q.score.log_accuracy});
  }

  // Majority vote among selected rules; ties go to the earliest (highest
  // accuracy) rule voting for that class.
  std::vector<size_t> votes(class_models_.size(), 0);
  for (const Rule& rule : explanation.selected) {
    ++votes[static_cast<size_t>(rule.label)];
  }
  size_t best_votes = 0;
  for (size_t votes_c : votes) best_votes = std::max(best_votes, votes_c);
  for (const Rule& rule : explanation.selected) {
    if (votes[static_cast<size_t>(rule.label)] == best_votes) {
      explanation.predicted = rule.label;
      break;
    }
  }
  return explanation;
}

}  // namespace udm
