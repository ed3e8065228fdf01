// Golden test for DensityBasedClassifier::Explain: the predicted label,
// fallback flag, no-density flag, stop cause, and every selected rule (dims, label, and
// log-accuracy as hex bits) on seeded ionosphere-like (d=34) and
// forest-like (d=10) fixtures, under evaluation caps and kernel-eval
// budgets that stop the roll-up mid-level. The golden lines were produced
// by the one-candidate-at-a-time roll-up that predates lane scoring, at
// each SIMD level (scalar, avx2, avx512), so this pins lane scoring to
// that path bit for bit.
//
// Regenerate with UDM_EXPLAIN_GOLDEN_OUT=<file> (one run per UDM_SIMD
// level): the test then writes its lines there instead of comparing.
#include <bit>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "classify/density_classifier.h"
#include "common/exec_context.h"
#include "common/simd.h"
#include "dataset/uci_like.h"
#include "error/perturbation.h"

namespace udm {
namespace {

/// The lines for a comma-separated list of SIMD levels (AVX2 and AVX-512
/// agree bit for bit, so they share one set).
struct GoldenSet {
  const char* levels;
  const char* lines;
};

#include "explain_golden_data.inc"

/// One Explain configuration: training options plus a per-query
/// kernel-eval cap (0 = unbounded context).
struct Config {
  std::string name;
  DensityBasedClassifier::Options options;
  uint64_t kernel_cap = 0;
};

struct Workload {
  std::string name;
  Dataset train;
  ErrorModel train_errors;
  Dataset queries;
  size_t num_clusters;
  std::vector<uint64_t> kernel_caps;
};

Workload MakeWorkload(const std::string& name, const Dataset& clean,
                      size_t train_rows, size_t query_rows,
                      size_t num_clusters, std::vector<uint64_t> kernel_caps) {
  PerturbationOptions perturb;
  perturb.f = 1.2;
  perturb.seed = 29;
  const UncertainDataset noisy = Perturb(clean, perturb).value();
  std::vector<size_t> train_idx(train_rows);
  std::vector<size_t> query_idx(query_rows);
  for (size_t i = 0; i < train_rows; ++i) train_idx[i] = i;
  for (size_t i = 0; i < query_rows; ++i) query_idx[i] = train_rows + i;
  Dataset queries = noisy.data.Select(query_idx);
  // A finite query beyond every kernel's reach: all densities are 0, so
  // every log-accuracy is NaN and nothing qualifies.
  std::vector<double> far(clean.NumDims());
  for (size_t j = 0; j < far.size(); ++j) far[j] = j % 2 == 0 ? 1e300 : -1e300;
  EXPECT_TRUE(queries.AppendRow(far, 0).ok());
  return Workload{name,
                  noisy.data.Select(train_idx),
                  noisy.errors.Select(train_idx),
                  std::move(queries),
                  num_clusters,
                  std::move(kernel_caps)};
}

std::vector<Workload> Workloads() {
  std::vector<Workload> out;
  // Kernel caps stop the roll-up mid level 1 and early or late in level 2.
  out.push_back(MakeWorkload("ionosphere",
                             MakeIonosphereLike(716, 11).value(), 700, 16,
                             60, {2000, 7000, 9000}));
  out.push_back(MakeWorkload("forest", MakeForestCoverLike(1516, 12).value(),
                             1500, 16, 40, {1500, 2400, 2800}));
  return out;
}

std::vector<Config> Configs(const Workload& w) {
  DensityBasedClassifier::Options base;
  base.num_clusters = w.num_clusters;
  DensityBasedClassifier::Options capped = base;
  capped.max_evaluations = w.train.NumDims() + 5;
  DensityBasedClassifier::Options level1 = base;
  level1.max_evaluations = 1;
  // A lower bar qualifies more subspaces, so the roll-up goes deeper.
  DensityBasedClassifier::Options deep = base;
  deep.accuracy_threshold = 0.6;
  deep.max_subspace_dim = 4;
  deep.max_evaluations = 300;
  std::vector<Config> out = {{"default", base, 0},
                             {"evals=d+5", capped, 0},
                             {"evals=1", level1, 0},
                             {"deep", deep, 0}};
  for (const uint64_t cap : w.kernel_caps) {
    out.push_back({"cap=" + std::to_string(cap), base, cap});
    out.push_back({"deep,cap=" + std::to_string(cap), deep, cap});
  }
  return out;
}

std::string Render(const DensityBasedClassifier::Explanation& e) {
  std::ostringstream line;
  line << "p=" << e.predicted << " fb=" << (e.used_fallback ? 1 : 0)
       << " stop=" << StopCauseToString(e.stop_cause) << " rules=";
  for (const auto& rule : e.selected) {
    for (size_t k = 0; k < rule.dims.size(); ++k) {
      line << (k == 0 ? "" : ",") << rule.dims[k];
    }
    char bits[32];
    std::snprintf(bits, sizeof(bits), "%016" PRIx64,
                  std::bit_cast<uint64_t>(rule.log_accuracy));
    line << ":" << rule.label << ":" << bits << ";";
  }
  if (e.no_density_support) line << " nds=1";
  return line.str();
}

/// Every golden line of the current configuration, in a fixed order.
std::vector<std::string> CurrentLines() {
  std::vector<std::string> lines;
  for (const Workload& w : Workloads()) {
    for (const Config& config : Configs(w)) {
      const DensityBasedClassifier classifier =
          DensityBasedClassifier::Train(w.train, w.train_errors,
                                        config.options)
              .value();
      for (size_t q = 0; q < w.queries.NumRows(); ++q) {
        ExecBudget budget;
        budget.max_kernel_evals = config.kernel_cap;
        ExecContext ctx(Deadline(), {}, budget);
        const auto explained = classifier.Explain(w.queries.Row(q), ctx);
        EXPECT_TRUE(explained.ok()) << explained.status().ToString();
        if (!explained.ok()) continue;
        lines.push_back(w.name + "/" + config.name + "/" + std::to_string(q) +
                        " " + Render(explained.value()));
      }
    }
  }
  return lines;
}

std::vector<std::string> SplitLines(std::string_view text) {
  std::vector<std::string> out;
  std::istringstream in{std::string(text)};
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) out.push_back(line);
  }
  return out;
}

TEST(ExplainGoldenTest, MatchesOneCandidateRollUpBitForBit) {
  const char* level = SimdLevelName(ProcessSimdLevel());
  const std::vector<std::string> lines = CurrentLines();
  if (const char* out = std::getenv("UDM_EXPLAIN_GOLDEN_OUT")) {
    std::ofstream file(out);
    for (const std::string& line : lines) file << line << "\n";
    GTEST_SKIP() << "wrote " << lines.size() << " golden lines to " << out;
  }
  const GoldenSet* golden = nullptr;
  for (const GoldenSet& set : kGolden) {
    if (std::string_view(set.levels).find(level) != std::string_view::npos) {
      golden = &set;
    }
  }
  ASSERT_NE(golden, nullptr) << "no golden for SIMD level " << level;
  const std::vector<std::string> want = SplitLines(golden->lines);
  ASSERT_EQ(lines.size(), want.size());
  for (size_t i = 0; i < lines.size(); ++i) {
    EXPECT_EQ(lines[i], want[i]) << "level " << level;
  }
}

}  // namespace
}  // namespace udm
