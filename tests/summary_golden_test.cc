// Golden test for the micro-cluster summaries: the serialized bytes of
// BuildMicroClusters, an over-budget MergeSummaries and a CluStream pass on
// seeded ionosphere-like (d=34) and forest-like (d=10) fixtures, under both
// assignment distances. Each case is pinned by the FNV-1a digest and the
// length of SerializeMicroClusters' text, which prints every CF1/CF2/EF2
// entry with max_digits10, so one flipped assignment or one rounding
// difference anywhere changes the line. The lines were produced by the
// row-major per-centroid assignment loop that predates the column-major
// centroid sweep (DESIGN.md §4m); the test runs at every forced SIMD
// level, so it pins every sweep level to that loop.
//
// Regenerate with UDM_SUMMARY_GOLDEN_OUT=<file>: the test then writes its
// lines there instead of comparing.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/simd.h"
#include "dataset/uci_like.h"
#include "error/perturbation.h"
#include "microcluster/clusterer.h"
#include "microcluster/clustream.h"
#include "microcluster/merge.h"
#include "microcluster/serialize.h"

namespace udm {
namespace {

constexpr const char* kGolden[] = {
#include "summary_golden_data.inc"
};

std::string Digest(const std::string& name,
                   const std::vector<MicroCluster>& clusters) {
  const std::string text = SerializeMicroClusters(clusters);
  uint64_t h = 14695981039346656037ULL;
  for (const char ch : text) {
    h ^= static_cast<unsigned char>(ch);
    h *= 1099511628211ULL;
  }
  char line[160];
  std::snprintf(line, sizeof(line), "%s clusters=%zu bytes=%zu fnv=%016" PRIx64,
                name.c_str(), clusters.size(), text.size(), h);
  return line;
}

UncertainDataset Fixture(const Dataset& clean) {
  PerturbationOptions perturb;
  perturb.f = 1.2;
  perturb.seed = 29;
  return Perturb(clean, perturb).value();
}

const char* DistanceName(AssignmentDistance distance) {
  return distance == AssignmentDistance::kErrorAdjusted ? "eq5" : "euclid";
}

std::vector<std::string> CurrentLines() {
  struct Case {
    std::string name;
    UncertainDataset data;
  };
  std::vector<Case> cases;
  cases.push_back({"ionosphere", Fixture(MakeIonosphereLike(1500, 11).value())});
  cases.push_back({"forest", Fixture(MakeForestCoverLike(6000, 12).value())});

  std::vector<std::string> lines;
  for (const Case& c : cases) {
    for (const AssignmentDistance distance :
         {AssignmentDistance::kErrorAdjusted, AssignmentDistance::kEuclidean}) {
      const std::string prefix = c.name + "/" + DistanceName(distance);
      // q = 140 is the paper's budget; q = 37 leaves a ragged last vector.
      for (const size_t q : {size_t{140}, size_t{37}}) {
        MicroClusterer::Options options;
        options.num_clusters = q;
        options.distance = distance;
        lines.push_back(Digest(
            prefix + "/build/q=" + std::to_string(q),
            BuildMicroClusters(c.data.data, c.data.errors, options).value()));
      }

      // Three shard summaries over interleaved rows, merged over budget.
      MicroClusterer::Options shard_options;
      shard_options.num_clusters = 60;
      shard_options.distance = distance;
      std::vector<std::vector<MicroCluster>> shards;
      for (size_t s = 0; s < 3; ++s) {
        std::vector<size_t> rows;
        for (size_t i = s; i < c.data.data.NumRows(); i += 3) rows.push_back(i);
        shards.push_back(BuildMicroClusters(c.data.data.Select(rows),
                                            c.data.errors.Select(rows),
                                            shard_options)
                             .value());
      }
      const std::vector<SummaryView> views(shards.begin(), shards.end());
      MicroClusterer::Options merge_options;
      merge_options.num_clusters = 45;
      merge_options.distance = distance;
      lines.push_back(Digest(prefix + "/merge/q=45",
                             MergeSummaries(views, c.data.data.NumDims(),
                                            merge_options)
                                 .value()));

      CluStreamMaintainer::Options clustream_options;
      clustream_options.num_clusters = 50;
      clustream_options.distance = distance;
      CluStreamMaintainer clustream =
          CluStreamMaintainer::Create(c.data.data.NumDims(), clustream_options)
              .value();
      EXPECT_TRUE(clustream.AddDataset(c.data.data, c.data.errors).ok());
      lines.push_back(Digest(
          prefix + "/clustream/q=50",
          {clustream.clusters().begin(), clustream.clusters().end()}));
    }
  }
  return lines;
}

TEST(SummaryGoldenTest, MatchesRowMajorAssignmentByteForByte) {
  const std::vector<std::string> lines = CurrentLines();
  if (const char* out = std::getenv("UDM_SUMMARY_GOLDEN_OUT")) {
    std::ofstream file(out);
    for (const std::string& line : lines) file << "    \"" << line << "\",\n";
    GTEST_SKIP() << "wrote " << lines.size() << " golden lines to " << out;
  }
  const char* level = SimdLevelName(ProcessSimdLevel());
  ASSERT_EQ(lines.size(), std::size(kGolden));
  for (size_t i = 0; i < lines.size(); ++i) {
    EXPECT_EQ(lines[i], kGolden[i]) << "level " << level;
  }
}

}  // namespace
}  // namespace udm
