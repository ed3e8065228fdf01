// udm end-to-end benchmark: one workload per layer, timed from outside
// through the library's public API and a spawned udm_serve daemon.
//
//   udm_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 --serve-bin <path/to/udm_serve> [--trace-out spans.json]
//
// Runs in the current directory (every file it writes lands there) and
// prints, as its last stdout line, one JSON object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Any failed correctness gate exits 1 without a result line.
// See BENCHMARK.md beside this file for the workloads and metrics.
#include <fcntl.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "classify/density_classifier.h"
#include "common/exec_context.h"
#include "common/simd.h"
#include "dataset/csv.h"
#include "dataset/uci_like.h"
#include "error/perturbation.h"
#include "harness.h"
#include "microcluster/clusterer.h"
#include "microcluster/mc_density.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/registry.h"
#include "stream/sharded_summarizer.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PERFBENCH_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define PERFBENCH_SANITIZED 1
#endif
#endif

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using perfbench::Median;
using perfbench::NowNs;
using perfbench::Quantile;
using perfbench::ScopedSpan;
using perfbench::SpanRecorder;

// ---------------------------------------------------------------------------
// Output

const std::vector<std::pair<const char*, const char*>> kEndToEnd = {
    {"setup_s", "s"},           {"peak_rss_mb", "MB"},
    {"throughput_per_s", "1/s"}, {"p50_us", "us"},
    {"p99_us", "us"},           {"accuracy", "fraction"},
};

// Every workload reports every per-layer metric; a layer the workload
// leaves idle reports 0 (that is the isolation the workloads are chosen
// for, and the traced run shows it).
const std::vector<std::pair<const char*, const char*>> kPerLayer = {
    {"classify.self_share", "fraction"},
    {"microcluster.self_share", "fraction"},
    {"kde.self_share", "fraction"},
    {"stream.self_share", "fraction"},
    {"robustness.self_share", "fraction"},
    {"serve.self_share", "fraction"},
    {"classify.train_us_per_record", "us/record"},
    {"classify.explain_us_mean", "us/query"},
    {"classify.score_us", "us/call"},
    {"classify.fallback_fraction", "fraction"},
    {"classify.rules_per_query", "rules/query"},
    {"classify.rule_dims_max_mean", "dims"},
    {"classify.budget_stop_fraction", "fraction"},
    {"microcluster.assign_us_per_record", "us/record"},
    {"microcluster.assign_share", "fraction"},
    {"microcluster.model_build_ms", "ms/build"},
    {"kde.kernel_evals_per_query", "evals/query"},
    {"kde.kernel_evals_per_s", "evals/s"},
    {"kde.pruned_fraction", "fraction"},
    {"kde.cells_pruned_fraction", "fraction"},
    {"kde.eval_us_per_request", "us/request"},
    {"stream.ingest_batch_us_mean", "us/batch"},
    {"stream.ingest_cpu_us_per_record", "us/record"},
    {"stream.route_ns_per_record", "ns/record"},
    {"stream.shard_skew", "ratio"},
    {"stream.merge_ms", "ms/merge"},
    {"robustness.checkpoint_save_ms", "ms/save"},
    {"robustness.checkpoints", "count"},
    {"serve.server_request_us_p50", "us/request"},
    {"serve.server_request_us_p99", "us/request"},
    {"serve.queue_wait_us_p50", "us/request"},
    {"serve.queue_wait_us_p99", "us/request"},
    {"serve.outside_us_mean", "us/request"},
    {"serve.non_kde_fraction", "fraction"},
    {"serve.codec_us_per_request", "us/request"},
    {"serve.shed_fraction", "fraction"},
    {"serve.degraded_fraction", "fraction"},
    {"serve.partial_fraction", "fraction"},
    {"serve.open_loop_p50_us", "us/request"},
    {"serve.open_loop_p99_us", "us/request"},
    {"serve.generator_lag_p99_us", "us/request"},
    {"obs.trace_overhead_fraction", "fraction"},
};

struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, double> e2e;
  std::map<std::string, double> layer;
  /// Run facts for the metadata line (digests, host, build).
  std::vector<std::pair<std::string, std::string>> meta;
  /// Human-readable lines printed before the result.
  std::vector<std::string> notes;
  /// Chrome trace of the traced run's spans (empty when untraced).
  std::string trace_json;
};

/// The live daemon, killed by Fail() so a failed run leaves no process.
int g_daemon_pid = -1;

[[noreturn]] void Fail(const std::string& message) {
  if (g_daemon_pid > 0) {
    ::kill(g_daemon_pid, SIGKILL);
    ::waitpid(g_daemon_pid, nullptr, 0);
  }
  std::fprintf(stderr, "perfbench: FAIL: %s\n", message.c_str());
  std::fflush(stderr);
  std::_Exit(1);
}

void Require(bool ok, const std::string& message) {
  if (!ok) Fail(message);
}

void MustOk(const udm::Status& status, const std::string& what) {
  if (!status.ok()) Fail(what + ": " + status.ToString());
}

template <typename T>
T Must(udm::Result<T> result, const std::string& what) {
  if (!result.ok()) Fail(what + ": " + result.status().ToString());
  return std::move(result).value();
}

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }

double Mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

std::string Fmt(const char* format, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, value);
  return buf;
}

/// Nearest-rank tail quantile, refusing to report one the sample cannot
/// support (fewer than 10 samples beyond it).
double SupportedQuantile(const std::vector<double>& values, double q,
                         const std::string& what) {
  if (!perfbench::SupportsQuantile(values.size(), q)) {
    Fail(what + ": " + std::to_string(values.size()) +
         " samples cannot support quantile " + Fmt("%g", q));
  }
  return Quantile(values, q);
}

/// One human-readable line of a latency sample's shape.
std::string Shape(const std::string& what, const std::vector<double>& v) {
  std::string line = what + " (n=" + std::to_string(v.size()) + "):";
  for (double q : {0.5, 0.9, 0.99, 0.999, 1.0}) {
    line += Fmt(" p%g=", q * 100) + Fmt("%.1f", Quantile(v, q));
  }
  return line;
}

/// Median over blocks of a per-block quantile. Each block is one second of
/// an open-loop schedule; a host stall spoils the block it lands in, not
/// the reported value.
double BlockMedian(const std::vector<std::vector<double>>& blocks, double q,
                   const std::string& what) {
  Require(!blocks.empty(), what + ": no blocks");
  std::vector<double> per_block;
  for (const auto& block : blocks) {
    per_block.push_back(SupportedQuantile(block, q, what));
  }
  return Median(per_block);
}

/// The CPUs this thread may run on.
std::vector<int> AllowedCpus() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  Require(::sched_getaffinity(0, sizeof(allowed), &allowed) == 0, "sched_getaffinity");
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  }
  Require(!cpus.empty(), "no CPU to run on");
  return cpus;
}

/// Pins the calling thread — and so a daemon it forks next — and every
/// thread of process `pid` (when > 0) to `cpu`.
void PinTo(int cpu, int pid) {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  Require(::sched_setaffinity(0, sizeof(one), &one) == 0, "sched_setaffinity");
  if (pid <= 0) return;
  std::error_code ec;
  const std::string tasks = "/proc/" + std::to_string(pid) + "/task";
  for (const auto& task : std::filesystem::directory_iterator(tasks, ec)) {
    // A thread that exits between the listing and this call is skipped.
    (void)::sched_setaffinity(std::atoi(task.path().filename().c_str()),
                              sizeof(one), &one);
  }
}

double PeakRssMb(int pid) {
  const auto mb = perfbench::ReadVmHwmMb(pid);
  Require(mb.has_value(), "cannot read VmHWM");
  return *mb;
}

/// Median wall time of `reps` runs of a set-up step.
double MedianSetupSeconds(int reps, const std::function<void(int)>& step) {
  std::vector<double> times;
  for (int rep = 0; rep < reps; ++rep) {
    const int64_t t0 = NowNs();
    step(rep);
    times.push_back(Seconds(NowNs() - t0));
  }
  return Median(times);
}

constexpr int kSetupReps = 11;
// Fewest repeats of each input (query pass, ingest round) behind a median.
constexpr size_t kMinRepeats = 5;

uint64_t DigestDoubles(std::span<const double> values, uint64_t seed) {
  return perfbench::Fnv1a(values.data(), values.size() * sizeof(double), seed);
}

uint64_t KernelEvals() {
  return udm::obs::MetricsRegistry::Global()
      .GetCounter("kde.kernel_evals")
      .Value();
}

/// Shares of traced time per layer, from the spans' self times.
void AddLayerShares(const SpanRecorder& spans, Outcome& out) {
  const auto by_layer = perfbench::SelfTimeByLayerNs(spans.spans());
  int64_t total = 0;
  for (const auto& [layer, ns] : by_layer) total += ns;
  for (const char* layer : {"classify", "microcluster", "kde", "stream",
                            "robustness", "serve"}) {
    const auto it = by_layer.find(layer);
    const int64_t ns = it == by_layer.end() ? 0 : it->second;
    out.layer[std::string(layer) + ".self_share"] =
        total > 0 ? static_cast<double>(ns) / static_cast<double>(total)
                  : 0.0;
  }
  out.trace_json = spans.ChromeTraceJson();
  out.notes.push_back("per-layer self time (traced spans):");
  for (const auto& [layer, ns] : by_layer) {
    out.notes.push_back("  " + layer + std::string(14 - std::min<size_t>(13, layer.size()), ' ') +
                        Fmt("%10.3f ms", static_cast<double>(ns) / 1e6) +
                        Fmt("  %5.1f%%", total > 0 ? 100.0 * static_cast<double>(ns) /
                                                         static_cast<double>(total)
                                                   : 0.0));
  }
}

// ---------------------------------------------------------------------------
// classify_ionosphere: Explain on held-out rows after Train.

constexpr size_t kClassifyTrainRows = 6000;
constexpr size_t kClassifyQueryRows = 3000;
constexpr size_t kClassifyPopulation = 40000;

void RunClassify(uint64_t seed, double seconds, bool trace, Outcome& out) {
  SpanRecorder spans(trace);
  struct Inputs {
    udm::Dataset train;
    udm::ErrorModel train_errors;
    udm::Dataset queries;
  };
  std::optional<Inputs> inputs;
  const double setup_s = MedianSetupSeconds(kSetupReps, [&](int) {
    // One fixed mixture (the generator's structure seed is part of the
    // workload's definition); --seed draws the rows, their split and the
    // perturbation. The mixture's seed also places its clusters, so
    // seeding it per run would change how deep the roll-up goes.
    const udm::Dataset population = Must(
        udm::MakeIonosphereLike(kClassifyPopulation, /*seed=*/1), "MakeIonosphereLike");
    std::vector<size_t> order(population.NumRows());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::shuffle(order.begin(), order.end(), std::mt19937_64(seed));
    order.resize(kClassifyTrainRows + kClassifyQueryRows);
    udm::PerturbationOptions perturb;
    perturb.f = 1.2;
    perturb.seed = seed * 7919 + 17;
    udm::UncertainDataset noisy =
        Must(udm::Perturb(population.Select(order), perturb), "Perturb");
    std::vector<size_t> rows(order.size());
    for (size_t i = 0; i < rows.size(); ++i) rows[i] = i;
    const std::span<const size_t> all(rows);
    inputs.emplace(Inputs{noisy.data.Select(all.first(kClassifyTrainRows)),
                          noisy.errors.Select(all.first(kClassifyTrainRows)),
                          noisy.data.Select(all.subspan(kClassifyTrainRows))});
  });
  const udm::Dataset& train = inputs->train;
  const udm::ErrorModel& train_errors = inputs->train_errors;
  const udm::Dataset& queries = inputs->queries;
  uint64_t input_digest = DigestDoubles(train.values(), 0);
  for (size_t i = 0; i < train.NumRows(); ++i) {
    input_digest = DigestDoubles(train_errors.RowPsi(i), input_digest);
  }
  input_digest = DigestDoubles(queries.values(), input_digest);
  out.meta.push_back({"input_digest", perfbench::Hex64(input_digest)});

  const udm::DensityBasedClassifier::Options options;
  // Warm-up: one Train and a slice of queries (page in tables, caches).
  udm::DensityBasedClassifier model =
      Must(udm::DensityBasedClassifier::Train(train, train_errors, options),
           "Train");
  for (size_t i = 0; i < 100; ++i) {
    Require(model.Explain(queries.Row(i)).ok(), "warm-up Explain");
  }

  // Phase 1: training throughput (median of repeated Train calls).
  std::vector<double> train_s;
  std::vector<double> train_s_traced;
  const int64_t train_end = NowNs() + static_cast<int64_t>(0.3 * seconds * 1e9);
  while (NowNs() < train_end || train_s.size() < kMinRepeats) {
    const bool traced = trace && (train_s.size() + train_s_traced.size()) % 2 == 1;
    const int64_t t0 = NowNs();
    {
      const int span = traced ? spans.Begin("classify.train", "classify") : -1;
      model = Must(udm::DensityBasedClassifier::Train(train, train_errors,
                                                      options),
                   "Train");
      spans.End(span);
    }
    (traced ? train_s_traced : train_s).push_back(Seconds(NowNs() - t0));
    ++out.attempted;
  }

  // Phase 2: single-thread Explain over disjoint held-out rows, in passes.
  const size_t n = queries.NumRows();
  std::vector<int> first_pass(n, -1);
  std::vector<double> latency_us;  // untraced passes, raw
  std::vector<double> latency_us_traced;
  perfbench::PerInputSamples query_cost(n);
  size_t correct = 0;
  size_t fallbacks = 0;
  size_t budget_stops = 0;
  size_t rules = 0;
  size_t rule_dims_max = 0;
  double explain_s = 0.0;
  uint64_t explain_calls = 0;
  const uint64_t evals_before = KernelEvals();
  const int64_t query_end = NowNs() + static_cast<int64_t>(0.7 * seconds * 1e9);
  for (size_t pass = 0; pass == 0 || NowNs() < query_end ||
                        query_cost.min_repeats() < kMinRepeats;
       ++pass) {
    const bool traced = trace && pass % 2 == 1;
    std::vector<double>& sink = traced ? latency_us_traced : latency_us;
    for (size_t i = 0; i < n; ++i) {
      const std::span<const double> x = queries.Row(i);
      const int64_t t0 = NowNs();
      udm::Result<udm::DensityBasedClassifier::Explanation> explained =
          [&] {
            const int span =
                traced ? spans.Begin("classify.explain", "classify") : -1;
            auto r = model.Explain(x);
            spans.End(span);
            return r;
          }();
      const int64_t t1 = NowNs();
      ++out.attempted;
      ++explain_calls;
      explain_s += Seconds(t1 - t0);
      sink.push_back(static_cast<double>(t1 - t0) / 1e3);
      if (!traced) query_cost.Record(i, sink.back());
      if (!explained.ok()) {
        ++out.failed;
        Fail("Explain failed: " + explained.status().ToString());
      }
      const auto& e = explained.value();
      if (pass == 0) {
        first_pass[i] = e.predicted;
        if (e.predicted == queries.Label(i)) ++correct;
        if (e.used_fallback) ++fallbacks;
        if (e.stop_cause == udm::StopCause::kBudget) ++budget_stops;
        rules += e.selected.size();
        size_t widest = 0;
        for (const auto& rule : e.selected) {
          widest = std::max(widest, rule.dims.size());
        }
        rule_dims_max += widest;
      } else {
        Require(e.predicted == first_pass[i],
                "Explain is not deterministic across passes");
      }
    }
  }
  const uint64_t evals = KernelEvals() - evals_before;

  const double accuracy = static_cast<double>(correct) / static_cast<double>(n);
  // The generator's classes are separable well above chance at f = 1.2;
  // a result outside this band means the classifier changed behaviour.
  Require(accuracy >= 0.70 && accuracy <= 1.0,
          "held-out accuracy " + Fmt("%.4f", accuracy) + " outside [0.70, 1]");
  out.meta.push_back({"predicted_digest",
                      perfbench::Hex64(perfbench::Fnv1a(
                          first_pass.data(), first_pass.size() * sizeof(int)))});
  out.meta.push_back({"train_calls", std::to_string(train_s.size())});
  out.meta.push_back({"query_samples", std::to_string(latency_us.size())});

  out.e2e["setup_s"] = setup_s;
  out.e2e["peak_rss_mb"] = PeakRssMb(0);
  out.e2e["throughput_per_s"] = static_cast<double>(kClassifyTrainRows) / Median(train_s);
  const std::vector<double> cost = query_cost.Medians();
  out.e2e["p50_us"] = Quantile(cost, 0.5);
  out.e2e["p99_us"] = SupportedQuantile(cost, 0.99, "query latency");
  out.e2e["accuracy"] = accuracy;
  out.notes.push_back("train_records_per_s = " +
                      Fmt("%.1f", out.e2e["throughput_per_s"]) + " 1/s");
  out.notes.push_back("query_p50_us = " + Fmt("%.2f", out.e2e["p50_us"]) +
                      " us, query_p99_us = " + Fmt("%.2f", out.e2e["p99_us"]) +
                      " us (over " + std::to_string(n) +
                      " queries, each the median of " +
                      std::to_string(query_cost.min_repeats()) + "+ passes)");
  out.notes.push_back(Shape("raw query latency us", latency_us));

  if (!trace) return;

  // Attribution (traced run only): Train's own work, replayed through the
  // public micro-cluster API exactly as Train performs it.
  const udm::DensityEvalOptions density = options.density;
  udm::MicroClusterer::Options mc_options;
  mc_options.num_clusters = options.num_clusters;
  int64_t assign_ns = 0;
  std::vector<double> build_ms;
  {
    ScopedSpan replay(spans, "classify.train_replay", "classify");
    auto summarize = [&](const udm::Dataset& data,
                         const udm::ErrorModel& errors) {
      const int64_t t0 = NowNs();
      std::vector<udm::MicroCluster> summary;
      {
        ScopedSpan s(spans, "microcluster.assign", "microcluster");
        summary = Must(udm::BuildMicroClusters(data, errors, mc_options),
                       "BuildMicroClusters");
      }
      const int64_t t1 = NowNs();
      {
        ScopedSpan s(spans, "microcluster.model_build", "microcluster");
        Must(udm::McDensityModel::Build(summary, density), "Build");
      }
      assign_ns += t1 - t0;
      build_ms.push_back(static_cast<double>(NowNs() - t1) / 1e6);
    };
    summarize(train, train_errors);
    for (size_t c = 0; c < train.NumClasses(); ++c) {
      const std::vector<size_t> idx = train.IndicesOfLabel(static_cast<int>(c));
      summarize(train.Select(idx), train_errors.Select(idx));
    }
  }
  // Density-based local accuracy on singleton and adjacent-pair subspaces.
  std::vector<double> score_us;
  for (size_t i = 0; i < 100; ++i) {
    const std::span<const double> x = queries.Row(i);
    for (size_t j = 0; j < queries.NumDims(); ++j) {
      for (size_t width = 1; width <= 2 && j + width <= queries.NumDims();
           ++width) {
        std::vector<size_t> dims;
        for (size_t k = 0; k < width; ++k) dims.push_back(j + k);
        const int64_t t0 = NowNs();
        {
          ScopedSpan s(spans, "classify.score", "classify");
          volatile double v = model.LogLocalAccuracy(x, dims, 0);
          (void)v;
        }
        score_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
      }
    }
  }

  const double train_median = Median(train_s);
  out.layer["classify.train_us_per_record"] =
      train_median * 1e6 / static_cast<double>(kClassifyTrainRows);
  out.layer["microcluster.assign_us_per_record"] =
      static_cast<double>(assign_ns) / 1e3 /
      static_cast<double>(2 * kClassifyTrainRows);
  out.layer["microcluster.assign_share"] = Seconds(assign_ns) / train_median;
  out.layer["microcluster.model_build_ms"] = build_ms.front();
  out.layer["classify.explain_us_mean"] =
      explain_s * 1e6 / static_cast<double>(explain_calls);
  out.layer["classify.score_us"] = Mean(score_us);
  out.layer["classify.fallback_fraction"] =
      static_cast<double>(fallbacks) / static_cast<double>(n);
  out.layer["classify.rules_per_query"] =
      static_cast<double>(rules) / static_cast<double>(n);
  out.layer["classify.rule_dims_max_mean"] =
      static_cast<double>(rule_dims_max) / static_cast<double>(n);
  out.layer["classify.budget_stop_fraction"] =
      static_cast<double>(budget_stops) / static_cast<double>(n);
  out.layer["kde.kernel_evals_per_query"] =
      static_cast<double>(evals) / static_cast<double>(explain_calls);
  out.layer["kde.kernel_evals_per_s"] = static_cast<double>(evals) / explain_s;
  out.layer["obs.trace_overhead_fraction"] =
      Median(latency_us_traced) / Median(latency_us) - 1.0;
  AddLayerShares(spans, out);
}

// ---------------------------------------------------------------------------
// ingest_forest: a long forest-like stream through ShardedSummarizer.

// A round streams the pool once through a fresh summarizer, so batch k of
// every round does the same work; its cost is the median over rounds.
// Refreshes (merge + model build) land in ~3% of batches and set the p99.
// Each shard checkpoints once per round, in at most 4 of the 1000 batch
// positions (fewer than the 10 beyond the p99), so the host's fsync latency
// shows in the per-layer save time and the far tail, not in the p99.
constexpr size_t kIngestPool = 256000;     // records per round (1000 batches)
constexpr size_t kIngestBatch = 256;       // records per IngestBatch call
constexpr size_t kRefreshEvery = 8192;     // records between model refreshes
constexpr size_t kCheckpointEvery = 60000; // records per shard between saves
constexpr size_t kIngestShards = 4;
constexpr size_t kDrainWidth = 2;

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

void RunIngest(uint64_t seed, double seconds, bool trace, Outcome& out) {
  namespace fs = std::filesystem;
  SpanRecorder spans(trace);
  std::optional<udm::UncertainDataset> noisy;
  const double setup_s = MedianSetupSeconds(kSetupReps, [&](int) {
    const udm::Dataset clean =
        Must(udm::MakeForestCoverLike(kIngestPool, seed), "MakeForestCoverLike");
    udm::PerturbationOptions perturb;
    perturb.f = 1.0;
    perturb.seed = seed * 7919 + 29;
    noisy.emplace(Must(udm::Perturb(clean, perturb), "Perturb"));
  });
  const udm::UncertainDataset& pool = *noisy;
  const size_t dims = pool.data.NumDims();
  std::vector<udm::RecordView> records;
  records.reserve(kIngestPool);
  for (size_t i = 0; i < kIngestPool; ++i) {
    records.push_back(
        udm::RecordView{pool.data.Row(i), pool.errors.RowPsi(i), i + 1});
  }
  uint64_t input_digest = DigestDoubles(pool.data.values(), 0);
  for (size_t i = 0; i < kIngestPool; ++i) {
    input_digest = DigestDoubles(pool.errors.RowPsi(i), input_digest);
  }
  out.meta.push_back({"input_digest", perfbench::Hex64(input_digest)});

  udm::ShardedSummarizerOptions options;
  options.num_shards = kIngestShards;
  options.threads = kDrainWidth;
  options.checkpoint_every = kCheckpointEvery;
  options.shard_options.num_clusters = 140;

  auto& registry = udm::obs::MetricsRegistry::Global();
  udm::obs::Histogram& save_hist = registry.GetHistogram("checkpoint.save.seconds");
  udm::obs::Counter& checkpoints = registry.GetCounter("shard.checkpoints");

  std::vector<double> batch_us;           // current untraced round
  std::vector<double> batch_us_traced;
  double ingest_s = 0.0;        // untraced rounds: batch loop wall time
  double ingest_s_traced = 0.0;
  uint64_t ingested = 0;
  uint64_t ingested_traced = 0;
  double ingest_cpu_s = 0.0;    // untraced rounds: CPU inside IngestBatch
  double ingest_call_s = 0.0;
  uint64_t ingest_calls = 0;
  std::vector<double> merge_ms;
  std::vector<double> build_ms;
  double route_s = 0.0;
  uint64_t routed = 0;
  double skew = 0.0;
  const uint64_t saves_before = checkpoints.Value();
  const uint64_t save_count_before = save_hist.Count();
  const double save_sum_before = save_hist.Sum();

  auto run_round = [&](size_t round, bool traced) {
    const std::string dir = "ckpt-" + std::to_string(round % 2);
    fs::remove_all(dir);
    options.checkpoint_dir = dir;
    udm::ShardedSummarizer sharded =
        Must(udm::ShardedSummarizer::Create(dims, options), "Create");
    udm::ExecContext ctx;
    const int64_t round_t0 = NowNs();
    for (size_t at = 0; at < kIngestPool; at += kIngestBatch) {
      const size_t len = std::min(kIngestBatch, kIngestPool - at);
      const std::span<const udm::RecordView> batch =
          std::span<const udm::RecordView>(records).subspan(at, len);
      if (traced) {
        // Routing cost, measured on the batch the summarizer is about to
        // route itself (the call below repeats it).
        const int64_t r0 = NowNs();
        ScopedSpan s(spans, "stream.route", "stream");
        size_t sink = 0;
        for (const udm::RecordView& r : batch) sink += sharded.ShardFor(r);
        volatile size_t keep = sink;
        (void)keep;
        route_s += Seconds(NowNs() - r0);
        routed += len;
      }
      const int64_t t0 = NowNs();
      const double cpu0 = traced ? 0.0 : ProcessCpuSeconds();
      const uint64_t saves0 = save_hist.Count();
      const double save_sum0 = save_hist.Sum();
      const int batch_span = spans.Begin("stream.ingest_batch", "stream");
      udm::Result<udm::ShardedIngestResult> result =
          sharded.IngestBatch(batch, ctx);
      const int64_t t_ingested = NowNs();
      if (traced && save_hist.Count() > saves0) {
        // Checkpoint saves run inside IngestBatch; their registry time is
        // charged to robustness as a child span ending with the call.
        const int64_t save_ns =
            static_cast<int64_t>((save_hist.Sum() - save_sum0) * 1e9);
        spans.AddClosed("robustness.checkpoint_save", "robustness",
                        t_ingested - save_ns, t_ingested, batch_span);
      }
      if (!traced) {
        ingest_cpu_s += ProcessCpuSeconds() - cpu0;
        ingest_call_s += Seconds(t_ingested - t0);
        ++ingest_calls;
      }
      ++out.attempted;
      if (!result.ok() || result.value().consumed != len ||
          result.value().stop_cause != udm::StopCause::kCompleted ||
          result.value().shards_degraded != 0) {
        ++out.failed;
        Fail("IngestBatch did not absorb the whole batch: " +
             (result.ok() ? std::string("stop/degraded") : result.status().ToString()));
      }
      if ((at + len) % kRefreshEvery < len) {
        // Model refresh: merge the shard summaries and rebuild the model.
        const int64_t m0 = NowNs();
        udm::MergeResult merged;
        {
          ScopedSpan s(spans, "stream.merge", "stream");
          merged = sharded.MergedSummary(ctx);
        }
        const int64_t m1 = NowNs();
        Require(merged.complete(), "refresh merge skipped shards");
        {
          ScopedSpan s(spans, "microcluster.model_build", "microcluster");
          Must(udm::McDensityModel::Build(merged.clusters), "refresh Build");
        }
        if (traced) {
          merge_ms.push_back(static_cast<double>(m1 - m0) / 1e6);
          build_ms.push_back(static_cast<double>(NowNs() - m1) / 1e6);
        }
      }
      spans.End(batch_span);
      (traced ? batch_us_traced : batch_us)
          .push_back(static_cast<double>(NowNs() - t0) / 1e3);
    }
    const double round_s = Seconds(NowNs() - round_t0);
    (traced ? ingest_s_traced : ingest_s) += round_s;
    (traced ? ingested_traced : ingested) += kIngestPool;

    // Correctness gates, off the timed path.
    Require(sharded.num_degraded() == 0, "a shard is degraded");
    Require(sharded.records_routed() == kIngestPool, "records_routed mismatch");
    Require(sharded.AggregateIngestStats().records_ok == kIngestPool,
            "records_ok != records sent");
    const udm::MergeResult merged = sharded.MergedSummary(ctx);
    Require(merged.complete(), "final merge skipped shards");
    uint64_t members = 0;
    for (const udm::MicroCluster& c : merged.clusters) members += c.Count();
    Require(members == kIngestPool,
            "merged cluster counts " + std::to_string(members) +
                " != records ingested " + std::to_string(kIngestPool));
    const udm::McDensityModel snapshot =
        Must(sharded.MergedSnapshot(ctx), "MergedSnapshot");
    Require(snapshot.total_count() == kIngestPool, "snapshot total_count");
    uint64_t max_routed = 0;
    for (size_t i = 0; i < sharded.num_shards(); ++i) {
      max_routed = std::max(max_routed, sharded.shard_status(i).records_routed);
    }
    skew = static_cast<double>(max_routed) * static_cast<double>(kIngestShards) /
           static_cast<double>(kIngestPool);
  };

  // Warm-up round (untimed): pool threads, allocator, checkpoint dirs.
  run_round(0, false);
  batch_us.clear();
  ingest_s = 0.0;
  ingested = 0;
  ingest_cpu_s = ingest_call_s = 0.0;
  ingest_calls = 0;
  out.attempted = 0;

  // Untraced rounds give a rate each and a cost per batch position.
  perfbench::PerInputSamples batch_cost(kIngestPool / kIngestBatch);
  std::vector<double> round_rate;
  std::vector<double> raw_batch_us;
  const int64_t end = NowNs() + static_cast<int64_t>(seconds * 1e9);
  size_t round = 1;
  while (NowNs() < end || round_rate.size() < kMinRepeats) {
    const bool traced = trace && round % 3 == 0;
    const double s0 = ingest_s;
    run_round(round, traced);
    ++round;
    if (traced) continue;
    round_rate.push_back(static_cast<double>(kIngestPool) / (ingest_s - s0));
    for (size_t k = 0; k < batch_us.size(); ++k) batch_cost.Record(k, batch_us[k]);
    raw_batch_us.insert(raw_batch_us.end(), batch_us.begin(), batch_us.end());
    batch_us.clear();
  }
  std::error_code ignored;
  fs::remove_all("ckpt-0", ignored);
  fs::remove_all("ckpt-1", ignored);

  out.meta.push_back({"rounds", std::to_string(round - 1)});
  out.notes.push_back("median round rate of " + std::to_string(round_rate.size()) +
                      Fmt(" rounds; best %.1f records/s",
                          *std::max_element(round_rate.begin(), round_rate.end())));
  out.e2e["setup_s"] = setup_s;
  out.e2e["peak_rss_mb"] = PeakRssMb(0);
  const std::vector<double> cost = batch_cost.Medians();
  out.e2e["throughput_per_s"] = Median(round_rate);
  out.e2e["p50_us"] = Quantile(cost, 0.5);
  out.e2e["p99_us"] = SupportedQuantile(cost, 0.99, "ingest batch latency");
  out.e2e["accuracy"] = 1.0;  // every gate above passed: all records accounted
  out.notes.push_back("ingest_records_per_s = " +
                      Fmt("%.1f", out.e2e["throughput_per_s"]) + " 1/s");
  out.notes.push_back("ingest_batch_p50_us = " + Fmt("%.2f", out.e2e["p50_us"]) +
                      " us, ingest_batch_p99_us = " +
                      Fmt("%.2f", out.e2e["p99_us"]) + " us (over " +
                      std::to_string(cost.size()) +
                      " batch positions, each the median of " +
                      std::to_string(batch_cost.min_repeats()) + "+ rounds)");
  out.notes.push_back(Shape("raw batch latency us", raw_batch_us));
  if (!trace) return;

  // Assignment cost alone: one MicroClusterer over the same records.
  udm::MicroClusterer::Options mc_options;
  mc_options.num_clusters = options.shard_options.num_clusters;
  udm::MicroClusterer clusterer =
      Must(udm::MicroClusterer::Create(dims, mc_options), "MicroClusterer");
  const size_t assign_records = 20000;
  const int64_t a0 = NowNs();
  {
    ScopedSpan s(spans, "microcluster.assign", "microcluster");
    for (size_t i = 0; i < assign_records; ++i) {
      clusterer.Add(records[i].values, records[i].psi);
    }
  }
  const double assign_us =
      static_cast<double>(NowNs() - a0) / 1e3 / static_cast<double>(assign_records);
  const double cpu_us_per_record =
      ingest_cpu_s * 1e6 / static_cast<double>(ingested);

  const uint64_t save_count = save_hist.Count() - save_count_before;
  out.layer["microcluster.assign_us_per_record"] = assign_us;
  out.layer["microcluster.assign_share"] = assign_us / cpu_us_per_record;
  out.layer["microcluster.model_build_ms"] = Median(build_ms);
  out.layer["stream.ingest_batch_us_mean"] =
      ingest_call_s * 1e6 / static_cast<double>(ingest_calls);
  out.layer["stream.ingest_cpu_us_per_record"] = cpu_us_per_record;
  out.layer["stream.route_ns_per_record"] = route_s * 1e9 / static_cast<double>(routed);
  out.layer["stream.shard_skew"] = skew;
  out.layer["stream.merge_ms"] = Median(merge_ms);
  out.layer["robustness.checkpoint_save_ms"] =
      save_count == 0 ? 0.0
                      : (save_hist.Sum() - save_sum_before) * 1e3 /
                            static_cast<double>(save_count);
  out.layer["robustness.checkpoints"] =
      static_cast<double>(checkpoints.Value() - saves_before);
  out.layer["obs.trace_overhead_fraction"] =
      (static_cast<double>(ingested) / ingest_s) /
          (static_cast<double>(ingested_traced) / ingest_s_traced) -
      1.0;
  AddLayerShares(spans, out);
}

// ---------------------------------------------------------------------------
// Serve workloads: a spawned udm_serve daemon.

class Daemon {
 public:
  Daemon() = default;
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() { Stop(); }

  void Start(const std::string& bin, const std::string& manifest,
             const std::string& socket) {
    int fds[2];
    Require(::pipe2(fds, O_CLOEXEC) == 0, "pipe2");
    std::fflush(stdout);
    std::fflush(stderr);
    pid_ = ::fork();
    Require(pid_ >= 0, "fork");
    if (pid_ == 0) {
      ::dup2(fds[1], STDOUT_FILENO);
      // Two workers, as the workloads specify; a queue deep enough that a
      // catch-up burst after a host stall is queued, not shed.
      const char* argv[] = {bin.c_str(), "--manifest", manifest.c_str(),
                            "--socket",  socket.c_str(), "--workers",
                            "2",         "--max-queue", "1024",
                            nullptr};
      ::execv(bin.c_str(), const_cast<char* const*>(argv));
      std::_Exit(127);
    }
    g_daemon_pid = pid_;
    ::close(fds[1]);
    out_fd_ = fds[0];
    std::string seen;
    char buf[256];
    while (seen.find('\n') == std::string::npos) {
      const ssize_t n = ::read(out_fd_, buf, sizeof(buf));
      Require(n > 0, "udm_serve exited before listening");
      seen.append(buf, static_cast<size_t>(n));
    }
    Require(seen.rfind("listening on", 0) == 0,
            "unexpected udm_serve banner: " + seen);
  }

  int pid() const { return pid_; }

  /// SIGTERM, then wait for the graceful drain (SIGKILL after 20 s).
  void Stop() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGTERM);
    int status = 0;
    for (int i = 0; i < 2000; ++i) {
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        break;
      }
      ::usleep(10000);
    }
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      pid_ = -1;
    }
    g_daemon_pid = -1;
    if (out_fd_ >= 0) ::close(out_fd_);
    out_fd_ = -1;
  }

 private:
  int pid_ = -1;
  int out_fd_ = -1;
};

udm::serve::ServeClient Connect(const std::string& socket) {
  return Must(udm::serve::ServeClient::Connect(socket), "connect");
}

udm::serve::ServeResponse Admin(udm::serve::ServeClient& client,
                                udm::serve::ServeOp op) {
  udm::serve::ServeRequest request;
  request.op = op;
  udm::serve::ServeResponse response =
      Must(client.Call(request, 10000.0), "admin call");
  Require(response.status == udm::serve::ServeStatus::kOk,
          "admin verb refused: " + response.message);
  return response;
}

/// Cumulative histogram buckets and counters scraped from the `metrics`
/// verb's exposition.
struct Scrape {
  std::map<std::string, std::map<double, double>> buckets;  // name -> le -> cum
  std::map<std::string, double> values;                     // plain series
};

Scrape ScrapeMetrics(udm::serve::ServeClient& client) {
  Scrape scrape;
  std::istringstream text(Admin(client, udm::serve::ServeOp::kMetrics).text);
  std::string line;
  while (std::getline(text, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    const std::string key = line.substr(0, space);
    const double value = std::strtod(line.c_str() + space + 1, nullptr);
    const size_t le = key.find("_bucket{le=\"");
    if (le != std::string::npos) {
      const std::string bound = key.substr(le + 12, key.size() - le - 14);
      scrape.buckets[key.substr(0, le)][bound == "+Inf" ? INFINITY
                                                        : std::strtod(bound.c_str(), nullptr)] =
          value;
    } else if (key.find('{') == std::string::npos) {
      scrape.values[key] = value;
    }
  }
  return scrape;
}

/// Quantile of the observations recorded between two scrapes, by linear
/// interpolation inside the covering bucket (same rule as obs::Histogram).
double DeltaQuantile(const Scrape& before, const Scrape& after,
                     const std::string& name, double q) {
  auto cumulative = [&](const Scrape& s, double bound) {
    const auto it = s.buckets.find(name);
    if (it == s.buckets.end()) return 0.0;
    double value = 0.0;
    for (const auto& [le, cum] : it->second) {
      if (le <= bound) value = cum;
    }
    return value;
  };
  const auto it = after.buckets.find(name);
  if (it == after.buckets.end()) return 0.0;
  std::vector<std::pair<double, double>> delta;  // (le, cumulative delta)
  for (const auto& [le, cum] : it->second) {
    delta.push_back({le, cumulative(after, le) - cumulative(before, le)});
  }
  if (delta.empty() || delta.back().second <= 0.0) return 0.0;
  const double target = q * delta.back().second;
  double prev_le = 0.0;
  double prev_cum = 0.0;
  for (const auto& [le, cum] : delta) {
    if (cum >= target && cum > prev_cum) {
      if (!std::isfinite(le)) return prev_le;
      return prev_le + (le - prev_le) * (target - prev_cum) / (cum - prev_cum);
    }
    prev_le = le;
    prev_cum = cum;
  }
  return prev_le;
}

struct ServeFixture {
  std::string manifest = "models.txt";
  std::string socket = "udm.sock";
  std::string model = "m";
  std::vector<std::vector<double>> requests;  // row-major points per request
  size_t dims = 0;
  uint64_t input_digest = 0;
};

ServeFixture MakeServeFixture(uint64_t seed, size_t rows, size_t num_requests,
                              size_t points_per_request) {
  ServeFixture fx;
  const udm::Dataset data = Must(udm::MakeAdultLike(rows, seed), "MakeAdultLike");
  MustOk(udm::WriteCsv(data, "data.csv"), "WriteCsv");
  {
    std::ofstream manifest(fx.manifest);
    manifest << "udm-models 1\nerror_kde " << fx.model << " data.csv 0.25\n";
    Require(manifest.good(), "write manifest");
  }
  fx.dims = data.NumDims();
  std::mt19937_64 rng(seed ^ 0x5eedULL);
  std::uniform_int_distribution<size_t> pick(0, rows - 1);
  std::normal_distribution<double> jitter(0.0, 0.5);
  fx.input_digest = DigestDoubles(data.values(), 0);
  for (size_t r = 0; r < num_requests; ++r) {
    std::vector<double> points;
    for (size_t p = 0; p < points_per_request; ++p) {
      const std::span<const double> row = data.Row(pick(rng));
      for (double v : row) points.push_back(v + jitter(rng));
    }
    fx.input_digest = DigestDoubles(points, fx.input_digest);
    fx.requests.push_back(std::move(points));
  }
  return fx;
}

udm::serve::ServeRequest EvalRequestFor(const ServeFixture& fx, size_t index,
                                        uint64_t id) {
  udm::serve::ServeRequest request;
  request.op = udm::serve::ServeOp::kEval;
  request.id_json = std::to_string(id);
  request.model = fx.model;
  request.points = fx.requests[index];
  request.dims = fx.dims;
  request.num_points = request.points.size() / fx.dims;
  return request;
}

/// Spawns the daemon kSetupReps times (keeping the last) and returns the
/// median spawn → fit → first ping time.
double StartDaemon(const std::string& bin, const ServeFixture& fx,
                   Daemon& daemon) {
  return MedianSetupSeconds(kSetupReps, [&](int rep) {
    if (rep > 0) daemon.Stop();
    daemon.Start(bin, fx.manifest, fx.socket);
    udm::serve::ServeClient client = Connect(fx.socket);
    Admin(client, udm::serve::ServeOp::kPing);
  });
}

/// Served densities must be bit-identical to the library's Evaluate of the
/// same request on an identically loaded model.
void CheckBitIdentical(const ServeFixture& fx,
                       const std::map<size_t, std::vector<double>>& served,
                       Outcome& out) {
  udm::serve::ModelRegistry registry;
  MustOk(registry.LoadManifest(fx.manifest), "LoadManifest");
  const auto entry = registry.Find(fx.model);
  Require(entry != nullptr, "model missing from in-process registry");
  Require(!served.empty(), "no served densities sampled");
  for (const auto& [index, densities] : served) {
    udm::EvalRequest request;
    request.points = fx.requests[index];
    const udm::EvalResult result = Must(entry->Evaluate(request), "Evaluate");
    if (index == served.begin()->first) {
      out.meta.push_back({"eval_simd", udm::SimdLevelName(result.stats.simd)});
    }
    Require(result.densities.size() == densities.size(),
            "served density count differs");
    Require(std::memcmp(result.densities.data(), densities.data(),
                        densities.size() * sizeof(double)) == 0,
            "served densities differ from library Evaluate for request " +
                std::to_string(index));
  }
  out.meta.push_back({"bit_identical_requests", std::to_string(served.size())});
}

/// Library and codec cost of the workload's own requests, on a model
/// fitted exactly as the daemon fits it (traced runs only).
void AttributeLibrary(const ServeFixture& fx, SpanRecorder& spans,
                      Outcome& out) {
  udm::serve::ModelRegistry registry;
  MustOk(registry.LoadManifest(fx.manifest), "LoadManifest");
  const auto entry = registry.Find(fx.model);
  const size_t sample = std::min<size_t>(fx.requests.size(), 256);
  double eval_us = 0.0;
  double codec_us = 0.0;
  udm::EvalStats totals;
  uint64_t summands = 0;
  const udm::serve::ProtocolLimits limits;
  for (size_t i = 0; i < sample; ++i) {
    udm::EvalRequest request;
    request.points = fx.requests[i];
    const int64_t t0 = NowNs();
    udm::EvalResult result;
    {
      ScopedSpan s(spans, "kde.evaluate", "kde");
      result = Must(entry->Evaluate(request), "Evaluate");
    }
    const int64_t t1 = NowNs();
    eval_us += static_cast<double>(t1 - t0) / 1e3;
    totals.pruned_terms += result.stats.pruned_terms;
    totals.cells_visited += result.stats.cells_visited;
    totals.cells_pruned += result.stats.cells_pruned;
    summands += result.stats.points_evaluated *
                entry->error_kde->num_points();
    {
      ScopedSpan s(spans, "serve.codec", "serve");
      const std::string frame = udm::serve::SerializeRequest(
          EvalRequestFor(fx, i, i));
      const udm::serve::ServeRequest parsed =
          Must(udm::serve::ParseRequestFrame(frame, limits), "ParseRequestFrame");
      udm::serve::ServeResponse response;
      response.id_json = parsed.id_json;
      response.densities = result.densities;
      response.requested = response.evaluated = parsed.num_points;
      const std::string reply = udm::serve::SerializeResponse(response);
      Must(udm::serve::ParseResponseFrame(reply, limits), "ParseResponseFrame");
    }
    codec_us += static_cast<double>(NowNs() - t1) / 1e3;
  }
  const double n = static_cast<double>(sample);
  out.layer["kde.eval_us_per_request"] = eval_us / n;
  out.layer["serve.codec_us_per_request"] = codec_us / n;
  out.layer["kde.pruned_fraction"] =
      summands == 0 ? 0.0
                    : static_cast<double>(totals.pruned_terms) /
                          static_cast<double>(summands);
  const uint64_t cells = totals.cells_visited + totals.cells_pruned;
  out.layer["kde.cells_pruned_fraction"] =
      cells == 0 ? 0.0
                 : static_cast<double>(totals.cells_pruned) /
                       static_cast<double>(cells);
}

/// Server-side split of the timed phase, from two `metrics` scrapes.
void AttributeServer(const Scrape& before, const Scrape& after,
                     double client_mean_us, Outcome& out) {
  const double req_p50 =
      DeltaQuantile(before, after, "udm_serve_request_seconds", 0.5) * 1e6;
  out.layer["serve.server_request_us_p50"] = req_p50;
  out.layer["serve.server_request_us_p99"] =
      DeltaQuantile(before, after, "udm_serve_request_seconds", 0.99) * 1e6;
  out.layer["serve.queue_wait_us_p50"] =
      DeltaQuantile(before, after, "udm_serve_queue_wait_seconds", 0.5) * 1e6;
  out.layer["serve.queue_wait_us_p99"] =
      DeltaQuantile(before, after, "udm_serve_queue_wait_seconds", 0.99) * 1e6;
  auto delta = [&](const char* name) {
    const auto a = after.values.find(name);
    const auto b = before.values.find(name);
    return (a == after.values.end() ? 0.0 : a->second) -
           (b == before.values.end() ? 0.0 : b->second);
  };
  // Means from the histograms' exact _sum/_count (the quantiles above are
  // interpolated inside 2x-wide buckets, too coarse to subtract).
  const double server_mean_us = delta("udm_serve_request_seconds_sum") * 1e6 /
                                std::max(1.0, delta("udm_serve_request_seconds_count"));
  out.layer["serve.outside_us_mean"] = client_mean_us - server_mean_us;
  const double served = std::max(1.0, delta("udm_serve_served_total"));
  out.layer["serve.shed_fraction"] = delta("udm_serve_shed_total") / served;
  out.layer["serve.degraded_fraction"] = delta("udm_serve_degraded_total") / served;
  out.notes.push_back("daemon stage split over the timed phase (from metrics):");
  out.notes.push_back("  request p50 " + Fmt("%.1f", req_p50) + " us, queue wait p50 " +
                      Fmt("%.1f", out.layer["serve.queue_wait_us_p50"]) +
                      " us; mean request " + Fmt("%.1f", server_mean_us) +
                      " us, outside the daemon (mean) " +
                      Fmt("%.1f", out.layer["serve.outside_us_mean"]) + " us");
}

double KdeEvalsFromStats(udm::serve::ServeClient& client) {
  const std::string json = Admin(client, udm::serve::ServeOp::kStats).stats_json;
  const udm::obs::JsonValue doc =
      Must(udm::obs::JsonValue::Parse(json), "stats json");
  const udm::obs::JsonValue* kde = doc.Find("kde");
  const udm::obs::JsonValue* evals = kde ? kde->Find("kernel_evals") : nullptr;
  Require(evals != nullptr && evals->is_number(), "stats.kde.kernel_evals");
  return evals->number();
}

/// Closed-loop calls on one connection in alternating traced / untraced
/// blocks; each traced call is a serve span. Records the tracing overhead
/// (traced median over untraced median) and the share of a lone request's
/// time spent outside the library evaluation measured beside it.
void TracedClosedLoop(const ServeFixture& fx, SpanRecorder& spans,
                      size_t per_block, Outcome& out) {
  udm::serve::ServeClient client = Connect(fx.socket);
  udm::serve::ModelRegistry registry;
  MustOk(registry.LoadManifest(fx.manifest), "LoadManifest");
  const auto entry = registry.Find(fx.model);
  std::vector<double> latency[2];
  std::vector<double> library_us;  // paired with the untraced calls
  for (size_t block = 0; block < 4; ++block) {
    const bool traced = block % 2 == 0;
    for (size_t i = 0; i < per_block; ++i) {
      const size_t index = (block * per_block + i) % fx.requests.size();
      if (!traced) {
        udm::EvalRequest request;
        request.points = fx.requests[index];
        const int64_t l0 = NowNs();
        Must(entry->Evaluate(request), "Evaluate");
        library_us.push_back(static_cast<double>(NowNs() - l0) / 1e3);
      }
      const int64_t t0 = NowNs();
      {
        const int span = traced ? spans.Begin("serve.request", "serve") : -1;
        const auto r = Must(client.Call(EvalRequestFor(fx, index, i), 10000.0),
                            "closed-loop call");
        Require(r.status == udm::serve::ServeStatus::kOk, "closed-loop status");
        spans.End(span);
      }
      latency[traced ? 1 : 0].push_back(static_cast<double>(NowNs() - t0) / 1e3);
    }
  }
  out.layer["obs.trace_overhead_fraction"] =
      Median(latency[1]) / Median(latency[0]) - 1.0;
  // Each untraced call follows a library Evaluate of the same request, so
  // host drift over the run does not enter the ratio.
  out.layer["serve.non_kde_fraction"] = 1.0 - Median(library_us) / Median(latency[0]);
}

/// One open-loop phase at `rate` over one pipelined connection: a sender
/// thread on the schedule and a receiver thread matching responses by id.
struct OpenLoopResult {
  perfbench::LatenessLog log;
  double seconds = 0.0;  // schedule length
  /// Latency (ok responses) and sender lag per second of schedule.
  std::vector<std::vector<double>> latency_blocks;
  std::vector<std::vector<double>> lag_blocks;
  size_t partial = 0;
};

OpenLoopResult RunOpenLoop(const ServeFixture& fx, double rate, double seconds) {
  const size_t count = static_cast<size_t>(rate * seconds);
  std::vector<std::string> frames(count);
  for (size_t i = 0; i < count; ++i) {
    frames[i] = udm::serve::SerializeRequest(
                    EvalRequestFor(fx, i % fx.requests.size(), i)) +
                "\n";
  }
  udm::serve::ServeClient client = Connect(fx.socket);
  OpenLoopResult result;
  std::vector<int64_t> sent_ns(count, 0);
  std::vector<int64_t> received_ns(count, 0);
  std::vector<char> ok(count, 0);
  std::atomic<size_t> received{0};
  const int64_t start = NowNs() + 2'000'000;
  const perfbench::OpenLoopSchedule schedule(start, rate);
  const int64_t phase_end = schedule.DueNs(count);
  result.seconds = Seconds(phase_end - start);

  std::thread receiver([&] {
    const udm::serve::ProtocolLimits limits;
    while (received.load(std::memory_order_relaxed) < count) {
      udm::Result<std::string> frame = client.ReadFrame(5000.0);
      if (!frame.ok()) break;
      const int64_t now = NowNs();
      udm::Result<udm::serve::ServeResponse> response =
          udm::serve::ParseResponseFrame(frame.value(), limits);
      if (!response.ok()) break;
      const size_t id = std::strtoull(response.value().id_json.c_str(), nullptr, 10);
      if (id >= count) break;
      received_ns[id] = now;
      ok[id] = response.value().status == udm::serve::ServeStatus::kOk;
      if (response.value().status == udm::serve::ServeStatus::kPartial) {
        ++result.partial;
      }
      received.fetch_add(1, std::memory_order_relaxed);
    }
  });

  // Wake on time: the default 50 us timer slack would add itself to every
  // request's lateness.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  size_t next = 0;
  while (next < count) {
    const int64_t due = schedule.DueNs(next);
    timespec ts{static_cast<time_t>(due / 1'000'000'000),
                static_cast<long>(due % 1'000'000'000)};
    if (NowNs() < due) clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr);
    // Send everything due by now: a late wake-up catches up on the
    // schedule instead of shifting it.
    const uint64_t due_by = std::min<uint64_t>(count, schedule.DueBy(NowNs()));
    std::string burst;
    const size_t first = next;
    for (; next < due_by || next == first; ++next) burst += frames[next];
    const int64_t now = NowNs();
    for (size_t i = first; i < next; ++i) sent_ns[i] = now;
    MustOk(client.SendRaw(burst), "send");
  }
  receiver.join();
  const size_t blocks = std::max<size_t>(1, static_cast<size_t>(result.seconds));
  result.latency_blocks.resize(blocks);
  result.lag_blocks.resize(blocks);
  for (size_t i = 0; i < count; ++i) {
    const int64_t due = schedule.DueNs(i);
    result.log.RecordSend(due, sent_ns[i]);
    const bool good = ok[i] != 0 && received_ns[i] != 0;
    result.log.RecordResponse(due, received_ns[i], good);
    const size_t block = std::min(blocks - 1, static_cast<size_t>(Seconds(due - start)));
    result.lag_blocks[block].push_back(result.log.lag_us().back());
    if (good) result.latency_blocks[block].push_back(result.log.latency_us().back());
  }
  return result;
}

// The open-loop offered rate of serve_small's traced phase: about half the
// one-CPU closed-loop rate measured when the benchmark was defined
// (16-18k req/s on a 4-vCPU host).
constexpr double kSmallRate = 8000.0;
// Fewest closed-loop passes over serve_small's request pool on each CPU; a
// run at the default length makes 12-18 on each of 4.
constexpr size_t kSmallMinPasses = 5;

void RunServeSmall(uint64_t seed, double seconds, bool trace,
                   const std::string& bin, Outcome& out) {
  SpanRecorder spans(trace);
  // The client and the daemon share one CPU. A 1-point request is a chain
  // of hand-offs (client → reader → worker → client); on a VM, waking an
  // idle vCPU for each hand-off costs more, and varies more, than the
  // serving code itself. On one CPU every hand-off is a plain context
  // switch, so the numbers measure the serving path's own CPU cost.
  // Context switches run up to 45% slower on some vCPUs than on others,
  // for minutes at a time (the host cores behind them are shared), so the
  // timed loop moves client and daemon to the next CPU every second and
  // samples every vCPU in every run.
  const std::vector<int> cpus = AllowedCpus();
  std::string cpu_list;
  for (int c : cpus) cpu_list += (cpu_list.empty() ? "" : ",") + std::to_string(c);
  out.meta.push_back({"cpus", cpu_list});
  PinTo(cpus[0], 0);
  const ServeFixture fx = MakeServeFixture(seed, 2000, 4096, 1);
  out.meta.push_back({"input_digest", perfbench::Hex64(fx.input_digest)});
  Daemon daemon;
  const double setup_s = StartDaemon(bin, fx, daemon);
  udm::serve::ServeClient admin = Connect(fx.socket);
  udm::serve::ServeClient client = Connect(fx.socket);
  size_t rotation = 0;
  auto next_cpu = [&] { PinTo(cpus[++rotation % cpus.size()], daemon.pid()); };

  // Closed loop, one request outstanding on one connection: every request
  // pays the whole frame → parse → queue → eval → encode → write path
  // with no queueing behind other requests. Passes cycle over the request
  // pool. Per CPU, each request's cost is its median over the passes there
  // (PerInputSamples: the minimum records the host's rare fast spells, not
  // the program), and the rate is the median one-second window there.
  // Each metric is then the mean over CPUs: a CPU that is slow for the
  // whole run moves it by a quarter of its slowdown, where a median over
  // all samples would jump between the CPUs' speeds.
  struct CpuSamples {
    perfbench::PerInputSamples cost;
    std::vector<double> rates;  // ok responses per one-second window
  };
  std::vector<CpuSamples> per_cpu(
      cpus.size(), CpuSamples{perfbench::PerInputSamples(fx.requests.size()), {}});
  auto fewest_passes = [&] {
    size_t fewest = per_cpu[0].cost.min_repeats();
    for (const CpuSamples& c : per_cpu) fewest = std::min(fewest, c.cost.min_repeats());
    return fewest;
  };
  std::vector<double> raw_us;
  auto closed_loop = [&](double phase_s, std::map<size_t, std::vector<double>>* sample) {
    const int64_t end = NowNs() + static_cast<int64_t>(phase_s * 1e9);
    int64_t window_start = NowNs();
    size_t window_ok = 0;
    bool done = false;
    for (uint64_t i = 0; !done; ++i) {
      const size_t index = i % fx.requests.size();
      const int64_t t0 = NowNs();
      udm::Result<udm::serve::ServeResponse> r =
          client.Call(EvalRequestFor(fx, index, i), 10000.0);
      const int64_t t1 = NowNs();
      ++out.attempted;
      if (!r.ok() || r.value().status != udm::serve::ServeStatus::kOk) {
        ++out.failed;
        done = t1 >= end;
        continue;
      }
      if (sample == nullptr) {
        done = t1 >= end;
        continue;
      }
      CpuSamples& here = per_cpu[rotation % cpus.size()];
      raw_us.push_back(static_cast<double>(t1 - t0) / 1e3);
      here.cost.Record(index, raw_us.back());
      if (index < 256 && !sample->count(index)) (*sample)[index] = r.value().densities;
      ++window_ok;
      if (t1 - window_start >= 1'000'000'000) {
        here.rates.push_back(static_cast<double>(window_ok) / Seconds(t1 - window_start));
        done = t1 >= end && fewest_passes() >= kSmallMinPasses;
        next_cpu();
        window_ok = 0;
        window_start = NowNs();
      }
    }
  };

  for (size_t c = 0; c < cpus.size(); ++c) {  // warm-up, on every CPU
    closed_loop(0.25, nullptr);
    next_cpu();
  }
  out.attempted = out.failed = 0;
  const Scrape before = ScrapeMetrics(admin);
  std::map<size_t, std::vector<double>> served;
  const int64_t phase_t0 = NowNs();
  closed_loop(0.9 * seconds, &served);
  const double phase_s = Seconds(NowNs() - phase_t0);
  const Scrape after = ScrapeMetrics(admin);
  Require(out.failed == 0, "serve_small requests failed");
  CheckBitIdentical(fx, served, out);
  std::vector<double> p50s, p99s, rates;
  std::string per_cpu_note = "per CPU (p50 us / p99 us / req/s):";
  for (size_t c = 0; c < cpus.size(); ++c) {
    const std::vector<double> cost = per_cpu[c].cost.Medians();
    Require(!per_cpu[c].rates.empty(), "closed-loop phase too short");
    p50s.push_back(Quantile(cost, 0.5));
    p99s.push_back(SupportedQuantile(cost, 0.99, "serve latency"));
    rates.push_back(Median(per_cpu[c].rates));
    per_cpu_note += " cpu" + std::to_string(cpus[c]) + " " + Fmt("%.1f", p50s.back()) +
                    " / " + Fmt("%.1f", p99s.back()) + " / " + Fmt("%.0f", rates.back()) + ";";
  }
  const double p50 = Mean(p50s);
  const double p99 = Mean(p99s);

  out.e2e["setup_s"] = setup_s;
  out.e2e["peak_rss_mb"] = PeakRssMb(daemon.pid());
  out.e2e["throughput_per_s"] = Mean(rates);
  out.e2e["p50_us"] = p50;
  out.e2e["p99_us"] = p99;
  out.e2e["accuracy"] = 1.0;  // sampled densities bit-identical (gate above)
  out.notes.push_back("serve_p50_us = " + Fmt("%.2f", p50) + " us, serve_p99_us = " +
                      Fmt("%.2f", p99) + " us closed loop (over " +
                      std::to_string(fx.requests.size()) + " requests, each the median of " +
                      std::to_string(fewest_passes()) + "+ passes on each of " +
                      std::to_string(cpus.size()) + " CPUs)");
  out.notes.push_back(per_cpu_note);
  out.notes.push_back(Shape("raw serve latency us", raw_us));
  out.notes.push_back(Fmt("closed-loop rate: mean over CPUs %.1f req/s", out.e2e["throughput_per_s"]) +
                      Fmt(", whole phase %.1f req/s", static_cast<double>(raw_us.size()) / phase_s));

  if (trace) {
    AttributeServer(before, after, Mean(raw_us), out);
    AttributeLibrary(fx, spans, out);
    TracedClosedLoop(fx, spans, 500, out);
    // Open loop at a fixed rate, timed from each request's due time. Host
    // stalls charge every request due during them, so these numbers are
    // reported per layer, not bounded.
    OpenLoopResult open = RunOpenLoop(fx, kSmallRate, 0.1 * seconds);
    out.attempted += open.log.sent();
    out.failed += open.log.misses() + (open.log.sent() - open.log.responses());
    const double lag_p99 = BlockMedian(open.lag_blocks, 0.99, "generator lag");
    out.layer["serve.open_loop_p50_us"] = BlockMedian(open.latency_blocks, 0.5, "open loop");
    out.layer["serve.open_loop_p99_us"] = BlockMedian(open.latency_blocks, 0.99, "open loop");
    out.layer["serve.generator_lag_p99_us"] = lag_p99;
    out.layer["serve.partial_fraction"] =
        static_cast<double>(open.partial) / static_cast<double>(open.log.sent());
    out.notes.push_back(Shape(Fmt("open loop at %.0f req/s, latency us", kSmallRate),
                              open.log.latency_us()));
    out.notes.push_back(Shape("generator lag us", open.log.lag_us()));
    if (lag_p99 >= 1000.0) {
      out.notes.push_back("open-loop phase invalid: generator lag p99 " +
                          Fmt("%.0f", lag_p99) + " us (host stalls)");
    }
    AddLayerShares(spans, out);
  }
  daemon.Stop();
}

void RunServeBatch(uint64_t seed, double seconds, bool trace,
                   const std::string& bin, Outcome& out) {
  SpanRecorder spans(trace);
  // 32 points on a 30000-point model: ~5 ms a request, so a run repeats
  // each of the 1024 requests 6-7 times, and the library evaluation is
  // ~83% of a request. (At 20000 points it is ~79%, at 32 points or 64:
  // the fixed cost per request scales with the points, as the kde does.)
  constexpr size_t kPoints = 32;
  constexpr size_t kBlock = 512;  // completions per throughput block
  constexpr size_t kRequests = 1024;  // p99 over requests keeps 10 beyond
  const ServeFixture fx = MakeServeFixture(seed, 30000, kRequests, kPoints);
  out.meta.push_back({"input_digest", perfbench::Hex64(fx.input_digest)});
  Daemon daemon;
  const double setup_s = StartDaemon(bin, fx, daemon);
  udm::serve::ServeClient admin = Connect(fx.socket);

  // Closed loop, two connections with one request outstanding each (one
  // per daemon worker).
  struct Lane {
    std::vector<double> latency_us;
    std::vector<int64_t> done_ns;  // completion time, aligned with latency_us
    std::vector<size_t> index;     // request index, aligned with latency_us
    std::map<size_t, std::vector<double>> served;
    uint64_t attempted = 0;
    uint64_t failed = 0;
  };
  auto run_lanes = [&](double phase_s, size_t min_total, bool keep) {
    Lane lanes[2];
    const int64_t end = NowNs() + static_cast<int64_t>(phase_s * 1e9);
    std::vector<std::thread> threads;
    for (size_t lane = 0; lane < 2; ++lane) {
      threads.emplace_back([&, lane] {
        udm::serve::ServeClient client = Connect(fx.socket);
        Lane& mine = lanes[lane];
        for (size_t i = lane; NowNs() < end || mine.attempted < min_total / 2; i += 2) {
          const size_t index = i % fx.requests.size();
          const int64_t t0 = NowNs();
          udm::Result<udm::serve::ServeResponse> r =
              client.Call(EvalRequestFor(fx, index, i), 10000.0);
          const int64_t t1 = NowNs();
          ++mine.attempted;
          if (!r.ok() || r.value().status != udm::serve::ServeStatus::kOk) {
            ++mine.failed;
            continue;
          }
          mine.latency_us.push_back(static_cast<double>(t1 - t0) / 1e3);
          mine.done_ns.push_back(t1);
          mine.index.push_back(index);
          if (keep && index < 32 && !mine.served.count(index)) {
            mine.served[index] = r.value().densities;
          }
        }
      });
    }
    for (auto& t : threads) t.join();
    Lane merged;
    for (Lane& l : lanes) {
      merged.latency_us.insert(merged.latency_us.end(), l.latency_us.begin(),
                               l.latency_us.end());
      merged.done_ns.insert(merged.done_ns.end(), l.done_ns.begin(), l.done_ns.end());
      merged.index.insert(merged.index.end(), l.index.begin(), l.index.end());
      merged.served.insert(l.served.begin(), l.served.end());
      merged.attempted += l.attempted;
      merged.failed += l.failed;
    }
    return merged;
  };

  run_lanes(0.5, 0, false);  // warm-up
  const Scrape before = ScrapeMetrics(admin);
  const double evals_before = KdeEvalsFromStats(admin);
  const int64_t t0 = NowNs();
  // Every request is served at least kMinRepeats times.
  Lane timed = run_lanes(0.85 * seconds, kMinRepeats * kRequests, true);
  const double wall = Seconds(NowNs() - t0);
  const double evals = KdeEvalsFromStats(admin) - evals_before;
  const Scrape after = ScrapeMetrics(admin);
  out.attempted += timed.attempted;
  out.failed += timed.failed;
  Require(timed.failed == 0, "serve_batch requests failed");
  CheckBitIdentical(fx, timed.served, out);

  // Blocks of kBlock consecutive completions give a point rate each; the
  // median block is reported.
  std::vector<size_t> order(timed.latency_us.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return timed.done_ns[a] < timed.done_ns[b];
  });
  std::vector<double> block_rate;
  int64_t block_start = t0;
  for (size_t at = 0; at + kBlock <= order.size(); at += kBlock) {
    const int64_t block_end = timed.done_ns[order[at + kBlock - 1]];
    block_rate.push_back(static_cast<double>(kBlock * kPoints) /
                         Seconds(block_end - block_start));
    block_start = block_end;
  }
  perfbench::PerInputSamples request_cost(kRequests);
  for (size_t i = 0; i < timed.latency_us.size(); ++i) {
    request_cost.Record(timed.index[i], timed.latency_us[i]);
  }
  Require(request_cost.min_repeats() >= kMinRepeats,
          "a request was served fewer than " + std::to_string(kMinRepeats) + " times");
  // Each request's lower quartile over its 6-7 repeats: a median moves once
  // half of them are slowed, which 20-40% steal does to well over 1% of
  // requests, and so to the p99; the lower quartile needs all but one.
  const std::vector<double> cost = request_cost.Quantiles(0.25);
  const double p50 = Quantile(cost, 0.5);
  const double points = static_cast<double>(timed.latency_us.size() * kPoints);
  out.e2e["setup_s"] = setup_s;
  out.e2e["peak_rss_mb"] = PeakRssMb(daemon.pid());
  out.e2e["throughput_per_s"] = Median(block_rate);
  out.notes.push_back(Fmt("best block rate %.1f points/s",
                          *std::max_element(block_rate.begin(), block_rate.end())));
  out.e2e["p50_us"] = p50;
  out.e2e["p99_us"] = SupportedQuantile(cost, 0.99, "serve latency");
  out.e2e["accuracy"] = 1.0;  // sampled densities bit-identical (gate above)
  out.notes.push_back("eval_points_per_s = " + Fmt("%.1f", out.e2e["throughput_per_s"]) +
                      " 1/s, serve_p50_us = " + Fmt("%.1f", p50) +
                      " us, serve_p99_us = " + Fmt("%.1f", out.e2e["p99_us"]) +
                      " us (over " + std::to_string(kRequests) +
                      " requests, each the lower quartile of " +
                      std::to_string(request_cost.min_repeats()) + " or more)");
  out.notes.push_back(Shape("raw serve latency us", timed.latency_us));

  if (trace) {
    AttributeServer(before, after, Mean(timed.latency_us), out);
    out.layer["kde.kernel_evals_per_query"] = evals / points;
    out.layer["kde.kernel_evals_per_s"] = evals / wall;
    AttributeLibrary(fx, spans, out);
    TracedClosedLoop(fx, spans, 64, out);
    AddLayerShares(spans, out);
  }
  daemon.Stop();
}

// ---------------------------------------------------------------------------

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) Fail("non-finite metric value");
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
#ifdef PERFBENCH_SANITIZED
  Fail("refusing to report timings from a sanitizer build");
#endif
  std::map<std::string, std::string> flags;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) Fail("bad argument " + std::string(argv[i]));
    flags[argv[i] + 2] = argv[i + 1];
  }
  if (argc % 2 == 0) Fail("flags come in --name value pairs");
  const std::string workload = flags["workload"];
  const uint64_t seed = std::strtoull(flags["seed"].c_str(), nullptr, 10);
  const double seconds = std::atof(flags["seconds"].c_str());
  const bool trace = flags["trace"] == "1";
  Require(seconds > 0.0, "--seconds must be positive");
  Require(flags["trace"] == "0" || flags["trace"] == "1", "--trace must be 0 or 1");

  Outcome out;
  if (workload == "classify_ionosphere") {
    RunClassify(seed, seconds, trace, out);
  } else if (workload == "ingest_forest") {
    RunIngest(seed, seconds, trace, out);
  } else if (workload == "serve_small" || workload == "serve_batch") {
    const std::string bin = flags["serve-bin"];
    Require(!bin.empty() && ::access(bin.c_str(), X_OK) == 0,
            "--serve-bin must name the udm_serve executable");
    if (workload == "serve_small") {
      RunServeSmall(seed, seconds, trace, bin, out);
    } else {
      RunServeBatch(seed, seconds, trace, bin, out);
    }
  } else {
    Fail("unknown workload '" + workload + "'");
  }
  Require(out.attempted > 0, "no operations attempted");
  if (trace && !flags["trace-out"].empty()) {
    std::ofstream spans_out(flags["trace-out"]);
    spans_out << out.trace_json;
    Require(spans_out.good(), "cannot write --trace-out");
  }

  for (const std::string& line : out.notes) std::printf("%s\n", line.c_str());
  std::string meta = "{\"meta\": {\"workload\": \"" + workload +
                     "\", \"seed\": " + std::to_string(seed) +
                     ", \"trace\": " + (trace ? "1" : "0") +
                     ", \"nproc\": " +
                     std::to_string(std::thread::hardware_concurrency()) +
                     ", \"simd\": \"" + udm::SimdLevelName(udm::ProcessSimdLevel()) +
                     "\", \"build_type\": \"" PERFBENCH_BUILD_TYPE "\"";
  for (const auto& [key, value] : out.meta) {
    meta += ", \"" + key + "\": \"" + value + "\"";
  }
  std::printf("%s}}\n", meta.c_str());

  const auto& names = trace ? kPerLayer : kEndToEnd;
  const auto& values = trace ? out.layer : out.e2e;
  for (const auto& [name, value] : values) {
    bool known = false;
    for (const auto& [n, u] : names) known = known || name == n;
    Require(known, "metric '" + name + "' is not declared");
  }
  std::string json = "{\"correct\": true, \"attempted\": " +
                     std::to_string(out.attempted) +
                     ", \"failed\": " + std::to_string(out.failed) +
                     ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, unit] : names) {
    const auto it = values.find(name);
    const double value = it == values.end() ? 0.0 : it->second;
    if (!first) json += ", ";
    first = false;
    json += "\"" + std::string(name) + "\": {\"value\": " + JsonNumber(value) +
            ", \"unit\": \"" + unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return 0;
}
