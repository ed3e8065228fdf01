// Measurement helpers shared by the end-to-end benchmark (perfbench.cc)
// and its self-tests (selftest.cc). Nothing here links against udm: these
// are the pieces whose arithmetic the benchmark's numbers rest on, kept
// small enough to test in isolation.
#ifndef UDM_PERFBENCH_HARNESS_H_
#define UDM_PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (steady_clock).
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Percentiles

/// Nearest-rank index of quantile q in a sorted sample of size n:
/// ceil(q·n) − 1, clamped to [0, n).
size_t QuantileRank(size_t n, double q);

/// Samples strictly above the nearest-rank position of q.
size_t SamplesBeyond(size_t n, double q);

/// True when a sample of n supports reporting quantile q, i.e. at least
/// `min_beyond` samples lie beyond it (10 by the benchmark's rule).
bool SupportsQuantile(size_t n, double q, size_t min_beyond = 10);

/// Nearest-rank quantile of `values` (copied and sorted). 0 when empty.
double Quantile(std::vector<double> values, double q);

/// Median of `values` (the mean of the two middle values for even n).
double Median(std::vector<double> values);

/// Per-input medians (or other quantiles) over repeated timings of the
/// same deterministic operation (the same query, request, or batch position of a replayed
/// stream). On a shared VM, interference — vCPU steal, a busy hyperthread
/// sibling, interrupts — comes and goes in stretches, and so do rare fast
/// spells when the host is idle. A single timing or a raw percentile
/// records whichever happened; the per-input minimum records only whether
/// a run caught a fast spell. With several repeats per input, the median
/// is each input's cost in the host's usual state, and percentiles over
/// inputs then describe the program's cost distribution (e.g. which
/// queries roll up deepest) rather than the host's.
class PerInputSamples {
 public:
  explicit PerInputSamples(size_t inputs) : samples_(inputs) {}
  void Record(size_t input, double value) { samples_[input].push_back(value); }
  /// Fewest samples any input has (0 while some input has none).
  size_t min_repeats() const;
  /// The per-input medians (only inputs with at least one sample).
  std::vector<double> Medians() const;
  /// The per-input nearest-rank quantiles q (only inputs with samples).
  std::vector<double> Quantiles(double q) const;

 private:
  std::vector<std::vector<double>> samples_;
};

// ---------------------------------------------------------------------------
// Open-loop schedule

/// Request i of an open-loop generator is due at start + i·interval,
/// whatever happened to earlier requests; latency is measured from the due
/// time, so a stall is charged to every request it delays.
class OpenLoopSchedule {
 public:
  OpenLoopSchedule(int64_t start_ns, double rate_per_s);
  int64_t DueNs(uint64_t i) const;
  /// Requests due at or before `now_ns` (the count the sender should have
  /// sent by then).
  uint64_t DueBy(int64_t now_ns) const;

 private:
  int64_t start_ns_;
  double interval_ns_;
};

/// Accounting for one open-loop phase: sender lateness per request and
/// latency from due time to response.
class LatenessLog {
 public:
  void RecordSend(int64_t due_ns, int64_t sent_ns);
  void RecordResponse(int64_t due_ns, int64_t received_ns, bool ok);
  /// Late = sent − due (never negative: an early send counts as on time).
  const std::vector<double>& lag_us() const { return lag_us_; }
  /// Latency from due time, ok responses only.
  const std::vector<double>& latency_us() const { return latency_us_; }
  size_t sent() const { return lag_us_.size(); }
  size_t responses() const { return responses_; }
  size_t misses() const { return misses_; }

 private:
  std::vector<double> lag_us_;
  std::vector<double> latency_us_;
  size_t responses_ = 0;
  size_t misses_ = 0;
};

// ---------------------------------------------------------------------------
// Spans

struct Span {
  std::string name;   // e.g. "classify.explain"
  std::string layer;  // repo module: classify, microcluster, kde, ...
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;  // index into the recorder's spans, -1 = root
};

/// In-memory span recorder for the benchmark's own calls into each layer.
/// Single-threaded: spans nest by call order. Disabled recorders record
/// nothing, so the untraced run pays one branch per call site.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}
  /// Opens a span as a child of the innermost open span; returns its
  /// index (-1 when disabled).
  int Begin(std::string name, std::string layer);
  void End(int index);
  /// Adds a finished span whose times were measured elsewhere (e.g. a
  /// registry histogram's delta), as a child of `parent`.
  int AddClosed(std::string name, std::string layer, int64_t start_ns,
                int64_t end_ns, int parent);
  const std::vector<Span>& spans() const { return spans_; }
  /// Chrome trace_event JSON of every span.
  std::string ChromeTraceJson() const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, std::string name, std::string layer)
      : recorder_(recorder),
        index_(recorder.Begin(std::move(name), std::move(layer))) {}
  ~ScopedSpan() { recorder_.End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& recorder_;
  int index_;
};

/// Self time of each span: its duration minus the union of its direct
/// children's intervals (clipped to the span).
std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans);

/// Self time summed per layer, in nanoseconds.
std::map<std::string, int64_t> SelfTimeByLayerNs(
    const std::vector<Span>& spans);

// ---------------------------------------------------------------------------
// Process facts

/// Parses the VmHWM line of a /proc/<pid>/status text into MiB.
std::optional<double> ParseVmHwmMb(std::string_view status_text);

/// VmHWM of `pid` (0 = this process) in MiB.
std::optional<double> ReadVmHwmMb(int pid);

/// 64-bit FNV-1a over raw bytes, chainable through `seed`.
uint64_t Fnv1a(const void* data, size_t bytes,
               uint64_t seed = 0xcbf29ce484222325ULL);

/// Hex rendering of a digest.
std::string Hex64(uint64_t value);

}  // namespace perfbench

#endif  // UDM_PERFBENCH_HARNESS_H_
