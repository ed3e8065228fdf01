#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace perfbench {

size_t QuantileRank(size_t n, double q) {
  if (n == 0) return 0;
  const double rank = std::ceil(q * static_cast<double>(n));
  if (rank <= 1.0) return 0;
  return std::min(n - 1, static_cast<size_t>(rank) - 1);
}

size_t SamplesBeyond(size_t n, double q) {
  if (n == 0) return 0;
  return n - 1 - QuantileRank(n, q);
}

bool SupportsQuantile(size_t n, double q, size_t min_beyond) {
  return n > 0 && SamplesBeyond(n, q) >= min_beyond;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const size_t rank = QuantileRank(values.size(), q);
  std::nth_element(values.begin(), values.begin() + rank, values.end());
  return values[rank];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

size_t PerInputSamples::min_repeats() const {
  size_t fewest = samples_.empty() ? 0 : samples_[0].size();
  for (const std::vector<double>& s : samples_) fewest = std::min(fewest, s.size());
  return fewest;
}

std::vector<double> PerInputSamples::Medians() const {
  std::vector<double> values;
  for (const std::vector<double>& s : samples_) {
    if (!s.empty()) values.push_back(Median(s));
  }
  return values;
}

std::vector<double> PerInputSamples::Quantiles(double q) const {
  std::vector<double> values;
  for (const std::vector<double>& s : samples_) {
    if (!s.empty()) values.push_back(Quantile(s, q));
  }
  return values;
}

OpenLoopSchedule::OpenLoopSchedule(int64_t start_ns, double rate_per_s)
    : start_ns_(start_ns), interval_ns_(1e9 / rate_per_s) {}

int64_t OpenLoopSchedule::DueNs(uint64_t i) const {
  return start_ns_ +
         static_cast<int64_t>(std::llround(static_cast<double>(i) *
                                           interval_ns_));
}

uint64_t OpenLoopSchedule::DueBy(int64_t now_ns) const {
  if (now_ns < start_ns_) return 0;
  const double elapsed = static_cast<double>(now_ns - start_ns_);
  uint64_t count = static_cast<uint64_t>(elapsed / interval_ns_) + 1;
  // Guard the floating-point floor against the rounding in DueNs.
  while (count > 0 && DueNs(count - 1) > now_ns) --count;
  while (DueNs(count) <= now_ns) ++count;
  return count;
}

void LatenessLog::RecordSend(int64_t due_ns, int64_t sent_ns) {
  lag_us_.push_back(static_cast<double>(std::max<int64_t>(0, sent_ns - due_ns)) /
                    1e3);
}

void LatenessLog::RecordResponse(int64_t due_ns, int64_t received_ns,
                                 bool ok) {
  ++responses_;
  if (!ok) {
    ++misses_;
    return;
  }
  latency_us_.push_back(static_cast<double>(received_ns - due_ns) / 1e3);
}

int SpanRecorder::Begin(std::string name, std::string layer) {
  if (!enabled_) return -1;
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(Span{std::move(name), std::move(layer), NowNs(), 0, parent});
  const int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  return index;
}

void SpanRecorder::End(int index) {
  if (index < 0) return;
  spans_[static_cast<size_t>(index)].end_ns = NowNs();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

int SpanRecorder::AddClosed(std::string name, std::string layer,
                            int64_t start_ns, int64_t end_ns, int parent) {
  if (!enabled_) return -1;
  spans_.push_back(
      Span{std::move(name), std::move(layer), start_ns, end_ns, parent});
  return static_cast<int>(spans_.size()) - 1;
}

std::string SpanRecorder::ChromeTraceJson() const {
  std::ostringstream out;
  out << "{\"traceEvents\":[";
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                  "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%d}}",
                  i == 0 ? "" : ",", s.name.c_str(), s.layer.c_str(),
                  static_cast<double>(s.start_ns - origin) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                  s.parent);
    out << buf;
  }
  out << "]}\n";
  return out.str();
}

std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && static_cast<size_t>(s.parent) < spans.size()) {
      children[static_cast<size_t>(s.parent)].push_back({s.start_ns, s.end_ns});
    }
  }
  std::vector<int64_t> self(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t lo = spans[i].start_ns;
    const int64_t hi = spans[i].end_ns;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t cursor = lo;
    for (const auto& [start, end] : kids) {
      const int64_t a = std::max(start, cursor);
      const int64_t b = std::min(end, hi);
      if (b > a) {
        covered += b - a;
        cursor = b;
      }
    }
    self[i] = std::max<int64_t>(0, (hi - lo) - covered);
  }
  return self;
}

std::map<std::string, int64_t> SelfTimeByLayerNs(
    const std::vector<Span>& spans) {
  const std::vector<int64_t> self = SelfTimesNs(spans);
  std::map<std::string, int64_t> by_layer;
  for (size_t i = 0; i < spans.size(); ++i) by_layer[spans[i].layer] += self[i];
  return by_layer;
}

std::optional<double> ParseVmHwmMb(std::string_view status_text) {
  constexpr std::string_view kKey = "VmHWM:";
  size_t at = 0;
  while (at < status_text.size()) {
    const size_t eol = std::min(status_text.find('\n', at), status_text.size());
    const std::string_view line = status_text.substr(at, eol - at);
    at = eol + 1;
    if (line.substr(0, kKey.size()) != kKey) continue;
    std::string rest(line.substr(kKey.size()));
    char* end = nullptr;
    const double kb = std::strtod(rest.c_str(), &end);
    if (end == rest.c_str() || kb < 0.0) return std::nullopt;
    while (*end == ' ' || *end == '\t') ++end;
    if (std::string_view(end).substr(0, 2) != "kB") return std::nullopt;
    return kb / 1024.0;
  }
  return std::nullopt;
}

std::optional<double> ReadVmHwmMb(int pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::stringstream text;
  text << in.rdbuf();
  return ParseVmHwmMb(text.str());
}

uint64_t Fnv1a(const void* data, size_t bytes, uint64_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t h = seed;
  for (size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string Hex64(uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

}  // namespace perfbench
