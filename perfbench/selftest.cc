// Self-tests of the benchmark harness arithmetic (harness.h). run.py runs
// this binary before every benchmark run and refuses to report if any
// check fails. Exit code 0 = all checks passed.
#include <cmath>
#include <cstdio>
#include <vector>

#include "harness.h"

namespace {

int failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "selftest FAIL: %s\n", what);
  }
}

bool Near(double a, double b) { return std::fabs(a - b) <= 1e-9; }

void TestPercentiles() {
  using perfbench::Quantile;
  using perfbench::SamplesBeyond;
  using perfbench::SupportsQuantile;
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  Check(Near(Quantile(v, 0.5), 500.0), "p50 of 1..1000 is 500");
  Check(Near(Quantile(v, 0.99), 990.0), "p99 of 1..1000 is 990");
  Check(SamplesBeyond(1000, 0.99) == 10, "1000 samples leave 10 beyond p99");
  Check(SupportsQuantile(1000, 0.99), "p99 supported at n=1000");
  Check(!SupportsQuantile(999, 0.99), "p99 unsupported at n=999");
  Check(!SupportsQuantile(100, 0.99), "p99 unsupported at n=100");
  Check(SupportsQuantile(100, 0.5), "p50 supported at n=100");
  Check(!SupportsQuantile(0, 0.5), "nothing supported on an empty sample");
  // Order of the input must not matter.
  std::vector<double> shuffled = {5, 1, 4, 2, 3};
  Check(Near(Quantile(shuffled, 0.5), 3.0), "p50 of unsorted input");
  Check(Near(perfbench::Median({4, 1, 3, 2}), 2.5), "even-n median");
  Check(Near(Quantile({7.0}, 0.99), 7.0), "single sample");

  perfbench::PerInputSamples medians(2);
  Check(medians.min_repeats() == 0 && medians.Medians().empty(), "no medians yet");
  medians.Record(0, 5.0);
  medians.Record(0, 3.0);
  medians.Record(0, 900.0);  // one stalled repeat does not move the median
  medians.Record(1, 2.0);
  medians.Record(1, 1.0);
  medians.Record(1, 4.0);
  medians.Record(1, 3.0);
  Check(medians.min_repeats() == 3, "fewest repeats over inputs (median)");
  Check(medians.Medians() == std::vector<double>({5.0, 2.5}),
        "median per input, in input order");
  Check(medians.Quantiles(0.25) == std::vector<double>({3.0, 1.0}),
        "nearest-rank lower quartile per input");
}

void TestOpenLoop() {
  perfbench::OpenLoopSchedule schedule(/*start_ns=*/1000, /*rate=*/1e6);
  Check(schedule.DueNs(0) == 1000, "first request due at start");
  Check(schedule.DueNs(5) == 6000, "1 MHz schedule spaces by 1 us");
  Check(schedule.DueBy(999) == 0, "nothing due before start");
  Check(schedule.DueBy(1000) == 1, "one request due at start");
  Check(schedule.DueBy(3500) == 3, "three due by 2.5 us in");
  Check(schedule.DueBy(4000) == 4, "due count includes the boundary");
  // A 1/3-rate schedule exercises rounding in DueNs/DueBy.
  perfbench::OpenLoopSchedule odd(0, 3e8);
  for (uint64_t i = 0; i < 1000; ++i) {
    if (odd.DueBy(odd.DueNs(i)) != i + 1) {
      Check(false, "DueBy(DueNs(i)) == i + 1 under rounding");
      break;
    }
  }

  // Latency is charged from the due time: a sender stalled 50 us makes
  // the request 50 us slower even though the server answered in 10 us.
  perfbench::LatenessLog log;
  log.RecordSend(/*due=*/0, /*sent=*/50'000);
  log.RecordResponse(/*due=*/0, /*received=*/60'000, /*ok=*/true);
  log.RecordSend(100'000, 99'000);  // early send counts as on time
  log.RecordResponse(100'000, 110'000, true);
  log.RecordSend(200'000, 200'000);
  log.RecordResponse(200'000, 900'000, false);  // a miss, not a latency
  Check(log.sent() == 3 && log.responses() == 3, "every send accounted");
  Check(log.misses() == 1, "failed responses count as misses");
  Check(log.latency_us().size() == 2, "misses excluded from latency sample");
  Check(Near(log.latency_us()[0], 60.0), "latency from due, not send");
  Check(Near(log.lag_us()[0], 50.0), "lag = sent - due");
  Check(Near(log.lag_us()[1], 0.0), "early send has zero lag");
}

void TestSelfTime() {
  using perfbench::Span;
  // root [0,100) with children [10,30) and [20,50) (overlap) and [90,120)
  // (runs past the parent): covered = [10,50) + [90,100) = 50.
  std::vector<Span> spans = {
      {"root", "serve", 0, 100, -1},  {"a", "kde", 10, 30, 0},
      {"b", "kde", 20, 50, 0},        {"c", "classify", 90, 120, 0},
      {"grandchild", "obs", 12, 14, 1},
  };
  const std::vector<int64_t> self = perfbench::SelfTimesNs(spans);
  Check(self[0] == 50, "root self = 100 - covered 50");
  Check(self[1] == 18, "child self excludes its own child");
  Check(self[2] == 30, "overlapping sibling keeps its own duration");
  Check(self[3] == 30, "leaf self = duration");
  Check(self[4] == 2, "grandchild leaf");
  const auto by_layer = perfbench::SelfTimeByLayerNs(spans);
  Check(by_layer.at("kde") == 48, "layer sums its spans' self times");
  Check(by_layer.at("serve") == 50, "layer self of root");

  perfbench::SpanRecorder off(false);
  {
    perfbench::ScopedSpan s(off, "x", "kde");
  }
  Check(off.spans().empty(), "disabled recorder records nothing");
  perfbench::SpanRecorder on(true);
  {
    perfbench::ScopedSpan outer(on, "outer", "stream");
    perfbench::ScopedSpan inner(on, "inner", "microcluster");
  }
  Check(on.spans().size() == 2 && on.spans()[1].parent == 0,
        "nested scoped spans link to their parent");
  Check(on.spans()[0].end_ns >= on.spans()[1].end_ns,
        "outer span closes after inner");
}

void TestVmHwm() {
  const char* status =
      "Name:\tudm_serve\nVmPeak:\t  400000 kB\nVmHWM:\t   51200 kB\n"
      "VmRSS:\t   40000 kB\n";
  const auto mb = perfbench::ParseVmHwmMb(status);
  Check(mb.has_value() && Near(*mb, 50.0), "VmHWM 51200 kB = 50 MiB");
  Check(!perfbench::ParseVmHwmMb("VmRSS:\t 1 kB\n").has_value(),
        "missing VmHWM line");
  Check(!perfbench::ParseVmHwmMb("VmHWM:\t garbage\n").has_value(),
        "unparseable VmHWM value");
  Check(!perfbench::ParseVmHwmMb("VmHWM:\t 12 MB\n").has_value(),
        "unexpected unit");
  const auto self = perfbench::ReadVmHwmMb(0);
  Check(self.has_value() && *self > 0.0, "own VmHWM readable and positive");
}

}  // namespace

int main() {
  TestPercentiles();
  TestOpenLoop();
  TestSelfTime();
  TestVmHwm();
  if (failures != 0) {
    std::fprintf(stderr, "selftest: %d check(s) failed\n", failures);
    return 1;
  }
  std::fprintf(stderr, "selftest: all checks passed\n");
  return 0;
}
