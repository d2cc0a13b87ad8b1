// Self-test of the benchmark's statistics (stats.hpp). run.py runs it after
// every build and refuses to benchmark when it fails.
#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "perfbench_stats_test: FAILED: %s\n", what);
    ++failures;
  }
}

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i + 1);
  return v;
}

void tail_rule() {
  // 100 samples 1..100: the highest percentile with 10 samples above it is
  // the 90th sample (p90), independent of input order.
  std::vector<double> v = ramp(100);
  std::swap(v[0], v[99]);
  const perfbench::Tail t = perfbench::tail_latency(v, 0);
  check(t.valid && t.value == 90.0, "tail of 1..100 is 90");
  check(t.percentile == 90.0 && t.samples == 100 && t.beyond == 10,
        "tail reports p90 over 100 samples with 10 beyond");

  const perfbench::Tail small = perfbench::tail_latency(ramp(10), 0);
  check(!small.valid && small.samples == 10, "10 samples have no valid tail");
  const perfbench::Tail eleven = perfbench::tail_latency(ramp(11), 0);
  check(eleven.valid && eleven.value == 1.0 && eleven.beyond == 10,
        "11 samples: the smallest has 10 beyond it");
}

void failures_miss_the_limit() {
  // 89 fast requests and 11 failures: the failures fill the top 10 ranks and
  // one more, so the tail itself is a failure and misses any limit.
  const std::vector<double> fast(89, 0.001);
  const perfbench::Tail t = perfbench::tail_latency(fast, 11);
  check(t.samples == 100 && std::isinf(t.value), "11 failures of 100 put the tail at +inf");
  check(!perfbench::meets_limit(fast, 11, 0.1, 0.025), "11 failures of 100 miss the limit");
  // 10 failures sit beyond the tail, which stays at the fast latency.
  check(perfbench::meets_limit(std::vector<double>(90, 0.001), 10, 0.1, 0.025),
        "10 failures of 100 stay beyond the tail");
  check(!perfbench::meets_limit(std::vector<double>(5, 0.001), 0, 0.1, 0.025),
        "too few samples never meet the limit");
}

void latency_from_due_time() {
  // A 20 req/s generator that stalls for 0.5 s before sending request 2:
  // requests 2.. complete late, and their latency counts the stall even
  // though each one's own service time is 10 ms.
  const double start = 100.0;
  const double rate = 20.0;
  check(perfbench::due_time(start, 0, rate) == 100.0, "request 0 due at start");
  check(std::fabs(perfbench::due_time(start, 3, rate) - 100.15) < 1e-12,
        "request 3 due at start + 3/rate");
  const double due2 = perfbench::due_time(start, 2, rate);
  const double sent2 = due2 + 0.5;
  const double done2 = sent2 + 0.010;
  check(std::fabs(perfbench::open_loop_latency(due2, done2) - 0.510) < 1e-12,
        "latency from due time includes the generator stall");
}

void backlog_detection() {
  // Steady: flat latencies with noise never flag a backlog.
  std::vector<double> steady;
  for (int i = 0; i < 100; ++i) steady.push_back(0.020 + 0.002 * (i % 3));
  check(!perfbench::backlog_grows(steady, 0.025), "flat latencies have no backlog");
  // Overload: latency grows linearly with send order (queue growth).
  std::vector<double> growing;
  for (int i = 0; i < 100; ++i) growing.push_back(0.020 + 0.002 * i);
  check(perfbench::backlog_grows(growing, 0.025), "linear latency growth is a backlog");
  // A growing backlog fails the rate even while its tail is within limit.
  std::vector<double> creeping;
  for (int i = 0; i < 100; ++i) creeping.push_back(0.010 + 0.0006 * i);
  check(perfbench::tail_latency(creeping, 0).value <= 0.1, "creeping tail is within 100 ms");
  check(!perfbench::meets_limit(creeping, 0, 0.1, 0.025),
        "a growing backlog misses the limit despite its tail");
  check(!perfbench::backlog_grows({}, 0.025), "no samples, no backlog");
}

void medians() {
  check(perfbench::median({3.0, 1.0, 2.0}) == 2.0, "odd median");
  check(perfbench::median({4.0, 1.0, 2.0, 3.0}) == 2.5, "even median");
  check(perfbench::median({}) == 0.0, "empty median");
}

}  // namespace

int main() {
  tail_rule();
  failures_miss_the_limit();
  latency_from_due_time();
  backlog_detection();
  medians();
  if (failures != 0) return 1;
  std::fprintf(stderr, "perfbench_stats_test: all checks passed\n");
  return 0;
}
