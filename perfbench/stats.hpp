// Statistics of the repository benchmark: the tail-percentile rule, open-loop
// latency from the due send time, backlog detection and the latency-limit
// check used by the max_rps search. Header-only so the self-test
// (stats_test.cpp) exercises exactly the code the benchmark runs.
#pragma once

#include <algorithm>
#include <cstddef>
#include <limits>
#include <vector>

namespace perfbench {

/// Median of `v` (mean of the middle pair for even sizes); 0 when empty.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return (v.size() % 2 == 1) ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

/// The highest percentile that still has at least `min_beyond` samples
/// above it in sorted order.
struct Tail {
  bool valid = false;       ///< false when samples <= min_beyond
  double value = 0.0;       ///< the sample at that percentile
  double percentile = 0.0;  ///< in percent, 100 * (rank + 1) / samples
  std::size_t samples = 0;
  std::size_t beyond = 0;   ///< samples ranked above `value`
};

/// Failed or refused requests enter as +infinity, so they count as missing
/// any latency limit.
inline Tail tail_latency(std::vector<double> latencies, std::size_t failed,
                         std::size_t min_beyond = 10) {
  latencies.insert(latencies.end(), failed, std::numeric_limits<double>::infinity());
  Tail t;
  t.samples = latencies.size();
  if (t.samples <= min_beyond) return t;
  std::sort(latencies.begin(), latencies.end());
  const std::size_t rank = t.samples - 1 - min_beyond;
  t.valid = true;
  t.value = latencies[rank];
  t.beyond = min_beyond;
  t.percentile = 100.0 * static_cast<double>(rank + 1) / static_cast<double>(t.samples);
  return t;
}

/// Open loop: request i of a run starting at `start` is due at
/// start + i / rate, whether or not earlier requests have completed.
inline double due_time(double start, std::size_t i, double rate) {
  return start + static_cast<double>(i) / rate;
}

/// Latency of an open-loop request runs from its due time, so a stalled
/// generator or a full queue charges the wait to every request behind it.
inline double open_loop_latency(double due, double completed) { return completed - due; }

/// A backlog grows when the requests sent last wait clearly longer than the
/// ones sent first: the median latency of the last quarter exceeds that of
/// the first quarter by more than `growth_limit` (seconds). `latencies` are
/// in send order; failed requests enter as +infinity.
inline bool backlog_grows(const std::vector<double>& latencies, double growth_limit) {
  const std::size_t q = latencies.size() / 4;
  if (q == 0) return false;
  const std::vector<double> first(latencies.begin(), latencies.begin() + q);
  const std::vector<double> last(latencies.end() - q, latencies.end());
  return median(last) - median(first) > growth_limit;
}

/// Whether one offered rate meets the latency limit: its tail (with failures
/// counted as infinitely late) is within `limit` and no backlog grows.
inline bool meets_limit(const std::vector<double>& latencies_in_send_order,
                        std::size_t failed, double limit, double growth_limit) {
  const Tail t = tail_latency(latencies_in_send_order, failed);
  if (!t.valid || !(t.value <= limit)) return false;
  return !backlog_grows(latencies_in_send_order, growth_limit);
}

}  // namespace perfbench
