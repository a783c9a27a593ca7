// Open-loop load generator. Requests are due on a fixed schedule
// (request i at start + i / rate) whether or not earlier ones finished; up
// to `threads` load threads each claim the next due request, render it,
// wait for its due time and issue it synchronously. Waiting sleeps until
// kSpinMicros before the due time and then spins: a plain sleep_until adds
// tens of microseconds of wake-up delay, which would swamp a microsecond
// cache hit.
//
// Latency is measured from each request's *due* time, so a stall also
// charges the wait it imposes on every request queued behind it. The
// generator's own lateness (issue time minus due time, for requests whose
// thread was free before they were due) is reported separately: when it is
// large the schedule was not offered and the run is invalid.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace balsa::perfbench {

struct OpenLoopOptions {
  double rate = 1000;    // requests per second
  double seconds = 1;    // schedule length
  int threads = 1;       // load threads (the process uses at most 4)
  /// Request i of this schedule is stream request first_index + i.
  int64_t first_index = 0;
};

struct OpenLoopResult {
  int64_t sent = 0;
  int64_t failed = 0;
  /// Completion minus due time per request, µs; a failed request counts as
  /// +infinity, so it misses every latency limit.
  std::vector<double> latency_us;
  /// Generator lateness per request whose thread was ready before its due
  /// time (issue minus max(due, ready)), µs.
  std::vector<double> late_us;
  /// Median issue delay (issue minus due) over the last tenth of the
  /// schedule: grows without bound when the offered rate exceeds capacity.
  double tail_start_delay_us = 0;
};

/// Runs one schedule. `render(index)` builds request `index` (called before
/// waiting for its due time); `issue(index, request)` serves it and returns
/// false on failure. Both are called concurrently from the load threads.
OpenLoopResult RunOpenLoop(
    const OpenLoopOptions& options,
    const std::function<std::string(int64_t)>& render,
    const std::function<bool(int64_t, const std::string&)>& issue);

/// Spin margin before each due time.
inline constexpr double kSpinMicros = 200;

}  // namespace balsa::perfbench
