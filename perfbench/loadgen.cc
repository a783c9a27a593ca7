#include "perfbench/loadgen.h"

#include <atomic>
#include <chrono>
#include <limits>
#include <thread>

#include "perfbench/common.h"

namespace balsa::perfbench {

OpenLoopResult RunOpenLoop(
    const OpenLoopOptions& options,
    const std::function<std::string(int64_t)>& render,
    const std::function<bool(int64_t, const std::string&)>& issue) {
  const int64_t total =
      std::max<int64_t>(1,
                        static_cast<int64_t>(options.rate * options.seconds));
  std::vector<double> latency(static_cast<size_t>(total));
  std::vector<double> start_delay(static_cast<size_t>(total));
  std::vector<double> late(static_cast<size_t>(total), -1);
  std::atomic<int64_t> next{0};
  std::atomic<int64_t> failed{0};

  // Every load thread starts at the same origin, a little in the future so
  // the first requests are not late by thread start-up.
  const Clock::time_point origin =
      Clock::now() + std::chrono::milliseconds(5);
  auto due_of = [&](int64_t i) {
    return origin + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(i / options.rate));
  };
  const auto spin = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::micro>(kSpinMicros));

  auto worker = [&] {
    while (true) {
      const int64_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= total) return;
      const Clock::time_point due = due_of(i);
      const Clock::time_point ready = Clock::now();
      std::string request = render(options.first_index + i);
      if (Clock::now() + spin < due) std::this_thread::sleep_until(due - spin);
      while (Clock::now() < due) {
      }
      const Clock::time_point start = Clock::now();
      const bool ok = issue(options.first_index + i, request);
      const Clock::time_point done = Clock::now();
      const size_t slot = static_cast<size_t>(i);
      latency[slot] = ok ? MicrosBetween(due, done)
                         : std::numeric_limits<double>::infinity();
      start_delay[slot] = MicrosBetween(due, start);
      if (ready < due) late[slot] = MicrosBetween(due, start);
      if (!ok) failed.fetch_add(1, std::memory_order_relaxed);
    }
  };

  std::vector<std::thread> threads;
  for (int t = 0; t < options.threads; ++t) threads.emplace_back(worker);
  for (std::thread& t : threads) t.join();

  OpenLoopResult result;
  result.sent = total;
  result.failed = failed.load();
  result.latency_us = std::move(latency);
  for (double l : late) {
    if (l >= 0) result.late_us.push_back(l);
  }
  std::vector<double> tail(start_delay.end() - (total + 9) / 10,
                           start_delay.end());
  result.tail_start_delay_us = Median(std::move(tail));
  return result;
}

}  // namespace balsa::perfbench
