// Shared helpers of the end-to-end benchmark: wall clocks, exact sample
// percentiles, process memory, and the metric sink every workload reports
// into (printed as "name value unit" lines and as the final JSON line).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include <sys/resource.h>

namespace balsa::perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

inline double MicrosBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

/// Exact p-th percentile (p in [0, 100]) of `samples` by the nearest-rank
/// rule; 0 for an empty sample. Sorts a copy.
inline double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  size_t rank = static_cast<size_t>(p / 100.0 * samples.size() + 0.999999);
  rank = std::clamp<size_t>(rank, 1, samples.size());
  return samples[rank - 1];
}

inline double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 50);
}

/// Process CPU seconds (user + system, all threads).
inline double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + tv.tv_usec * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

/// Peak resident set size of the process so far, in MB.
inline double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Ordered metric record: each workload sets every metric it measures.
class MetricSink {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = {value, unit};
  }
  bool Has(const std::string& name) const { return metrics_.count(name) > 0; }

  /// One "name value unit" line per metric, for people reading the log.
  void PrintTable(const char* title) const {
    std::printf("%s\n", title);
    for (const auto& [name, m] : metrics_) {
      std::printf("  %-34s %16.6g %s\n", name.c_str(), m.value,
                  m.unit.c_str());
    }
  }

  /// `{"name": {"value": v, "unit": "u"}, ...}` with full precision.
  std::string Json() const {
    std::string out = "{";
    char buf[64];
    for (const auto& [name, m] : metrics_) {
      if (out.size() > 1) out += ", ";
      std::snprintf(buf, sizeof(buf), "%.17g", m.value);
      out += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
             m.unit + "\"}";
    }
    return out + "}";
  }

  struct Metric {
    double value = 0;
    std::string unit;
  };
  const std::map<std::string, Metric>& all() const { return metrics_; }

 private:
  std::map<std::string, Metric> metrics_;
};

/// Work attempted and failed across a run; any failed correctness or
/// coverage check marks the whole run incorrect.
struct Outcome {
  int64_t attempted = 0;
  int64_t failed = 0;
  bool correct = true;

  void Check(bool condition, const std::string& what) {
    if (!condition) {
      correct = false;
      std::printf("CHECK FAILED: %s\n", what.c_str());
    }
  }
};

}  // namespace balsa::perfbench
