// Continuous metrics sampling and SLO rules: cumulative counters answer
// "how much ever", but a live system needs "how fast right now" (QPS,
// ingest rate, cache churn) and "is it bad right now" (alerts). The
// TimeSeriesSampler is the one thing that ticks over a MetricsRegistry:
// every interval_ms its background thread takes one Snapshot() and
//   1. appends, per metric name, a (time, value) point to a fixed-capacity
//      ring; rates are the delta between the oldest and newest retained
//      points, so a rate is always an average over the retained window;
//   2. judges the SLO rules against the previous tick's snapshot: deltas
//      bucket-wise for histograms and value-wise for counters, so a rule
//      like "window p99 of serving.request_us{outcome=miss} above 5ms" is
//      judged on what happened *since the last tick* and resolves on its
//      own once the storm passes (a cumulative p99 never forgets a bad
//      minute; a delta p99 does). The first tick is the baseline: delta
//      rules read 0 on it.
//
// Rule kinds:
//   - kWindowP99Above:  p99 of the histogram's delta buckets this tick
//   - kWindowRateAbove: counter increase this tick
//   - kRatioAbove:      delta(metric) / delta(denominator) this tick
//   - kBurnRateAbove:   RatePerSec(metric) / RatePerSec(denominator) over
//                       the retained rings (the window statusz's QPS reads)
//   - kGaugeAbove:      the gauge's instantaneous value
//
// Transitions have hysteresis: a rule fires only after `for_ticks`
// consecutive breached ticks and resolves only after `clear_ticks`
// consecutive healthy ones, so a single noisy tick neither pages nor
// un-pages. Every transition lands in a bounded event log (oldest evicted)
// that statusz renders as the `alerts` section.
//
// The sampler only ever *reads* the registry (Snapshot() — the same call
// the benches' --metrics-json makes), so sampling perturbs a running
// workload no more than any other snapshot. SampleOnce() is public and the
// thread calls exactly it, so tests and benches drive deterministic ticks
// without the thread or a clock (tests/obs_test.cc brackets a replay with
// two manual ticks and checks the derived rate against the replay's
// measured QPS).
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/metrics.h"
#include "src/util/thread_annotations.h"

namespace balsa::obs {

struct TimeSeriesSamplerOptions {
  /// Background tick period: sampling and rule evaluation alike. The
  /// thread is started explicitly (Start()); constructing a sampler starts
  /// nothing.
  int interval_ms = 250;
  /// Points retained per series; at the default interval the window is
  /// about a minute.
  int ring_capacity = 240;
};

/// One retained observation of one metric.
struct SamplePoint {
  /// Seconds since the sampler was constructed (monotonic clock).
  double t_seconds = 0;
  /// Counter/gauge value; for histograms, the recorded-value count.
  int64_t value = 0;
  /// Histograms only: sum of recorded values at this point.
  int64_t sum = 0;
};

/// The retained window of one metric, oldest point first.
struct SeriesWindow {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  std::vector<SamplePoint> points;

  /// Average increase of `value` per second between the oldest and newest
  /// retained points (0 when fewer than two points or no time passed).
  /// For counters this is the rate (requests/sec, rows/sec); for gauges it
  /// is the drift, rarely meaningful.
  double RatePerSec() const;
  /// Histograms: mean recorded value over the window, delta-sum over
  /// delta-count (0 when nothing was recorded in the window).
  double WindowMean() const;
};

enum class RuleKind : int {
  kWindowP99Above = 0,
  kWindowRateAbove,
  kRatioAbove,
  kBurnRateAbove,
  kGaugeAbove,
};
const char* RuleKindName(RuleKind kind);

struct HealthRule {
  /// Stable identifier ("planning-stall"); also the alert name.
  std::string name;
  RuleKind kind = RuleKind::kGaugeAbove;
  /// The metric the rule watches (exact registry name, labels included).
  std::string metric;
  /// kRatioAbove / kBurnRateAbove only: the denominator metric.
  std::string denominator;
  /// Fire when the evaluated value exceeds this.
  double threshold = 0;
  /// Consecutive breached ticks before the rule fires.
  int for_ticks = 1;
  /// Consecutive healthy ticks before a firing rule resolves.
  int clear_ticks = 1;
};

enum class AlertState : int { kOk = 0, kFiring };

/// One state transition: fired or resolved.
struct AlertEvent {
  std::string rule;
  /// true = fired, false = resolved.
  bool firing = false;
  /// The evaluated value at the transition tick.
  double value = 0;
  double threshold = 0;
  /// Sampler tick index (1-based) the transition happened on.
  int64_t tick = 0;
};

/// A rule plus its live evaluation state.
struct RuleStatus {
  HealthRule rule;
  AlertState state = AlertState::kOk;
  /// Value from the most recent tick.
  double last_value = 0;
  int breached_ticks = 0;
  int healthy_ticks = 0;
  int64_t times_fired = 0;
};

class TimeSeriesSampler {
 public:
  /// Transition events retained (oldest evicted).
  static constexpr size_t kMaxEvents = 128;

  /// `registry` is borrowed and must outlive the sampler.
  explicit TimeSeriesSampler(const MetricsRegistry* registry,
                             TimeSeriesSamplerOptions options = {});
  ~TimeSeriesSampler();

  TimeSeriesSampler(const TimeSeriesSampler&) = delete;
  TimeSeriesSampler& operator=(const TimeSeriesSampler&) = delete;

  /// Starts the background tick thread (idempotent).
  void Start();
  /// Stops and joins the thread (idempotent; the destructor calls it).
  void Stop();
  bool running() const;

  /// Takes one tick now, on the calling thread — the same tick the
  /// background thread takes: snapshot, ring appends, rule evaluation.
  /// Safe concurrently with the thread; ticks are serialized, so every
  /// ring point and rule delta follows its predecessor in time.
  void SampleOnce() EXCLUDES(tick_mu_, mu_);

  /// Every retained series, sorted by name.
  std::vector<SeriesWindow> Series() const;
  /// The series named `name` (empty window when never sampled).
  SeriesWindow GetSeries(const std::string& name) const;
  /// Shorthand: GetSeries(name).RatePerSec().
  double RatePerSec(const std::string& name) const;

  /// Total ticks taken (background + manual).
  int64_t samples_taken() const { return samples_.Value(); }

  /// Adds an SLO rule, judged from the next tick on.
  void AddRule(HealthRule rule);
  std::vector<RuleStatus> Rules() const;
  /// Transition log, oldest first.
  std::vector<AlertEvent> Events() const;
  bool IsFiring(const std::string& rule_name) const;

 private:
  struct Ring {
    MetricKind kind = MetricKind::kCounter;
    std::deque<SamplePoint> points;
  };

  /// The rule's value this tick, given the previous and current snapshots;
  /// burn-rate rules read the rings this tick just appended to.
  double Evaluate(const HealthRule& rule, const RegistrySnapshot& prev,
                  const RegistrySnapshot& cur) const REQUIRES(mu_);
  /// Judges every rule for tick `tick` and logs transitions.
  void JudgeRules(const RegistrySnapshot& prev, const RegistrySnapshot& cur,
                  int64_t tick) REQUIRES(mu_);

  const MetricsRegistry* registry_;
  const TimeSeriesSamplerOptions options_;
  const std::chrono::steady_clock::time_point start_;
  Counter samples_;

  /// Held from Snapshot() through the apply step of one tick, so ticks
  /// apply in snapshot order. Taken before mu_; readers never take it.
  Mutex tick_mu_;
  /// The previous tick's snapshot (empty before the first tick, which
  /// makes every delta rule read 0 on the baseline tick).
  RegistrySnapshot prev_ GUARDED_BY(tick_mu_);

  mutable Mutex mu_;
  std::map<std::string, Ring> series_ GUARDED_BY(mu_);
  std::vector<RuleStatus> rules_ GUARDED_BY(mu_);
  std::deque<AlertEvent> events_ GUARDED_BY(mu_);

  mutable Mutex thread_mu_;
  CondVar cv_;
  bool stop_ GUARDED_BY(thread_mu_) = false;
  bool running_ GUARDED_BY(thread_mu_) = false;
  std::thread thread_ GUARDED_BY(thread_mu_);
};

}  // namespace balsa::obs
