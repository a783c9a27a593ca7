#include "src/obs/sampler.h"

#include <algorithm>
#include <utility>

namespace balsa::obs {

namespace {

/// Average increase of `value` per second between the first and last
/// points (0 when fewer than two points or no time passed).
template <class Points>
double RateOf(const Points& points) {
  if (points.size() < 2) return 0;
  const SamplePoint& first = points.front();
  const SamplePoint& last = points.back();
  const double dt = last.t_seconds - first.t_seconds;
  if (dt <= 0) return 0;
  return static_cast<double>(last.value - first.value) / dt;
}

/// Bucket-wise difference cur - prev; the histogram of values recorded
/// between the two snapshots. Buckets only grow, so deltas are >= 0.
HistogramData DeltaHistogram(const HistogramData& cur,
                             const HistogramData& prev) {
  HistogramData delta;
  for (int i = 0; i < HistogramData::kBuckets; ++i) {
    const auto b = static_cast<size_t>(i);
    delta.buckets[b] = cur.buckets[b] - prev.buckets[b];
    delta.count += delta.buckets[b];
  }
  delta.sum = cur.sum - prev.sum;
  return delta;
}

}  // namespace

double SeriesWindow::RatePerSec() const { return RateOf(points); }

double SeriesWindow::WindowMean() const {
  if (points.size() < 2) return 0;
  const int64_t dcount = points.back().value - points.front().value;
  const int64_t dsum = points.back().sum - points.front().sum;
  return dcount > 0 ? static_cast<double>(dsum) / dcount : 0;
}

const char* RuleKindName(RuleKind kind) {
  switch (kind) {
    case RuleKind::kWindowP99Above: return "window_p99_above";
    case RuleKind::kWindowRateAbove: return "window_rate_above";
    case RuleKind::kRatioAbove: return "ratio_above";
    case RuleKind::kBurnRateAbove: return "burn_rate_above";
    case RuleKind::kGaugeAbove: return "gauge_above";
  }
  return "unknown";
}

TimeSeriesSampler::TimeSeriesSampler(const MetricsRegistry* registry,
                                     TimeSeriesSamplerOptions options)
    : registry_(registry),
      options_(options),
      start_(std::chrono::steady_clock::now()) {}

TimeSeriesSampler::~TimeSeriesSampler() { Stop(); }

void TimeSeriesSampler::Start() {
  MutexLock lock(thread_mu_);
  if (running_) return;
  stop_ = false;
  running_ = true;
  thread_ = std::thread([this] {
    const auto interval = std::chrono::milliseconds(
        std::max(1, options_.interval_ms));
    MutexLock lock(thread_mu_);
    while (!stop_) {
      // Sample outside the thread mutex: Stop() must never block on a
      // registry snapshot in flight longer than one tick.
      lock.Unlock();
      SampleOnce();
      lock.Lock();
      // One tick per lap, cut short only by Stop(): spurious wakeups
      // re-wait against the same deadline.
      const auto deadline = std::chrono::steady_clock::now() + interval;
      while (!stop_ && cv_.WaitUntil(thread_mu_, deadline) !=
                           std::cv_status::timeout) {
      }
    }
  });
}

void TimeSeriesSampler::Stop() {
  std::thread joinable;
  {
    MutexLock lock(thread_mu_);
    if (!running_) return;
    stop_ = true;
    running_ = false;
    joinable = std::move(thread_);
  }
  cv_.NotifyAll();
  joinable.join();
}

bool TimeSeriesSampler::running() const {
  MutexLock lock(thread_mu_);
  return running_;
}

void TimeSeriesSampler::SampleOnce() {
  // tick_mu_ spans snapshot through apply, so a manual tick racing the
  // background one cannot append an older snapshot after a newer one. The
  // snapshot (instrument reads, possible callback gauges) still runs
  // outside mu_: readers only wait for the appends and the rule pass.
  MutexLock tick_lock(tick_mu_);
  RegistrySnapshot snapshot = registry_->Snapshot();
  const double t = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start_)
                       .count();
  const size_t capacity =
      static_cast<size_t>(std::max(2, options_.ring_capacity));
  MutexLock lock(mu_);
  for (const MetricValue& m : snapshot.metrics) {
    Ring& ring = series_[m.name];
    ring.kind = m.kind;
    SamplePoint point;
    point.t_seconds = t;
    if (m.kind == MetricKind::kHistogram) {
      point.value = m.histogram.count;
      point.sum = m.histogram.sum;
    } else {
      point.value = m.value;
    }
    ring.points.push_back(point);
    while (ring.points.size() > capacity) ring.points.pop_front();
  }
  samples_.Inc();
  JudgeRules(prev_, snapshot, samples_.Value());
  prev_ = std::move(snapshot);
}

double TimeSeriesSampler::Evaluate(const HealthRule& rule,
                                   const RegistrySnapshot& prev,
                                   const RegistrySnapshot& cur) const {
  const MetricValue* now = cur.Find(rule.metric);
  if (now == nullptr) return 0;
  const MetricValue* before = prev.Find(rule.metric);
  switch (rule.kind) {
    case RuleKind::kWindowP99Above: {
      const HistogramData delta =
          before != nullptr ? DeltaHistogram(now->histogram, before->histogram)
                            : HistogramData{};
      return delta.Percentile(99);
    }
    case RuleKind::kWindowRateAbove:
      return before != nullptr
                 ? static_cast<double>(now->value - before->value)
                 : 0;
    case RuleKind::kRatioAbove: {
      const MetricValue* den_now = cur.Find(rule.denominator);
      const MetricValue* den_before = prev.Find(rule.denominator);
      if (before == nullptr || den_now == nullptr || den_before == nullptr) {
        return 0;
      }
      const double num = static_cast<double>(now->value - before->value);
      const double den =
          static_cast<double>(den_now->value - den_before->value);
      return den <= 0 ? 0 : num / den;
    }
    case RuleKind::kBurnRateAbove: {
      auto num = series_.find(rule.metric);
      auto den = series_.find(rule.denominator);
      if (num == series_.end() || den == series_.end()) return 0;
      const double den_rate = RateOf(den->second.points);
      return den_rate <= 0 ? 0 : RateOf(num->second.points) / den_rate;
    }
    case RuleKind::kGaugeAbove:
      return static_cast<double>(now->value);
  }
  return 0;
}

void TimeSeriesSampler::JudgeRules(const RegistrySnapshot& prev,
                                   const RegistrySnapshot& cur,
                                   int64_t tick) {
  // Before the first tick prev is empty, so every delta rule reads 0: the
  // first tick establishes the baseline instead of judging all-time
  // cumulatives.
  for (RuleStatus& status : rules_) {
    status.last_value = Evaluate(status.rule, prev, cur);
    const bool breached = status.last_value > status.rule.threshold;
    if (breached) {
      status.breached_ticks += 1;
      status.healthy_ticks = 0;
    } else {
      status.healthy_ticks += 1;
      status.breached_ticks = 0;
    }
    if (status.state == AlertState::kOk && breached &&
        status.breached_ticks >= status.rule.for_ticks) {
      status.state = AlertState::kFiring;
      status.times_fired += 1;
      events_.push_back({status.rule.name, true, status.last_value,
                         status.rule.threshold, tick});
    } else if (status.state == AlertState::kFiring && !breached &&
               status.healthy_ticks >= status.rule.clear_ticks) {
      status.state = AlertState::kOk;
      events_.push_back({status.rule.name, false, status.last_value,
                         status.rule.threshold, tick});
    }
  }
  while (events_.size() > kMaxEvents) events_.pop_front();
}

std::vector<SeriesWindow> TimeSeriesSampler::Series() const {
  std::vector<SeriesWindow> out;
  MutexLock lock(mu_);
  out.reserve(series_.size());
  for (const auto& [name, ring] : series_) {
    SeriesWindow window;
    window.name = name;
    window.kind = ring.kind;
    window.points.assign(ring.points.begin(), ring.points.end());
    out.push_back(std::move(window));
  }
  return out;  // std::map iteration is already name-sorted
}

SeriesWindow TimeSeriesSampler::GetSeries(const std::string& name) const {
  SeriesWindow window;
  window.name = name;
  MutexLock lock(mu_);
  auto it = series_.find(name);
  if (it != series_.end()) {
    window.kind = it->second.kind;
    window.points.assign(it->second.points.begin(), it->second.points.end());
  }
  return window;
}

double TimeSeriesSampler::RatePerSec(const std::string& name) const {
  return GetSeries(name).RatePerSec();
}

void TimeSeriesSampler::AddRule(HealthRule rule) {
  if (rule.for_ticks < 1) rule.for_ticks = 1;
  if (rule.clear_ticks < 1) rule.clear_ticks = 1;
  MutexLock lock(mu_);
  RuleStatus status;
  status.rule = std::move(rule);
  rules_.push_back(std::move(status));
}

std::vector<RuleStatus> TimeSeriesSampler::Rules() const {
  MutexLock lock(mu_);
  return rules_;
}

std::vector<AlertEvent> TimeSeriesSampler::Events() const {
  MutexLock lock(mu_);
  return {events_.begin(), events_.end()};
}

bool TimeSeriesSampler::IsFiring(const std::string& rule_name) const {
  MutexLock lock(mu_);
  for (const RuleStatus& status : rules_) {
    if (status.rule.name == rule_name) {
      return status.state == AlertState::kFiring;
    }
  }
  return false;
}

}  // namespace balsa::obs
