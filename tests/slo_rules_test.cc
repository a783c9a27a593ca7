// Tests for the SLO rules the TimeSeriesSampler judges on every tick:
// delta-window semantics (the first tick establishes a baseline instead of
// judging all-time cumulatives; a p99 rule fires on what happened since the
// last tick and resolves on its own), for_ticks/clear_ticks hysteresis,
// every rule kind, the bounded transition log, graceful handling of missing
// metrics, and tick serialization when manual ticks race the background
// thread. Rule ticks are driven through the public SampleOnce() — no
// threads, no clocks. Runs under `ctest -L obs`.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/sampler.h"

namespace balsa::obs {
namespace {

TEST(SloRulesTest, FirstTickIsBaselineNotCumulativeJudgement) {
  MetricsRegistry registry;
  Log2Histogram latency;
  auto reg = registry.AttachHistogram("req_us", &latency);
  // A terrible all-time history recorded *before* the sampler's first look.
  for (int i = 0; i < 100; ++i) latency.Record(1e6);

  TimeSeriesSampler sampler(&registry);
  HealthRule rule;
  rule.name = "p99";
  rule.kind = RuleKind::kWindowP99Above;
  rule.metric = "req_us";
  rule.threshold = 10;
  sampler.AddRule(rule);

  sampler.SampleOnce();  // no previous tick: delta 0, nothing to judge
  sampler.SampleOnce();  // quiet window: still 0
  EXPECT_FALSE(sampler.IsFiring("p99"));
  EXPECT_TRUE(sampler.Events().empty());
}

TEST(SloRulesTest, WindowP99FiresOnStormAndResolvesAfterIt) {
  MetricsRegistry registry;
  Log2Histogram latency;
  auto reg = registry.AttachHistogram("req_us", &latency);

  TimeSeriesSampler sampler(&registry);
  HealthRule rule;
  rule.name = "p99";
  rule.kind = RuleKind::kWindowP99Above;
  rule.metric = "req_us";
  rule.threshold = 1000;
  sampler.AddRule(rule);

  sampler.SampleOnce();  // baseline
  for (int i = 0; i < 50; ++i) latency.Record(5000);
  sampler.SampleOnce();  // the storm window
  EXPECT_TRUE(sampler.IsFiring("p99"));
  // A cumulative p99 would stay poisoned by the storm forever; the delta
  // window forgets it after one quiet tick.
  sampler.SampleOnce();
  EXPECT_FALSE(sampler.IsFiring("p99"));

  const std::vector<AlertEvent> events = sampler.Events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_TRUE(events[0].firing);
  EXPECT_EQ(events[0].tick, 2);
  EXPECT_GT(events[0].value, rule.threshold);
  EXPECT_FALSE(events[1].firing);
  EXPECT_EQ(events[1].tick, 3);
}

TEST(SloRulesTest, HysteresisNeedsConsecutiveTicksBothWays) {
  MetricsRegistry registry;
  Log2Histogram latency;
  auto reg = registry.AttachHistogram("req_us", &latency);

  TimeSeriesSampler sampler(&registry);
  HealthRule rule;
  rule.name = "p99";
  rule.kind = RuleKind::kWindowP99Above;
  rule.metric = "req_us";
  rule.threshold = 1000;
  rule.for_ticks = 2;
  rule.clear_ticks = 2;
  sampler.AddRule(rule);

  auto breach = [&] {
    for (int i = 0; i < 20; ++i) latency.Record(5000);
    sampler.SampleOnce();
  };
  sampler.SampleOnce();  // baseline
  breach();              // 1 breached tick: not yet
  EXPECT_FALSE(sampler.IsFiring("p99"));
  breach();              // 2 consecutive: fires
  EXPECT_TRUE(sampler.IsFiring("p99"));
  sampler.SampleOnce();  // 1 healthy tick: still firing
  EXPECT_TRUE(sampler.IsFiring("p99"));
  sampler.SampleOnce();  // 2 consecutive: resolves
  EXPECT_FALSE(sampler.IsFiring("p99"));

  const std::vector<RuleStatus> rules = sampler.Rules();
  ASSERT_EQ(rules.size(), 1u);
  EXPECT_EQ(rules[0].times_fired, 1);
}

TEST(SloRulesTest, RateRuleJudgesPerTickIncrease) {
  MetricsRegistry registry;
  Counter errors;
  auto reg = registry.AttachCounter("errors", &errors);
  // A large pre-existing total must not trip a rate rule.
  errors.Inc(100);

  TimeSeriesSampler sampler(&registry);
  HealthRule rule;
  rule.name = "error-rate";
  rule.kind = RuleKind::kWindowRateAbove;
  rule.metric = "errors";
  rule.threshold = 5;
  sampler.AddRule(rule);

  sampler.SampleOnce();  // baseline swallows the 100
  EXPECT_FALSE(sampler.IsFiring("error-rate"));
  errors.Inc(10);
  sampler.SampleOnce();
  EXPECT_TRUE(sampler.IsFiring("error-rate"));
  errors.Inc(2);
  sampler.SampleOnce();
  EXPECT_FALSE(sampler.IsFiring("error-rate"));
}

TEST(SloRulesTest, RatioRuleDividesDeltasAndSkipsEmptyWindows) {
  MetricsRegistry registry;
  Counter errors;
  Counter requests;
  auto reg_e = registry.AttachCounter("errors", &errors);
  auto reg_r = registry.AttachCounter("requests", &requests);

  TimeSeriesSampler sampler(&registry);
  HealthRule rule;
  rule.name = "error-ratio";
  rule.kind = RuleKind::kRatioAbove;
  rule.metric = "errors";
  rule.denominator = "requests";
  rule.threshold = 0.5;
  sampler.AddRule(rule);

  sampler.SampleOnce();  // baseline
  sampler.SampleOnce();  // zero-traffic window: denominator delta 0 -> 0
  EXPECT_FALSE(sampler.IsFiring("error-ratio"));

  errors.Inc(8);
  requests.Inc(10);
  sampler.SampleOnce();  // 0.8 of this window's traffic errored
  EXPECT_TRUE(sampler.IsFiring("error-ratio"));

  requests.Inc(10);
  sampler.SampleOnce();  // clean window
  EXPECT_FALSE(sampler.IsFiring("error-ratio"));
}

TEST(SloRulesTest, GaugeRuleIsInstantaneous) {
  MetricsRegistry registry;
  Gauge depth;
  auto reg = registry.AttachGauge("queue_depth", &depth);
  depth.Set(50);

  TimeSeriesSampler sampler(&registry);
  HealthRule rule;
  rule.name = "saturated";
  rule.kind = RuleKind::kGaugeAbove;
  rule.metric = "queue_depth";
  rule.threshold = 32;
  sampler.AddRule(rule);

  // Gauges are levels, not flows: no baseline tick needed.
  sampler.SampleOnce();
  EXPECT_TRUE(sampler.IsFiring("saturated"));
  depth.Set(3);
  sampler.SampleOnce();
  EXPECT_FALSE(sampler.IsFiring("saturated"));
}

TEST(SloRulesTest, BurnRateUsesTheSamplersWindow) {
  MetricsRegistry registry;
  Counter errors;
  Counter requests;
  auto reg_e = registry.AttachCounter("errors", &errors);
  auto reg_r = registry.AttachCounter("requests", &requests);

  TimeSeriesSampler sampler(&registry);
  HealthRule rule;
  rule.name = "burn";
  rule.kind = RuleKind::kBurnRateAbove;
  rule.metric = "errors";
  rule.denominator = "requests";
  rule.threshold = 0.5;
  sampler.AddRule(rule);

  // Both rates divide by the same elapsed time, so the burn rate reduces
  // to delta(errors)/delta(requests) over the retained window — no timing
  // sensitivity beyond "some time passed between ticks".
  sampler.SampleOnce();  // one point per ring: no rate yet
  EXPECT_FALSE(sampler.IsFiring("burn"));
  errors.Inc(9);
  requests.Inc(10);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  sampler.SampleOnce();  // window 9/10
  EXPECT_TRUE(sampler.IsFiring("burn"));

  errors.Inc(0);
  requests.Inc(100);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  sampler.SampleOnce();  // window 9/110: the same ring statusz's QPS reads
  EXPECT_FALSE(sampler.IsFiring("burn"));
  const std::vector<RuleStatus> rules = sampler.Rules();
  ASSERT_EQ(rules.size(), 1u);
  EXPECT_NEAR(rules[0].last_value,
              sampler.RatePerSec("errors") / sampler.RatePerSec("requests"),
              1e-9);
}

TEST(SloRulesTest, EventLogIsBoundedOldestEvicted) {
  MetricsRegistry registry;
  Gauge depth;
  auto reg = registry.AttachGauge("queue_depth", &depth);

  TimeSeriesSampler sampler(&registry);
  HealthRule rule;
  rule.name = "saturated";
  rule.kind = RuleKind::kGaugeAbove;
  rule.metric = "queue_depth";
  rule.threshold = 10;
  sampler.AddRule(rule);

  // 70 full fire/resolve cycles = 140 transitions, one per tick; only the
  // last kMaxEvents (128) survive.
  constexpr int kCycles = 70;
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    depth.Set(100);
    sampler.SampleOnce();
    depth.Set(0);
    sampler.SampleOnce();
  }
  const std::vector<AlertEvent> events = sampler.Events();
  ASSERT_EQ(events.size(), TimeSeriesSampler::kMaxEvents);
  const int64_t transitions = 2 * kCycles;
  EXPECT_EQ(events.front().tick,
            transitions - static_cast<int64_t>(events.size()) + 1);
  EXPECT_EQ(events.back().tick, transitions);
  const std::vector<RuleStatus> rules = sampler.Rules();
  ASSERT_EQ(rules.size(), 1u);
  EXPECT_EQ(rules[0].times_fired, kCycles);
}

TEST(SloRulesTest, MissingMetricEvaluatesToZero) {
  MetricsRegistry registry;
  TimeSeriesSampler sampler(&registry);
  HealthRule rule;
  rule.name = "ghost";
  rule.kind = RuleKind::kWindowP99Above;
  rule.metric = "does.not.exist";
  rule.threshold = 1;
  sampler.AddRule(rule);

  sampler.SampleOnce();
  sampler.SampleOnce();
  EXPECT_FALSE(sampler.IsFiring("ghost"));
  const std::vector<RuleStatus> rules = sampler.Rules();
  ASSERT_EQ(rules.size(), 1u);
  EXPECT_EQ(rules[0].last_value, 0);
}

// Manual ticks race the 1 ms background thread while writers increment.
// Ticks are serialized from snapshot through apply, so every ring is in
// time order and, the instruments being monotone, never steps backwards;
// the same order is what keeps a delta rule from seeing a negative window.
// The TSan job runs this under `ctest -L obs`.
TEST(SloRulesTest, ConcurrentTicksApplyInSnapshotOrder) {
  MetricsRegistry registry;
  Counter writes;
  Log2Histogram write_us;
  auto reg_c = registry.AttachCounter("writes", &writes);
  auto reg_h = registry.AttachHistogram("write_us", &write_us);

  TimeSeriesSamplerOptions options;
  options.interval_ms = 1;
  options.ring_capacity = 4096;
  TimeSeriesSampler sampler(&registry, options);
  HealthRule rule;
  rule.name = "write-rate";
  rule.kind = RuleKind::kWindowRateAbove;
  rule.metric = "writes";
  rule.threshold = -1;  // a negative window delta would resolve it
  sampler.AddRule(rule);
  sampler.Start();

  // Writers run until the last manual tick, so every tick races a moving
  // registry.
  std::atomic<bool> ticking{true};
  std::atomic<int64_t> written{0};
  std::vector<std::thread> writers;
  for (int t = 0; t < 2; ++t) {
    writers.emplace_back([&] {
      int64_t n = 0;
      while (ticking.load(std::memory_order_relaxed)) {
        writes.Inc();
        write_us.Record(n % 512);
        ++n;
      }
      written.fetch_add(n);
    });
  }
  std::vector<std::thread> tickers;
  for (int t = 0; t < 3; ++t) {
    tickers.emplace_back([&] {
      for (int i = 0; i < 500; ++i) sampler.SampleOnce();
    });
  }
  for (std::thread& ticker : tickers) ticker.join();
  ticking.store(false);
  for (std::thread& writer : writers) writer.join();
  sampler.Stop();
  sampler.SampleOnce();  // close the window after the writers finish

  EXPECT_GT(sampler.samples_taken(), 1500);
  for (const SeriesWindow& series : sampler.Series()) {
    ASSERT_GE(series.points.size(), 2u) << series.name;
    for (size_t i = 1; i < series.points.size(); ++i) {
      EXPECT_GE(series.points[i].t_seconds, series.points[i - 1].t_seconds)
          << series.name << " point " << i;
      EXPECT_GE(series.points[i].value, series.points[i - 1].value)
          << series.name << " point " << i;
    }
  }
  EXPECT_EQ(sampler.GetSeries("writes").points.back().value, written.load());
  EXPECT_TRUE(sampler.IsFiring("write-rate"));
  EXPECT_EQ(sampler.Events().size(), 1u);  // fired on the baseline tick only
}

}  // namespace
}  // namespace balsa::obs
