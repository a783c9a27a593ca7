// Tests for the flight recorder — RequestTracer's tail retention: top-K by
// construction (min-heap + floor), the bounded error/capped outcome ring,
// deterministic reservoir sampling, lazy shell materialization on the hit
// path, late row-cap promotion, the kill switch, the unattributed
// remainder, and the JSONL export. Also the
// trace-context edge cases the serving stack depends on: nested
// ScopedTraceContext restore order, a pool thread re-installing a context
// while the request completes and the tracer serializes (the TSan race),
// and a histogram exemplar that dangles after eviction. Runs under
// `ctest -L obs` (the TSan CI job).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace balsa::obs {
namespace {

RequestTracerOptions Opts(int top_k, int reservoir, int max_outcomes,
                          uint64_t seed = 1) {
  RequestTracerOptions options;
  options.sample_every = 0;  // shells only where a test makes them
  options.top_k = top_k;
  options.reservoir_size = reservoir;
  options.max_outcomes = max_outcomes;
  options.seed = seed;
  return options;
}

TraceCompletion Comp(double latency_us, const char* outcome = "hit") {
  TraceCompletion completion;
  completion.latency_us = latency_us;
  completion.outcome = outcome;
  completion.query_name = "q";
  return completion;
}

/// One request from arrival to completion; returns the retained id (0 =
/// let go).
uint64_t Serve(RequestTracer* tracer, const TraceCompletion& completion) {
  RequestTracer::Request request = tracer->Begin();
  return tracer->Complete(&request, completion);
}

/// A request whose shell was armed (it left the hit path).
RequestTracer::Request Armed(RequestTracer* tracer) {
  RequestTracer::Request request = tracer->Begin();
  tracer->Arm(&request);
  return request;
}

// Minimal JSON syntax check: quotes pair up (with escapes) and braces /
// brackets balance outside strings.
bool JsonParses(const std::string& s) {
  int depth = 0;
  bool in_string = false;
  for (size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      if (--depth < 0) return false;
    }
  }
  return depth == 0 && !in_string && !s.empty() && s.front() == '{';
}

TEST(FlightRecorderTest, TopKRetainsTheSlowestByConstruction) {
  RequestTracer tracer(Opts(/*top_k=*/4, /*reservoir=*/0, /*max_outcomes=*/0));
  // 1..100 in a scrambled (but deterministic) order: the heap must end up
  // holding exactly {97, 98, 99, 100} regardless of arrival order.
  for (int i = 0; i < 100; ++i) {
    const double latency = static_cast<double>((i * 37) % 100 + 1);
    Serve(&tracer, Comp(latency, "miss"));
  }
  std::multiset<double> kept;
  for (const RetainedTrace& entry : tracer.Retained()) {
    EXPECT_EQ(entry.reason, RetainReason::kTopK);
    kept.insert(entry.latency_us);
  }
  EXPECT_EQ(kept, (std::multiset<double>{97, 98, 99, 100}));

  RetainedTrace top;
  ASSERT_TRUE(tracer.MaxRetained(&top));
  EXPECT_EQ(top.latency_us, 100);

  const RequestTracer::Stats stats = tracer.stats();
  EXPECT_EQ(stats.requests, 100);
  EXPECT_EQ(stats.retained_top_k, 4);
  EXPECT_GT(stats.evicted, 0);
}

TEST(FlightRecorderTest, LazyShellMaterializedOnlyWhenRetained) {
  RequestTracer tracer(Opts(/*top_k=*/2, /*reservoir=*/0, /*max_outcomes=*/0));
  // A null-trace (hit-path) completion that wins a top-K slot gets a
  // span-less shell materialized at admission.
  const uint64_t id = Serve(&tracer, Comp(100));
  ASSERT_NE(id, 0u);
  RetainedTrace entry;
  ASSERT_TRUE(tracer.FindTrace(id, &entry));
  ASSERT_NE(entry.trace, nullptr);
  EXPECT_EQ(entry.trace->id(), id);
  EXPECT_TRUE(entry.trace->spans().empty());

  // Fill the heap past it; a sub-floor completion is let go without ever
  // allocating (id 0 is the "no shell, no retention" signal).
  Serve(&tracer, Comp(200));
  Serve(&tracer, Comp(300));
  EXPECT_EQ(Serve(&tracer, Comp(50)), 0u);
  EXPECT_EQ(tracer.Retained().size(), 2u);
  EXPECT_FALSE(tracer.FindTrace(id, &entry));  // evicted by 200/300
}

TEST(FlightRecorderTest, OutcomeRingIsBoundedOldestEvicted) {
  RequestTracer tracer(Opts(/*top_k=*/1, /*reservoir=*/0, /*max_outcomes=*/3));
  for (int i = 0; i < 5; ++i) {
    TraceCompletion completion = Comp(1.0, "error");
    completion.error = true;
    EXPECT_NE(Serve(&tracer, completion), 0u);
  }
  std::multiset<uint64_t> indices;
  for (const RetainedTrace& entry : tracer.Retained()) {
    EXPECT_EQ(entry.reason, RetainReason::kOutcome);
    EXPECT_TRUE(entry.error);
    indices.insert(entry.trace_id / kThreadStripes);  // arrival index
  }
  // The three newest completions survive; 1 and 2 were pushed out.
  EXPECT_EQ(indices, (std::multiset<uint64_t>{3, 4, 5}));
  EXPECT_GE(tracer.stats().evicted, 2);
}

TEST(FlightRecorderTest, ReservoirIsDeterministicInSeedAndIndex) {
  // Two tracers fed the identical request stream retain the identical
  // reservoir — the coin flip is a pure function of (seed, request id).
  auto run = [](uint64_t seed) {
    RequestTracer tracer(Opts(/*top_k=*/1, /*reservoir=*/4, /*max_outcomes=*/0,
                          seed));
    Serve(&tracer, Comp(1000, "miss"));  // fills the heap
    for (int i = 0; i < 200; ++i) Serve(&tracer, Comp(1.0));
    std::multiset<uint64_t> indices;
    for (const RetainedTrace& entry : tracer.Retained()) {
      if (entry.reason == RetainReason::kReservoir) {
        indices.insert(entry.trace_id / kThreadStripes);
      }
    }
    return indices;
  };
  const std::multiset<uint64_t> first = run(7);
  EXPECT_EQ(first.size(), 4u);
  EXPECT_EQ(first, run(7));
  EXPECT_NE(first, run(8));
}

TEST(FlightRecorderTest, PromoteCappedMovesRetainedEntryToOutcomes) {
  RequestTracer tracer(Opts(/*top_k=*/2, /*reservoir=*/0, /*max_outcomes=*/4));
  RequestTracer::Request request = Armed(&tracer);
  TraceCompletion completion = Comp(500, "miss");
  ASSERT_EQ(tracer.Complete(&request, completion), request.id);

  completion.plan_summary = "HashJoin(SeqScan(a), SeqScan(b))";
  completion.rows_out = 8;
  completion.exec_us = 42;
  tracer.PromoteCapped(&request, completion);
  RetainedTrace entry;
  ASSERT_TRUE(tracer.FindTrace(request.id, &entry));
  EXPECT_TRUE(entry.capped);
  EXPECT_EQ(entry.reason, RetainReason::kOutcome);
  EXPECT_EQ(entry.trace, request.trace);  // the same shell, spans and all
  EXPECT_EQ(entry.plan_summary, completion.plan_summary);
  EXPECT_EQ(entry.rows_out, 8);
  EXPECT_EQ(entry.exec_us, 42);
  // Moved, not copied: slower requests can no longer displace it from the
  // top-K heap, and it is listed once.
  EXPECT_EQ(tracer.stats().retained_top_k, 0);
  EXPECT_EQ(tracer.stats().retained_outcome, 1);
  EXPECT_EQ(tracer.Retained().size(), 1u);
  for (int i = 0; i < 4; ++i) Serve(&tracer, Comp(1000 + i, "miss"));
  ASSERT_TRUE(tracer.FindTrace(request.id, &entry));
  EXPECT_TRUE(entry.capped);

  // A second promotion updates the outcome entry in place.
  completion.rows_out = 9;
  tracer.PromoteCapped(&request, completion);
  EXPECT_EQ(tracer.stats().retained_outcome, 1);
  ASSERT_TRUE(tracer.FindTrace(request.id, &entry));
  EXPECT_EQ(entry.rows_out, 9);
}

TEST(FlightRecorderTest, PromoteCappedMaterializesShellForUnretainedHit) {
  RequestTracer tracer(Opts(/*top_k=*/1, /*reservoir=*/0, /*max_outcomes=*/4));
  Serve(&tracer, Comp(1000, "miss"));  // raises the floor
  const TraceCompletion hit = Comp(5);
  RequestTracer::Request request = tracer.Begin();
  ASSERT_EQ(tracer.Complete(&request, hit), 0u);  // let go at completion
  ASSERT_EQ(request.trace, nullptr);

  // The row-cap signal arrives later, from plan execution: the request must
  // end up retained even though the serve-time decision dropped it.
  tracer.PromoteCapped(&request, hit);
  const RequestTracer::Stats stats = tracer.stats();
  EXPECT_EQ(stats.retained_outcome, 1);
  for (const RetainedTrace& entry : tracer.Retained()) {
    if (entry.reason != RetainReason::kOutcome) continue;
    EXPECT_TRUE(entry.capped);
    EXPECT_EQ(entry.trace_id, request.id);
    ASSERT_NE(entry.trace, nullptr);
    EXPECT_TRUE(entry.trace->spans().empty());
  }
}

TEST(FlightRecorderTest, JsonlIsSortedByLatencyAndParses) {
  RequestTracer tracer(Opts(/*top_k=*/4, /*reservoir=*/4, /*max_outcomes=*/4));
  RequestTracer::Request with_spans = Armed(&tracer);
  with_spans.trace->AddSpan(TraceStage::kBeamSearch, 1.0, 250.0);
  TraceCompletion miss = Comp(300, "miss");
  miss.query_name = "q\"needs-escaping\\";
  tracer.Complete(&with_spans, miss);
  TraceCompletion error = Comp(40, "error");
  error.error = true;
  Serve(&tracer, error);
  Serve(&tracer, Comp(120, "hit"));

  const std::string jsonl = tracer.ToJsonl();
  std::istringstream lines(jsonl);
  std::string line;
  double previous = 1e18;
  int parsed = 0;
  bool saw_spans = false;
  while (std::getline(lines, line)) {
    EXPECT_TRUE(JsonParses(line)) << line;
    EXPECT_NE(line.find("\"unattributed_us\":"), std::string::npos);
    EXPECT_NE(line.find("\"leader_trace_id\":"), std::string::npos);
    const size_t at = line.find("\"latency_us\":");
    ASSERT_NE(at, std::string::npos);
    const double latency = std::strtod(line.c_str() + at + 13, nullptr);
    EXPECT_LE(latency, previous);  // sorted descending
    previous = latency;
    if (line.find("\"stage\":\"beam_search\"") != std::string::npos) {
      saw_spans = true;
    }
    ++parsed;
  }
  EXPECT_EQ(parsed, 3);
  EXPECT_TRUE(saw_spans);
}

TEST(FlightRecorderTest, ExemplarDanglesGracefullyAfterEviction) {
  RequestTracer tracer(Opts(/*top_k=*/1, /*reservoir=*/0, /*max_outcomes=*/0));
  Log2Histogram histogram;
  const uint64_t id = Serve(&tracer, Comp(100, "miss"));
  ASSERT_NE(id, 0u);
  histogram.Record(100, id);

  // A slower completion displaces the exemplar's trace from the heap. The
  // bucket tag survives; resolution reports "gone" instead of crashing or
  // returning someone else's trace.
  Serve(&tracer, Comp(200, "miss"));
  const HistogramData data = histogram.Snapshot();
  EXPECT_EQ(data.PercentileExemplar(99), id);
  RetainedTrace entry;
  EXPECT_FALSE(tracer.FindTrace(id, &entry));
}

TEST(FlightRecorderTest, KillSwitchRetainsNothing) {
  RequestTracerOptions options = Opts(/*top_k=*/4, /*reservoir=*/4,
                                      /*max_outcomes=*/4);
  options.sample_every = 1;
  RequestTracer tracer(options);
  struct EnabledGuard {
    ~EnabledGuard() { SetEnabled(true); }
  } guard;
  SetEnabled(false);
  RequestTracer::Request request = tracer.Begin();
  EXPECT_EQ(request.trace, nullptr);  // no head-sampled shell
  tracer.Arm(&request);
  EXPECT_EQ(request.trace, nullptr);  // no armed shell
  TraceCompletion error = Comp(1e6, "error");
  error.error = true;
  EXPECT_EQ(tracer.Complete(&request, error), 0u);
  tracer.PromoteCapped(&request, Comp(1e6, "miss"));
  EXPECT_EQ(Serve(&tracer, Comp(1e6, "miss")), 0u);
  SetEnabled(true);
  EXPECT_TRUE(tracer.Retained().empty());
  EXPECT_EQ(tracer.traces_started(), 0);
  // Arrivals still count (they are the tracer's own stats, like counters).
  EXPECT_EQ(tracer.requests(), 2);
}

TEST(FlightRecorderTest, UnattributedIsLatencyMinusClippedSpanUnion) {
  // A hand-built 100us request: nested spans (inference inside
  // beam_search) count once, a gap stays unattributed, a span that starts
  // before the trace is clipped at 0, and an exec span that runs past the
  // response (row-cap execution) is clipped at the latency.
  auto trace = std::make_shared<Trace>(8);
  trace->AddSpan(TraceStage::kFingerprint, -5.0, 10.0);  // covers [0, 5]
  trace->AddSpan(TraceStage::kBeamSearch, 20.0, 40.0);   // [20, 60]
  trace->AddSpan(TraceStage::kInference, 30.0, 10.0);    // inside it
  trace->AddSpan(TraceStage::kAdmit, 55.0, 15.0);        // overlaps: to 70
  trace->AddSpan(TraceStage::kExecScan, 90.0, 500.0);    // clipped to 100
  RetainedTrace entry;
  entry.trace = trace;
  entry.latency_us = 100;
  // Covered: [0,5] + [20,70] + [90,100] = 65us.
  EXPECT_DOUBLE_EQ(trace->SpanUnionMicros(100), 65.0);
  EXPECT_DOUBLE_EQ(entry.unattributed_us(), 35.0);
  // Unclipped, the exec span alone outruns the request.
  EXPECT_DOUBLE_EQ(trace->SpanUnionMicros(), 5.0 + 50.0 + 500.0);

  RetainedTrace spanless;
  spanless.latency_us = 12;
  EXPECT_DOUBLE_EQ(spanless.unattributed_us(), 12.0);
}

TEST(TraceContextTest, NestedScopesRestoreInOrder) {
  RequestTracerOptions options;
  options.sample_every = 1;
  RequestTracer tracer(options);
  std::shared_ptr<Trace> outer = tracer.Begin().trace;
  std::shared_ptr<Trace> inner = tracer.Begin().trace;
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);

  EXPECT_EQ(CurrentTraceContext(), nullptr);
  {
    ScopedTraceContext outer_scope(&tracer, outer);
    ASSERT_NE(CurrentTraceContext(), nullptr);
    EXPECT_EQ(CurrentTraceContext()->trace->id(), outer->id());
    {
      ScopedTraceContext inner_scope(&tracer, inner);
      EXPECT_EQ(CurrentTraceContext()->trace->id(), inner->id());
    }
    // The inner scope restored the outer context, not a cleared slot.
    ASSERT_NE(CurrentTraceContext(), nullptr);
    EXPECT_EQ(CurrentTraceContext()->trace->id(), outer->id());
  }
  EXPECT_EQ(CurrentTraceContext(), nullptr);
}

TEST(TraceContextTest, InactiveContextInstallsNothing) {
  RequestTracer tracer;
  ScopedTraceContext scope(&tracer, nullptr);
  EXPECT_EQ(CurrentTraceContext(), nullptr);
}

TEST(TraceContextTest, PoolThreadSpansRaceCompletionAndSerialization) {
  // The serving shape: the request thread completes (and the tracer
  // serializes) while a pool thread is still appending spans to the same
  // trace through a re-installed context. Trace is append-only and
  // internally synchronized, so every span must land and every JSONL
  // render must stay well-formed. TSan is the real assertion here.
  constexpr int kSpans = 200;
  RequestTracer tracer(Opts(/*top_k=*/4, /*reservoir=*/0, /*max_outcomes=*/0));
  RequestTracer::Request request = Armed(&tracer);
  std::shared_ptr<Trace> trace = request.trace;
  const TraceContext context{&tracer, trace};

  std::thread pool_thread([&] {
    ScopedTraceContext scope(context);  // the PlanMiss re-install idiom
    for (int i = 0; i < kSpans; ++i) {
      SpanTimer span(TraceStage::kInference);
    }
  });
  tracer.Complete(&request, Comp(750, "miss"));
  for (int i = 0; i < 50; ++i) {
    const std::string jsonl = tracer.ToJsonl();
    EXPECT_FALSE(jsonl.empty());
  }
  pool_thread.join();

  RetainedTrace entry;
  ASSERT_TRUE(tracer.FindTrace(trace->id(), &entry));
  EXPECT_EQ(entry.trace->spans().size(), static_cast<size_t>(kSpans));
  std::istringstream lines(tracer.ToJsonl());
  std::string line;
  while (std::getline(lines, line)) EXPECT_TRUE(JsonParses(line)) << line;
}

}  // namespace
}  // namespace balsa::obs
