// Request tracer: explains *where* a slow request spent its time, and keeps
// the requests worth explaining.
//
// A traced request carries a Trace — an append-only list of timed spans —
// through every stage it touches: fingerprinting and cache lookup on the
// request thread, beam search and inference scoring on a planning-pool
// thread, executor scans/joins wherever the plan runs. Propagation is by
// an explicit TraceContext installed into a thread-local slot
// (ScopedTraceContext); crossing a thread boundary means capturing
// CurrentTraceContext() by value and re-installing it in the task body —
// see OptimizerServer::PlanMiss for the idiom.
//
// Span sites are SpanTimer RAII objects. On a thread with no installed
// context a SpanTimer is completely inert: one thread-local read, no clock
// access. On a traced thread each span costs two steady_clock reads and, at
// destruction, one append to the trace (mutex, traced requests only) plus
// one Log2Histogram record into the tracer's per-stage histogram — the
// stage breakdown tables the benches print.
//
// Which requests carry a trace shell:
//   - head sampling: the k-th arrival on a stripe (obs::ThreadStripe) gets
//     a shell at arrival iff (k - 1) % sample_every == 0, so its hit-path
//     stages (fingerprint, cache lookup) are timed too;
//   - every request that leaves the hit path (a miss or a coalesce) gets
//     one right then (Arm), which is where tail latency comes from.
//
// Retention is tail-based and decided once per request, at completion,
// when latency and outcome are known (Complete):
//   - top-K by latency: the K slowest requests ever completed are kept by
//     construction, so "what did the worst request do?" always has an
//     answer;
//   - every error and row-capped outcome, in a bounded ring (the paper's
//     "disastrous plan" signal; row caps arrive late via PromoteCapped);
//   - a uniform reservoir of the rest, the baseline to compare against.
//
// Cost on the hit path: Begin counts the arrival on the caller's own
// stripe — the only write — and Complete reads the cached top-K floor and
// flips a deterministic reservoir coin. The store mutex is taken only by
// completions that are actually retained. A retained request without a
// shell gets a span-less one materialized then; an unretained hit never
// allocates. Request ids encode (arrival k, stripe) as k * kThreadStripes +
// stripe, so they are unique, never 0, and double as trace ids.
// obs::SetEnabled(false) turns sampling, shells and retention off.
//
// Retained traces export as JSONL (one self-contained object per line,
// spans inline); scripts/trace_to_chrome.py converts that to a Chrome
// tracing / Perfetto timeline. Histogram exemplars (Log2Histogram) store
// ids of retained traces, so a p99 bucket in any dump resolves here.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/obs/metrics.h"
#include "src/util/status.h"
#include "src/util/thread_annotations.h"

namespace balsa::obs {

/// The span taxonomy: every trace site in the stack records one of these.
/// Keep in sync with TraceStageName().
enum class TraceStage : int {
  kFingerprint = 0,  // query canonicalization (serving)
  kCacheLookup,      // plan-cache probe (serving)
  kCoalesceWait,     // blocked on another request's in-flight planning
  kQueueWait,        // enqueue->dequeue wait on the planning pool
  kBeamSearch,       // the full beam search of a miss (serving/balsa)
  kInference,        // one ScoreBatch call: forward pass on the planning thread
  kAdmit,            // canonicalize + insert the planned entry (serving)
  kExecScan,         // one Executor::Scan over a relation's chunks
  kExecJoin,         // one Executor::Join of two intermediates
  kReanalyze,        // one table's re-ANALYZE (adaptive)
  kCount
};

const char* TraceStageName(TraceStage stage);
constexpr int kNumTraceStages = static_cast<int>(TraceStage::kCount);

struct TraceSpan {
  TraceStage stage = TraceStage::kFingerprint;
  /// Microseconds since the trace started / span duration.
  double start_us = 0;
  double duration_us = 0;
};

/// One request's spans. Thread-safe append (spans arrive from the request
/// thread and planning-pool threads); only traced requests ever allocate
/// one, so the mutex is off the common path.
class Trace {
 public:
  /// `start` is the request's arrival: span offsets and the request's
  /// latency share one origin even when the shell is armed mid-request.
  explicit Trace(uint64_t id, std::chrono::steady_clock::time_point start =
                                  std::chrono::steady_clock::now());

  uint64_t id() const { return id_; }
  std::chrono::steady_clock::time_point start_time() const { return start_; }

  void AddSpan(TraceStage stage, double start_us, double duration_us);
  std::vector<TraceSpan> spans() const;
  /// Number of distinct stages among the recorded spans.
  int NumDistinctStages() const;
  bool HasStage(TraceStage stage) const;
  /// Total microseconds covered by the union of the span intervals, each
  /// clipped to [0, clip_end_us]. Spans nest (inference inside
  /// beam_search), so this — not the plain sum of durations — is the time
  /// the trace accounts for. Clip at the request's latency to ignore work
  /// that ran past the response (exec spans of a re-installed trace).
  double SpanUnionMicros(
      double clip_end_us = std::numeric_limits<double>::infinity()) const;

  /// A coalesced request's link to the trace of the leader whose planning
  /// call it waited on (0 = none).
  void SetLeaderTraceId(uint64_t id);
  uint64_t leader_trace_id() const;

  /// "  cache_lookup  +12.3us  4.5us" lines, one per span, in order.
  std::string ToString() const;

 private:
  const uint64_t id_;
  const std::chrono::steady_clock::time_point start_;
  mutable Mutex mu_;
  std::vector<TraceSpan> spans_ GUARDED_BY(mu_);
  uint64_t leader_trace_id_ GUARDED_BY(mu_) = 0;
};

struct RequestTracerOptions {
  /// Head sampling: one arrival in this many gets a trace shell up front
  /// (1 = every request, 0 = none; misses are traced regardless).
  int sample_every = 64;
  /// Slowest-ever completions retained (min-heap by latency).
  int top_k = 16;
  /// Uniform reservoir of ordinary (non-tail, non-error) completions.
  int reservoir_size = 32;
  /// Error / row-capped completions retained (ring, oldest evicted).
  int max_outcomes = 64;
  /// Seeds the deterministic reservoir coin flips.
  uint64_t seed = 1;
};

/// Why a completion was retained.
enum class RetainReason : int { kTopK = 0, kOutcome, kReservoir };
const char* RetainReasonName(RetainReason reason);

/// What the server reports when a request finishes (Complete) or when its
/// executed plan turns out row-capped (PromoteCapped).
struct TraceCompletion {
  double latency_us = 0;
  /// "hit" / "miss" / "coalesced" / "error".
  const char* outcome = "";
  uint64_t fingerprint = 0;
  std::string_view query_name;
  int64_t stats_version = 0;
  uint64_t data_epoch = 0;
  bool error = false;
  bool capped = false;
  /// Row-cap promotion only: the served plan's one-line rendering, the
  /// executed root cardinality and the execution's wall time.
  std::string plan_summary;
  int64_t rows_out = 0;
  double exec_us = 0;
};

/// One retained request: its trace plus what the retention decision was
/// made on.
struct RetainedTrace {
  std::shared_ptr<Trace> trace;
  uint64_t trace_id = 0;
  double latency_us = 0;
  std::string outcome;
  uint64_t fingerprint = 0;
  std::string query_name;
  int64_t stats_version = 0;
  uint64_t data_epoch = 0;
  bool error = false;
  bool capped = false;
  RetainReason reason = RetainReason::kReservoir;
  /// Coalesced requests: the trace id of the leader they waited on.
  uint64_t leader_trace_id = 0;
  /// Row-capped requests (see TraceCompletion).
  std::string plan_summary;
  int64_t rows_out = 0;
  double exec_us = 0;

  /// Latency not covered by any span: latency minus the union of the
  /// spans, each clipped to [0, latency_us].
  double unattributed_us() const;
};

/// Owns the head-sampling decision, the per-stage span histograms, and
/// tail-based retention. One per OptimizerServer (or per traced
/// component); attach to a registry to export the stage histograms.
class RequestTracer {
 public:
  explicit RequestTracer(RequestTracerOptions options = {});

  RequestTracer(const RequestTracer&) = delete;
  RequestTracer& operator=(const RequestTracer&) = delete;

  /// One request from arrival to completion.
  struct Request {
    uint64_t id = 0;
    std::chrono::steady_clock::time_point start;
    /// Null until the request is head-sampled, armed, or retained.
    std::shared_ptr<Trace> trace;
  };

  /// Counts the arrival on the caller's stripe, stamps the start time, and
  /// starts a trace shell iff the request is head-sampled.
  Request Begin();
  /// Gives `request` a shell if it has none — called the moment a request
  /// leaves the hit path. No-op under the kill switch.
  void Arm(Request* request);

  /// The retention decision, made exactly once per request. Returns the
  /// retained trace id, or 0 when the request was let go (callers tag
  /// histogram exemplars only with ids that resolve). A retained request
  /// without a shell gets a span-less one in `request->trace`.
  uint64_t Complete(Request* request, const TraceCompletion& completion);

  /// Late promotion: an executed plan turned out row-capped (the signal
  /// arrives after Complete). The request ends up in the outcome ring,
  /// marked capped and carrying the completion's row-cap fields: moved
  /// there if it was retained as top-K or reservoir, retained now
  /// (materializing a shell when `request->trace` is null) if it was let
  /// go.
  void PromoteCapped(Request* request, const TraceCompletion& completion);

  /// Feeds the per-stage histogram (called by SpanTimer; also usable
  /// directly for stages timed by other means). A non-zero `exemplar_id`
  /// tags the value's bucket with the recording trace's id.
  void RecordStageMicros(TraceStage stage, double micros,
                         uint64_t exemplar_id = 0);

  const Log2Histogram& stage_histogram(TraceStage stage) const {
    return stage_us_[static_cast<size_t>(stage)];
  }
  /// Trace shells created (head-sampled, armed, or materialized).
  int64_t traces_started() const { return traces_started_.Value(); }

  /// Every retained trace (top-K, outcomes, reservoir), unordered.
  std::vector<RetainedTrace> Retained() const;
  /// Copies the retained entry with `trace_id` into `*out`. False when the
  /// id is unknown or has been evicted — histogram exemplars may dangle;
  /// this is the graceful path they resolve through.
  bool FindTrace(uint64_t trace_id, RetainedTrace* out) const;
  /// The highest-latency retained entry (false when nothing is retained).
  bool MaxRetained(RetainedTrace* out) const;

  struct Stats {
    int64_t requests = 0;  // arrivals counted by Begin
    int64_t retained_top_k = 0;  // currently held
    int64_t retained_outcome = 0;
    int64_t retained_reservoir = 0;
    int64_t evicted = 0;  // ever displaced from any class
  };
  Stats stats() const;
  /// Sum of the per-stripe arrival counters.
  int64_t requests() const;

  /// One JSON object per retained trace (spans inline), sorted by latency
  /// descending — the format scripts/trace_to_chrome.py consumes.
  std::string ToJsonl() const;
  Status WriteJsonlFile(const std::string& path) const;
  static std::string RetainedJson(const RetainedTrace& entry);

  /// Attaches the per-stage histograms as "<prefix>.stage_us{stage=...}",
  /// the shell counter as "<prefix>.traces", and the retention counters as
  /// "<prefix>.flight_recorder.{retained,evicted}".
  [[nodiscard]] std::vector<Registration> AttachTo(MetricsRegistry* registry,
                                                   const std::string& prefix);

  const RequestTracerOptions& options() const { return options_; }

 private:
  std::shared_ptr<Trace> NewTrace(const Request& request);
  /// Retains `request` as `reason`; returns its trace id, or 0 when it
  /// lost the under-lock re-check.
  uint64_t Admit(Request* request, const TraceCompletion& completion,
                 RetainReason reason);

  RequestTracerOptions options_;
  /// Power-of-two sample_every takes a mask instead of a modulo (the
  /// default 64 qualifies).
  bool sample_pow2_ = false;
  uint64_t sample_mask_ = 0;
  /// Per-stripe arrival counters: counting a request touches only the
  /// caller's own cache line. The count serves head sampling, request ids
  /// and the reservoir's n.
  struct alignas(64) ArrivalCounter {
    std::atomic<uint64_t> n{0};
  };
  std::array<ArrivalCounter, kThreadStripes> arrivals_;
  Counter traces_started_;
  Counter retained_;
  Counter evicted_;
  std::array<Log2Histogram, kNumTraceStages> stage_us_;
  /// Latency of the cheapest top-K entry once the heap is full; -1 admits
  /// everything. Written under mu_, read with a relaxed load as a
  /// pre-check that Admit re-verifies under the lock.
  std::atomic<double> top_k_floor_{-1};

  mutable Mutex mu_;
  /// Min-heap by latency (std::*_heap with a greater-than comparator).
  std::vector<RetainedTrace> top_k_ GUARDED_BY(mu_);
  std::deque<RetainedTrace> outcomes_ GUARDED_BY(mu_);
  std::vector<RetainedTrace> reservoir_ GUARDED_BY(mu_);
};

/// The value threaded through a request: which tracer feeds the stage
/// histograms, and which trace (if any) collects spans. Copyable across
/// thread boundaries.
struct TraceContext {
  RequestTracer* tracer = nullptr;
  std::shared_ptr<Trace> trace;

  bool active() const { return tracer != nullptr && trace != nullptr; }
};

/// The context installed on the current thread (nullptr when none).
const TraceContext* CurrentTraceContext();
/// Copy of the current thread's context (inactive when none) — capture this
/// by value before handing work to another thread.
TraceContext CurrentTraceContextCopy();

/// Installs `context` on this thread for the scope; restores the previous
/// context on destruction. Installing an inactive context is a cheap no-op
/// (the slot stays clear), so untraced requests never pay for span sites.
class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(TraceContext context);
  ScopedTraceContext(RequestTracer* tracer, std::shared_ptr<Trace> trace)
      : ScopedTraceContext(TraceContext{tracer, std::move(trace)}) {}
  ~ScopedTraceContext();

  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  TraceContext context_;
  const TraceContext* previous_ = nullptr;
  bool installed_ = false;
};

/// RAII span: measures from construction to destruction and records into
/// the current thread's trace + its tracer's stage histogram. Inert (no
/// clock reads) when no context is installed.
class SpanTimer {
 public:
  explicit SpanTimer(TraceStage stage)
      : context_(CurrentTraceContext()), stage_(stage) {
    if (context_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~SpanTimer() {
    if (context_ == nullptr) return;
    const auto end = std::chrono::steady_clock::now();
    const double duration_us =
        std::chrono::duration<double, std::micro>(end - start_).count();
    const double start_us =
        std::chrono::duration<double, std::micro>(
            start_ - context_->trace->start_time())
            .count();
    context_->trace->AddSpan(stage_, start_us, duration_us);
    context_->tracer->RecordStageMicros(stage_, duration_us,
                                        context_->trace->id());
  }

  SpanTimer(const SpanTimer&) = delete;
  SpanTimer& operator=(const SpanTimer&) = delete;

 private:
  const TraceContext* context_;
  TraceStage stage_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace balsa::obs
