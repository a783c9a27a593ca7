// OptimizerServer: the optimizer as a long-lived service rather than an
// experiment loop. Concurrent clients call Optimize(sql | Query); each
// request is canonicalized into a structural fingerprint
// (src/serving/query_fingerprint.h) and served from the sharded LRU plan
// cache keyed by (fingerprint, stats_version) — repeat traffic returns in
// microseconds without re-running beam search. Cached plans live in
// canonical relation space and are translated to each requester's FROM
// numbering on the way out, so alias-renamed or FROM-reordered requests
// receive correctly wired plans. Cache misses fan out through
// the runtime: planning runs on the server's ParallelExecutor pool (bounded
// planning concurrency = admission control), and every planner scores its
// frontiers through one shared InferenceService, in batched value-network
// forward passes on the planning thread.
//
// In-flight coalescing: misses for the *same* (fingerprint, stats_version)
// collapse into one planning call — the first requester plans, the rest
// block until its result lands, so a thundering herd of an uncached hot
// query costs exactly one beam search. Combined with the deterministic
// planner (epsilon is forced to 0), this gives the serving invariant the
// bench asserts: for a fixed stats_version, every client always receives a
// plan bitwise identical to a fresh single-threaded TopK, at any
// concurrency.
//
// Staleness: the stats_version comes from the CardOracle generation counter
// (bumped on re-ANALYZE). A bump makes every cached entry unreachable
// (lookups require an exact version match), so stale plans are never
// served; the entries themselves are evicted lazily by the cache.
//
// Observability: request latency is recorded into per-outcome
// (hit/miss/coalesced) obs::Log2Histograms, and the server's
// obs::RequestTracer threads a TraceContext through traced requests — the
// fingerprint, cache-lookup, coalesce-wait, queue-wait, beam-search,
// inference, and admit stages each record a span (per-stage histograms feed
// the benches' breakdown tables). Pass OptimizerServerOptions::metrics to
// export everything — server counters, outcome histograms, stage
// histograms, plan-cache counters, inference stats, planning-pool queue
// depth and queue wait — through one MetricsRegistry.
//
// Trace retention is always on and tail-based (src/obs/trace.h): every
// request reports its completion to the tracer, which keeps the top-K
// slowest, every error and row-capped outcome, and a uniform reservoir of
// the rest. A request gets a trace shell when it is head-sampled or the
// moment it leaves the pure hit path (miss or coalesce), so retained tail
// traces carry the queue-wait/beam-search/inference/admit span story while
// the microsecond hit path stays allocation-free. A coalesced request's
// trace links to its leader's. Retained completions tag their
// latency-histogram bucket with the trace id (exemplars), so a p99 bucket
// in statusz links to a full retained trace.
//
// The network pointer is borrowed and must not be trained while requests
// are in flight (serve and train are distinct phases, as in the agent).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/balsa/planner.h"
#include "src/exec/profile.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/runtime/inference_service.h"
#include "src/runtime/parallel_executor.h"
#include "src/serving/plan_cache.h"
#include "src/stats/card_oracle.h"
#include "src/util/thread_annotations.h"

namespace balsa {

struct OptimizerServerOptions {
  /// Beam-search configuration for misses. epsilon_collapse is forced to 0:
  /// a server must hand every client the same plan for the same query.
  PlannerOptions planner;
  PlanCacheOptions cache;
  /// Batched scoring of each planner's frontiers.
  InferenceServiceOptions inference;
  /// Planning threads (0 = hardware concurrency). Bounds how many misses
  /// plan at once; excess misses queue on the pool.
  int num_planning_threads = 0;
  /// Collapse concurrent misses on the same (fingerprint, stats_version)
  /// into one planning call. Off only for baselines that deliberately plan
  /// every request from scratch.
  bool coalesce_misses = true;
  /// Head sampling and trace retention (src/obs/trace.h).
  obs::RequestTracerOptions trace;
  /// When set, every serving instrument — counters, latency histograms,
  /// trace stage histograms, plan-cache and inference-service stats, the
  /// planning pool's queue depth — is attached under metrics_prefix.
  /// Borrowed; must outlive the server. nullptr = instruments still work
  /// (they ARE the server's stats), they just aren't exported anywhere.
  obs::MetricsRegistry* metrics = nullptr;
  std::string metrics_prefix = "serving";
};

class OptimizerServer {
 public:
  /// `oracle` supplies the statistics generation (stats_version); pass
  /// nullptr to pin the version to 0 (no invalidation source). All pointers
  /// are borrowed and must outlive the server.
  OptimizerServer(const Schema* schema, const Featurizer* featurizer,
                  const ValueNetwork* network, const CardOracle* oracle,
                  OptimizerServerOptions options = {});

  OptimizerServer(const OptimizerServer&) = delete;
  OptimizerServer& operator=(const OptimizerServer&) = delete;

  struct OptimizeResult {
    Plan plan;
    double predicted_ms = 0;
    /// Statistics generation the plan was produced under.
    int64_t stats_version = 0;
    /// Storage publication epoch pinned at request entry. Serving reads no
    /// table data directly — planning runs over statistics snapshots and
    /// any true-cardinality probe pins its own storage snapshot — so this
    /// records which data regime the request was served under while
    /// change-stream writers ingest concurrently.
    uint64_t data_epoch = 0;
    bool cache_hit = false;
    /// Served by waiting on another request's in-flight planning call.
    bool coalesced = false;
    double serve_micros = 0;
    /// The request's canonical structural fingerprint (the cache key).
    uint64_t fingerprint = 0;
    /// The request's id in the tracer: the id its retained entry, if any,
    /// is filed under (tracer()->FindTrace).
    uint64_t trace_id = 0;
    /// The request's trace shell. Shells are lazy: non-null when the
    /// request was head-sampled, planned (miss/coalesced), or retained at
    /// completion — a plain unretained hit carries none, because allocating
    /// one would cost more than the hit itself. Callers that execute the
    /// plan re-install it with ScopedTraceContext so exec spans land in the
    /// same trace.
    std::shared_ptr<obs::Trace> trace;
  };

  /// Plans `query` (or serves it from the cache). Thread-safe.
  StatusOr<OptimizeResult> Optimize(const Query& query);

  /// Parses an SPJ statement and serves it like Optimize. Two SQL strings
  /// that differ only in alias names or FROM order share a cache slot.
  StatusOr<OptimizeResult> OptimizeSql(const std::string& sql);

  struct Stats {
    int64_t requests = 0;   // arrivals, counted once by the tracer's Begin()
    int64_t hits = 0;
    int64_t misses = 0;     // requests that found no cached plan
    int64_t coalesced = 0;  // misses served by joining an in-flight plan
    int64_t planned = 0;    // beam searches actually run
    int64_t rewarmed = 0;   // plans refreshed by Rewarm(), not by requests
  };
  Stats stats() const;

  /// Proactively replans the `top_k` hottest cached fingerprints (by hit
  /// count) that are stale relative to the current stats_version, and
  /// re-admits them at the new version — the post-bump re-warm pass, called
  /// by the adaptive ReanalyzeScheduler right after it bumps the
  /// generation so hot traffic does not eat a miss storm. Replans run in
  /// parallel on the planning pool (scored through the shared
  /// InferenceService). Thread-safe; concurrent client misses for the same
  /// fingerprint at worst duplicate one beam search, they never see a stale
  /// or torn entry.
  struct RewarmReport {
    int candidates = 0;  // hottest entries examined
    int replanned = 0;   // successfully refreshed at the current version
    int fresh = 0;       // already at the current version, skipped
    int failed = 0;      // replanning errors (entry left to lazy eviction)
  };
  RewarmReport Rewarm(int top_k);

  /// Current statistics generation requests are served under.
  int64_t stats_version() const {
    return oracle_ == nullptr ? 0 : oracle_->generation();
  }

  /// Current storage publication epoch (0 without an oracle).
  uint64_t data_epoch() const {
    return oracle_ == nullptr ? 0 : oracle_->data_epoch();
  }

  /// How a request was served; indexes the per-outcome latency histograms.
  enum class Outcome { kHit = 0, kMiss, kCoalesced };

  /// Feeds back an executed plan's measured profile: when the execution
  /// hit the executor's row cap (the "disastrous plan" the learning loop
  /// retrains on), the request is retained as a capped outcome carrying
  /// its plan, root rows and execution time. If the caller executed under
  /// the request's trace (ScopedTraceContext re-install of result.trace),
  /// its exec_scan/exec_join spans are in the retained trace too.
  void RecordExecution(const Query& query, const OptimizeResult& result,
                       const ExecutionProfile& profile);

  const PlanCache& cache() const { return cache_; }
  /// Request latency (µs) of every request served with `outcome`.
  const obs::Log2Histogram& latency(Outcome outcome) const {
    return request_us_[static_cast<size_t>(outcome)];
  }
  obs::RequestTracer* tracer() { return &tracer_; }
  const obs::RequestTracer& tracer() const { return tracer_; }
  /// Enqueue->dequeue wait (µs) of every planning-pool task.
  const obs::Log2Histogram& pool_wait_histogram() const {
    return pool_wait_us_;
  }
  const InferenceService* inference() const { return inference_.get(); }
  int num_planning_threads() const { return executor_->num_threads(); }

 private:
  struct InFlight {
    /// The leader's trace id; coalesced waiters link their traces to it.
    /// Set before the entry is published, immutable after.
    uint64_t leader_trace_id = 0;
    /// The three fields below are guarded by the owning server's mu_ (not
    /// annotatable from a nested struct: the capability expression cannot
    /// name the outer instance). Waiters read result/status only after
    /// observing done == true under mu_.
    bool done = false;
    Status status = Status::OK();
    /// The planned entry in *canonical* relation space (like the cache):
    /// every waiter translates it to its own query's numbering.
    std::shared_ptr<const CachedPlan> result;
  };

  /// Runs one beam search on the planning pool and returns its best plan.
  /// `trace_context` re-installs the requester's trace on the pool thread;
  /// `enqueued` is when the task was submitted, so the enqueue->start wait
  /// lands in the trace as a kQueueWait span.
  StatusOr<CachedPlan> PlanMiss(
      const Query& query, int64_t version,
      const obs::TraceContext& trace_context,
      std::chrono::steady_clock::time_point enqueued);
  /// Plans `query`, admits the canonical-space entry to the cache, and
  /// returns it (shared by the leader's response and any waiters).
  StatusOr<std::shared_ptr<const CachedPlan>> PlanAndAdmit(
      const Query& query, uint64_t fingerprint,
      const std::vector<int>& canonical_rank, int64_t version);
  /// Plans `query` without touching the cache — the fallback when a
  /// canonical plan cannot be remapped onto this query's numbering.
  StatusOr<OptimizeResult> PlanUncached(const Query& query,
                                        uint64_t fingerprint, int64_t version,
                                        bool coalesced);
  /// Serves `query` for `request`, arming its trace shell (and installing
  /// it on this thread) the moment the request leaves the pure hit path.
  StatusOr<OptimizeResult> Serve(const Query& query,
                                 obs::RequestTracer::Request* request);

  const Schema* schema_;
  const CardOracle* oracle_;
  OptimizerServerOptions options_;

  /// Planning-pool queue wait. Declared before the executor: the pool's
  /// destructor drains queued tasks, and a drained task's wait observation
  /// must not land in a dead histogram.
  obs::Log2Histogram pool_wait_us_;

  std::unique_ptr<InferenceService> inference_;
  std::unique_ptr<ParallelExecutor> executor_;
  BeamSearchPlanner planner_;
  PlanCache cache_;

  Mutex mu_;     // guards in_flight_
  CondVar cv_;   // waiters for in-flight planning calls
  /// Key mixes fingerprint and stats_version: a bump mid-flight must not
  /// let a new request join a plan computed under the old statistics.
  std::unordered_map<uint64_t, std::shared_ptr<InFlight>> in_flight_
      GUARDED_BY(mu_);

  obs::Counter hits_;
  obs::Counter misses_;
  obs::Counter coalesced_;
  obs::Counter planned_;
  obs::Counter rewarmed_;
  /// Request latency by outcome, indexed by Outcome. The merge of the
  /// three is the overall latency distribution (HistogramData::Merge).
  std::array<obs::Log2Histogram, 3> request_us_;
  obs::RequestTracer tracer_;
  /// Registry attachments (empty when options.metrics == nullptr). Last
  /// member: detaches before any instrument dies.
  std::vector<obs::Registration> registrations_;
};

}  // namespace balsa
