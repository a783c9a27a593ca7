// The serve workload: the Serve loop in two phases, hot and churn. In each,
// one OptimizerServer serves OptimizeSql requests rendered from the 124
// JOB + Ext-JOB queries with at most 10 relations (kJobTrainAll), Zipf 0.9
// popularity, in an open loop.
//
// The hot phase keeps the workload's literals: 124 fingerprints fit easily
// in the 4,096-entry plan cache, so after warm-up the sql, fingerprint and
// plan-cache read path does nearly all the work (no beam search, no NN).
//
// The churn phase shifts every filter literal within a per-predicate
// domain, so distinct fingerprints far exceed the cache capacity: LRU
// evictions happen and misses run beam search through the
// InferenceService. One load thread is a writer that applies
// GenerateDriftScenario batches on title and movie_info through ChangeLog
// on a fixed schedule and calls
// ReanalyzeScheduler::RunOnce() (with re-warm) every kBatchesPerPass
// batches, which bumps the stats generation, invalidates the cache and
// re-warms it. There is no background timer, so the bump cadence is
// deterministic.
#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>

#include "perfbench/loadgen.h"
#include "perfbench/sql_render.h"
#include "perfbench/workloads.h"
#include "src/adaptive/reanalyze_scheduler.h"
#include "src/harness/env.h"
#include "src/serving/optimizer_server.h"
#include "src/serving/query_fingerprint.h"
#include "src/sql/parser.h"
#include "src/stats/incremental_analyze.h"
#include "src/stats/swappable_estimator.h"
#include "src/workloads/drift_scenario.h"

namespace balsa::perfbench {

namespace {

constexpr double kDataScale = 0.25;
constexpr int kMaxRelations = 10;
constexpr int kPlanningThreads = 2;
constexpr int kBeamSize = 10;
constexpr int kTopK = 5;

/// Per-workload traffic shape. Rates and p99 limits are fixed so that two
/// commits are always offered the same load.
struct ServeConfig {
  double fixed_rate = 0;    // req/s of the latency phase
  double p99_limit_us = 0;  // serve_max_rps ladder pass criterion
  int literal_domain = 0;   // RequestStream literal shift domain
  int64_t burst_requests = 0;  // work_s: requests per closed-loop batch
  double ladder_step = 0;   // geometric ratio between ladder rungs
  double min_rung_requests = 0;  // each rung offers at least this many
};

constexpr ServeConfig kHot{50000, 1000, 0, 100000, 1.15, 20000};
constexpr ServeConfig kChurn{200, 50000, 64, 3000, 1.25, 200};
constexpr int kBursts = 5;
/// Set-ups per phase; setup_s reports their median.
constexpr int kSetupRepetitions = 3;

// Churn-phase writer schedule.
constexpr int kDriftBatchesPerTable = 60;  // 120 batches: p90 has 12 beyond
// RunOnce after every 25 batches: the last bump lands at 100/120 of the
// phase, so the phase ends with requests served at the final version.
constexpr int kBatchesPerPass = 25;
constexpr int kRewarmTopK = 8;

// Disjoint request-index ranges of one stream, so warm-up, the latency
// phase, the burst and the ladder never replay each other's requests.
constexpr int64_t kWarmupBase = int64_t{1} << 40;
constexpr int64_t kBurstBase = int64_t{2} << 40;
constexpr int64_t kLadderBase = int64_t{3} << 40;

/// One serving stack: env, (swappable) estimator, network, server and, for
/// churn, the change log, scheduler and the pre-generated drift batches.
struct Stack {
  /// Traced runs only. First member: the database, change log, server and
  /// scheduler all attach instruments to it, so it must outlive them.
  std::unique_ptr<obs::MetricsRegistry> registry;
  std::unique_ptr<Env> env;
  std::shared_ptr<SwappableEstimator> estimator;
  std::unique_ptr<Featurizer> featurizer;
  std::unique_ptr<ValueNetwork> network;
  std::unique_ptr<OptimizerServer> server;
  std::unique_ptr<ChangeLog> log;
  std::unique_ptr<ReanalyzeScheduler> scheduler;
  DriftScenario drift;
  std::vector<const Query*> queries;
  std::unique_ptr<RequestStream> stream;
};

/// Closed-loop: `threads` clients serve stream requests
/// [base, base + count) as fast as they can. Returns failures.
int64_t ClosedLoop(OptimizerServer* server, const RequestStream& stream,
                   int threads, int64_t base, int64_t count) {
  std::atomic<int64_t> next{0};
  std::atomic<int64_t> failed{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < threads; ++t) {
    clients.emplace_back([&] {
      for (int64_t i = next.fetch_add(1); i < count; i = next.fetch_add(1)) {
        if (!server->OptimizeSql(stream.Make(base + i).sql).ok()) {
          failed.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& c : clients) c.join();
  return failed.load();
}

StatusOr<std::unique_ptr<Stack>> BuildStack(const RunArgs& args, bool churn,
                                            const ServeConfig& config) {
  auto owned = std::make_unique<Stack>();
  Stack& stack = *owned;
  if (args.trace) stack.registry = std::make_unique<obs::MetricsRegistry>();
  EnvOptions env_options;
  env_options.data_scale = kDataScale;
  BALSA_ASSIGN_OR_RETURN(stack.env,
                         MakeEnv(WorkloadKind::kJobTrainAll, env_options));
  Env& env = *stack.env;
  stack.estimator = std::make_shared<SwappableEstimator>(env.base_estimator);
  stack.featurizer =
      std::make_unique<Featurizer>(&env.schema(), stack.estimator.get());
  // An untrained network of the serving benches' shape: serving cost, not
  // plan quality, is what this workload measures.
  ValueNetConfig net;
  net.query_dim = stack.featurizer->query_dim();
  net.node_dim = stack.featurizer->node_dim();
  net.tree_hidden1 = 32;
  net.tree_hidden2 = 16;
  net.mlp_hidden = 16;
  net.init_seed = 7;
  stack.network = std::make_unique<ValueNetwork>(net);

  OptimizerServerOptions options;
  options.planner.beam_size = kBeamSize;
  options.planner.top_k = kTopK;
  options.num_planning_threads = kPlanningThreads;
  options.trace.sample_every = args.trace ? 1 : 0;
  options.metrics = stack.registry.get();
  stack.server = std::make_unique<OptimizerServer>(
      &env.schema(), stack.featurizer.get(), stack.network.get(),
      env.oracle.get(), options);

  for (const Query& q : env.workload.queries()) {
    if (q.num_relations() <= kMaxRelations) stack.queries.push_back(&q);
  }
  for (const Query& q : env.ext_workload.queries()) {
    if (q.num_relations() <= kMaxRelations) stack.queries.push_back(&q);
  }
  RequestStreamOptions stream_options;
  stream_options.seed = args.seed;
  stream_options.literal_domain = config.literal_domain;
  stack.stream = std::make_unique<RequestStream>(&env.schema(), stack.queries,
                                                 stream_options);

  if (churn) {
    stack.log = std::make_unique<ChangeLog>(env.db.get());
    const std::vector<TableStats>& stats = env.base_estimator->stats();
    for (int t = 0; t < env.schema().num_tables(); ++t) {
      stack.log->SetAnchor(t, MakeTableAnchor(stats[static_cast<size_t>(t)]));
    }
    if (args.trace) {
      env.db->AttachMetrics(stack.registry.get());
      stack.log->AttachMetrics(stack.registry.get());
    }
    ReanalyzeSchedulerOptions scheduler_options;
    scheduler_options.rewarm_top_k = kRewarmTopK;
    scheduler_options.metrics = stack.registry.get();
    stack.scheduler = std::make_unique<ReanalyzeScheduler>(
        env.db.get(), stack.log.get(), env.oracle.get(),
        stack.estimator.get(), stack.server.get(), nullptr,
        scheduler_options);
    DriftScenarioOptions drift;
    drift.seed = 99 + args.seed;
    drift.tables = {env.schema().TableIndex("title"),
                    env.schema().TableIndex("movie_info")};
    drift.growth = 0.8;
    drift.batches_per_table = kDriftBatchesPerTable;
    BALSA_ASSIGN_OR_RETURN(stack.drift, GenerateDriftScenario(*env.db, drift));
  }

  // Warm-up. Hot: every query once, so each fingerprint is cached. Churn:
  // fill the cache to capacity so the measured phase evicts from the start.
  if (!churn) {
    for (const Query* q : stack.queries) {
      BALSA_RETURN_IF_ERROR(stack.server->Optimize(*q).status());
    }
  } else {
    const size_t capacity = static_cast<size_t>(options.cache.num_shards) *
                            options.cache.shard_capacity;
    int64_t base = kWarmupBase;
    while (stack.server->cache().size() < capacity) {
      if (ClosedLoop(stack.server.get(), *stack.stream, args.threads, base,
                     1024) > 0) {
        return Status::Internal("warm-up request failed");
      }
      base += 1024;
    }
  }
  return owned;
}

/// Mean of the values a histogram recorded between two snapshots (µs
/// histograms hold whole microseconds per value).
double MeanSince(const obs::HistogramData& before,
                 const obs::HistogramData& after) {
  const int64_t n = after.count - before.count;
  return n > 0 ? static_cast<double>(after.sum - before.sum) / n : 0;
}

/// p99 of each of up to ten consecutive windows of at least
/// kMinWindowSamples requests, median over the windows: one stall of the
/// shared box (a ~50 ms vCPU steal backs up thousands of hot requests)
/// then moves one window, not the metric. A phase with fewer samples is a
/// single window, i.e. the plain p99.
constexpr size_t kMinWindowSamples = 20000;
double WindowedP99(const std::vector<double>& latency_us) {
  const size_t windows =
      std::clamp<size_t>(latency_us.size() / kMinWindowSamples, 1, 10);
  const size_t per = latency_us.size() / windows;
  std::vector<double> p99;
  for (size_t w = 0; w < windows; ++w) {
    p99.push_back(Percentile(
        std::vector<double>(latency_us.begin() + w * per,
                            latency_us.begin() + (w + 1) * per),
        99));
  }
  return Median(p99);
}

/// A served response kept for the plan-consistency checks.
struct Sample {
  int64_t index = 0;
  uint64_t fingerprint = 0;
  int64_t stats_version = 0;
  Plan plan;
};

}  // namespace

void RunServe(const RunArgs& args, bool churn, MetricSink* metrics,
              Outcome* outcome) {
  const ServeConfig& config = churn ? kChurn : kHot;
  const char* name = churn ? "serve churn phase" : "serve hot phase";

  // --- Set-up: env, server, (drift batches), warm-up; repeated ----------
  std::vector<double> setup_seconds;
  // Held by pointer so a stack is destroyed as a whole, in reverse member
  // order (member-wise move assignment would free the registry first).
  std::unique_ptr<Stack> stack;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    stack.reset();
    const Clock::time_point start = Clock::now();
    auto built = BuildStack(args, churn, config);
    setup_seconds.push_back(SecondsSince(start));
    outcome->attempted++;
    if (!built.ok()) {
      outcome->failed++;
      outcome->Check(false, std::string(name) + " set-up failed: " +
                                built.status().ToString());
      return;
    }
    stack = std::move(built).value();
  }
  metrics->Set("setup_s", Median(setup_seconds), "s");
  Env& env = *stack->env;
  OptimizerServer& server = *stack->server;
  const RequestStream& stream = *stack->stream;
  // Open-loop phases use one load thread fewer than the box has cores: in
  // the churn phase that thread is the writer, in the hot phase it leaves
  // a core to the server's own threads and the system, so one preempted
  // spinning load thread does not stall the schedule. The closed-loop
  // burst uses every load thread.
  const int readers = args.threads - 1;
  std::printf("%s: %zu queries (<= %d relations), %.0f req/s fixed, p99 "
              "limit %.0f us, %d load threads (%d readers), %d planning "
              "threads, cache %zu entries\n",
              name, stack->queries.size(), kMaxRelations, config.fixed_rate,
              config.p99_limit_us, args.threads, readers,
              server.num_planning_threads(), server.cache().size());

  // Counters and histograms are read as deltas over the measured phases,
  // so warm-up work does not count.
  const int64_t probes_before = env.oracle->NumExecutions();
  const OptimizerServer::Stats stats_before = server.stats();
  const InferenceService::Stats inference_before = server.inference()->stats();
  const obs::HistogramData beam_before =
      server.tracer()->stage_histogram(obs::TraceStage::kBeamSearch).Snapshot();
  const obs::HistogramData pool_wait_before =
      server.pool_wait_histogram().Snapshot();
  const obs::HistogramData inference_us_before =
      server.inference()->batch_serve_us_histogram().Snapshot();
  const PlanCache::Metrics cache_before = server.cache().Totals();
  const Database::StorageStats storage_before = env.db->storage_stats();

  // --- Latency phase: open loop at the fixed rate -------------------------
  const double fixed_seconds = args.seconds * 0.45;
  const int64_t total_fixed =
      static_cast<int64_t>(config.fixed_rate * fixed_seconds);
  const int64_t stride = std::max<int64_t>(1, total_fixed / 2000);
  std::mutex sample_mu;
  std::vector<Sample> samples;
  // Per request of the latency phase: issue time (µs from phase start) and
  // the stats_version it was served under, for the no-stale check.
  std::vector<double> issue_us(static_cast<size_t>(total_fixed + 1));
  std::vector<int64_t> served_version(static_cast<size_t>(total_fixed + 1));
  const Clock::time_point phase_start = Clock::now();
  auto issue = [&](int64_t i, const std::string& sql) {
    const double at = MicrosBetween(phase_start, Clock::now());
    auto result = server.OptimizeSql(sql);
    if (!result.ok()) return false;
    if (i < static_cast<int64_t>(issue_us.size())) {
      issue_us[static_cast<size_t>(i)] = at;
      served_version[static_cast<size_t>(i)] = result->stats_version;
    }
    if (i % stride == 0) {
      std::lock_guard<std::mutex> lock(sample_mu);
      samples.push_back(
          {i, result->fingerprint, result->stats_version, result->plan});
    }
    return true;
  };
  auto render = [&](int64_t i) { return stream.Make(i).sql; };

  // Writer (churn): drift batches on a fixed schedule over the phase, with
  // a RunOnce() pass every kBatchesPerPass batches.
  std::vector<double> batch_ms;
  std::vector<double> reanalyze_ms;
  std::vector<std::pair<double, int64_t>> bumps;  // (done µs, new version)
  int64_t writer_failures = 0;
  int64_t rewarm_replans = 0;
  std::thread writer;
  if (churn) {
    writer = std::thread([&] {
      const size_t n = stack->drift.batches.size();
      for (size_t b = 0; b < n; ++b) {
        const Clock::time_point due =
            phase_start + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(
                                  fixed_seconds * static_cast<double>(b) / n));
        std::this_thread::sleep_until(due);
        const DriftBatch& batch = stack->drift.batches[b];
        const Clock::time_point start = Clock::now();
        ChangeLog& log = *stack->log;
        Status st = log.InsertRows(batch.table, batch.inserts);
        if (st.ok()) st = log.DeleteRows(batch.table, batch.delete_rows);
        for (const auto& [column, cells] : batch.updates) {
          if (st.ok()) st = log.UpdateValues(batch.table, column, cells);
        }
        batch_ms.push_back(SecondsSince(start) * 1e3);
        if (!st.ok()) writer_failures++;
        if ((b + 1) % kBatchesPerPass == 0) {
          const Clock::time_point pass_start = Clock::now();
          ReanalyzeScheduler::PassReport report = stack->scheduler->RunOnce();
          reanalyze_ms.push_back(SecondsSince(pass_start) * 1e3);
          rewarm_replans += report.rewarm.replanned;
          if (report.errors > 0) writer_failures++;
          if (report.bumped) {
            bumps.emplace_back(MicrosBetween(phase_start, Clock::now()),
                               report.new_version);
          }
        }
      }
    });
  }
  OpenLoopOptions fixed;
  fixed.rate = config.fixed_rate;
  fixed.seconds = fixed_seconds;
  fixed.threads = readers;
  OpenLoopResult latency = RunOpenLoop(fixed, render, issue);
  if (writer.joinable()) writer.join();
  const OptimizerServer::Stats stats_fixed = server.stats();
  const int64_t probes_fixed = env.oracle->NumExecutions();
  outcome->attempted += latency.sent + static_cast<int64_t>(batch_ms.size()) +
                        static_cast<int64_t>(reanalyze_ms.size());
  outcome->failed += latency.failed + writer_failures;

  // --- Plan checks, while the sampled entries are still cached ----------
  // One plan per (fingerprint, stats_version), compared in canonical
  // relation space (each client's plan is wired to its own FROM order).
  std::map<std::pair<uint64_t, int64_t>, uint64_t> canonical_plan;
  std::sort(samples.begin(), samples.end(),
            [](const Sample& a, const Sample& b) { return a.index < b.index; });
  for (const Sample& s : samples) {
    auto parsed = ParseSql(env.schema(), stream.Make(s.index).sql);
    if (!parsed.ok()) {
      outcome->Check(false, "rendered request does not parse");
      continue;
    }
    CanonicalQuery canonical = CanonicalizeQuery(*parsed);
    outcome->Check(canonical.fingerprint == s.fingerprint,
                   "served fingerprint differs from the request's");
    const uint64_t plan_fp =
        RemapPlanRelations(s.plan, canonical.canonical_rank).Fingerprint();
    auto [it, inserted] =
        canonical_plan.emplace(std::make_pair(s.fingerprint, s.stats_version),
                               plan_fp);
    if (!inserted && it->second != plan_fp) {
      outcome->Check(false, "two plans served for one (fingerprint, version)");
    }
  }
  // Sampled served plans equal a fresh single-threaded beam search of the
  // cached entry's exemplar (the request that planned it), compared in
  // canonical space; only samples whose entry is still cached at the final
  // version qualify.
  std::map<uint64_t, std::shared_ptr<const CachedPlan>> cached;
  for (const PlanCache::HotEntry& e :
       server.cache().HottestEntries(static_cast<int>(server.cache().size()))) {
    cached[e.fingerprint] = e.entry;
  }
  PlannerOptions fresh_options;
  fresh_options.beam_size = kBeamSize;
  fresh_options.top_k = kTopK;
  BeamSearchPlanner fresh(&env.schema(), stack->featurizer.get(),
                          stack->network.get(), fresh_options);
  int compared = 0;
  for (const Sample& s : samples) {
    auto entry = cached.find(s.fingerprint);
    if (compared >= 8 || s.stats_version != server.stats_version() ||
        entry == cached.end() ||
        entry->second->stats_version != s.stats_version) {
      continue;
    }
    const CachedPlan& plan = *entry->second;
    auto planned = fresh.TopK(*plan.exemplar);
    if (!planned.ok() || planned->plans.empty()) {
      outcome->Check(false, "fresh TopK failed");
      continue;
    }
    auto parsed = ParseSql(env.schema(), stream.Make(s.index).sql);
    outcome->Check(
        RemapPlanRelations(planned->plans[0].plan, plan.canonical_rank)
                .Fingerprint() ==
            RemapPlanRelations(s.plan,
                               CanonicalizeQuery(*parsed).canonical_rank)
                .Fingerprint(),
        "served plan differs from a fresh single-threaded TopK");
    compared++;
  }
  outcome->Check(compared > 0, "no served plan was compared to fresh TopK");
  // --- work_s: fixed closed-loop batches as fast as the clients can go --
  // The median of kBursts batches, so one slow stretch of the shared box
  // moves one batch, not the metric.
  std::vector<double> burst_s;
  for (int b = 0; b < kBursts; ++b) {
    const Clock::time_point burst_start = Clock::now();
    outcome->failed += ClosedLoop(&server, stream, args.threads,
                                  kBurstBase + b * config.burst_requests,
                                  config.burst_requests);
    burst_s.push_back(SecondsSince(burst_start));
    outcome->attempted += config.burst_requests;
  }

  // --- serve_max_rps: ascending fixed ladder, stop at the first failure --
  const double ladder_budget_s = args.seconds * 0.35;
  const Clock::time_point ladder_start = Clock::now();
  double max_rps = 0;
  int64_t ladder_base = kLadderBase;
  for (double rate = config.fixed_rate;
       SecondsSince(ladder_start) < ladder_budget_s;
       rate *= config.ladder_step) {
    OpenLoopOptions rung;
    rung.rate = rate;
    rung.seconds = std::max(0.3, config.min_rung_requests / rate);
    rung.threads = readers;
    rung.first_index = ladder_base;
    OpenLoopResult r = RunOpenLoop(
        rung, render, [&](int64_t, const std::string& sql) {
          return server.OptimizeSql(sql).ok();
        });
    ladder_base += r.sent;
    outcome->attempted += r.sent;
    outcome->failed += r.failed;
    const bool pass = r.failed == 0 &&
                      Percentile(r.latency_us, 99) <= config.p99_limit_us &&
                      r.tail_start_delay_us <= config.p99_limit_us;
    if (!pass) break;
    max_rps = rate;
  }

  const double late_p99 = Percentile(latency.late_us, 99);
  metrics->Set("work_s", Median(burst_s), "s");
  metrics->Set("p50_us", Percentile(latency.latency_us, 50), "us");
  metrics->Set("p99_us", WindowedP99(latency.latency_us), "us");
  // The plain p99 over every request of the phase: a tail stall that hits
  // fewer than half of the windows leaves p99_us unchanged but shows here.
  metrics->Set("p99_pooled_us", Percentile(latency.latency_us, 99), "us");
  metrics->Set("latency_samples", static_cast<double>(latency.sent), "count");
  metrics->Set("serve_max_rps", max_rps, "req/s");
  metrics->Set("loadgen.late_p99_us", late_p99, "us");
  if (churn) {
    metrics->Set("ingest_batch_p50_ms", Percentile(batch_ms, 50), "ms");
    metrics->Set("ingest_batch_p90_ms", Percentile(batch_ms, 90), "ms");
  }

  // --- Correctness ---------------------------------------------------------
  // The generator must have offered the schedule: its own lateness stays
  // a small fraction of the latency limit.
  outcome->Check(late_p99 <= 0.25 * config.p99_limit_us,
                 "load generator fell behind its schedule (late p99 " +
                     std::to_string(late_p99) + " us)");
  // No stale plan: a request issued after a bump completed is served at
  // that version or newer.
  for (int64_t i = 0; i < latency.sent; ++i) {
    const size_t slot = static_cast<size_t>(i);
    for (const auto& [done_us, version] : bumps) {
      if (issue_us[slot] > done_us && served_version[slot] < version) {
        outcome->Check(false, "stale plan served after a generation bump");
        i = latency.sent;
        break;
      }
    }
  }

  // --- Coverage: the workload stresses what it was chosen for ------------
  const int64_t requests = stats_fixed.requests - stats_before.requests;
  const int64_t hits = stats_fixed.hits - stats_before.hits;
  const int64_t misses = stats_fixed.misses - stats_before.misses;
  const int64_t planned = stats_fixed.planned - stats_before.planned;
  const PlanCache::Metrics cache_after = server.cache().Totals();
  const OptimizerServer::Stats stats_after = server.stats();
  outcome->Check(probes_fixed == probes_before &&
                     env.oracle->NumExecutions() == probes_before,
                 std::string(name) + ": oracle probes during serving");
  if (!churn) {
    outcome->Check(hits >= 0.99 * requests, "hot phase: hit rate below 99%");
    outcome->Check(planned == 0, "hot phase: beam searches after warm-up");
  } else {
    outcome->Check(cache_after.lru_evictions > cache_before.lru_evictions,
                   "churn phase: no LRU evictions");
    outcome->Check(!bumps.empty(), "churn phase: no generation bump");
    outcome->Check(rewarm_replans > 0, "churn phase: no re-warm replan");
  }

  // --- Per-layer counters (cheap; recorded in every run) ------------------
  const Database::StorageStats storage_after = env.db->storage_stats();
  metrics->Set("serving.hit_rate",
               requests > 0 ? static_cast<double>(hits) / requests : 0,
               "ratio");
  metrics->Set("serving.planned_per_miss",
               misses > 0 ? static_cast<double>(planned) / misses : 0,
               "ratio");
  metrics->Set("serving.plan_cache.lru_evictions",
               static_cast<double>(cache_after.lru_evictions -
                                   cache_before.lru_evictions),
               "count");
  metrics->Set("serving.plan_cache.stale_evictions",
               static_cast<double>(cache_after.stale_evictions -
                                   cache_before.stale_evictions),
               "count");
  metrics->Set("serving.rewarmed",
               static_cast<double>(stats_after.rewarmed -
                                   stats_before.rewarmed),
               "count");
  metrics->Set("storage.publications",
               static_cast<double>(storage_after.publications -
                                   storage_before.publications),
               "count");
  metrics->Set("storage.chunks_copied",
               static_cast<double>(storage_after.chunks_copied -
                                   storage_before.chunks_copied),
               "count");
  metrics->Set("storage.retained_bytes",
               static_cast<double>(env.db->DataBytes()), "bytes");
  if (churn) {
    metrics->Set("adaptive.reanalyze_ms", Median(reanalyze_ms), "ms");
    metrics->Set("adaptive.bumps", static_cast<double>(bumps.size()), "count");
  }
  const InferenceService::Stats inference = server.inference()->stats();
  const int64_t forward_batches =
      inference.forward_batches - inference_before.forward_batches;
  metrics->Set("runtime.items_per_batch",
               forward_batches > 0
                   ? static_cast<double>(inference.items -
                                         inference_before.items) /
                         forward_batches
                   : 0,
               "items");
  if (!args.trace) return;

  // --- Traced run: stage histograms plus benchmark-side layer replays ----
  metrics->Set(
      "balsa.beam_search_us",
      MeanSince(beam_before,
                server.tracer()
                    ->stage_histogram(obs::TraceStage::kBeamSearch)
                    .Snapshot()),
      "us");
  metrics->Set("serving.queue_wait_us",
               MeanSince(pool_wait_before,
                         server.pool_wait_histogram().Snapshot()),
               "us");
  metrics->Set(
      "runtime.inference_us",
      MeanSince(inference_us_before,
                server.inference()->batch_serve_us_histogram().Snapshot()),
      "us");
  // sql, serving fingerprint and plan-cache lookup, each timed around its
  // public entry point on the latency phase's own requests.
  const int64_t replay_n = std::min<int64_t>(latency.sent, 4000);
  std::vector<std::string> sql;
  for (int64_t i = 0; i < replay_n; ++i) sql.push_back(stream.Make(i).sql);
  std::vector<Query> parsed;
  parsed.reserve(sql.size());
  Clock::time_point start = Clock::now();
  for (const std::string& s : sql) {
    auto q = ParseSql(env.schema(), s);
    if (q.ok()) parsed.push_back(std::move(q).value());
  }
  metrics->Set("sql.parse_us", MicrosBetween(start, Clock::now()) / replay_n,
               "us");
  std::vector<uint64_t> fingerprints;
  start = Clock::now();
  for (const Query& q : parsed) {
    fingerprints.push_back(CanonicalizeQuery(q).fingerprint);
  }
  metrics->Set("serving.fingerprint_us",
               MicrosBetween(start, Clock::now()) / parsed.size(), "us");
  PlanCache cache;
  for (const PlanCache::HotEntry& e :
       server.cache().HottestEntries(static_cast<int>(server.cache().size()))) {
    cache.Insert(e.fingerprint, *e.entry);
  }
  const int64_t version = server.stats_version();
  std::shared_ptr<const CachedPlan> found;
  start = Clock::now();
  for (uint64_t fp : fingerprints) cache.Lookup(fp, version, &found);
  metrics->Set("serving.cache_lookup_us",
               MicrosBetween(start, Clock::now()) / fingerprints.size(), "us");
}

void RunServeWorkload(const RunArgs& args, MetricSink* metrics,
                      Outcome* outcome) {
  RunArgs phase = args;
  phase.seconds = args.seconds / 2;
  RunServe(phase, /*churn=*/false, metrics, outcome);
  // The hot phase's stack is gone by now, and the churn stack is smaller,
  // so this is the high-water mark of the gated phase.
  metrics->Set("peak_rss_mb", PeakRssMb(), "MB");

  MetricSink churn;
  RunServe(phase, /*churn=*/true, &churn, outcome);
  // The churn phase's own end-to-end numbers move on this box's drift by
  // more than any allowed bound, so they are reported under "churn." as
  // per-layer figures; its layer metrics replace the hot phase's, except
  // the read path the hot phase exists to measure.
  static const std::set<std::string> kChurnEndToEnd = {
      "setup_s", "work_s", "p50_us", "p99_us", "p99_pooled_us",
      "serve_max_rps", "latency_samples"};
  static const std::set<std::string> kHotOnly = {
      "sql.parse_us", "serving.fingerprint_us", "serving.cache_lookup_us",
      "loadgen.late_p99_us"};
  for (const auto& [name, m] : churn.all()) {
    if (kChurnEndToEnd.count(name) > 0) {
      metrics->Set("churn." + name, m.value, m.unit);
    } else if (kHotOnly.count(name) == 0) {
      metrics->Set(name, m.value, m.unit);
    }
  }
}

}  // namespace balsa::perfbench
