// Flight-recorder gate: the always-on tail-based trace retention must
// actually catch the tail it promises to catch. (Its cost is gated by
// bench_obs_overhead, whose instrumented server retains and whose
// kill-switch baseline does not.)
//
// Functional acceptance gates (binary exits non-zero on any failure; CI
// runs --smoke on both the release and TSan jobs):
//   1. tail retention: after a Zipf replay, the tracer's max retained
//      latency equals ReplayReport::max_us *exactly* — the slowest request
//      is retained by construction, never sampled away — and the tracer
//      counted every replay request.
//   2. outcome retention: a row-capped execution (the paper's "disastrous
//      plan" signal) is promoted into the retained set and marked capped.
//   3. exemplars: at least one per-outcome latency histogram carries a p99
//      bucket exemplar that resolves to a retained trace whose span union
//      is consistent with the recorded latency.
//   4. SLO health: a window-p99 rule over the miss histogram fires on an
//      injected miss storm (stats-generation bump) and resolves after the
//      cache re-warms — deterministic manual sampler ticks, no clocks.
// It also prints, ungated, the median unattributed share of retained
// misses: latency not covered by any span.
//
//   ./build/bench/bench_flight_recorder [--scale=S] [--threads=N] [--smoke]
//                                       [--metrics-json=PATH]
//                                       [--flight-jsonl=PATH]
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/exec/executor.h"
#include "src/obs/metrics.h"
#include "src/obs/sampler.h"
#include "src/serving/optimizer_server.h"
#include "src/serving/replay_driver.h"

namespace balsa {
namespace {

struct FlightConfig {
  bool smoke = false;
  double scale = 0.25;
  int clients = 16;
  int functional_requests_per_client = 150;
  int beam_size = 10;
  int top_k = 5;
  int max_relations = 8;
};

bool GateCheck(const char* name, bool ok, bool* all_ok) {
  std::printf("  [%s] %s\n", ok ? "PASS" : "FAIL", name);
  if (!ok) *all_ok = false;
  return ok;
}

int Run(const FlightConfig& config, const BenchFlags& flags,
        const std::string& flight_jsonl) {
  EnvOptions env_options;
  env_options.data_scale = config.scale;
  std::printf("building JOB-like env (scale %.2f) ...\n", config.scale);
  auto env_or = MakeEnv(WorkloadKind::kJobTrainAll, env_options);
  BALSA_CHECK(env_or.ok(), env_or.status().ToString());
  Env& env = **env_or;

  Featurizer featurizer(&env.schema(), env.estimator.get());
  ValueNetConfig net_config;
  net_config.query_dim = featurizer.query_dim();
  net_config.node_dim = featurizer.node_dim();
  net_config.tree_hidden1 = 32;
  net_config.tree_hidden2 = 16;
  net_config.mlp_hidden = 16;
  net_config.init_seed = 7;
  ValueNetwork network(net_config);

  std::vector<const Query*> queries;
  for (const Query& q : env.workload.queries()) {
    if (q.num_relations() <= config.max_relations) queries.push_back(&q);
  }
  BALSA_CHECK(!queries.empty(), "no queries under the relation cap");

  ReplayOptions replay;
  replay.num_clients = config.clients;
  replay.zipf_s = 0.9;
  replay.seed = 17;

  bool all_ok = true;

  // The production configuration: metrics attached, retention always on.
  // No head sampling, so retained traces are exactly what tail retention
  // keeps.
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
  OptimizerServerOptions func_options;
  func_options.planner.beam_size = config.beam_size;
  func_options.planner.top_k = config.top_k;
  func_options.trace.sample_every = 0;
  func_options.metrics = &registry;
  // Deep top-K: the functional replay's cold phase produces on the order of
  // a hundred misses, and retaining all of them keeps every p99-bucket
  // exemplar resolvable (no top-K churn can evict the tagged trace).
  func_options.trace.top_k = 128;
  func_options.trace.reservoir_size = 32;
  OptimizerServer func(&env.schema(), &featurizer, &network, env.oracle.get(),
                       func_options);

  // Hold one query out of the replay: gate 2 serves it cold afterwards, so
  // its first Optimize is a genuine miss that carries a span-filled shell.
  const Query* victim = queries[0];
  for (const Query* q : queries) {
    if (q->num_relations() > victim->num_relations()) victim = q;
  }
  std::vector<const Query*> replay_queries;
  for (const Query* q : queries) {
    if (q != victim) replay_queries.push_back(q);
  }

  replay.requests_per_client = config.functional_requests_per_client;
  auto report = ReplayWorkload(&func, replay_queries, replay);
  BALSA_CHECK(report.ok(), report.status().ToString());
  const obs::RequestTracer& tracer = *func.tracer();

  std::printf("\nfunctional replay: %lld requests, hit rate %.3f, "
              "p99 %.0fus, max %.0fus\n",
              static_cast<long long>(report->requests), report->hit_rate,
              report->p99_us, report->max_us);
  const obs::RequestTracer::Stats stats = tracer.stats();
  std::printf("flight recorder: %lld requests -> %lld top-k + %lld "
              "outcome + %lld reservoir retained, %lld evicted\n",
              static_cast<long long>(stats.requests),
              static_cast<long long>(stats.retained_top_k),
              static_cast<long long>(stats.retained_outcome),
              static_cast<long long>(stats.retained_reservoir),
              static_cast<long long>(stats.evicted));

  // Ungated: how much of a retained miss's latency no span explains. Span
  // sites cover the planning path; the remainder is fingerprinting before
  // the shell is armed, result remapping, and scheduling gaps.
  std::vector<double> unattributed_share;
  for (const obs::RetainedTrace& entry : tracer.Retained()) {
    if (entry.outcome != "miss" || entry.latency_us <= 0) continue;
    unattributed_share.push_back(entry.unattributed_us() / entry.latency_us);
  }
  if (!unattributed_share.empty()) {
    std::printf("unattributed share of retained misses: median %.2f%% over "
                "%zu misses\n",
                100.0 * Median(unattributed_share), unattributed_share.size());
  }

  std::printf("\ngates:\n");
  // Gate 1: the slowest request of the replay is retained, exactly. Both
  // sides of the comparison are the same OptimizeResult::serve_micros
  // double, so equality is bitwise, not approximate.
  GateCheck("requests: tracer counted every replay request",
            stats.requests == report->requests, &all_ok);
  obs::RetainedTrace top;
  const bool have_top = tracer.MaxRetained(&top);
  GateCheck("tail: max retained latency == ReplayReport::max_us",
            have_top && top.latency_us == report->max_us, &all_ok);
  if (have_top) {
    std::printf("        slowest: trace #%llu %.0fus [%s] %s\n",
                static_cast<unsigned long long>(top.trace_id), top.latency_us,
                top.outcome.c_str(), top.query_name.c_str());
  }

  // Gate 3 (before the row-cap execution, while every retained trace holds
  // only serve-path spans): a p99 bucket exemplar resolves to a retained
  // trace and its span union does not exceed the recorded latency by more
  // than scheduling slack.
  int resolved_exemplars = 0;
  bool spans_consistent = true;
  const obs::RegistrySnapshot snap = registry.Snapshot();
  for (const char* outcome : {"hit", "miss", "coalesced"}) {
    const std::string name =
        std::string("serving.request_us{outcome=") + outcome + "}";
    const obs::MetricValue* m = snap.Find(name);
    if (m == nullptr || m->histogram.count == 0) continue;
    const uint64_t exemplar = m->histogram.PercentileExemplar(99);
    if (exemplar == 0) continue;
    obs::RetainedTrace entry;
    if (!tracer.FindTrace(exemplar, &entry)) continue;  // evicted: tolerated
    const double union_us = entry.trace->SpanUnionMicros();
    // Spans are timed inside the request window; the union may exceed the
    // recorded latency only by clock skew, never structurally.
    if (union_us > entry.latency_us * 1.25 + 200.0) spans_consistent = false;
    std::printf("        p99 exemplar [%s]: trace #%llu, latency %.0fus, "
                "span union %.0fus (%zu spans)\n",
                outcome, static_cast<unsigned long long>(exemplar),
                entry.latency_us, union_us, entry.trace->spans().size());
    ++resolved_exemplars;
  }
  GateCheck("exemplars: >= 1 p99 bucket resolves to a retained trace",
            resolved_exemplars >= 1, &all_ok);
  GateCheck("exemplars: span union consistent with recorded latency",
            spans_consistent, &all_ok);

  // Gate 2: execute one served plan under a tiny row cap; the capped
  // profile must promote the request's trace into the retained set. The
  // victim was held out of the replay, so this is a cold miss and the
  // result carries its span-filled shell.
  auto served = func.Optimize(*victim);
  BALSA_CHECK(served.ok(), served.status().ToString());
  BALSA_CHECK(served->trace != nullptr, "a miss must carry a trace shell");
  ExecutorOptions exec_options;
  exec_options.profile = true;
  exec_options.row_cap = 8;  // far below any multi-join's intermediates
  Executor executor(env.db.get(), exec_options);
  ExecutionProfile profile;
  {
    obs::ScopedTraceContext scope(func.tracer(), served->trace);
    auto executed = executor.ExecuteProfiled(*victim, served->plan, &profile);
    BALSA_CHECK(executed.ok(), executed.status().ToString());
  }
  BALSA_CHECK(profile.AnyCapped(), "row cap of 8 must truncate the join");
  func.RecordExecution(*victim, *served, profile);
  obs::RetainedTrace capped_entry;
  const bool capped_found = tracer.FindTrace(served->trace_id, &capped_entry);
  GateCheck("row cap: capped execution promoted into the retained set",
            capped_found && capped_entry.capped &&
                !capped_entry.plan_summary.empty(),
            &all_ok);

  // Gate 4: SLO health. A window-p99 rule over the miss histogram judges
  // per-tick deltas, so it must stay quiet on the warmed cache, fire on the
  // miss storm a stats-generation bump injects, and resolve once the same
  // traffic is re-warmed (a cumulative p99 would never let go).
  obs::TimeSeriesSampler sampler(&registry);
  obs::HealthRule rule;
  rule.name = "miss-p99";
  rule.kind = obs::RuleKind::kWindowP99Above;
  rule.metric = "serving.request_us{outcome=miss}";
  rule.threshold = 50;  // any cold beam search is far above 50us
  sampler.AddRule(rule);

  sampler.SampleOnce();  // baseline tick: first tick judges empty deltas
  sampler.SampleOnce();  // consume the functional replay's window
  const bool quiet_before = !sampler.IsFiring("miss-p99");

  env.oracle->BumpGeneration();  // every cached plan becomes unreachable
  ReplayOptions storm = replay;
  storm.requests_per_client = std::max(10, replay.requests_per_client / 4);
  auto storm_report = ReplayWorkload(&func, queries, storm);
  BALSA_CHECK(storm_report.ok(), storm_report.status().ToString());
  sampler.SampleOnce();
  const bool fired = sampler.IsFiring("miss-p99");

  // The re-warm replay reuses the storm's options: client sequences are a
  // pure function of (seed, client), so it touches exactly the query set
  // the storm just re-cached — zero misses, and the rule must resolve.
  auto rewarm_report = ReplayWorkload(&func, queries, storm);
  BALSA_CHECK(rewarm_report.ok(), rewarm_report.status().ToString());
  sampler.SampleOnce();
  const bool resolved = !sampler.IsFiring("miss-p99");

  GateCheck("health: quiet on the warmed cache", quiet_before, &all_ok);
  GateCheck("health: fires on the injected miss storm", fired, &all_ok);
  GateCheck("health: resolves after the cache re-warms", resolved, &all_ok);
  int fire_events = 0, resolve_events = 0;
  for (const obs::AlertEvent& event : sampler.Events()) {
    (event.firing ? fire_events : resolve_events) += 1;
  }
  GateCheck("health: transition log holds the fire and the resolve",
            fire_events >= 1 && resolve_events >= 1, &all_ok);

  // Queue-wait profiling rides along: the server stamps every planning-pool
  // task, so after real misses the wait histogram is live.
  GateCheck("pool: queue-wait histogram recorded planning-pool tasks",
            func.pool_wait_histogram().Count() > 0, &all_ok);

  if (!flight_jsonl.empty()) {
    Status status = tracer.WriteJsonlFile(flight_jsonl);
    BALSA_CHECK(status.ok(), status.ToString());
    std::printf("\nflight recorder: %zu retained traces -> %s\n",
                tracer.Retained().size(), flight_jsonl.c_str());
  }

  std::printf("\n%s%s\n",
              all_ok ? "PASS: tail retained, row caps promoted, exemplars "
                       "resolve, alerts round-trip"
                     : "FAIL: see gate lines above",
              bench::kTsanBuild ? " (TSan build)" : "");
  // Dump while `func` is alive — its Registrations detach on destruction.
  bench::DumpMetricsJsonIfRequested(flags);
  return all_ok ? 0 : 1;
}

}  // namespace
}  // namespace balsa

int main(int argc, char** argv) {
  using namespace balsa;
  BenchFlags flags = BenchFlags::Parse(argc, argv);
  FlightConfig config;
  std::string flight_jsonl;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) config.smoke = true;
    if (std::strncmp(argv[i], "--flight-jsonl=", 15) == 0) {
      flight_jsonl = argv[i] + 15;
    }
  }
  if (config.smoke) {
    config.scale = 0.03;
    config.clients = 8;
    // TSan multiplies the cost of the replay loop ~10x; shrink it there to
    // keep CI inside its budget.
    config.functional_requests_per_client = bench::kTsanBuild ? 60 : 120;
    config.beam_size = 3;
    config.top_k = 1;
    config.max_relations = 8;
  } else {
    config.scale = flags.scale;
    if (flags.threads > 0) config.clients = flags.threads;
  }
  flags.scale = config.scale;
  flags.threads = config.clients;
  bench::PrintHeader(
      "Obs: flight recorder — tail retention, exemplars, SLO health",
      "no paper counterpart; gates: max-latency + capped requests "
      "retained, p99 exemplars resolve, health rule fires and resolves",
      flags);
  std::printf("flight config:%s %d clients, %d functional requests/client\n",
              config.smoke ? " (smoke)" : "", config.clients,
              config.functional_requests_per_client);
  return Run(config, flags, flight_jsonl);
}
