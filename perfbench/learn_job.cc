// learn_job: the Learn loop, the paper's headline. A Balsa agent bootstraps
// from the C_out simulator on the JOB random split (94 train / 19 test
// queries, data scale 0.25) and runs a fixed number of RunIteration()
// calls with num_threads = load threads; EvaluateWorkload then gives the
// train/test speedups over the expert. The trained agent then serves
// test-time planning requests (PlanBest) from one client, which is the
// latency a user of the learned optimizer waits for. A run repeats the
// whole loop once per kSecondsPerLoop of --seconds, each time on a fresh
// environment, and reports medians. The work is fixed for a given
// --seconds, so a faster commit finishes sooner instead of doing more.
//
// The agent seed is fixed (BalsaAgentOptions' default): the seed changes
// how many epochs early stopping runs, and so the amount of work, by tens
// of percent. The workload seed only orders the planning requests.
//
// This is the only workload where the nn/model training path,
// CardOracle -> Executor joins and batched beam-search inference do the
// work; it never touches sql or the plan cache.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <thread>

#include "perfbench/workloads.h"
#include "src/balsa/agent.h"
#include "src/exec/executor.h"
#include "src/harness/env.h"
#include "src/runtime/inference_service.h"

namespace balsa::perfbench {

namespace {

constexpr double kDataScale = 0.25;
constexpr int kIterations = 5;
/// One complete Learn loop per this many seconds of --seconds (3 loops at
/// --seconds 30): the box's speed drifts by tens of percent over seconds,
/// so one loop's wall time is too noisy to gate on. A loop took 11-19 s on
/// a 4-vCPU Xeon VM, depending on the host's load.
constexpr double kSecondsPerLoop = 10;
/// Simulation bootstrap size: 400 points per training query and at most 10
/// epochs keep Bootstrap at a few seconds. Fewer points made the loop
/// slower, not faster: the weaker bootstrap executes costlier plans.
constexpr size_t kSimPointsPerQuery = 400;
constexpr int kSimEpochs = 10;
/// Test-time planning requests per run, an equal share after each
/// repetition, so the p99 has ten samples beyond it.
constexpr int kPlanRequests = 1020;

/// One complete Learn loop: its own environment (so the oracle memo and
/// engine plan cache start cold, and every repetition does identical
/// work), the expert baselines and a trained agent.
struct Rep {
  std::unique_ptr<Env> env;
  ExpertBaseline train_baseline;
  ExpertBaseline test_baseline;
  std::unique_ptr<BalsaAgent> agent;  // borrows env; destroyed first
  double setup_s = 0;
  double bootstrap_s = 0;
  double iterate_s = 0;
  double cpu_s = 0;
  int64_t oracle_probes = 0;
  int64_t real_executions = 0;
  double train_speedup = 0;
  double test_speedup = 0;
};

/// Set-up (env + expert baselines), then Bootstrap + kIterations
/// RunIteration calls + EvaluateWorkload on both sets, then this
/// repetition's share of the test-time planning requests (latencies
/// appended to `plan_us`). Counts each call in `outcome`.
Status RunRep(const RunArgs& args, int rep_index, int repetitions, Rep* rep,
              std::vector<double>* plan_us, Outcome* outcome) {
  Clock::time_point start = Clock::now();
  EnvOptions env_options;
  env_options.data_scale = kDataScale;
  outcome->attempted++;
  BALSA_ASSIGN_OR_RETURN(rep->env,
                         MakeEnv(WorkloadKind::kJobRandomSplit, env_options));
  Env& env = *rep->env;
  BALSA_ASSIGN_OR_RETURN(
      rep->train_baseline,
      ComputeExpertBaseline(*env.pg_expert, env.pg_engine.get(),
                            env.workload.TrainQueries()));
  BALSA_ASSIGN_OR_RETURN(
      rep->test_baseline,
      ComputeExpertBaseline(*env.pg_expert, env.pg_engine.get(),
                            env.workload.TestQueries()));
  rep->setup_s = SecondsSince(start);

  BalsaAgentOptions options;
  options.iterations = kIterations;
  options.num_threads = args.threads;
  options.sim.max_points_per_query = kSimPointsPerQuery;
  options.sim_train.max_epochs = kSimEpochs;
  rep->agent = std::make_unique<BalsaAgent>(
      &env.schema(), env.pg_engine.get(), env.cout_model.get(),
      env.estimator.get(), &env.workload, options);
  const int64_t probes_before = env.oracle->NumExecutions();
  const int64_t executions_before = env.pg_engine->num_real_executions();
  const double cpu_before = ProcessCpuSeconds();
  start = Clock::now();
  outcome->attempted++;
  BALSA_RETURN_IF_ERROR(rep->agent->Bootstrap());
  rep->bootstrap_s = SecondsSince(start);
  start = Clock::now();
  for (int i = 0; i < kIterations; ++i) {
    outcome->attempted++;
    BALSA_RETURN_IF_ERROR(rep->agent->RunIteration());
  }
  rep->iterate_s = SecondsSince(start);
  rep->cpu_s = ProcessCpuSeconds() - cpu_before;
  rep->oracle_probes = env.oracle->NumExecutions() - probes_before;
  rep->real_executions =
      env.pg_engine->num_real_executions() - executions_before;

  outcome->attempted += 2;
  BALSA_ASSIGN_OR_RETURN(
      double train_ms,
      rep->agent->EvaluateWorkload(env.workload.TrainQueries()));
  BALSA_ASSIGN_OR_RETURN(
      double test_ms, rep->agent->EvaluateWorkload(env.workload.TestQueries()));
  rep->train_speedup = rep->train_baseline.total_ms / train_ms;
  rep->test_speedup = rep->test_baseline.total_ms / test_ms;

  // Test-time planning: one client plans every train and test query in a
  // seed-shuffled order, round-robin, timing each PlanBest call.
  std::vector<const Query*> queries = env.workload.TrainQueries();
  for (const Query* q : env.workload.TestQueries()) queries.push_back(q);
  Rng order(args.seed);
  for (size_t i = queries.size(); i > 1; --i) {
    std::swap(queries[i - 1], queries[order.Uniform(i)]);
  }
  const int first = rep_index * kPlanRequests / repetitions;
  const int last = (rep_index + 1) * kPlanRequests / repetitions;
  for (int k = first; k < last; ++k) {
    const Clock::time_point call = Clock::now();
    outcome->attempted++;
    BALSA_RETURN_IF_ERROR(
        rep->agent->PlanBest(*queries[static_cast<size_t>(k) % queries.size()])
            .status());
    plan_us->push_back(MicrosBetween(call, Clock::now()));
  }
  return Status::OK();
}

}  // namespace

void RunLearnJob(const RunArgs& args, MetricSink* metrics, Outcome* outcome) {
  // --- Complete Learn loops; timings are their medians --------------------
  const int repetitions =
      std::max(1, static_cast<int>(std::lround(args.seconds / kSecondsPerLoop)));
  std::vector<double> setup_s, learn_s, bootstrap_s, iterate_s, cpu_s;
  std::vector<double> plan_us;
  // Held by pointer so a repetition is destroyed as a whole, agent before
  // env (member-wise move assignment would free the env first).
  std::unique_ptr<Rep> rep;
  double first_train_speedup = 0, first_test_speedup = 0;
  for (int r = 0; r < repetitions; ++r) {
    rep.reset();  // free the previous loop before building the next
    rep = std::make_unique<Rep>();
    if (Status st = RunRep(args, r, repetitions, rep.get(), &plan_us, outcome);
        !st.ok()) {
      outcome->failed++;
      outcome->Check(false, "learn loop failed: " + st.ToString());
      return;
    }
    setup_s.push_back(rep->setup_s);
    learn_s.push_back(rep->bootstrap_s + rep->iterate_s);
    bootstrap_s.push_back(rep->bootstrap_s);
    iterate_s.push_back(rep->iterate_s);
    cpu_s.push_back(rep->cpu_s);
    if (r == 0) {
      first_train_speedup = rep->train_speedup;
      first_test_speedup = rep->test_speedup;
    }
    // The Learn loop is deterministic: every repetition learns the same.
    outcome->Check(rep->train_speedup == first_train_speedup &&
                       rep->test_speedup == first_test_speedup,
                   "learn_job: repetitions learned different agents");
  }
  Env& env = *rep->env;
  BalsaAgent& agent = *rep->agent;
  std::printf("learn_job: %zu train / %zu test queries, scale %.2f, %d "
              "iterations, %d threads, %d repetitions\n",
              env.workload.train_indices().size(),
              env.workload.test_indices().size(), kDataScale, kIterations,
              args.threads, repetitions);
  metrics->Set("setup_s", Median(setup_s), "s");
  metrics->Set("work_s", Median(learn_s), "s");
  metrics->Set("learn_wall_s", Median(learn_s), "s");
  metrics->Set("p50_us", Percentile(plan_us, 50), "us");
  metrics->Set("p99_us", Percentile(plan_us, 99), "us");
  metrics->Set("plan_requests", static_cast<double>(plan_us.size()), "count");
  metrics->Set("learn_train_speedup", rep->train_speedup, "x");
  metrics->Set("learn_test_speedup", rep->test_speedup, "x");

  // --- Coverage: this workload exercises what it was chosen for ----------
  outcome->Check(rep->oracle_probes > 0, "learn_job: zero oracle probes");

  metrics->Set("learn.bootstrap_s", Median(bootstrap_s), "s");
  metrics->Set("learn.iterate_s", Median(iterate_s), "s");
  metrics->Set("learn.cpu_s", Median(cpu_s), "s");
  metrics->Set("stats.oracle_probes", static_cast<double>(rep->oracle_probes),
               "count");
  metrics->Set("engine.real_executions",
               static_cast<double>(rep->real_executions), "count");
  double plan_ms = 0;
  int64_t evals = 0, batches = 0;
  for (const IterationStats& s : agent.curve()) {
    plan_ms += s.planning_time_ms;
    evals += s.network_evals;
    batches += s.inference_batches;
  }
  metrics->Set("balsa.plan_cpu_s", plan_ms / 1000.0, "s");
  metrics->Set("balsa.network_evals", static_cast<double>(evals), "count");
  metrics->Set("runtime.items_per_batch",
               batches > 0 ? static_cast<double>(evals) / batches : 0,
               "items");
  metrics->Set("cost.sim_collect_s", agent.sim_stats().collect_seconds, "s");
  metrics->Set("model.sim_train_s",
               rep->bootstrap_s - agent.sim_stats().collect_seconds, "s");
  if (!args.trace) return;

  // --- Traced run: replay the last repetition's inputs through each layer -
  // Beam search (balsa) through a private InferenceService (runtime):
  // every train query once with the final network, fanned out over the
  // loop's thread count like an iteration's planning phase.
  const std::vector<const Query*> train = env.workload.TrainQueries();
  InferenceService service(&agent.value_network(), agent.options().inference);
  BeamSearchPlanner planner(&env.schema(), &agent.featurizer(),
                            &agent.value_network(), agent.options().planner);
  planner.set_inference_service(&service);
  std::vector<double> topk_us(train.size());
  std::atomic<size_t> next_query{0};
  std::atomic<int64_t> replay_failures{0};
  Clock::time_point start = Clock::now();
  std::vector<std::thread> threads;
  for (int t = 0; t < args.threads; ++t) {
    threads.emplace_back([&] {
      for (size_t i = next_query++; i < train.size(); i = next_query++) {
        const Clock::time_point call = Clock::now();
        if (!planner.TopK(*train[i]).ok()) replay_failures++;
        topk_us[i] = MicrosBetween(call, Clock::now());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double replan_s = SecondsSince(start);
  outcome->Check(replay_failures.load() == 0, "replay TopK failed");
  double topk_total_us = 0;
  for (double us : topk_us) topk_total_us += us;
  metrics->Set("balsa.beam_search_us", topk_total_us / train.size(), "us");
  metrics->Set("runtime.inference_us",
               service.batch_serve_us_histogram().Snapshot().Mean(), "us");

  // CardOracle (stats) on a cold oracle, every executed plan in order.
  CardOracle cold(env.db.get());
  start = Clock::now();
  for (const Execution& e : agent.experience().executions()) {
    auto cards = cold.PlanCardinalities(env.workload.query(e.query_id), e.plan);
    outcome->Check(cards.ok(), "replay PlanCardinalities failed");
  }
  const double probe_s = SecondsSince(start);
  metrics->Set("stats.probe_s", probe_s, "s");

  // Executor (exec): scan/join split over the last iteration's plans.
  ExecutorOptions exec_options;
  exec_options.profile = true;
  Executor executor(env.db.get(), exec_options);
  double scan_us = 0, join_us = 0, probe_rows = 0;
  for (const Execution& e : agent.experience().executions()) {
    if (e.iteration != kIterations - 1) continue;
    ExecutionProfile profile;
    auto result = executor.ExecuteProfiled(env.workload.query(e.query_id),
                                           e.plan, &profile);
    outcome->Check(result.ok(), "replay ExecuteProfiled failed");
    for (const NodeProfile& node : profile.nodes) {
      if (node.node_idx < 0) continue;
      if (node.is_join) {
        join_us += node.wall_micros;
        probe_rows += static_cast<double>(node.probe_rows);
      } else {
        scan_us += node.wall_micros;
      }
    }
  }
  metrics->Set("exec.scan_s", scan_us / 1e6, "s");
  metrics->Set("exec.join_s", join_us / 1e6, "s");
  metrics->Set("exec.join_probe_rows_per_s",
               join_us > 0 ? probe_rows / (join_us / 1e6) : 0, "rows/s");

  // ValueNetwork::Train (model, nn): each iteration's on-policy dataset on
  // a copy of the trained network, with the loop's train options.
  ValueNetwork network = agent.value_network();
  start = Clock::now();
  for (int i = 0; i < kIterations; ++i) {
    auto data = agent.experience().BuildDataset(agent.featurizer(),
                                                env.workload, i);
    network.Train(data, agent.options().real_train);
  }
  const double train_s = SecondsSince(start);
  metrics->Set("model.train_s", train_s, "s");
  metrics->Set("learn.unattributed_s",
               rep->iterate_s - (replan_s * kIterations + probe_s + train_s),
               "s");
}

}  // namespace balsa::perfbench
