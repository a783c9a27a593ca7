// Google-benchmark microbenchmarks for the hot paths: executor joins,
// oracle lookups and cold plan probes, value-network inference and
// training, beam-search planning, and DP enumeration. These bound the
// per-iteration cost of the learning loop.
#include <benchmark/benchmark.h>

#include "src/balsa/planner.h"
#include "src/balsa/simulation.h"
#include "src/baselines/random_planner.h"
#include "src/harness/env.h"
#include "src/model/value_network.h"
#include "src/optimizer/dp_optimizer.h"
#include "tests/test_util.h"

namespace balsa {
namespace {

struct MicroEnv {
  testing::StarFixture fixture = testing::MakeStarFixture(42, 20000);
  Query query = testing::MakeStarQuery(fixture.schema());
  Featurizer featurizer{&fixture.schema(), fixture.estimator.get()};
  CoutCostModel cout{fixture.estimator, &fixture.schema()};
  std::unique_ptr<ValueNetwork> net;

  MicroEnv() {
    ValueNetConfig config;
    config.query_dim = featurizer.query_dim();
    config.node_dim = featurizer.node_dim();
    net = std::make_unique<ValueNetwork>(config);
  }
};

MicroEnv& GlobalEnv() {
  static MicroEnv* env = new MicroEnv();
  return *env;
}

void BM_ExecutorScan(benchmark::State& state) {
  MicroEnv& env = GlobalEnv();
  Executor executor(env.fixture.db.get());
  for (auto _ : state) {
    auto scan = executor.Scan(env.query, 0);
    benchmark::DoNotOptimize(scan);
  }
}
BENCHMARK(BM_ExecutorScan);

void BM_ExecutorHashJoin(benchmark::State& state) {
  MicroEnv& env = GlobalEnv();
  Executor executor(env.fixture.db.get());
  auto sales = executor.Scan(env.query, 0);
  auto customer = executor.Scan(env.query, 1);
  for (auto _ : state) {
    auto joined = executor.Join(env.query, *sales, *customer);
    benchmark::DoNotOptimize(joined);
  }
}
BENCHMARK(BM_ExecutorHashJoin);

void BM_OracleCachedLookup(benchmark::State& state) {
  MicroEnv& env = GlobalEnv();
  TableSet all = env.query.AllTables();
  (void)env.fixture.oracle->Cardinality(env.query, all);  // warm
  for (auto _ : state) {
    auto card = env.fixture.oracle->Cardinality(env.query, all);
    benchmark::DoNotOptimize(card);
  }
}
BENCHMARK(BM_OracleCachedLookup);

/// Every third JOB train query at learn_job's data scale, each with its
/// expert plan and one random bushy plan: a fixed set of the kinds of plans
/// the Learn loop probes.
struct JobPlans {
  std::unique_ptr<Env> env;
  std::vector<std::pair<const Query*, Plan>> plans;

  JobPlans() {
    EnvOptions options;
    options.data_scale = 0.25;
    auto made = MakeEnv(WorkloadKind::kJobRandomSplit, options);
    BALSA_CHECK(made.ok(), made.status().ToString());
    env = std::move(made).value();
    RandomPlanner random(&env->schema());
    Rng rng(7);
    const std::vector<const Query*> train = env->workload.TrainQueries();
    for (size_t i = 0; i < train.size(); i += 3) {
      const Query* query = train[i];
      auto expert = env->pg_expert->Optimize(*query);
      auto sampled = random.Sample(*query, &rng);
      BALSA_CHECK(expert.ok() && sampled.ok(), query->name());
      plans.push_back({query, expert->plan});
      plans.push_back({query, std::move(sampled).value()});
    }
  }
};

/// True cardinalities of every node of every plan on a fresh oracle, so
/// each iteration measures all of them from scratch (within-call reuse
/// only). One item is one plan.
void BM_PlanCardinalitiesCold(benchmark::State& state) {
  static JobPlans* job = new JobPlans();
  for (auto _ : state) {
    CardOracle oracle(job->env->db.get());
    for (const auto& [query, plan] : job->plans) {
      auto cards = oracle.PlanCardinalities(*query, plan);
      BALSA_CHECK(cards.ok(), cards.status().ToString());
      benchmark::DoNotOptimize(cards);
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(job->plans.size()));
}
BENCHMARK(BM_PlanCardinalitiesCold)->Unit(benchmark::kMillisecond);

void BM_ValueNetworkPredict(benchmark::State& state) {
  MicroEnv& env = GlobalEnv();
  Plan plan;
  int s = plan.AddScan(0, ScanOp::kSeqScan);
  int c = plan.AddScan(1, ScanOp::kSeqScan);
  int sc = plan.AddJoin(s, c, JoinOp::kHashJoin);
  int p = plan.AddScan(2, ScanOp::kSeqScan);
  plan.AddJoin(sc, p, JoinOp::kHashJoin);
  nn::Vec qf = env.featurizer.QueryFeatures(env.query);
  nn::TreeSample tree = env.featurizer.PlanFeatures(env.query, plan);
  for (auto _ : state) {
    benchmark::DoNotOptimize(env.net->Predict(qf, tree));
  }
}
BENCHMARK(BM_ValueNetworkPredict);

void BM_ValueNetworkForwardBatch(benchmark::State& state) {
  MicroEnv& env = GlobalEnv();
  Plan plan;
  int s = plan.AddScan(0, ScanOp::kSeqScan);
  int c = plan.AddScan(1, ScanOp::kSeqScan);
  int sc = plan.AddJoin(s, c, JoinOp::kHashJoin);
  int p = plan.AddScan(2, ScanOp::kSeqScan);
  plan.AddJoin(sc, p, JoinOp::kHashJoin);
  nn::Vec qf = env.featurizer.QueryFeatures(env.query);
  nn::TreeSample tree = env.featurizer.PlanFeatures(env.query, plan);
  std::vector<const nn::TreeSample*> batch(
      static_cast<size_t>(state.range(0)), &tree);
  for (auto _ : state) {
    benchmark::DoNotOptimize(env.net->ForwardBatch(qf, batch));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ValueNetworkForwardBatch)->Arg(8)->Arg(32)->Arg(128);

void BM_ValueNetworkTrainStep(benchmark::State& state) {
  MicroEnv& env = GlobalEnv();
  // 64 featurized (query scope, subplan, cost) points from simulation.
  SimulationOptions sim;
  sim.num_threads = 1;
  auto collected = CollectSimulationData({&env.query}, env.fixture.schema(),
                                         env.cout, env.featurizer, sim);
  if (!collected.ok() || collected->size() < 64) {
    state.SkipWithError("too few simulation points");
    return;
  }
  std::vector<TrainingPoint> data(collected->begin(),
                                  collected->begin() + 64);
  // One epoch over 64 points with nothing held out: exactly one minibatch
  // of forward, backward and Adam step.
  ValueNetwork::TrainOptions options;
  options.max_epochs = 1;
  options.batch_size = 64;
  options.val_fraction = 0;
  ValueNetwork net = *env.net;
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.Train(data, options));
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_ValueNetworkTrainStep);

void BM_BeamSearchPlanQuery(benchmark::State& state) {
  MicroEnv& env = GlobalEnv();
  PlannerOptions options;
  options.beam_size = static_cast<int>(state.range(0));
  options.top_k = static_cast<int>(state.range(1));
  BeamSearchPlanner planner(&env.fixture.schema(), &env.featurizer,
                            env.net.get(), options);
  for (auto _ : state) {
    auto result = planner.TopK(env.query);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_BeamSearchPlanQuery)->Args({5, 1})->Args({20, 10});

void BM_DpOptimize(benchmark::State& state) {
  MicroEnv& env = GlobalEnv();
  DpOptimizer dp(&env.fixture.schema(), &env.cout);
  for (auto _ : state) {
    auto plan = dp.Optimize(env.query);
    benchmark::DoNotOptimize(plan);
  }
}
BENCHMARK(BM_DpOptimize);

void BM_FeaturizePlan(benchmark::State& state) {
  MicroEnv& env = GlobalEnv();
  Plan plan;
  int s = plan.AddScan(0, ScanOp::kSeqScan);
  int c = plan.AddScan(1, ScanOp::kSeqScan);
  plan.AddJoin(s, c, JoinOp::kHashJoin);
  for (auto _ : state) {
    benchmark::DoNotOptimize(env.featurizer.PlanFeatures(env.query, plan));
  }
}
BENCHMARK(BM_FeaturizePlan);

}  // namespace
}  // namespace balsa
