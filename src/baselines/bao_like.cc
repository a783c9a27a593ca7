#include "src/baselines/bao_like.h"

#include <limits>

namespace balsa {

namespace {

uint64_t ArmKey(int query_id, int arm) {
  return static_cast<uint64_t>(query_id + 1) * 131 + static_cast<uint64_t>(arm);
}

}  // namespace

BaoAgent::BaoAgent(const Schema* schema, ExecutionEngine* engine,
                   const CostModelInterface* expert_cost_model,
                   const CardinalityEstimatorInterface* estimator,
                   const Workload* workload, BaoOptions options)
    : schema_(schema),
      engine_(engine),
      expert_cost_model_(expert_cost_model),
      workload_(workload),
      options_(std::move(options)),
      featurizer_(schema, estimator) {
  // Hint sets: every subset of the four join operators with at least one
  // enabled (15 arms), each also available with bushy shapes disabled when
  // the engine supports both — mirroring Bao's 48-arm flag lattice at the
  // granularity our expert DP exposes. Arm 0 enables everything (the
  // unhinted expert, used for bootstrapping).
  bool engine_bushy = engine_->options().accepts_bushy;
  for (int join_mask = 15; join_mask >= 1; --join_mask) {
    for (int bushy = engine_bushy ? 1 : 0; bushy >= 0; --bushy) {
      Arm arm;
      arm.dp.enable_hash_join = join_mask & 1;
      arm.dp.enable_merge_join = join_mask & 2;
      arm.dp.enable_index_nl = join_mask & 4;
      arm.dp.enable_nl_join = join_mask & 8;
      arm.dp.bushy = bushy != 0;
      arms_.push_back(arm);
    }
  }
  options_.net.query_dim = featurizer_.query_dim();
  options_.net.node_dim = featurizer_.node_dim();
  options_.net.init_seed = options_.seed + 1;
  network_ = std::make_unique<ValueNetwork>(options_.net);
}

StatusOr<Plan> BaoAgent::ArmPlan(const Query& query, int arm) const {
  uint64_t key = ArmKey(query.id(), arm);
  auto it = arm_plan_cache_.find(key);
  if (it != arm_plan_cache_.end()) return it->second;
  DpOptimizer dp(schema_, expert_cost_model_, arms_[arm].dp);
  BALSA_ASSIGN_OR_RETURN(OptimizedPlan best, dp.Optimize(query));
  arm_plan_cache_[key] = best.plan;
  return best.plan;
}

StatusOr<int> BaoAgent::BestPredictedArm(const Query& query) const {
  // Distinct arms can yield identical plans; each distinct plan (by
  // fingerprint) is featurized once, and all of them are scored in one
  // batch. Scores do not depend on the batch, so this picks the same arm
  // as scoring each plan alone.
  std::vector<int> arm_tree(num_arms(), -1);  // -1: infeasible arm
  std::vector<nn::TreeSample> trees;
  std::unordered_map<uint64_t, int> tree_of_plan;
  for (int a = 0; a < num_arms(); ++a) {
    // Some hint sets are infeasible for some queries (e.g. index-NL-only
    // when no index applies); the optimizer simply ignores those arms.
    auto plan_or = ArmPlan(query, a);
    if (!plan_or.ok()) continue;
    const Plan& plan = plan_or.value();
    auto [it, inserted] = tree_of_plan.emplace(
        plan.Fingerprint(), static_cast<int>(trees.size()));
    if (inserted) trees.push_back(featurizer_.PlanFeatures(query, plan));
    arm_tree[a] = it->second;
  }
  std::vector<const nn::TreeSample*> batch;
  for (const nn::TreeSample& tree : trees) batch.push_back(&tree);
  const std::vector<double> preds =
      network_->ForwardBatch(featurizer_.QueryFeatures(query), batch);
  // Ties resolve to the lowest arm id.
  int best_arm = 0;
  double best_pred = std::numeric_limits<double>::infinity();
  for (int a = 0; a < num_arms(); ++a) {
    if (arm_tree[a] < 0) continue;
    if (preds[arm_tree[a]] < best_pred) {
      best_pred = preds[arm_tree[a]];
      best_arm = a;
    }
  }
  return best_arm;
}

Status BaoAgent::Bootstrap() {
  if (bootstrapped_) {
    return Status::FailedPrecondition("Bao agent already bootstrapped");
  }
  for (const Query* query : workload_->TrainQueries()) {
    BALSA_ASSIGN_OR_RETURN(Plan plan, ArmPlan(*query, 0));
    BALSA_ASSIGN_OR_RETURN(ExecutionResult result,
                           engine_->Execute(*query, plan));
    Execution e;
    e.query_id = query->id();
    e.plan = std::move(plan);
    e.label_ms = result.latency_ms;
    e.iteration = -1;
    experience_.Add(std::move(e));
  }
  ValueNetwork::TrainOptions train = options_.train;
  train.shuffle_seed = options_.seed + 2;
  network_->Train(experience_.BuildDataset(featurizer_, *workload_, -1),
                  train);
  bootstrapped_ = true;
  return Status::OK();
}

Status BaoAgent::RunIteration() {
  if (!bootstrapped_) {
    return Status::FailedPrecondition("call Bootstrap() first");
  }
  for (const Query* query : workload_->TrainQueries()) {
    BALSA_ASSIGN_OR_RETURN(int arm, BestPredictedArm(*query));
    BALSA_ASSIGN_OR_RETURN(Plan plan, ArmPlan(*query, arm));
    BALSA_ASSIGN_OR_RETURN(ExecutionResult result,
                           engine_->Execute(*query, plan));
    Execution e;
    e.query_id = query->id();
    e.plan = std::move(plan);
    e.label_ms = result.latency_ms;
    e.iteration = iteration_;
    experience_.Add(std::move(e));
  }
  // Train on all past experiences (stabilized variant, §8.4.1).
  ValueNetwork::TrainOptions train = options_.train;
  train.shuffle_seed = options_.seed + 1000 + iteration_;
  network_->Train(experience_.BuildDataset(featurizer_, *workload_, -1),
                  train);
  iteration_++;
  return Status::OK();
}

Status BaoAgent::Train() {
  BALSA_RETURN_IF_ERROR(Bootstrap());
  for (int i = 0; i < options_.iterations; ++i) {
    BALSA_RETURN_IF_ERROR(RunIteration());
  }
  return Status::OK();
}

StatusOr<Plan> BaoAgent::PlanBest(const Query& query) const {
  BALSA_ASSIGN_OR_RETURN(int arm, BestPredictedArm(query));
  return ArmPlan(query, arm);
}

StatusOr<double> BaoAgent::EvaluateWorkload(
    const std::vector<const Query*>& queries) const {
  double total = 0;
  for (const Query* query : queries) {
    BALSA_ASSIGN_OR_RETURN(Plan plan, PlanBest(*query));
    BALSA_ASSIGN_OR_RETURN(double latency,
                           engine_->NoiselessLatency(*query, plan));
    total += latency;
  }
  return total;
}

}  // namespace balsa
