// Batched inference correctness: an item's score must be bitwise
// independent of its batch (Predict is the one-item batch), the
// InferenceService must preserve that under chunking and concurrent
// callers, and ScoreBatch-driven beam search must produce exactly the plans
// the per-plan path produces.
#include "src/runtime/inference_service.h"

#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/balsa/planner.h"
#include "test_util.h"

namespace balsa {
namespace {

class InferenceServiceTest : public ::testing::Test {
 protected:
  InferenceServiceTest()
      : fixture_(testing::MakeStarFixture()),
        query_(testing::MakeStarQuery(fixture_.schema())),
        featurizer_(&fixture_.schema(), fixture_.estimator.get()) {
    ValueNetConfig config;
    config.query_dim = featurizer_.query_dim();
    config.node_dim = featurizer_.node_dim();
    config.tree_hidden1 = 16;
    config.tree_hidden2 = 8;
    config.mlp_hidden = 8;
    config.init_seed = 11;
    network_ = std::make_unique<ValueNetwork>(config);
    query_feat_ = featurizer_.QueryFeatures(query_);

    // Distinct left-deep plans: every permutation of the dimension joins
    // under every single join operator.
    const int perms[6][3] = {{1, 2, 3}, {1, 3, 2}, {2, 1, 3},
                             {2, 3, 1}, {3, 1, 2}, {3, 2, 1}};
    for (JoinOp op : {JoinOp::kHashJoin, JoinOp::kMergeJoin,
                      JoinOp::kNLJoin}) {
      for (const auto& perm : perms) {
        Plan plan;
        int root = plan.AddScan(0, ScanOp::kSeqScan);
        for (int rel : perm) {
          root = plan.AddJoin(root, plan.AddScan(rel, ScanOp::kSeqScan), op);
        }
        plan.set_root(root);
        trees_.push_back(featurizer_.PlanFeatures(query_, plan));
      }
    }
  }

  std::vector<const nn::TreeSample*> TreePtrs() const {
    std::vector<const nn::TreeSample*> ptrs;
    for (const nn::TreeSample& t : trees_) ptrs.push_back(&t);
    return ptrs;
  }

  testing::StarFixture fixture_;
  Query query_;
  Featurizer featurizer_;
  std::unique_ptr<ValueNetwork> network_;
  nn::Vec query_feat_;
  std::vector<nn::TreeSample> trees_;
};

TEST_F(InferenceServiceTest, ScoreIsIndependentOfBatchComposition) {
  // The batched kernels sum every element in a fixed order, so an item's
  // score must be bitwise identical alone and inside any batch.
  std::vector<double> full = network_->ForwardBatch(query_feat_, TreePtrs());
  ASSERT_EQ(full.size(), trees_.size());
  for (size_t i = 0; i < trees_.size(); ++i) {
    std::vector<double> solo =
        network_->ForwardBatch(query_feat_, {&trees_[i]});
    EXPECT_EQ(solo[0], full[i]) << "plan " << i;
    EXPECT_EQ(network_->Predict(query_feat_, trees_[i]), full[i])
        << "plan " << i;
  }
  // A shuffled sub-batch agrees element-for-element too.
  std::vector<const nn::TreeSample*> subset{&trees_[5], &trees_[0],
                                            &trees_[11]};
  std::vector<double> sub = network_->ForwardBatch(query_feat_, subset);
  EXPECT_EQ(sub[0], full[5]);
  EXPECT_EQ(sub[1], full[0]);
  EXPECT_EQ(sub[2], full[11]);
}

TEST_F(InferenceServiceTest, MixedQueryBatchMatchesPerItem) {
  // Per-item query vectors.
  nn::Vec scoped_feat = featurizer_.QueryFeatures(
      query_, TableSet::Single(0).With(1));
  std::vector<const nn::Vec*> queries;
  std::vector<const nn::TreeSample*> plans;
  for (size_t i = 0; i < trees_.size(); ++i) {
    queries.push_back(i % 2 == 0 ? &query_feat_ : &scoped_feat);
    plans.push_back(&trees_[i]);
  }
  std::vector<double> batched = network_->ForwardBatch(queries, plans);
  for (size_t i = 0; i < trees_.size(); ++i) {
    EXPECT_DOUBLE_EQ(batched[i], network_->Predict(*queries[i], trees_[i]));
  }
}

TEST_F(InferenceServiceTest, ServiceMatchesDirectForwardBatch) {
  std::vector<double> direct = network_->ForwardBatch(query_feat_,
                                                      TreePtrs());
  InferenceService service(network_.get());
  std::vector<double> served = service.ScoreBatch(query_feat_, TreePtrs());
  ASSERT_EQ(served.size(), direct.size());
  for (size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(served[i], direct[i]) << "plan " << i;
  }
}

TEST_F(InferenceServiceTest, ServiceChunksOversizedRequests) {
  InferenceServiceOptions options;
  options.max_batch_size = 4;
  InferenceService service(network_.get(), options);
  std::vector<double> served = service.ScoreBatch(query_feat_, TreePtrs());
  std::vector<double> direct = network_->ForwardBatch(query_feat_,
                                                      TreePtrs());
  for (size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(served[i], direct[i]);
  }
  InferenceService::Stats stats = service.stats();
  ASSERT_EQ(trees_.size(), 18u);
  EXPECT_EQ(stats.items, 18);
  EXPECT_EQ(stats.forward_batches, 5);  // 4 + 4 + 4 + 4 + 2
}

TEST_F(InferenceServiceTest, ConcurrentClientsGetCorrectScores) {
  // Planning threads share one service and run ForwardBatch concurrently.
  InferenceService service(network_.get());
  std::vector<double> direct = network_->ForwardBatch(query_feat_,
                                                      TreePtrs());

  constexpr int kClients = 8;
  std::vector<std::vector<double>> results(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int round = 0; round < 5; ++round) {
        results[c] = service.ScoreBatch(query_feat_, TreePtrs());
      }
    });
  }
  for (std::thread& t : clients) t.join();

  for (int c = 0; c < kClients; ++c) {
    ASSERT_EQ(results[c].size(), direct.size());
    for (size_t i = 0; i < direct.size(); ++i) {
      // Concurrent callers must never perturb each other's scores.
      EXPECT_EQ(results[c][i], direct[i]) << "client " << c;
    }
  }
  InferenceService::Stats stats = service.stats();
  EXPECT_EQ(stats.requests, kClients * 5);
  EXPECT_EQ(stats.items,
            static_cast<int64_t>(kClients * 5 * trees_.size()));
}

TEST_F(InferenceServiceTest, PlannerThroughServiceFindsIdenticalPlans) {
  PlannerOptions options;
  options.beam_size = 10;
  options.top_k = 5;
  BeamSearchPlanner direct(&fixture_.schema(), &featurizer_, network_.get(),
                           options);
  auto baseline = direct.TopK(query_);
  ASSERT_TRUE(baseline.ok());

  InferenceService service(network_.get());
  BeamSearchPlanner routed(&fixture_.schema(), &featurizer_, network_.get(),
                           options);
  routed.set_inference_service(&service);
  auto via_service = routed.TopK(query_);
  ASSERT_TRUE(via_service.ok());

  ASSERT_EQ(via_service->plans.size(), baseline->plans.size());
  for (size_t i = 0; i < baseline->plans.size(); ++i) {
    EXPECT_EQ(via_service->plans[i].plan.Fingerprint(),
              baseline->plans[i].plan.Fingerprint());
    EXPECT_EQ(via_service->plans[i].predicted_ms,
              baseline->plans[i].predicted_ms);
  }
  EXPECT_GT(service.stats().forward_batches, 0);
}

}  // namespace
}  // namespace balsa
