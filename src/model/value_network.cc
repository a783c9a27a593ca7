#include "src/model/value_network.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <numeric>

namespace balsa {

// Activations of one forward pass. Every item's plan nodes are stacked as
// the columns of shared matrices; pooling then leaves one column per item.
struct ValueNetwork::Batch {
  std::vector<int> begin;        // item i: columns [begin[i], begin[i+1])
  std::vector<int> left, right;  // global child columns, -1 for none
  nn::Mat x;                     // per node: concat(query, node features)
  nn::Mat h1;                    // post-ReLU tree conv 1
  nn::Mat h2;                    // post-ReLU tree conv 2
  nn::Mat pooled;
  std::vector<int> argmax;       // training only
  nn::Mat m1;                    // post-ReLU fc1
  nn::Mat out;                   // fc2 output, 1 x items
};

ValueNetwork::ValueNetwork(ValueNetConfig config) : config_(config) {
  InitWeights(config_.init_seed);
}

void ValueNetwork::InitWeights(uint64_t seed) {
  Rng rng(seed);
  int in = config_.query_dim + config_.node_dim;
  tc1_ = nn::TreeConvLayer(in, config_.tree_hidden1, &rng);
  tc2_ = nn::TreeConvLayer(config_.tree_hidden1, config_.tree_hidden2, &rng);
  fc1_ = nn::Linear(config_.tree_hidden2, config_.mlp_hidden, &rng);
  fc2_ = nn::Linear(config_.mlp_hidden, 1, &rng);
}

std::vector<nn::Param*> ValueNetwork::Params() {
  std::vector<nn::Param*> params;
  tc1_.CollectParams(&params);
  tc2_.CollectParams(&params);
  fc1_.CollectParams(&params);
  fc2_.CollectParams(&params);
  return params;
}

std::vector<const nn::Param*> ValueNetwork::Params() const {
  auto* self = const_cast<ValueNetwork*>(this);
  std::vector<nn::Param*> mutable_params = self->Params();
  return {mutable_params.begin(), mutable_params.end()};
}

size_t ValueNetwork::NumWeights() const {
  size_t total = 0;
  for (const nn::Param* p : Params()) total += p->NumWeights();
  return total;
}

double ValueNetwork::ToLabelSpace(double y) const {
  return config_.log_transform ? std::log1p(std::max(0.0, y)) : y;
}

double ValueNetwork::FromLabelSpace(double z) const {
  if (!config_.log_transform) return z;
  // Clamp to avoid overflow on wild early-training outputs.
  return std::expm1(std::min(z, 40.0));
}

void ValueNetwork::Forward(const std::vector<const nn::Vec*>& queries,
                           const std::vector<const nn::TreeSample*>& plans,
                           bool for_training, Batch* batch) const {
  Batch& b = *batch;
  const int items = static_cast<int>(plans.size());
  b.begin.assign(static_cast<size_t>(items) + 1, 0);
  for (int i = 0; i < items; ++i) {
    b.begin[i + 1] = b.begin[i] + static_cast<int>(plans[i]->features.size());
  }
  const int total = b.begin[items];
  const int qd = config_.query_dim;
  const int nd = config_.node_dim;
  b.x = nn::Mat(qd + nd, total);
  b.left.resize(static_cast<size_t>(total));
  b.right.resize(static_cast<size_t>(total));
  for (int i = 0; i < items; ++i) {
    const nn::TreeSample& tree = *plans[i];
    const nn::Vec& query = *queries[i];
    for (size_t node = 0; node < tree.features.size(); ++node) {
      const int col = b.begin[i] + static_cast<int>(node);
      for (int r = 0; r < qd; ++r) b.x.at(r, col) = query[r];
      const nn::Vec& feat = tree.features[node];
      for (int r = 0; r < nd; ++r) b.x.at(qd + r, col) = feat[r];
      b.left[col] = tree.left[node] >= 0 ? b.begin[i] + tree.left[node] : -1;
      b.right[col] =
          tree.right[node] >= 0 ? b.begin[i] + tree.right[node] : -1;
    }
  }

  tc1_.ForwardBatch(b.x, b.left, b.right, &b.h1);
  nn::ReluMatForward(&b.h1);
  tc2_.ForwardBatch(b.h1, b.left, b.right, &b.h2);
  nn::ReluMatForward(&b.h2);
  nn::DynamicMaxPoolBatch(b.h2, b.begin, &b.pooled,
                          for_training ? &b.argmax : nullptr);
  fc1_.ForwardBatch(b.pooled, &b.m1);
  nn::ReluMatForward(&b.m1);
  fc2_.ForwardBatch(b.m1, &b.out);
}

void ValueNetwork::Backward(const Batch& b, const nn::Mat& dout) {
  nn::Mat dm1, dpooled, dh2, dh1;
  fc2_.BackwardBatch(b.m1, dout, &dm1);
  nn::ReluMatBackward(b.m1, &dm1);
  fc1_.BackwardBatch(b.pooled, dm1, &dpooled);
  nn::DynamicMaxPoolBatchBackward(dpooled, b.argmax, b.h2.cols, &dh2);
  nn::ReluMatBackward(b.h2, &dh2);
  tc2_.BackwardBatch(b.h1, b.left, b.right, dh2, &dh1);
  nn::ReluMatBackward(b.h1, &dh1);
  tc1_.BackwardBatch(b.x, b.left, b.right, dh1, nullptr);
}

double ValueNetwork::Predict(const nn::Vec& query,
                             const nn::TreeSample& plan) const {
  return ForwardBatch(query, {&plan})[0];
}

std::vector<double> ValueNetwork::ForwardBatch(
    const std::vector<const nn::Vec*>& queries,
    const std::vector<const nn::TreeSample*>& plans) const {
  std::vector<double> out(plans.size());
  if (plans.empty()) return out;
  Batch batch;
  Forward(queries, plans, /*for_training=*/false, &batch);
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = FromLabelSpace(batch.out.at(0, static_cast<int>(i)));
  }
  return out;
}

std::vector<double> ValueNetwork::ForwardBatch(
    const nn::Vec& query,
    const std::vector<const nn::TreeSample*>& plans) const {
  std::vector<const nn::Vec*> queries(plans.size(), &query);
  return ForwardBatch(queries, plans);
}

ValueNetwork::TrainResult ValueNetwork::Train(
    const std::vector<TrainingPoint>& data, const TrainOptions& options) {
  TrainResult result;
  if (data.empty()) return result;
  const auto start = std::chrono::steady_clock::now();

  std::vector<int> order(data.size());
  std::iota(order.begin(), order.end(), 0);
  Rng rng(options.shuffle_seed);
  rng.Shuffle(&order);

  size_t num_val = static_cast<size_t>(
      static_cast<double>(data.size()) * options.val_fraction);
  // Keep at least one training example.
  num_val = std::min(num_val, data.size() - 1);
  std::vector<int> val(order.begin(), order.begin() + num_val);
  std::vector<int> train(order.begin() + num_val, order.end());

  nn::Adam::Options adam_opts;
  adam_opts.lr = options.lr;
  nn::Adam adam(Params(), adam_opts);

  // Runs the forward pass over data[idx[lo..hi)] into `batch`.
  Batch batch;
  std::vector<const nn::Vec*> queries;
  std::vector<const nn::TreeSample*> plans;
  auto forward = [&](const std::vector<int>& idx, size_t lo, size_t hi,
                     bool for_training) {
    queries.clear();
    plans.clear();
    for (size_t k = lo; k < hi; ++k) {
      queries.push_back(&data[idx[k]].query);
      plans.push_back(&data[idx[k]].plan);
    }
    Forward(queries, plans, for_training, &batch);
  };

  // Scores are independent of batch composition, so any chunk size gives
  // the same loss.
  constexpr size_t kEvalChunk = 256;
  auto eval_loss = [&](const std::vector<int>& idx) {
    if (idx.empty()) return 0.0;
    double total = 0;
    for (size_t lo = 0; lo < idx.size(); lo += kEvalChunk) {
      const size_t hi = std::min(lo + kEvalChunk, idx.size());
      forward(idx, lo, hi, /*for_training=*/false);
      for (size_t k = lo; k < hi; ++k) {
        double z = ToLabelSpace(data[idx[k]].label);
        double pred = batch.out.at(0, static_cast<int>(k - lo));
        total += (pred - z) * (pred - z);
      }
    }
    return total / static_cast<double>(idx.size());
  };

  double best_val = std::numeric_limits<double>::infinity();
  int stale_epochs = 0;
  // Snapshot of the best-so-far weights for early-stopping restoration.
  std::vector<nn::Mat> best_weights;
  auto snapshot = [&] {
    best_weights.clear();
    for (nn::Param* p : Params()) best_weights.push_back(p->value);
  };
  auto restore = [&] {
    if (best_weights.empty()) return;
    auto params = Params();
    for (size_t i = 0; i < params.size(); ++i) {
      params[i]->value = best_weights[i];
    }
  };

  for (int epoch = 0; epoch < options.max_epochs; ++epoch) {
    rng.Shuffle(&train);
    double epoch_loss = 0;
    size_t pos = 0;
    while (pos < train.size()) {
      size_t batch_end =
          std::min(pos + static_cast<size_t>(options.batch_size),
                   train.size());
      const int items = static_cast<int>(batch_end - pos);
      forward(train, pos, batch_end, /*for_training=*/true);
      nn::Mat dout(1, items);
      for (int i = 0; i < items; ++i) {
        double residual =
            batch.out.at(0, i) - ToLabelSpace(data[train[pos + i]].label);
        epoch_loss += residual * residual;
        dout.at(0, i) = static_cast<float>(2.0 * residual);
      }
      Backward(batch, dout);
      adam.Step(items);
      result.sgd_samples += items;
      pos = batch_end;
    }
    result.epochs_run = epoch + 1;
    result.final_train_loss =
        epoch_loss / static_cast<double>(std::max<size_t>(1, train.size()));

    if (!val.empty()) {
      double val_loss = eval_loss(val);
      if (val_loss < best_val - 1e-9) {
        best_val = val_loss;
        stale_epochs = 0;
        snapshot();
      } else if (epoch + 1 >= options.min_epochs &&
                 ++stale_epochs >= options.patience) {
        break;
      }
    }
  }
  if (!val.empty()) restore();
  result.best_val_loss = val.empty() ? result.final_train_loss : best_val;
  result.wall_seconds = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
  return result;
}

Status ValueNetwork::CopyWeightsFrom(const ValueNetwork& other) {
  auto* mutable_other = const_cast<ValueNetwork*>(&other);
  return nn::CopyParams(mutable_other->Params(), Params());
}

Status ValueNetwork::Save(const std::string& path) {
  return nn::SaveParams(Params(), path);
}

Status ValueNetwork::Load(const std::string& path) {
  return nn::LoadParams(Params(), path);
}

}  // namespace balsa
