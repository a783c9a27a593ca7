#include "src/model/value_network.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/balsa/simulation.h"
#include "src/harness/env.h"
#include "src/util/logging.h"

namespace balsa {
namespace {

ValueNetConfig SmallConfig() {
  ValueNetConfig config;
  config.query_dim = 4;
  config.node_dim = 6;
  config.tree_hidden1 = 16;
  config.tree_hidden2 = 8;
  config.mlp_hidden = 8;
  config.init_seed = 7;
  return config;
}

nn::TreeSample Leaf(int node_dim, float fill) {
  nn::TreeSample t;
  t.features = {nn::Vec(static_cast<size_t>(node_dim), fill)};
  t.left = {-1};
  t.right = {-1};
  return t;
}

nn::TreeSample Join(int node_dim, float a, float b) {
  nn::TreeSample t;
  t.features = {nn::Vec(static_cast<size_t>(node_dim), 0.5f),
                nn::Vec(static_cast<size_t>(node_dim), a),
                nn::Vec(static_cast<size_t>(node_dim), b)};
  t.left = {1, -1, -1};
  t.right = {2, -1, -1};
  return t;
}

TEST(ValueNetworkTest, PredictIsDeterministic) {
  ValueNetwork net(SmallConfig());
  nn::Vec q(4, 0.2f);
  auto plan = Join(6, 0.1f, 0.9f);
  EXPECT_EQ(net.Predict(q, plan), net.Predict(q, plan));
}

TEST(ValueNetworkTest, PredictionsNonNegativeUnderLogTransform) {
  ValueNetwork net(SmallConfig());
  nn::Vec q(4, 0.2f);
  // expm1 of any finite output >= -1; labels are latencies >= 0, so the
  // inverse transform keeps predictions above -1.
  EXPECT_GT(net.Predict(q, Leaf(6, -3.f)), -1.0);
}

TEST(ValueNetworkTest, OverfitsTinyDataset) {
  ValueNetwork net(SmallConfig());
  std::vector<TrainingPoint> data;
  for (int i = 0; i < 8; ++i) {
    TrainingPoint pt;
    pt.query = nn::Vec(4, static_cast<float>(i) / 8.f);
    pt.plan = Join(6, static_cast<float>(i % 3), 0.4f);
    pt.label = 10.0 + 100.0 * i;
    data.push_back(std::move(pt));
  }
  ValueNetwork::TrainOptions opts;
  opts.max_epochs = 400;
  opts.val_fraction = 0;  // train on everything; no early stop
  opts.batch_size = 8;
  opts.lr = 5e-3;
  auto result = net.Train(data, opts);
  EXPECT_EQ(result.epochs_run, 400);
  // Predictions land within 30% of labels on this trivially small set.
  for (const TrainingPoint& pt : data) {
    double pred = net.Predict(pt.query, pt.plan);
    EXPECT_NEAR(pred, pt.label, pt.label * 0.3 + 10)
        << "label " << pt.label;
  }
}

TEST(ValueNetworkTest, EarlyStoppingHaltsBeforeMaxEpochs) {
  ValueNetwork net(SmallConfig());
  // Pure noise labels: validation loss cannot improve for long.
  std::vector<TrainingPoint> data;
  Rng rng(3);
  for (int i = 0; i < 60; ++i) {
    TrainingPoint pt;
    pt.query = nn::Vec(4, static_cast<float>(rng.UniformDouble()));
    pt.plan = Leaf(6, static_cast<float>(rng.UniformDouble()));
    pt.label = rng.UniformDouble() * 1000;
    data.push_back(std::move(pt));
  }
  ValueNetwork::TrainOptions opts;
  opts.max_epochs = 500;
  opts.patience = 2;
  auto result = net.Train(data, opts);
  EXPECT_LT(result.epochs_run, 500);
}

TEST(ValueNetworkTest, SgdSampleAccounting) {
  ValueNetwork net(SmallConfig());
  std::vector<TrainingPoint> data(10);
  for (auto& pt : data) {
    pt.query = nn::Vec(4, 0.1f);
    pt.plan = Leaf(6, 0.2f);
    pt.label = 5;
  }
  ValueNetwork::TrainOptions opts;
  opts.max_epochs = 3;
  opts.val_fraction = 0;
  opts.patience = 1000;
  auto result = net.Train(data, opts);
  EXPECT_EQ(result.sgd_samples, 3 * 10);
}

TEST(ValueNetworkTest, CopyWeightsMakesPredictionsAgree) {
  ValueNetwork a(SmallConfig());
  ValueNetConfig cfg = SmallConfig();
  cfg.init_seed = 99;
  ValueNetwork b(cfg);
  nn::Vec q(4, 0.3f);
  auto plan = Join(6, 0.2f, 0.8f);
  EXPECT_NE(a.Predict(q, plan), b.Predict(q, plan));
  ASSERT_TRUE(b.CopyWeightsFrom(a).ok());
  EXPECT_EQ(a.Predict(q, plan), b.Predict(q, plan));
}

TEST(ValueNetworkTest, InitWeightsChangesPredictions) {
  ValueNetwork net(SmallConfig());
  nn::Vec q(4, 0.3f);
  auto plan = Join(6, 0.2f, 0.8f);
  double before = net.Predict(q, plan);
  net.InitWeights(12345);
  EXPECT_NE(net.Predict(q, plan), before);
}

TEST(ValueNetworkTest, SaveLoadRoundTrip) {
  ValueNetwork a(SmallConfig());
  ValueNetConfig cfg = SmallConfig();
  cfg.init_seed = 55;
  ValueNetwork b(cfg);
  std::string path = ::testing::TempDir() + "/value_net.bin";
  ASSERT_TRUE(a.Save(path).ok());
  ASSERT_TRUE(b.Load(path).ok());
  nn::Vec q(4, 0.4f);
  auto plan = Join(6, 0.7f, 0.1f);
  EXPECT_EQ(a.Predict(q, plan), b.Predict(q, plan));
}

TEST(ValueNetworkTest, RawLabelSpaceSupported) {
  ValueNetConfig cfg = SmallConfig();
  cfg.log_transform = false;
  ValueNetwork net(cfg);
  std::vector<TrainingPoint> data(12);
  for (auto& pt : data) {
    pt.query = nn::Vec(4, 0.1f);
    pt.plan = Leaf(6, 0.2f);
    pt.label = 7.0;
  }
  ValueNetwork::TrainOptions opts;
  opts.max_epochs = 200;
  opts.val_fraction = 0;
  opts.lr = 5e-3;
  net.Train(data, opts);
  EXPECT_NEAR(net.Predict(data[0].query, data[0].plan), 7.0, 1.0);
}

// --- Differential test: batched Train vs. a per-sample reference --------
//
// The reference is the per-sample training path that batched training
// replaced, kept here as a naive oracle: forward and backward one sample
// and one node at a time (matrix-vector products with a serial reduction,
// outer-product gradient accumulation), one Adam step per minibatch. Train
// must produce bitwise-equal weights and an identical TrainResult.
namespace reference {

using nn::Mat;
using nn::Param;
using nn::Vec;

// y += W x
void MatVec(const Mat& w, const Vec& x, Vec* y) {
  for (int r = 0; r < w.rows; ++r) {
    const float* row = &w.data[static_cast<size_t>(r) * w.cols];
    float acc = 0;
    for (int c = 0; c < w.cols; ++c) acc += row[c] * x[c];
    (*y)[r] += acc;
  }
}

// dx += W^T dy
void MatTVec(const Mat& w, const Vec& dy, Vec* dx) {
  for (int r = 0; r < w.rows; ++r) {
    const float* row = &w.data[static_cast<size_t>(r) * w.cols];
    float d = dy[r];
    if (d == 0) continue;
    for (int c = 0; c < w.cols; ++c) (*dx)[c] += row[c] * d;
  }
}

// dW += dy x^T
void OuterAcc(const Vec& dy, const Vec& x, Mat* dw) {
  for (int r = 0; r < dw->rows; ++r) {
    float d = dy[r];
    if (d == 0) continue;
    float* row = &dw->data[static_cast<size_t>(r) * dw->cols];
    for (int c = 0; c < dw->cols; ++c) row[c] += d * x[c];
  }
}

void Relu(Vec* x) {
  for (float& v : *x) v = v > 0 ? v : 0;
}

void ReluBackward(const Vec& y, Vec* dy) {
  for (size_t i = 0; i < y.size(); ++i) {
    if (y[i] <= 0) (*dy)[i] = 0;
  }
}

// A fully-connected layer over params {w, b}.
void LinearForward(const Param* p, const Vec& x, Vec* y) {
  y->assign(p[0].value.rows, 0.f);
  MatVec(p[0].value, x, y);
  for (int r = 0; r < p[1].value.rows; ++r) (*y)[r] += p[1].value.at(r, 0);
}

void LinearBackward(Param* p, const Vec& x, const Vec& dy, Vec* dx) {
  OuterAcc(dy, x, &p[0].grad);
  for (int r = 0; r < p[1].grad.rows; ++r) p[1].grad.at(r, 0) += dy[r];
  if (dx) MatTVec(p[0].value, dy, dx);
}

// A tree convolution over params {wp, wl, wr, b}.
void TreeConvForward(const Param* p, const std::vector<Vec>& in,
                     const std::vector<int>& left,
                     const std::vector<int>& right, std::vector<Vec>* out) {
  const int n = static_cast<int>(in.size());
  out->assign(n, Vec());
  for (int i = 0; i < n; ++i) {
    Vec& y = (*out)[i];
    y.assign(p[0].value.rows, 0.f);
    MatVec(p[0].value, in[i], &y);
    if (left[i] >= 0) MatVec(p[1].value, in[left[i]], &y);
    if (right[i] >= 0) MatVec(p[2].value, in[right[i]], &y);
    for (int r = 0; r < p[3].value.rows; ++r) y[r] += p[3].value.at(r, 0);
  }
}

void TreeConvBackward(Param* p, const std::vector<Vec>& in,
                      const std::vector<int>& left,
                      const std::vector<int>& right,
                      const std::vector<Vec>& dout, std::vector<Vec>* din) {
  const int n = static_cast<int>(in.size());
  if (din) din->assign(n, Vec(p[0].value.cols, 0.f));
  for (int i = 0; i < n; ++i) {
    const Vec& dy = dout[i];
    OuterAcc(dy, in[i], &p[0].grad);
    if (din) MatTVec(p[0].value, dy, &(*din)[i]);
    if (left[i] >= 0) {
      OuterAcc(dy, in[left[i]], &p[1].grad);
      if (din) MatTVec(p[1].value, dy, &(*din)[left[i]]);
    }
    if (right[i] >= 0) {
      OuterAcc(dy, in[right[i]], &p[2].grad);
      if (din) MatTVec(p[2].value, dy, &(*din)[right[i]]);
    }
    for (int r = 0; r < p[3].grad.rows; ++r) p[3].grad.at(r, 0) += dy[r];
  }
}

struct Activations {
  std::vector<Vec> inputs, h1, h2;
  Vec pooled;
  std::vector<int> argmax;
  Vec m1, out;
};

// The network's parameters in ValueNetwork::Save order: tc1 {wp, wl, wr, b},
// tc2 {wp, wl, wr, b}, fc1 {w, b}, fc2 {w, b}.
class Net {
 public:
  // Starts from `net`'s current weights.
  explicit Net(ValueNetwork& net) : config_(net.config()) {
    const ValueNetConfig& c = config_;
    const int in = c.query_dim + c.node_dim;
    const int shapes[12][2] = {
        {c.tree_hidden1, in}, {c.tree_hidden1, in}, {c.tree_hidden1, in},
        {c.tree_hidden1, 1},  {c.tree_hidden2, c.tree_hidden1},
        {c.tree_hidden2, c.tree_hidden1}, {c.tree_hidden2, c.tree_hidden1},
        {c.tree_hidden2, 1},  {c.mlp_hidden, c.tree_hidden2},
        {c.mlp_hidden, 1},    {1, c.mlp_hidden}, {1, 1}};
    for (const auto& shape : shapes) params_.emplace_back(shape[0], shape[1]);
    const std::string path = ::testing::TempDir() + "/reference_init.bin";
    BALSA_CHECK(net.Save(path).ok(), "save");
    BALSA_CHECK(nn::LoadParams(Ptrs(), path).ok(), "load");
  }

  std::vector<Param*> Ptrs() {
    std::vector<Param*> ptrs;
    for (Param& p : params_) ptrs.push_back(&p);
    return ptrs;
  }

  double ToLabelSpace(double y) const {
    return config_.log_transform ? std::log1p(std::max(0.0, y)) : y;
  }

  double Forward(const Vec& query, const nn::TreeSample& plan,
                 Activations* a) const {
    size_t n = plan.features.size();
    a->inputs.resize(n);
    for (size_t i = 0; i < n; ++i) {
      Vec& in = a->inputs[i];
      in.assign(query.begin(), query.end());
      in.insert(in.end(), plan.features[i].begin(), plan.features[i].end());
    }
    TreeConvForward(&params_[0], a->inputs, plan.left, plan.right, &a->h1);
    for (auto& v : a->h1) Relu(&v);
    TreeConvForward(&params_[4], a->h1, plan.left, plan.right, &a->h2);
    for (auto& v : a->h2) Relu(&v);
    const int dim = static_cast<int>(a->h2[0].size());
    a->pooled.assign(dim, -1e30f);
    a->argmax.assign(dim, 0);
    for (size_t i = 0; i < n; ++i) {
      for (int d = 0; d < dim; ++d) {
        if (a->h2[i][d] > a->pooled[d]) {
          a->pooled[d] = a->h2[i][d];
          a->argmax[d] = static_cast<int>(i);
        }
      }
    }
    LinearForward(&params_[8], a->pooled, &a->m1);
    Relu(&a->m1);
    LinearForward(&params_[10], a->m1, &a->out);
    return a->out[0];
  }

  void Backward(const nn::TreeSample& plan, const Activations& a,
                double dout) {
    Vec dy_out{static_cast<float>(dout)};
    Vec dm1(a.m1.size(), 0.f);
    LinearBackward(&params_[10], a.m1, dy_out, &dm1);
    ReluBackward(a.m1, &dm1);
    Vec dpooled(a.pooled.size(), 0.f);
    LinearBackward(&params_[8], a.pooled, dm1, &dpooled);
    std::vector<Vec> dh2(a.h2.size(), Vec(a.pooled.size(), 0.f));
    for (size_t d = 0; d < dpooled.size(); ++d) {
      dh2[a.argmax[d]][d] += dpooled[d];
    }
    for (size_t i = 0; i < dh2.size(); ++i) ReluBackward(a.h2[i], &dh2[i]);
    std::vector<Vec> dh1;
    TreeConvBackward(&params_[4], a.h1, plan.left, plan.right, dh2, &dh1);
    for (size_t i = 0; i < dh1.size(); ++i) ReluBackward(a.h1[i], &dh1[i]);
    TreeConvBackward(&params_[0], a.inputs, plan.left, plan.right, dh1,
                     nullptr);
  }

  ValueNetwork::TrainResult Train(const std::vector<TrainingPoint>& data,
                                  const ValueNetwork::TrainOptions& options) {
    ValueNetwork::TrainResult result;
    if (data.empty()) return result;
    std::vector<int> order(data.size());
    std::iota(order.begin(), order.end(), 0);
    Rng rng(options.shuffle_seed);
    rng.Shuffle(&order);
    size_t num_val = static_cast<size_t>(
        static_cast<double>(data.size()) * options.val_fraction);
    num_val = std::min(num_val, data.size() - 1);
    std::vector<int> val(order.begin(), order.begin() + num_val);
    std::vector<int> train(order.begin() + num_val, order.end());

    nn::Adam::Options adam_opts;
    adam_opts.lr = options.lr;
    nn::Adam adam(Ptrs(), adam_opts);

    auto eval_loss = [&](const std::vector<int>& idx) {
      if (idx.empty()) return 0.0;
      double total = 0;
      for (int i : idx) {
        double z = ToLabelSpace(data[i].label);
        Activations acts;
        double pred = Forward(data[i].query, data[i].plan, &acts);
        total += (pred - z) * (pred - z);
      }
      return total / static_cast<double>(idx.size());
    };

    double best_val = std::numeric_limits<double>::infinity();
    int stale_epochs = 0;
    std::vector<Mat> best_weights;
    for (int epoch = 0; epoch < options.max_epochs; ++epoch) {
      rng.Shuffle(&train);
      double epoch_loss = 0;
      size_t pos = 0;
      while (pos < train.size()) {
        size_t batch_end = std::min(
            pos + static_cast<size_t>(options.batch_size), train.size());
        int batch = static_cast<int>(batch_end - pos);
        for (size_t b = pos; b < batch_end; ++b) {
          const TrainingPoint& pt = data[train[b]];
          Activations acts;
          double pred = Forward(pt.query, pt.plan, &acts);
          double residual = pred - ToLabelSpace(pt.label);
          epoch_loss += residual * residual;
          Backward(pt.plan, acts, 2.0 * residual);
        }
        adam.Step(batch);
        result.sgd_samples += batch;
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
          best_weights.clear();
          for (const Param& p : params_) best_weights.push_back(p.value);
        } else if (epoch + 1 >= options.min_epochs &&
                   ++stale_epochs >= options.patience) {
          break;
        }
      }
    }
    if (!val.empty() && !best_weights.empty()) {
      for (size_t i = 0; i < params_.size(); ++i) {
        params_[i].value = best_weights[i];
      }
    }
    result.best_val_loss = val.empty() ? result.final_train_loss : best_val;
    return result;
  }

  const std::vector<Param>& params() const { return params_; }

 private:
  ValueNetConfig config_;
  std::vector<Param> params_;
};

}  // namespace reference

// Trains `config`'s network with Train and with the per-sample reference
// from the same initial weights, and requires bitwise-equal weights and an
// identical TrainResult. Returns Train's result.
ValueNetwork::TrainResult ExpectTrainMatchesReference(
    const ValueNetConfig& config, const std::vector<TrainingPoint>& data,
    const ValueNetwork::TrainOptions& options) {
  ValueNetwork net(config);
  reference::Net ref(net);
  ValueNetwork::TrainResult got = net.Train(data, options);
  ValueNetwork::TrainResult want = ref.Train(data, options);
  EXPECT_EQ(got.epochs_run, want.epochs_run);
  EXPECT_EQ(got.final_train_loss, want.final_train_loss);
  EXPECT_EQ(got.best_val_loss, want.best_val_loss);
  EXPECT_EQ(got.sgd_samples, want.sgd_samples);

  // Read the trained weights back in parameter order and compare bytes.
  const std::string path = ::testing::TempDir() + "/trained.bin";
  EXPECT_TRUE(net.Save(path).ok());
  std::vector<nn::Param> trained;
  for (const nn::Param& p : ref.params()) {
    trained.emplace_back(p.value.rows, p.value.cols);
  }
  std::vector<nn::Param*> ptrs;
  for (nn::Param& p : trained) ptrs.push_back(&p);
  EXPECT_TRUE(nn::LoadParams(ptrs, path).ok());
  for (size_t i = 0; i < trained.size(); ++i) {
    const std::vector<float>& a = trained[i].value.data;
    const std::vector<float>& b = ref.params()[i].value.data;
    EXPECT_TRUE(a.size() == b.size() &&
                std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0)
        << "param " << i << " differs from the per-sample reference";
  }
  return got;
}

// Appends a random binary tree of `nodes` nodes to `t`, parent before
// children (preorder, as the featurizer emits) or children before parent
// (postorder). Node features are one-hot-sparse like the featurizer's: one
// operator slot plus a few table indicators. Returns the root's slot.
int AppendRandomTree(int nodes, int node_dim, bool preorder, Rng* rng,
                     nn::TreeSample* t) {
  auto add_node = [&] {
    nn::Vec feat(static_cast<size_t>(node_dim), 0.f);
    feat[rng->Uniform(4)] = 1.f;
    const int tables = 1 + static_cast<int>(rng->Uniform(3));
    for (int k = 0; k < tables; ++k) {
      feat[4 + rng->Uniform(static_cast<uint64_t>(node_dim - 4))] = 1.f;
    }
    t->features.push_back(std::move(feat));
    t->left.push_back(-1);
    t->right.push_back(-1);
    return static_cast<int>(t->features.size()) - 1;
  };
  if (nodes == 1) return add_node();
  // A join: split the remaining nodes between the children; a right child
  // may be missing.
  const int rest = nodes - 1;
  const int right_size =
      static_cast<int>(rng->Uniform(static_cast<uint64_t>(rest)));
  const int left_size = rest - right_size;
  int slot = preorder ? add_node() : -1;
  const int l = AppendRandomTree(left_size, node_dim, preorder, rng, t);
  const int r = right_size > 0
                    ? AppendRandomTree(right_size, node_dim, preorder, rng, t)
                    : -1;
  if (!preorder) slot = add_node();
  t->left[slot] = l;
  t->right[slot] = r;
  return slot;
}

ValueNetConfig RandomTreeConfig() {
  ValueNetConfig config;
  config.query_dim = 12;
  config.node_dim = 20;
  config.tree_hidden1 = 24;
  config.tree_hidden2 = 16;
  config.mlp_hidden = 12;
  config.init_seed = 21;
  return config;
}

std::vector<TrainingPoint> RandomTreeData(int points, bool preorder,
                                          uint64_t seed) {
  const ValueNetConfig config = RandomTreeConfig();
  Rng rng(seed);
  std::vector<TrainingPoint> data(static_cast<size_t>(points));
  for (TrainingPoint& pt : data) {
    // Selectivities for the query's tables; zero for absent ones.
    pt.query.assign(static_cast<size_t>(config.query_dim), 0.f);
    for (float& v : pt.query) {
      if (rng.Uniform(3) == 0) v = static_cast<float>(rng.UniformDouble());
    }
    const int nodes = 1 + static_cast<int>(rng.Uniform(12));
    AppendRandomTree(nodes, config.node_dim, preorder, &rng, &pt.plan);
    pt.label = std::exp(rng.UniformDouble() * 8);
  }
  return data;
}

TEST(ValueNetworkDifferentialTest, BatchSizesWithPartialFinalBatch) {
  // 150 points, 15 held out: 135 training points leave a partial final
  // batch at every size below.
  std::vector<TrainingPoint> data = RandomTreeData(150, true, 11);
  for (int batch_size : {1, 7, 64}) {
    SCOPED_TRACE("batch_size " + std::to_string(batch_size));
    ValueNetwork::TrainOptions options;
    options.max_epochs = 3;
    options.batch_size = batch_size;
    options.lr = 3e-3;
    ExpectTrainMatchesReference(RandomTreeConfig(), data, options);
  }
}

TEST(ValueNetworkDifferentialTest, EarlyStoppingWithValidationSplit) {
  // Noise labels: validation loss soon stops improving.
  std::vector<TrainingPoint> data = RandomTreeData(120, true, 12);
  Rng rng(5);
  for (TrainingPoint& pt : data) pt.label = rng.UniformDouble() * 1000;
  ValueNetwork::TrainOptions options;
  options.max_epochs = 200;
  options.batch_size = 16;
  options.val_fraction = 0.25;
  options.patience = 2;
  options.lr = 1e-2;
  auto result =
      ExpectTrainMatchesReference(RandomTreeConfig(), data, options);
  EXPECT_LT(result.epochs_run, options.max_epochs);
}

TEST(ValueNetworkDifferentialTest, RandomTreesWithoutValidation) {
  ValueNetwork::TrainOptions options;
  options.max_epochs = 4;
  options.batch_size = 32;
  options.val_fraction = 0;
  for (uint64_t seed : {1, 2, 3}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    ExpectTrainMatchesReference(RandomTreeConfig(),
                                RandomTreeData(100, true, seed), options);
  }
}

TEST(ValueNetworkDifferentialTest, RawLabelSpace) {
  ValueNetConfig config = RandomTreeConfig();
  config.log_transform = false;
  std::vector<TrainingPoint> data = RandomTreeData(80, true, 13);
  for (TrainingPoint& pt : data) pt.label = std::log(pt.label);
  ValueNetwork::TrainOptions options;
  options.max_epochs = 3;
  options.batch_size = 16;
  ExpectTrainMatchesReference(config, data, options);
}

TEST(ValueNetworkDifferentialTest, PostorderTrees) {
  // The kernels replay per-sample accumulation order for any node order,
  // not just the featurizer's preorder.
  ValueNetwork::TrainOptions options;
  options.max_epochs = 3;
  options.batch_size = 16;
  ExpectTrainMatchesReference(RandomTreeConfig(),
                              RandomTreeData(100, false, 14), options);
}

TEST(ValueNetworkDifferentialTest, FeaturizedJobDataset) {
  EnvOptions env_options;
  env_options.data_scale = 0.05;
  auto env = MakeEnv(WorkloadKind::kJobRandomSplit, env_options);
  ASSERT_TRUE(env.ok()) << env.status().ToString();
  Featurizer featurizer(&(*env)->schema(), (*env)->estimator.get());
  std::vector<const Query*> queries = (*env)->workload.TrainQueries();
  queries.resize(std::min<size_t>(queries.size(), 6));
  SimulationOptions sim;
  sim.max_points_per_query = 80;
  sim.num_threads = 1;
  auto data = CollectSimulationData(queries, (*env)->schema(),
                                    *(*env)->cout_model, featurizer, sim);
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  ASSERT_GT(data->size(), 100u);

  ValueNetConfig config;
  config.query_dim = featurizer.query_dim();
  config.node_dim = featurizer.node_dim();
  ValueNetwork::TrainOptions options;
  options.max_epochs = 3;
  ExpectTrainMatchesReference(config, *data, options);
}

}  // namespace
}  // namespace balsa
