#include "src/nn/nn.h"

#include <cmath>
#include <cstdio>

#include <gtest/gtest.h>

namespace balsa::nn {
namespace {

// Central finite difference of a scalar function of one weight or input.
template <typename Fn>
double NumericalGrad(float* weight, Fn&& loss, double eps = 1e-3) {
  float saved = *weight;
  *weight = static_cast<float>(saved + eps);
  double up = loss();
  *weight = static_cast<float>(saved - eps);
  double down = loss();
  *weight = saved;
  return (up - down) / (2 * eps);
}

TEST(MatTest, Layout) {
  Mat m(2, 3);
  m.at(1, 2) = 5.f;
  EXPECT_EQ(m.data[1 * 3 + 2], 5.f);
  m.Zero();
  EXPECT_EQ(m.at(1, 2), 0.f);
}

TEST(AddMatMulTest, MatchesManual) {
  Mat w(2, 3);
  // w = [[1,2,3],[4,5,6]]
  for (int i = 0; i < 6; ++i) w.data[i] = static_cast<float>(i + 1);
  // Two columns: x0 = (1, 0, -1), x1 = (0, 2, 1).
  Mat x(3, 2);
  x.at(0, 0) = 1.f;
  x.at(2, 0) = -1.f;
  x.at(1, 1) = 2.f;
  x.at(2, 1) = 1.f;
  Mat y(2, 2);
  y.at(1, 1) = 10.f;  // accumulates into y
  AddMatMul(w, x, &y);
  EXPECT_FLOAT_EQ(y.at(0, 0), 1 - 3);
  EXPECT_FLOAT_EQ(y.at(1, 0), 4 - 6);
  EXPECT_FLOAT_EQ(y.at(0, 1), 4 + 3);
  EXPECT_FLOAT_EQ(y.at(1, 1), 10 + 10 + 6);
}

// Sum of squares of a matrix: the loss for the gradient checks below, whose
// gradient is 2 * m.
double SumSquares(const Mat& m) {
  double l = 0;
  for (float v : m.data) l += static_cast<double>(v) * v;
  return l;
}

Mat TwiceOf(const Mat& m) {
  Mat d = m;
  for (float& v : d.data) v *= 2;
  return d;
}

TEST(LinearTest, BackwardBatchGradCheck) {
  Rng rng(1);
  Linear layer(4, 3, &rng);
  // Three columns, one per batch item.
  Mat x(4, 3);
  for (size_t i = 0; i < x.data.size(); ++i) {
    x.data[i] = static_cast<float>(rng.UniformDouble() * 2 - 1);
  }
  auto loss = [&] {
    Mat y;
    layer.ForwardBatch(x, &y);
    return SumSquares(y);
  };

  Mat y, dx;
  layer.ForwardBatch(x, &y);
  layer.w().ZeroGrad();
  layer.b().ZeroGrad();
  layer.BackwardBatch(x, TwiceOf(y), &dx);
  ASSERT_EQ(dx.rows, 4);
  ASSERT_EQ(dx.cols, 3);

  for (size_t idx = 0; idx < layer.w().value.data.size(); ++idx) {
    double num = NumericalGrad(&layer.w().value.data[idx], loss);
    EXPECT_NEAR(layer.w().grad.data[idx], num, 1e-2 + std::abs(num) * 0.05)
        << "w[" << idx << "]";
  }
  for (size_t idx = 0; idx < layer.b().value.data.size(); ++idx) {
    double num = NumericalGrad(&layer.b().value.data[idx], loss);
    EXPECT_NEAR(layer.b().grad.data[idx], num, 1e-2 + std::abs(num) * 0.05);
  }
  for (int r = 0; r < x.rows; ++r) {
    for (int c = 0; c < x.cols; ++c) {
      double num = NumericalGrad(&x.at(r, c), loss);
      EXPECT_NEAR(dx.at(r, c), num, 1e-2 + std::abs(num) * 0.05)
          << "dx(" << r << ", " << c << ")";
    }
  }
}

// Two trees stacked as columns with global child indices:
//   tree A: node0 = join(node1, node2)
//   tree B: node3 = join(node4, node5), node4 = join(node6, -), plus
//           node5 a leaf and node6 a leaf (right child missing at node4).
struct StackedTrees {
  Mat x;
  std::vector<int> left{1, -1, -1, 4, 6, -1, -1};
  std::vector<int> right{2, -1, -1, 5, -1, -1, -1};
};

// One-hot-sparse columns when `sparse`, dense random columns otherwise.
// The two exercise TreeConvLayer::BackwardBatch's two weight-gradient paths.
StackedTrees MakeStackedTrees(int dim, bool sparse, Rng* rng) {
  StackedTrees t;
  t.x = Mat(dim, 7);
  for (int c = 0; c < 7; ++c) {
    if (sparse) {
      t.x.at(static_cast<int>(rng->UniformInt(0, dim - 1)), c) = 1.f;
    } else {
      for (int r = 0; r < dim; ++r) {
        t.x.at(r, c) = static_cast<float>(rng->UniformDouble() * 2 - 1);
      }
    }
  }
  return t;
}

TEST(TreeConvTest, MissingChildrenContributeZero) {
  Rng rng(2);
  TreeConvLayer layer(3, 2, &rng);
  StackedTrees t = MakeStackedTrees(3, /*sparse=*/false, &rng);
  Mat out;
  layer.ForwardBatch(t.x, t.left, t.right, &out);
  ASSERT_EQ(out.cols, 7);
  // A leaf's output depends only on Wp f + b (no child terms): the leaf
  // alone in a one-column batch must agree bitwise.
  Mat leaf(3, 1);
  for (int r = 0; r < 3; ++r) leaf.at(r, 0) = t.x.at(r, 1);
  std::vector<int> none{-1};
  Mat out_leaf;
  layer.ForwardBatch(leaf, none, none, &out_leaf);
  for (int r = 0; r < 2; ++r) EXPECT_EQ(out.at(r, 1), out_leaf.at(r, 0));
}

void CheckTreeConvGrads(bool sparse, bool with_dx) {
  Rng rng(3);
  TreeConvLayer layer(5, 4, &rng);
  StackedTrees t = MakeStackedTrees(5, sparse, &rng);
  auto loss = [&] {
    Mat out;
    layer.ForwardBatch(t.x, t.left, t.right, &out);
    return SumSquares(out);
  };

  std::vector<Param*> params;
  layer.CollectParams(&params);
  for (Param* p : params) p->ZeroGrad();
  Mat out, dx;
  layer.ForwardBatch(t.x, t.left, t.right, &out);
  layer.BackwardBatch(t.x, t.left, t.right, TwiceOf(out),
                      with_dx ? &dx : nullptr);

  for (size_t pi = 0; pi < params.size(); ++pi) {
    Param* p = params[pi];
    for (size_t idx = 0; idx < p->value.data.size(); ++idx) {
      double num = NumericalGrad(&p->value.data[idx], loss);
      EXPECT_NEAR(p->grad.data[idx], num, 1e-2 + std::abs(num) * 0.05)
          << "param " << pi << "[" << idx << "]";
    }
  }
  if (!with_dx) return;
  ASSERT_EQ(dx.rows, 5);
  ASSERT_EQ(dx.cols, 7);
  for (int r = 0; r < dx.rows; ++r) {
    for (int c = 0; c < dx.cols; ++c) {
      double num = NumericalGrad(&t.x.at(r, c), loss);
      EXPECT_NEAR(dx.at(r, c), num, 1e-2 + std::abs(num) * 0.05)
          << "dx(" << r << ", " << c << ")";
    }
  }
}

TEST(TreeConvTest, BackwardBatchGradCheckDense) {
  CheckTreeConvGrads(/*sparse=*/false, /*with_dx=*/true);
}

TEST(TreeConvTest, BackwardBatchGradCheckSparseInputs) {
  CheckTreeConvGrads(/*sparse=*/true, /*with_dx=*/true);
}

TEST(TreeConvTest, BackwardBatchGradCheckWithoutDx) {
  CheckTreeConvGrads(/*sparse=*/false, /*with_dx=*/false);
  CheckTreeConvGrads(/*sparse=*/true, /*with_dx=*/false);
}

TEST(PoolTest, BatchArgmaxAndBackward) {
  // Two items over five node columns: item 0 owns [0, 3), item 1 [3, 5).
  // Rows are the pooled dimensions.
  Mat nodes(2, 5);
  const float row0[] = {1.f, 0.f, 3.f, 7.f, 7.f};
  const float row1[] = {-5.f, 2.f, 0.f, 0.f, 4.f};
  for (int c = 0; c < 5; ++c) {
    nodes.at(0, c) = row0[c];
    nodes.at(1, c) = row1[c];
  }
  std::vector<int> begin{0, 3, 5};
  Mat pooled;
  std::vector<int> argmax;
  DynamicMaxPoolBatch(nodes, begin, &pooled, &argmax);
  EXPECT_FLOAT_EQ(pooled.at(0, 0), 3.f);
  EXPECT_FLOAT_EQ(pooled.at(1, 0), 2.f);
  EXPECT_FLOAT_EQ(pooled.at(0, 1), 7.f);
  EXPECT_FLOAT_EQ(pooled.at(1, 1), 4.f);
  // Row-major like `pooled`; a tie goes to the first column.
  EXPECT_EQ(argmax, (std::vector<int>{2, 3, 1, 4}));

  Mat dpooled(2, 2);
  dpooled.at(0, 0) = 1.f;
  dpooled.at(1, 0) = 10.f;
  dpooled.at(0, 1) = -2.f;
  dpooled.at(1, 1) = 0.5f;
  Mat dnodes;
  DynamicMaxPoolBatchBackward(dpooled, argmax, 5, &dnodes);
  ASSERT_EQ(dnodes.rows, 2);
  ASSERT_EQ(dnodes.cols, 5);
  EXPECT_FLOAT_EQ(dnodes.at(0, 2), 1.f);
  EXPECT_FLOAT_EQ(dnodes.at(1, 1), 10.f);
  EXPECT_FLOAT_EQ(dnodes.at(0, 3), -2.f);
  EXPECT_FLOAT_EQ(dnodes.at(1, 4), 0.5f);
  EXPECT_FLOAT_EQ(dnodes.at(0, 4), 0.f);  // lost the tie
  EXPECT_FLOAT_EQ(dnodes.at(0, 0), 0.f);
}

TEST(PoolTest, BatchBackwardGradCheck) {
  // Distinct values, so the max is locally stable under a small nudge.
  Rng rng(8);
  Mat nodes(3, 6);
  for (size_t i = 0; i < nodes.data.size(); ++i) {
    nodes.data[i] = static_cast<float>(i) * 0.37f - 2.f +
                    static_cast<float>(rng.UniformDouble()) * 0.1f;
  }
  rng.Shuffle(&nodes.data);
  std::vector<int> begin{0, 2, 6};
  auto loss = [&] {
    Mat pooled;
    DynamicMaxPoolBatch(nodes, begin, &pooled);
    return SumSquares(pooled);
  };
  Mat pooled, dnodes;
  std::vector<int> argmax;
  DynamicMaxPoolBatch(nodes, begin, &pooled, &argmax);
  DynamicMaxPoolBatchBackward(TwiceOf(pooled), argmax, nodes.cols, &dnodes);
  for (int r = 0; r < nodes.rows; ++r) {
    for (int c = 0; c < nodes.cols; ++c) {
      double num = NumericalGrad(&nodes.at(r, c), loss);
      EXPECT_NEAR(dnodes.at(r, c), num, 1e-2 + std::abs(num) * 0.05)
          << "dnodes(" << r << ", " << c << ")";
    }
  }
}

TEST(ReluTest, MatForwardBackward) {
  Mat x(1, 3);
  x.data = {-1.f, 0.f, 2.f};
  ReluMatForward(&x);
  EXPECT_FLOAT_EQ(x.data[0], 0.f);
  EXPECT_FLOAT_EQ(x.data[2], 2.f);
  Mat dy(1, 3);
  dy.data = {5.f, 5.f, 5.f};
  ReluMatBackward(x, &dy);
  EXPECT_FLOAT_EQ(dy.data[0], 0.f);  // gradient gated by post-activation
  EXPECT_FLOAT_EQ(dy.data[1], 0.f);
  EXPECT_FLOAT_EQ(dy.data[2], 5.f);
}

TEST(AdamTest, ConvergesOnQuadratic) {
  // Minimize (w - 3)^2 with Adam.
  Param w(1, 1);
  w.value.data[0] = 0.f;
  Adam::Options opts;
  opts.lr = 0.1;
  Adam adam({&w}, opts);
  for (int step = 0; step < 300; ++step) {
    w.grad.data[0] = 2 * (w.value.data[0] - 3.f);
    adam.Step(1);
  }
  EXPECT_NEAR(w.value.data[0], 3.f, 0.05);
  EXPECT_EQ(adam.num_steps(), 300);
}

TEST(AdamTest, GradClipBoundsUpdates) {
  Param w(1, 1);
  Adam::Options opts;
  opts.lr = 0.001;
  opts.grad_clip = 1.0;
  Adam adam({&w}, opts);
  w.grad.data[0] = 1e6f;  // absurd gradient
  adam.Step(1);
  // Clipped: the first Adam step is bounded by lr regardless of magnitude.
  EXPECT_LT(std::abs(w.value.data[0]), 0.01f);
}

TEST(ParamIoTest, SaveLoadRoundTrip) {
  Rng rng(4);
  Linear a(3, 2, &rng), b(3, 2, &rng);
  std::vector<Param*> pa, pb;
  a.CollectParams(&pa);
  b.CollectParams(&pb);
  std::string path = ::testing::TempDir() + "/params.bin";
  ASSERT_TRUE(SaveParams(pa, path).ok());
  ASSERT_TRUE(LoadParams(pb, path).ok());
  for (size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(pa[i]->value.data, pb[i]->value.data);
  }
}

TEST(ParamIoTest, CopyParams) {
  Rng rng(5);
  Linear a(3, 2, &rng), b(3, 2, &rng);
  std::vector<Param*> pa, pb;
  a.CollectParams(&pa);
  b.CollectParams(&pb);
  EXPECT_NE(pa[0]->value.data, pb[0]->value.data);
  ASSERT_TRUE(CopyParams(pa, pb).ok());
  EXPECT_EQ(pa[0]->value.data, pb[0]->value.data);
}

TEST(ParamIoTest, LoadRejectsShapeMismatch) {
  Rng rng(6);
  Linear a(3, 2, &rng);
  Linear c(5, 2, &rng);
  std::vector<Param*> pa, pc;
  a.CollectParams(&pa);
  c.CollectParams(&pc);
  std::string path = ::testing::TempDir() + "/params2.bin";
  ASSERT_TRUE(SaveParams(pa, path).ok());
  EXPECT_FALSE(LoadParams(pc, path).ok());
}

}  // namespace
}  // namespace balsa::nn
