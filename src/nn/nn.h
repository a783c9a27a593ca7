// A compact neural-network library implementing exactly what Balsa's value
// network needs: fully-connected layers, ReLU, Neo-style tree convolution
// with dynamic (max) pooling, L2 loss, and Adam — with manual backward
// passes verified against finite differences in tests. No external deps.
//
// One kernel family serves training and inference: every layer works on
// column batches (one column per item, or per plan-tree node with the
// trees of many items stacked side by side).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/util/rng.h"
#include "src/util/status.h"

namespace balsa::nn {

using Vec = std::vector<float>;

/// A dense row-major matrix.
struct Mat {
  int rows = 0, cols = 0;
  std::vector<float> data;

  Mat() = default;
  Mat(int r, int c) : rows(r), cols(c), data(static_cast<size_t>(r) * c, 0.f) {}

  float& at(int r, int c) { return data[static_cast<size_t>(r) * cols + c]; }
  float at(int r, int c) const {
    return data[static_cast<size_t>(r) * cols + c];
  }
  void Zero() { std::fill(data.begin(), data.end(), 0.f); }
};

/// y += W x for a column batch x (y: W.rows x x.cols). Every output element
/// accumulates its terms over W's columns in ascending order, one add per
/// term, whatever else shares the batch: an element's value is bitwise
/// independent of the other columns, so an item scores the same alone or in
/// any batch. The inner loop runs across independent batch columns, which
/// is what makes batching fast.
void AddMatMul(const Mat& w, const Mat& x, Mat* y);

/// In-place ReLU over a whole matrix.
void ReluMatForward(Mat* x);
/// dy *= 1[y > 0] elementwise, where y is the post-ReLU activation.
void ReluMatBackward(const Mat& y, Mat* dy);

/// A trainable parameter: value + gradient (+ Adam moments).
struct Param {
  Mat value, grad, m, v;

  explicit Param(int rows = 0, int cols = 1)
      : value(rows, cols), grad(rows, cols), m(rows, cols), v(rows, cols) {}

  void XavierInit(Rng* rng, int fan_in, int fan_out);
  void ZeroGrad() { grad.Zero(); }
  size_t NumWeights() const { return value.data.size(); }
};

/// Fully-connected layer y = W x + b.
class Linear {
 public:
  Linear() = default;
  Linear(int in, int out, Rng* rng);

  /// y = W x + b per column of a column batch (see AddMatMul).
  void ForwardBatch(const Mat& x, Mat* y) const;
  /// Backward over a column batch: accumulates dW += dy x^T and db += dy,
  /// each gradient element taking its terms in column order, one add per
  /// term; sets dx = W^T dy (dx may be null).
  void BackwardBatch(const Mat& x, const Mat& dy, Mat* dx);

  void CollectParams(std::vector<Param*>* out) {
    out->push_back(&w_);
    out->push_back(&b_);
  }
  int in_dim() const { return w_.value.cols; }
  int out_dim() const { return w_.value.rows; }
  Param& w() { return w_; }
  Param& b() { return b_; }

 private:
  Param w_, b_;
};

/// A binary-tree-structured batch item for tree convolution: node features
/// plus child indices (-1 for none). Batched kernels stack many items'
/// nodes as the columns of one matrix, with child indices made global.
struct TreeSample {
  std::vector<Vec> features;  // per node
  std::vector<int> left;      // per node, -1 if leaf
  std::vector<int> right;
};

/// Neo-style tree convolution: out[i] = Wp f[i] + Wl f[left] + Wr f[right] + b,
/// missing children contribute zero.
class TreeConvLayer {
 public:
  TreeConvLayer() = default;
  TreeConvLayer(int in, int out, Rng* rng);

  /// Forward over node-stacked columns: column i of `out` is
  /// Wp x[i] + Wl x[left[i]] + Wr x[right[i]] + b (missing children
  /// contribute nothing). `left`/`right` index columns of `x`; trees from
  /// many batch items may be concatenated as long as indices are global.
  /// Each child product is summed on its own (AddMatMul order) and then
  /// added to the column with a single add per element, so a column's value
  /// is bitwise independent of the rest of the batch.
  void ForwardBatch(const Mat& x, const std::vector<int>& left,
                    const std::vector<int>& right, Mat* out) const;
  /// Backward over node-stacked columns. Accumulates the weight and bias
  /// gradients; sets dx = d(loss)/dx when dx is non-null. Every gradient
  /// element takes its terms in column order, one add per term, and column
  /// i's gradient flows to dx[i], dx[left[i]], dx[right[i]] in that order,
  /// with each input's terms in ascending output row. Zero terms are
  /// skipped: adding +-0 to an accumulator that started at +0 is an
  /// identity. Results are therefore bitwise equal to backpropagating the
  /// columns one at a time in order, whatever the sparsity path taken.
  void BackwardBatch(const Mat& x, const std::vector<int>& left,
                     const std::vector<int>& right, const Mat& dy, Mat* dx);

  void CollectParams(std::vector<Param*>* out) {
    out->push_back(&wp_);
    out->push_back(&wl_);
    out->push_back(&wr_);
    out->push_back(&b_);
  }
  int in_dim() const { return wp_.value.cols; }
  int out_dim() const { return wp_.value.rows; }

 private:
  Param wp_, wl_, wr_, b_;
};

/// Dynamic max pooling over node-stacked columns: item i pools the columns
/// [item_begin[i], item_begin[i+1]) of `nodes` into column i of `pooled`
/// (dim x num_items). When `argmax` is non-null it receives, per pooled
/// element (row-major, like `pooled`), the column that won: the first one
/// holding the maximum.
void DynamicMaxPoolBatch(const Mat& nodes, const std::vector<int>& item_begin,
                         Mat* pooled, std::vector<int>* argmax = nullptr);
/// Routes `dpooled` back to the winning columns: dnodes becomes a
/// dpooled.rows x `cols` zero matrix holding dpooled's values at the
/// argmax cells.
void DynamicMaxPoolBatchBackward(const Mat& dpooled,
                                 const std::vector<int>& argmax, int cols,
                                 Mat* dnodes);

/// Adam optimizer over a set of parameters.
class Adam {
 public:
  struct Options {
    double lr = 1e-3;
    double beta1 = 0.9;
    double beta2 = 0.999;
    double eps = 1e-8;
    double grad_clip = 5.0;  // global-norm clip; <= 0 disables
  };

  explicit Adam(std::vector<Param*> params)
      : params_(std::move(params)) {}
  Adam(std::vector<Param*> params, Options options)
      : params_(std::move(params)), options_(options) {}

  /// Applies one update from the accumulated gradients (divided by
  /// `batch_size`), then zeroes them.
  void Step(int batch_size);

  void set_lr(double lr) { options_.lr = lr; }
  int64_t num_steps() const { return t_; }

 private:
  std::vector<Param*> params_;
  Options options_;
  int64_t t_ = 0;
};

/// Binary serialization of a parameter list (for checkpoints).
Status SaveParams(const std::vector<Param*>& params, const std::string& path);
Status LoadParams(const std::vector<Param*>& params, const std::string& path);

/// Copies values (not moments) from one param set to another of equal shape.
Status CopyParams(const std::vector<Param*>& from,
                  const std::vector<Param*>& to);

}  // namespace balsa::nn
