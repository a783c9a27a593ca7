#include "src/nn/nn.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace balsa::nn {

namespace {

/// y[i] += a * x[i]: one product and one add per element, vectorizable.
inline void Axpy(float a, const float* __restrict__ x, float* __restrict__ y,
                 int n) {
  for (int i = 0; i < n; ++i) y[i] += a * x[i];
}

size_t CountNonZero(const Mat& m) {
  size_t nnz = 0;
  for (float v : m.data) nnz += v != 0;
  return nnz;
}

/// The nonzero rows of each column of a matrix, ascending: column j's are
/// row[begin[j]] .. row[begin[j + 1] - 1].
struct SparseColumns {
  std::vector<int> begin, row;

  explicit SparseColumns(const Mat& x)
      : begin(static_cast<size_t>(x.cols) + 1) {
    for (int r = 0; r < x.rows; ++r) {
      for (int j = 0; j < x.cols; ++j) begin[j + 1] += x.at(r, j) != 0;
    }
    for (int j = 0; j < x.cols; ++j) begin[j + 1] += begin[j];
    row.resize(static_cast<size_t>(begin[x.cols]));
    std::vector<int> fill(begin.begin(), begin.end() - 1);
    for (int r = 0; r < x.rows; ++r) {
      for (int j = 0; j < x.cols; ++j) {
        if (x.at(r, j) != 0) row[fill[j]++] = r;
      }
    }
  }
};

void ResizeZeroed(int rows, int cols, Mat* m) {
  m->rows = rows;
  m->cols = cols;
  m->data.assign(static_cast<size_t>(rows) * cols, 0.f);
}

/// t = x^T (x.cols x x.rows), tiled so both sides stay in cache.
void Transpose(const Mat& x, Mat* t) {
  constexpr int kTile = 16;
  t->rows = x.cols;
  t->cols = x.rows;
  t->data.resize(x.data.size());
  for (int r0 = 0; r0 < x.rows; r0 += kTile) {
    const int r1 = std::min(r0 + kTile, x.rows);
    for (int c0 = 0; c0 < x.cols; c0 += kTile) {
      const int c1 = std::min(c0 + kTile, x.cols);
      for (int r = r0; r < r1; ++r) {
        for (int c = c0; c < c1; ++c) t->at(c, r) = x.at(r, c);
      }
    }
  }
}

}  // namespace

void AddMatMul(const Mat& w, const Mat& x, Mat* y) {
  const int n = x.cols;
  const int cols = w.cols;
  // Four weight columns per pass, explicitly left-associated so every
  // output element still accumulates its terms in ascending-c order while
  // y is loaded/stored once per pass. The j loops are independent
  // elementwise updates over __restrict__ arrays, so they vectorize.
  for (int r = 0; r < w.rows; ++r) {
    const float* wrow = &w.data[static_cast<size_t>(r) * cols];
    float* __restrict__ yrow = &y->data[static_cast<size_t>(r) * n];
    int c = 0;
    for (; c + 4 <= cols; c += 4) {
      const float w0 = wrow[c], w1 = wrow[c + 1];
      const float w2 = wrow[c + 2], w3 = wrow[c + 3];
      const float* __restrict__ x0 = &x.data[static_cast<size_t>(c) * n];
      const float* __restrict__ x1 = x0 + n;
      const float* __restrict__ x2 = x1 + n;
      const float* __restrict__ x3 = x2 + n;
      for (int j = 0; j < n; ++j) {
        yrow[j] = (((yrow[j] + w0 * x0[j]) + w1 * x1[j]) + w2 * x2[j]) +
                  w3 * x3[j];
      }
    }
    for (; c < cols; ++c) {
      const float wv = wrow[c];
      const float* __restrict__ xrow = &x.data[static_cast<size_t>(c) * n];
      for (int j = 0; j < n; ++j) yrow[j] += wv * xrow[j];
    }
  }
}

void ReluMatForward(Mat* x) {
  for (float& v : x->data) v = v > 0 ? v : 0;
}

void ReluMatBackward(const Mat& y, Mat* dy) {
  for (size_t i = 0; i < y.data.size(); ++i) {
    dy->data[i] = y.data[i] <= 0 ? 0.f : dy->data[i];
  }
}

void Param::XavierInit(Rng* rng, int fan_in, int fan_out) {
  double bound = std::sqrt(6.0 / (fan_in + fan_out));
  for (float& w : value.data) {
    w = static_cast<float>((rng->UniformDouble() * 2 - 1) * bound);
  }
}

Linear::Linear(int in, int out, Rng* rng) : w_(out, in), b_(out, 1) {
  w_.XavierInit(rng, in, out);
}

void Linear::ForwardBatch(const Mat& x, Mat* y) const {
  ResizeZeroed(w_.value.rows, x.cols, y);
  AddMatMul(w_.value, x, y);
  for (int r = 0; r < y->rows; ++r) {
    const float b = b_.value.at(r, 0);
    for (int j = 0; j < y->cols; ++j) y->at(r, j) += b;
  }
}

void Linear::BackwardBatch(const Mat& x, const Mat& dy, Mat* dx) {
  const int n = x.cols;
  const int in = x.rows;
  // dW row r gains dy[r][j] * x[:, j] for each column j in order; x's
  // columns are made contiguous so each update is an axpy.
  Mat xt;
  Transpose(x, &xt);
  for (int j = 0; j < n; ++j) {
    const float* xj = &xt.data[static_cast<size_t>(j) * in];
    for (int r = 0; r < dy.rows; ++r) {
      const float d = dy.at(r, j);
      if (d != 0) Axpy(d, xj, &w_.grad.data[static_cast<size_t>(r) * in], in);
    }
  }
  for (int r = 0; r < dy.rows; ++r) {
    for (int j = 0; j < n; ++j) b_.grad.at(r, 0) += dy.at(r, j);
  }
  if (!dx) return;
  // dx[c][j] = sum_r W[r][c] dy[r][j], ascending r, vectorized over j.
  ResizeZeroed(in, n, dx);
  for (int r = 0; r < dy.rows; ++r) {
    const float* dyr = &dy.data[static_cast<size_t>(r) * n];
    for (int c = 0; c < in; ++c) {
      Axpy(w_.value.at(r, c), dyr, &dx->data[static_cast<size_t>(c) * n], n);
    }
  }
}

TreeConvLayer::TreeConvLayer(int in, int out, Rng* rng)
    : wp_(out, in), wl_(out, in), wr_(out, in), b_(out, 1) {
  wp_.XavierInit(rng, in * 3, out);
  wl_.XavierInit(rng, in * 3, out);
  wr_.XavierInit(rng, in * 3, out);
}

void TreeConvLayer::ForwardBatch(const Mat& x, const std::vector<int>& left,
                                 const std::vector<int>& right,
                                 Mat* out) const {
  const int n = x.cols;
  const int dim = wp_.value.rows;
  ResizeZeroed(dim, n, out);
  AddMatMul(wp_.value, x, out);

  // One child pass: gather the present children's columns, multiply them
  // compactly, then scatter-add each result column with a single add per
  // element, so a column's value never depends on its batch neighbours.
  auto child_pass = [&](const std::vector<int>& child, const Param& w) {
    std::vector<int> cols;
    for (int i = 0; i < n; ++i) {
      if (child[i] >= 0) cols.push_back(i);
    }
    if (cols.empty()) return;
    Mat xc(x.rows, static_cast<int>(cols.size()));
    for (size_t k = 0; k < cols.size(); ++k) {
      const int src = child[cols[k]];
      for (int r = 0; r < x.rows; ++r) xc.at(r, static_cast<int>(k)) = x.at(r, src);
    }
    Mat pc(dim, static_cast<int>(cols.size()));
    AddMatMul(w.value, xc, &pc);
    for (int r = 0; r < dim; ++r) {
      for (size_t k = 0; k < cols.size(); ++k) {
        out->at(r, cols[k]) += pc.at(r, static_cast<int>(k));
      }
    }
  };
  child_pass(left, wl_);
  child_pass(right, wr_);

  for (int r = 0; r < dim; ++r) {
    const float b = b_.value.at(r, 0);
    for (int j = 0; j < n; ++j) out->at(r, j) += b;
  }
}

void TreeConvLayer::BackwardBatch(const Mat& x, const std::vector<int>& left,
                                  const std::vector<int>& right, const Mat& dy,
                                  Mat* dx) {
  const int n = x.cols;
  const int in = x.rows;
  const int out = dy.rows;
  for (int r = 0; r < out; ++r) {
    for (int j = 0; j < n; ++j) b_.grad.at(r, 0) += dy.at(r, j);
  }

  // Weight gradients: dW[r][c] gains dy[r][j] * x[c][src(j)] for every
  // column j in order. Either operand's zeros can be skipped, so take the
  // path that touches fewer terms.
  if (CountNonZero(dy) * in <= CountNonZero(x) * out) {
    // Sparse dy (after max pooling, few node rows carry gradient): each
    // nonzero dy element adds a scaled input column to one gradient row.
    Mat xt;
    Transpose(x, &xt);
    auto col = [&](int j) { return &xt.data[static_cast<size_t>(j) * in]; };
    auto row = [&](Param& p, int r) {
      return &p.grad.data[static_cast<size_t>(r) * in];
    };
    for (int j = 0; j < n; ++j) {
      for (int r = 0; r < out; ++r) {
        const float d = dy.at(r, j);
        if (d == 0) continue;
        Axpy(d, col(j), row(wp_, r), in);
        if (left[j] >= 0) Axpy(d, col(left[j]), row(wl_, r), in);
        if (right[j] >= 0) Axpy(d, col(right[j]), row(wr_, r), in);
      }
    }
  } else {
    // Sparse x (one-hot node features): accumulate transposed gradients so
    // each nonzero input adds a scaled dy column, vectorized over rows.
    const SparseColumns nz(x);
    Mat dyt, gp, gl, gr;
    Transpose(dy, &dyt);
    Transpose(wp_.grad, &gp);
    Transpose(wl_.grad, &gl);
    Transpose(wr_.grad, &gr);
    auto add_col = [&](int src, const float* dyj, Mat* g) {
      for (int k = nz.begin[src]; k < nz.begin[src + 1]; ++k) {
        const int c = nz.row[k];
        Axpy(x.at(c, src), dyj, &g->data[static_cast<size_t>(c) * out], out);
      }
    };
    for (int j = 0; j < n; ++j) {
      const float* dyj = &dyt.data[static_cast<size_t>(j) * out];
      add_col(j, dyj, &gp);
      if (left[j] >= 0) add_col(left[j], dyj, &gl);
      if (right[j] >= 0) add_col(right[j], dyj, &gr);
    }
    Transpose(gp, &wp_.grad);
    Transpose(gl, &wl_.grad);
    Transpose(gr, &wr_.grad);
  }
  if (!dx) return;

  // Input gradient, built transposed: column j's nonzero dy rows add scaled
  // weight rows to dx[j], dx[left[j]] and dx[right[j]].
  Mat dxt(n, in);
  auto dx_col = [&](int j) { return &dxt.data[static_cast<size_t>(j) * in]; };
  auto wrow = [&](const Param& p, int r) {
    return &p.value.data[static_cast<size_t>(r) * in];
  };
  for (int j = 0; j < n; ++j) {
    for (int r = 0; r < out; ++r) {
      const float d = dy.at(r, j);
      if (d == 0) continue;
      Axpy(d, wrow(wp_, r), dx_col(j), in);
      if (left[j] >= 0) Axpy(d, wrow(wl_, r), dx_col(left[j]), in);
      if (right[j] >= 0) Axpy(d, wrow(wr_, r), dx_col(right[j]), in);
    }
  }
  Transpose(dxt, dx);
}

void DynamicMaxPoolBatch(const Mat& nodes, const std::vector<int>& item_begin,
                         Mat* pooled, std::vector<int>* argmax) {
  const int dim = nodes.rows;
  const int items = static_cast<int>(item_begin.size()) - 1;
  pooled->rows = dim;
  pooled->cols = items;
  pooled->data.assign(static_cast<size_t>(dim) * items, -1e30f);
  if (argmax) argmax->resize(static_cast<size_t>(dim) * items);
  for (int it = 0; it < items; ++it) {
    if (argmax) {
      for (int d = 0; d < dim; ++d) {
        (*argmax)[static_cast<size_t>(d) * items + it] = item_begin[it];
      }
    }
    for (int col = item_begin[it]; col < item_begin[it + 1]; ++col) {
      for (int d = 0; d < dim; ++d) {
        const float v = nodes.at(d, col);
        if (v > pooled->at(d, it)) {
          pooled->at(d, it) = v;
          if (argmax) (*argmax)[static_cast<size_t>(d) * items + it] = col;
        }
      }
    }
  }
}

void DynamicMaxPoolBatchBackward(const Mat& dpooled,
                                 const std::vector<int>& argmax, int cols,
                                 Mat* dnodes) {
  ResizeZeroed(dpooled.rows, cols, dnodes);
  for (int d = 0; d < dpooled.rows; ++d) {
    for (int it = 0; it < dpooled.cols; ++it) {
      dnodes->at(d, argmax[static_cast<size_t>(d) * dpooled.cols + it]) +=
          dpooled.at(d, it);
    }
  }
}

void Adam::Step(int batch_size) {
  t_++;
  const double scale = 1.0 / std::max(1, batch_size);
  // Global-norm gradient clipping.
  double clip_scale = 1.0;
  if (options_.grad_clip > 0) {
    double norm_sq = 0;
    for (Param* p : params_) {
      for (float g : p->grad.data) {
        double gs = g * scale;
        norm_sq += gs * gs;
      }
    }
    double norm = std::sqrt(norm_sq);
    if (norm > options_.grad_clip) clip_scale = options_.grad_clip / norm;
  }
  const double bc1 = 1.0 - std::pow(options_.beta1, t_);
  const double bc2 = 1.0 - std::pow(options_.beta2, t_);
  for (Param* p : params_) {
    for (size_t i = 0; i < p->value.data.size(); ++i) {
      double g = p->grad.data[i] * scale * clip_scale;
      double m = options_.beta1 * p->m.data[i] + (1 - options_.beta1) * g;
      double v = options_.beta2 * p->v.data[i] + (1 - options_.beta2) * g * g;
      p->m.data[i] = static_cast<float>(m);
      p->v.data[i] = static_cast<float>(v);
      double mhat = m / bc1, vhat = v / bc2;
      p->value.data[i] -= static_cast<float>(
          options_.lr * mhat / (std::sqrt(vhat) + options_.eps));
    }
    p->ZeroGrad();
  }
}

Status SaveParams(const std::vector<Param*>& params, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) return Status::Internal("cannot open " + path + " for writing");
  uint64_t count = params.size();
  std::fwrite(&count, sizeof(count), 1, f);
  for (const Param* p : params) {
    int32_t rows = p->value.rows, cols = p->value.cols;
    std::fwrite(&rows, sizeof(rows), 1, f);
    std::fwrite(&cols, sizeof(cols), 1, f);
    std::fwrite(p->value.data.data(), sizeof(float), p->value.data.size(), f);
  }
  std::fclose(f);
  return Status::OK();
}

Status LoadParams(const std::vector<Param*>& params, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return Status::NotFound("cannot open " + path);
  uint64_t count = 0;
  if (std::fread(&count, sizeof(count), 1, f) != 1 ||
      count != params.size()) {
    std::fclose(f);
    return Status::InvalidArgument("param count mismatch in " + path);
  }
  for (Param* p : params) {
    int32_t rows = 0, cols = 0;
    if (std::fread(&rows, sizeof(rows), 1, f) != 1 ||
        std::fread(&cols, sizeof(cols), 1, f) != 1 ||
        rows != p->value.rows || cols != p->value.cols) {
      std::fclose(f);
      return Status::InvalidArgument("param shape mismatch in " + path);
    }
    if (std::fread(p->value.data.data(), sizeof(float), p->value.data.size(),
                   f) != p->value.data.size()) {
      std::fclose(f);
      return Status::InvalidArgument("truncated param file " + path);
    }
  }
  std::fclose(f);
  return Status::OK();
}

Status CopyParams(const std::vector<Param*>& from,
                  const std::vector<Param*>& to) {
  if (from.size() != to.size()) {
    return Status::InvalidArgument("param list size mismatch");
  }
  for (size_t i = 0; i < from.size(); ++i) {
    if (from[i]->value.rows != to[i]->value.rows ||
        from[i]->value.cols != to[i]->value.cols) {
      return Status::InvalidArgument("param shape mismatch at index " +
                                     std::to_string(i));
    }
    to[i]->value.data = from[i]->value.data;
  }
  return Status::OK();
}

}  // namespace balsa::nn
