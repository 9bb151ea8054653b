#include "autograd/ops.hpp"

#include <cmath>
#include <cstring>
#include <vector>

#include "autograd/gemm.hpp"
#include "common/check.hpp"
#include "tensor/ops.hpp"

namespace roadfusion::autograd {
namespace {

namespace t = roadfusion::tensor;

// Sobel kernels scaled by 1/8 so edge magnitudes stay on the order of the
// input range.
constexpr float kSobelX[9] = {-0.125f, 0.0f, 0.125f, -0.25f, 0.0f,
                              0.25f,   -0.125f, 0.0f, 0.125f};
constexpr float kSobelY[9] = {-0.125f, -0.25f, -0.125f, 0.0f, 0.0f,
                              0.0f,    0.125f, 0.25f,   0.125f};

/// Copies `rows * cols` floats starting at `src` into a fresh (rows, cols)
/// matrix tensor.
Tensor copy_mat(const float* src, int64_t rows, int64_t cols) {
  Tensor out(Shape::mat(rows, cols));
  std::memcpy(out.raw(), src, static_cast<size_t>(rows * cols) *
                                  sizeof(float));
  return out;
}

void check_same_shape(const Variable& a, const Variable& b, const char* op) {
  ROADFUSION_CHECK(a.shape() == b.shape(), op << ": shape mismatch "
                                              << a.shape().str() << " vs "
                                              << b.shape().str());
}

}  // namespace

Variable add(const Variable& a, const Variable& b) {
  check_same_shape(a, b, "add");
  return make_op(
      t::add(a.value(), b.value()), {a, b},
      [](Node& node) {
        node.parents[0]->accumulate_grad(node.grad);
        node.parents[1]->accumulate_grad(node.grad);
      },
      "add");
}

Variable sub(const Variable& a, const Variable& b) {
  check_same_shape(a, b, "sub");
  return make_op(
      t::sub(a.value(), b.value()), {a, b},
      [](Node& node) {
        node.parents[0]->accumulate_grad(node.grad);
        node.parents[1]->accumulate_grad(t::scale(node.grad, -1.0f));
      },
      "sub");
}

Variable mul(const Variable& a, const Variable& b) {
  check_same_shape(a, b, "mul");
  return make_op(
      t::mul(a.value(), b.value()), {a, b},
      [](Node& node) {
        node.parents[0]->accumulate_grad(
            t::mul(node.grad, node.parents[1]->value));
        node.parents[1]->accumulate_grad(
            t::mul(node.grad, node.parents[0]->value));
      },
      "mul");
}

Variable scale(const Variable& a, float s) {
  return make_op(
      t::scale(a.value(), s), {a},
      [s](Node& node) {
        node.parents[0]->accumulate_grad(t::scale(node.grad, s));
      },
      "scale");
}

Variable relu(const Variable& x) {
  Tensor out = t::map(x.value(), [](float v) { return v > 0.0f ? v : 0.0f; });
  return make_op(
      std::move(out), {x},
      [](Node& node) {
        const Tensor& input = node.parents[0]->value;
        Tensor gin(node.grad.shape());
        const float* gi = node.grad.raw();
        const float* in = input.raw();
        float* go = gin.raw();
        for (int64_t i = 0; i < gin.numel(); ++i) {
          go[i] = in[i] > 0.0f ? gi[i] : 0.0f;
        }
        node.parents[0]->accumulate_grad(gin);
      },
      "relu");
}

Variable sigmoid(const Variable& x) {
  Tensor out = t::map(x.value(), [](float v) {
    return v >= 0.0f ? 1.0f / (1.0f + std::exp(-v))
                     : std::exp(v) / (1.0f + std::exp(v));
  });
  // Capture the output value for the backward pass: dy/dx = y (1 - y).
  auto cached = std::make_shared<Tensor>(out);
  return make_op(
      std::move(out), {x},
      [cached](Node& node) {
        Tensor gin(node.grad.shape());
        const float* gi = node.grad.raw();
        const float* y = cached->raw();
        float* go = gin.raw();
        for (int64_t i = 0; i < gin.numel(); ++i) {
          go[i] = gi[i] * y[i] * (1.0f - y[i]);
        }
        node.parents[0]->accumulate_grad(gin);
      },
      "sigmoid");
}

Variable reshape(const Variable& x, const Shape& shape) {
  const Shape original = x.shape();
  return make_op(
      x.value().reshaped(shape), {x},
      [original](Node& node) {
        node.parents[0]->accumulate_grad(node.grad.reshaped(original));
      },
      "reshape");
}

Variable detach(const Variable& x) { return Variable::constant(x.value()); }

Variable scale_per_sample(const Variable& x, const Variable& w) {
  ROADFUSION_CHECK(x.shape().rank() == 4,
                   "scale_per_sample expects NCHW x, got " << x.shape().str());
  const int64_t n = x.shape().batch();
  ROADFUSION_CHECK(w.value().numel() == n,
                   "scale_per_sample weight must hold one scalar per sample; "
                       << w.shape().str() << " vs batch " << n);
  const int64_t per_sample = x.value().numel() / n;
  Tensor out(x.shape());
  const float* px = x.value().raw();
  const float* pw = w.value().raw();
  float* po = out.raw();
  for (int64_t s = 0; s < n; ++s) {
    const float ws = pw[s];
    for (int64_t i = 0; i < per_sample; ++i) {
      po[s * per_sample + i] = ws * px[s * per_sample + i];
    }
  }
  return make_op(
      std::move(out), {x, w},
      [n, per_sample](Node& node) {
        Node& xn = *node.parents[0];
        Node& wn = *node.parents[1];
        const float* g = node.grad.raw();
        if (xn.requires_grad) {
          Tensor dx(xn.value.shape());
          float* pdx = dx.raw();
          const float* pw = wn.value.raw();
          for (int64_t s = 0; s < n; ++s) {
            const float ws = pw[s];
            for (int64_t i = 0; i < per_sample; ++i) {
              pdx[s * per_sample + i] = ws * g[s * per_sample + i];
            }
          }
          xn.accumulate_grad(dx);
        }
        if (wn.requires_grad) {
          Tensor dw(wn.value.shape());
          float* pdw = dw.raw();
          const float* px = xn.value.raw();
          for (int64_t s = 0; s < n; ++s) {
            double acc = 0.0;
            for (int64_t i = 0; i < per_sample; ++i) {
              acc += static_cast<double>(g[s * per_sample + i]) *
                     px[s * per_sample + i];
            }
            pdw[s] = static_cast<float>(acc);
          }
          wn.accumulate_grad(dw);
        }
      },
      "scale_per_sample");
}

Variable conv2d(const Variable& x, const Variable& w, const Variable& b,
                const ConvGeometry& geom) {
  ROADFUSION_CHECK(x.shape().rank() == 4,
                   "conv2d input must be NCHW, got " << x.shape().str());
  ROADFUSION_CHECK(w.shape().rank() == 4,
                   "conv2d weight must be (Cout, Cin, K, K), got "
                       << w.shape().str());
  const int64_t batch = x.shape().batch();
  const int64_t cin = x.shape().channels();
  const int64_t h = x.shape().height();
  const int64_t width = x.shape().width();
  const int64_t cout = w.shape().dim(0);
  ROADFUSION_CHECK(w.shape().dim(1) == cin, "conv2d channel mismatch: input "
                                                << cin << " vs weight "
                                                << w.shape().dim(1));
  ROADFUSION_CHECK(w.shape().dim(2) == geom.kernel &&
                       w.shape().dim(3) == geom.kernel,
                   "conv2d weight kernel " << w.shape().dim(2)
                                           << " != geometry kernel "
                                           << geom.kernel);
  const bool has_bias = b.defined();
  if (has_bias) {
    ROADFUSION_CHECK(b.value().numel() == cout,
                     "conv2d bias size " << b.value().numel() << " != Cout "
                                         << cout);
  }
  const int64_t out_h = geom.out_extent(h);
  const int64_t out_w = geom.out_extent(width);
  const int64_t ckk = cin * geom.kernel * geom.kernel;
  const int64_t out_plane = out_h * out_w;

  Tensor out(Shape::nchw(batch, cout, out_h, out_w));
  const Tensor wmat = w.value().reshaped(Shape::mat(cout, ckk));
  // The weight gradient needs the same column matrices the forward GEMM
  // consumed, so they are carried to the backward pass (and freed there)
  // instead of being re-lowered from the input. Only kept when a weight
  // gradient can actually be requested — which also demands grad recording
  // to be on, or no backward pass will ever consume them.
  const bool keep_columns = w.requires_grad() && GradMode::enabled();
  auto cached_columns = std::make_shared<std::vector<Tensor>>();
  if (keep_columns) {
    cached_columns->reserve(static_cast<size_t>(batch));
  }
  // Each sample's GEMM accumulates straight into its zero-filled output
  // slice; the bias follows as a per-channel pass.
  for (int64_t s = 0; s < batch; ++s) {
    Tensor columns = kernels::im2col(
        x.value().raw() + s * cin * h * width, cin, h, width, geom);
    float* dst = out.raw() + s * cout * out_plane;
    kernels::blocked_matmul_into(wmat, columns, dst);
    if (has_bias) {
      const float* bias = b.value().raw();
      for (int64_t c = 0; c < cout; ++c) {
        float* row = dst + c * out_plane;
        for (int64_t i = 0; i < out_plane; ++i) {
          row[i] += bias[c];
        }
      }
    }
    if (keep_columns) {
      cached_columns->push_back(std::move(columns));
    }
  }

  std::vector<Variable> parents = {x, w};
  if (has_bias) {
    parents.push_back(b);
  }
  auto backward = [batch, cin, h, width, cout, geom, ckk, out_plane,
                   has_bias, cached_columns](Node& node) {
    Node& xn = *node.parents[0];
    Node& wn = *node.parents[1];
    const Tensor wmat_b = wn.value.reshaped(Shape::mat(cout, ckk));
    Tensor dx = xn.requires_grad ? Tensor(xn.value.shape()) : Tensor();
    Tensor dw = wn.requires_grad ? Tensor(Shape::mat(cout, ckk)) : Tensor();
    for (int64_t s = 0; s < batch; ++s) {
      const Tensor gout_mat =
          copy_mat(node.grad.raw() + s * cout * out_plane, cout, out_plane);
      if (wn.requires_grad) {
        // First backward uses the cached forward columns; a repeated
        // backward (the cache is freed below) falls back to re-lowering.
        const bool cached =
            static_cast<size_t>(s) < cached_columns->size();
        Tensor recomputed;
        if (!cached) {
          recomputed = kernels::im2col(
              xn.value.raw() + s * cin * h * width, cin, h, width, geom);
        }
        const Tensor& columns =
            cached ? (*cached_columns)[static_cast<size_t>(s)] : recomputed;
        const Tensor dw_s = kernels::blocked_matmul_bt(gout_mat, columns);
        t::axpy_inplace(dw, 1.0f, dw_s);
      }
      if (xn.requires_grad) {
        const Tensor dcol = kernels::blocked_matmul_at(wmat_b, gout_mat);
        kernels::col2im_accumulate(dcol, cin, h, width, geom,
                                   dx.raw() + s * cin * h * width);
      }
    }
    // The columns were only needed for dw; release them now so the cache
    // lives exactly from forward to backward.
    cached_columns->clear();
    cached_columns->shrink_to_fit();
    if (xn.requires_grad) {
      xn.accumulate_grad(dx);
    }
    if (wn.requires_grad) {
      wn.accumulate_grad(dw.reshaped(wn.value.shape()));
    }
    if (has_bias) {
      Node& bn = *node.parents[2];
      if (bn.requires_grad) {
        Tensor db(bn.value.shape());
        float* pdb = db.raw();
        const float* g = node.grad.raw();
        for (int64_t s = 0; s < batch; ++s) {
          for (int64_t c = 0; c < cout; ++c) {
            double acc = 0.0;
            const float* row = g + (s * cout + c) * out_plane;
            for (int64_t i = 0; i < out_plane; ++i) {
              acc += row[i];
            }
            pdb[c] += static_cast<float>(acc);
          }
        }
        bn.accumulate_grad(db);
      }
    }
  };
  return make_op(std::move(out), std::move(parents), std::move(backward),
                 "conv2d");
}

Variable conv_transpose2d(const Variable& x, const Variable& w,
                          const Variable& b, const ConvGeometry& geom) {
  ROADFUSION_CHECK(x.shape().rank() == 4,
                   "conv_transpose2d input must be NCHW, got "
                       << x.shape().str());
  ROADFUSION_CHECK(w.shape().rank() == 4,
                   "conv_transpose2d weight must be (Cin, Cout, K, K), got "
                       << w.shape().str());
  const int64_t batch = x.shape().batch();
  const int64_t cin = x.shape().channels();
  const int64_t h = x.shape().height();
  const int64_t width = x.shape().width();
  const int64_t cout = w.shape().dim(1);
  ROADFUSION_CHECK(w.shape().dim(0) == cin,
                   "conv_transpose2d channel mismatch: input "
                       << cin << " vs weight " << w.shape().dim(0));
  ROADFUSION_CHECK(w.shape().dim(2) == geom.kernel &&
                       w.shape().dim(3) == geom.kernel,
                   "conv_transpose2d weight kernel mismatch");
  const bool has_bias = b.defined();
  if (has_bias) {
    ROADFUSION_CHECK(b.value().numel() == cout, "conv_transpose2d bias size");
  }
  const int64_t out_h = geom.transposed_out_extent(h);
  const int64_t out_w = geom.transposed_out_extent(width);
  ROADFUSION_CHECK(out_h > 0 && out_w > 0,
                   "conv_transpose2d: degenerate output extent");
  // The adjoint im2col over the produced output must restore the input
  // extent exactly; this pins the (kernel, stride, padding) combination.
  ROADFUSION_CHECK(geom.out_extent(out_h) == h && geom.out_extent(out_w) ==
                                                      width,
                   "conv_transpose2d geometry is not exactly invertible for "
                   "input "
                       << h << "x" << width);
  const int64_t ckk = cout * geom.kernel * geom.kernel;
  const int64_t in_plane = h * width;
  const int64_t out_plane = out_h * out_w;

  Tensor out(Shape::nchw(batch, cout, out_h, out_w));
  const Tensor wmat = w.value().reshaped(Shape::mat(cin, ckk));
  for (int64_t s = 0; s < batch; ++s) {
    const Tensor x_mat =
        copy_mat(x.value().raw() + s * cin * in_plane, cin, in_plane);
    const Tensor columns =
        kernels::blocked_matmul_at(wmat, x_mat);  // (ckk, in_plane)
    kernels::col2im_accumulate(columns, cout, out_h, out_w, geom,
                               out.raw() + s * cout * out_plane);
    if (has_bias) {
      const float* pb = b.value().raw();
      float* dst = out.raw() + s * cout * out_plane;
      for (int64_t c = 0; c < cout; ++c) {
        float* row = dst + c * out_plane;
        for (int64_t i = 0; i < out_plane; ++i) {
          row[i] += pb[c];
        }
      }
    }
  }

  std::vector<Variable> parents = {x, w};
  if (has_bias) {
    parents.push_back(b);
  }
  auto backward = [batch, cin, cout, geom, ckk, in_plane, out_plane, out_h,
                   out_w, has_bias](Node& node) {
    Node& xn = *node.parents[0];
    Node& wn = *node.parents[1];
    const Tensor wmat_b = wn.value.reshaped(Shape::mat(cin, ckk));
    Tensor dx = xn.requires_grad ? Tensor(xn.value.shape()) : Tensor();
    Tensor dw = wn.requires_grad ? Tensor(Shape::mat(cin, ckk)) : Tensor();
    for (int64_t s = 0; s < batch; ++s) {
      const Tensor grad_columns = kernels::im2col(
          node.grad.raw() + s * cout * out_plane, cout, out_h, out_w, geom);
      if (xn.requires_grad) {
        const Tensor dx_mat = kernels::blocked_matmul(wmat_b, grad_columns);
        std::memcpy(dx.raw() + s * cin * in_plane, dx_mat.raw(),
                    static_cast<size_t>(cin * in_plane) * sizeof(float));
      }
      if (wn.requires_grad) {
        const Tensor x_mat =
            copy_mat(xn.value.raw() + s * cin * in_plane, cin, in_plane);
        const Tensor dw_s = kernels::blocked_matmul_bt(x_mat, grad_columns);
        t::axpy_inplace(dw, 1.0f, dw_s);
      }
    }
    if (xn.requires_grad) {
      xn.accumulate_grad(dx);
    }
    if (wn.requires_grad) {
      wn.accumulate_grad(dw.reshaped(wn.value.shape()));
    }
    if (has_bias) {
      Node& bn = *node.parents[2];
      if (bn.requires_grad) {
        Tensor db(bn.value.shape());
        float* pdb = db.raw();
        const float* g = node.grad.raw();
        for (int64_t s = 0; s < batch; ++s) {
          for (int64_t c = 0; c < cout; ++c) {
            double acc = 0.0;
            const float* row = g + (s * cout + c) * out_plane;
            for (int64_t i = 0; i < out_plane; ++i) {
              acc += row[i];
            }
            pdb[c] += static_cast<float>(acc);
          }
        }
        bn.accumulate_grad(db);
      }
    }
  };
  return make_op(std::move(out), std::move(parents), std::move(backward),
                 "conv_transpose2d");
}

float batch_norm_eval_invstd(float running_var, float eps) {
  // The float eps is promoted to double, as in the training branch.
  return static_cast<float>(
      1.0 / std::sqrt(static_cast<double>(running_var) + eps));
}

Variable batch_norm2d(const Variable& x, const Variable& gamma,
                      const Variable& beta,
                      const std::shared_ptr<BatchNormState>& state,
                      bool training, float momentum, float eps) {
  ROADFUSION_CHECK(x.shape().rank() == 4,
                   "batch_norm2d expects NCHW, got " << x.shape().str());
  const int64_t batch = x.shape().batch();
  const int64_t channels = x.shape().channels();
  const int64_t plane = x.shape().height() * x.shape().width();
  ROADFUSION_CHECK(gamma.value().numel() == channels &&
                       beta.value().numel() == channels,
                   "batch_norm2d affine parameter size mismatch");
  ROADFUSION_CHECK(state != nullptr &&
                       state->running_mean.numel() == channels &&
                       state->running_var.numel() == channels,
                   "batch_norm2d state size mismatch");

  const int64_t m = batch * plane;
  std::vector<float> mean(static_cast<size_t>(channels));
  std::vector<float> invstd(static_cast<size_t>(channels));
  const float* px = x.value().raw();

  if (training) {
    ROADFUSION_CHECK(m > 1, "batch_norm2d training needs > 1 value/channel");
    for (int64_t c = 0; c < channels; ++c) {
      double sum = 0.0;
      double sum_sq = 0.0;
      for (int64_t s = 0; s < batch; ++s) {
        const float* row = px + (s * channels + c) * plane;
        for (int64_t i = 0; i < plane; ++i) {
          sum += row[i];
          sum_sq += static_cast<double>(row[i]) * row[i];
        }
      }
      const double mu = sum / static_cast<double>(m);
      const double var = sum_sq / static_cast<double>(m) - mu * mu;
      mean[static_cast<size_t>(c)] = static_cast<float>(mu);
      invstd[static_cast<size_t>(c)] =
          static_cast<float>(1.0 / std::sqrt(std::max(var, 0.0) + eps));
      // Running statistics use the unbiased variance, matching the PyTorch
      // convention the paper's training environment relied on.
      const double unbiased = var * static_cast<double>(m) /
                              static_cast<double>(m - 1);
      float& rm = state->running_mean.at(c);
      float& rv = state->running_var.at(c);
      rm = (1.0f - momentum) * rm + momentum * static_cast<float>(mu);
      rv = (1.0f - momentum) * rv + momentum * static_cast<float>(unbiased);
    }
  } else {
    for (int64_t c = 0; c < channels; ++c) {
      mean[static_cast<size_t>(c)] = state->running_mean.at(c);
      invstd[static_cast<size_t>(c)] =
          batch_norm_eval_invstd(state->running_var.at(c), eps);
    }
  }

  auto xhat = std::make_shared<Tensor>(x.shape());
  Tensor out(x.shape());
  {
    const float* pg = gamma.value().raw();
    const float* pb = beta.value().raw();
    float* pxh = xhat->raw();
    float* po = out.raw();
    for (int64_t s = 0; s < batch; ++s) {
      for (int64_t c = 0; c < channels; ++c) {
        const float mu = mean[static_cast<size_t>(c)];
        const float is = invstd[static_cast<size_t>(c)];
        const float g = pg[c];
        const float bta = pb[c];
        const int64_t base = (s * channels + c) * plane;
        for (int64_t i = 0; i < plane; ++i) {
          const float xh = (px[base + i] - mu) * is;
          pxh[base + i] = xh;
          po[base + i] = g * xh + bta;
        }
      }
    }
  }

  auto backward = [batch, channels, plane, m, invstd, xhat,
                   training](Node& node) {
    Node& xn = *node.parents[0];
    Node& gn = *node.parents[1];
    Node& bn = *node.parents[2];
    const float* g = node.grad.raw();
    const float* pxh = xhat->raw();
    const float* pgamma = gn.value.raw();

    std::vector<double> sum_g(static_cast<size_t>(channels), 0.0);
    std::vector<double> sum_gx(static_cast<size_t>(channels), 0.0);
    for (int64_t s = 0; s < batch; ++s) {
      for (int64_t c = 0; c < channels; ++c) {
        const int64_t base = (s * channels + c) * plane;
        double sg = 0.0;
        double sgx = 0.0;
        for (int64_t i = 0; i < plane; ++i) {
          sg += g[base + i];
          sgx += static_cast<double>(g[base + i]) * pxh[base + i];
        }
        sum_g[static_cast<size_t>(c)] += sg;
        sum_gx[static_cast<size_t>(c)] += sgx;
      }
    }
    if (gn.requires_grad) {
      Tensor dgamma(gn.value.shape());
      for (int64_t c = 0; c < channels; ++c) {
        dgamma.at(c) = static_cast<float>(sum_gx[static_cast<size_t>(c)]);
      }
      gn.accumulate_grad(dgamma);
    }
    if (bn.requires_grad) {
      Tensor dbeta(bn.value.shape());
      for (int64_t c = 0; c < channels; ++c) {
        dbeta.at(c) = static_cast<float>(sum_g[static_cast<size_t>(c)]);
      }
      bn.accumulate_grad(dbeta);
    }
    if (xn.requires_grad) {
      Tensor dx(xn.value.shape());
      float* pdx = dx.raw();
      for (int64_t s = 0; s < batch; ++s) {
        for (int64_t c = 0; c < channels; ++c) {
          const float is = invstd[static_cast<size_t>(c)];
          const float gam = pgamma[c];
          const int64_t base = (s * channels + c) * plane;
          if (training) {
            const float k1 = static_cast<float>(
                sum_g[static_cast<size_t>(c)] / static_cast<double>(m));
            const float k2 = static_cast<float>(
                sum_gx[static_cast<size_t>(c)] / static_cast<double>(m));
            for (int64_t i = 0; i < plane; ++i) {
              pdx[base + i] =
                  gam * is * (g[base + i] - k1 - pxh[base + i] * k2);
            }
          } else {
            for (int64_t i = 0; i < plane; ++i) {
              pdx[base + i] = gam * is * g[base + i];
            }
          }
        }
      }
      xn.accumulate_grad(dx);
    }
  };
  return make_op(std::move(out), {x, gamma, beta}, std::move(backward),
                 "batch_norm2d");
}

Variable max_pool2d(const Variable& x, int64_t kernel, int64_t stride) {
  auto argmax = std::make_shared<std::vector<int64_t>>();
  Tensor out = kernels::max_pool2d(x.value(), kernel, stride, *argmax);
  const Shape input_shape = x.shape();
  return make_op(
      std::move(out), {x},
      [argmax, input_shape](Node& node) {
        node.parents[0]->accumulate_grad(
            kernels::max_pool2d_backward(node.grad, input_shape, *argmax));
      },
      "max_pool2d");
}

Variable global_avg_pool(const Variable& x) {
  ROADFUSION_CHECK(x.shape().rank() == 4,
                   "global_avg_pool expects NCHW, got " << x.shape().str());
  const int64_t batch = x.shape().batch();
  const int64_t channels = x.shape().channels();
  const int64_t plane = x.shape().height() * x.shape().width();
  Tensor out(Shape::mat(batch, channels));
  const float* px = x.value().raw();
  float* po = out.raw();
  for (int64_t s = 0; s < batch; ++s) {
    for (int64_t c = 0; c < channels; ++c) {
      double acc = 0.0;
      const float* row = px + (s * channels + c) * plane;
      for (int64_t i = 0; i < plane; ++i) {
        acc += row[i];
      }
      po[s * channels + c] = static_cast<float>(acc / plane);
    }
  }
  return make_op(
      std::move(out), {x},
      [batch, channels, plane](Node& node) {
        Tensor dx(node.parents[0]->value.shape());
        float* pdx = dx.raw();
        const float* g = node.grad.raw();
        const float inv = 1.0f / static_cast<float>(plane);
        for (int64_t s = 0; s < batch; ++s) {
          for (int64_t c = 0; c < channels; ++c) {
            const float gv = g[s * channels + c] * inv;
            float* row = pdx + (s * channels + c) * plane;
            for (int64_t i = 0; i < plane; ++i) {
              row[i] = gv;
            }
          }
        }
        node.parents[0]->accumulate_grad(dx);
      },
      "global_avg_pool");
}

Variable linear(const Variable& x, const Variable& w, const Variable& b) {
  ROADFUSION_CHECK(x.shape().rank() == 2,
                   "linear input must be (N, K), got " << x.shape().str());
  ROADFUSION_CHECK(w.shape().rank() == 2,
                   "linear weight must be (Out, K), got " << w.shape().str());
  const int64_t k = x.shape().dim(1);
  const int64_t out_dim = w.shape().dim(0);
  ROADFUSION_CHECK(w.shape().dim(1) == k, "linear inner dims mismatch: "
                                              << x.shape().str() << " x "
                                              << w.shape().str() << "^T");
  const bool has_bias = b.defined();
  if (has_bias) {
    ROADFUSION_CHECK(b.value().numel() == out_dim, "linear bias size");
  }
  Tensor out = t::matmul_bt(x.value(), w.value());
  if (has_bias) {
    const int64_t batch = x.shape().dim(0);
    const float* pb = b.value().raw();
    float* po = out.raw();
    for (int64_t s = 0; s < batch; ++s) {
      for (int64_t o = 0; o < out_dim; ++o) {
        po[s * out_dim + o] += pb[o];
      }
    }
  }
  std::vector<Variable> parents = {x, w};
  if (has_bias) {
    parents.push_back(b);
  }
  auto backward = [has_bias, out_dim](Node& node) {
    Node& xn = *node.parents[0];
    Node& wn = *node.parents[1];
    if (xn.requires_grad) {
      xn.accumulate_grad(t::matmul(node.grad, wn.value));
    }
    if (wn.requires_grad) {
      wn.accumulate_grad(t::matmul_at(node.grad, xn.value));
    }
    if (has_bias) {
      Node& bn = *node.parents[2];
      if (bn.requires_grad) {
        Tensor db(bn.value.shape());
        const int64_t batch = node.grad.shape().dim(0);
        const float* g = node.grad.raw();
        float* pdb = db.raw();
        for (int64_t s = 0; s < batch; ++s) {
          for (int64_t o = 0; o < out_dim; ++o) {
            pdb[o] += g[s * out_dim + o];
          }
        }
        bn.accumulate_grad(db);
      }
    }
  };
  return make_op(std::move(out), std::move(parents), std::move(backward),
                 "linear");
}

Variable sobel_edge(const Variable& x, float eps) {
  ROADFUSION_CHECK(x.shape().rank() == 4,
                   "sobel_edge expects NCHW, got " << x.shape().str());
  auto gx = std::make_shared<Tensor>(kernels::depthwise3x3(x.value(), kSobelX));
  auto gy = std::make_shared<Tensor>(kernels::depthwise3x3(x.value(), kSobelY));
  auto edge = std::make_shared<Tensor>(x.shape());
  {
    const float* pgx = gx->raw();
    const float* pgy = gy->raw();
    float* pe = edge->raw();
    for (int64_t i = 0; i < edge->numel(); ++i) {
      pe[i] = std::sqrt(pgx[i] * pgx[i] + pgy[i] * pgy[i] + eps);
    }
  }
  Tensor out = *edge;
  return make_op(
      std::move(out), {x},
      [gx, gy, edge](Node& node) {
        Tensor dgx(node.grad.shape());
        Tensor dgy(node.grad.shape());
        const float* g = node.grad.raw();
        const float* pgx = gx->raw();
        const float* pgy = gy->raw();
        const float* pe = edge->raw();
        float* pdgx = dgx.raw();
        float* pdgy = dgy.raw();
        for (int64_t i = 0; i < node.grad.numel(); ++i) {
          const float inv = g[i] / pe[i];
          pdgx[i] = inv * pgx[i];
          pdgy[i] = inv * pgy[i];
        }
        Tensor dx = kernels::depthwise3x3_adjoint(dgx, kSobelX);
        t::axpy_inplace(dx, 1.0f,
                        kernels::depthwise3x3_adjoint(dgy, kSobelY));
        node.parents[0]->accumulate_grad(dx);
      },
      "sobel_edge");
}

Variable mean_all(const Variable& x) {
  const int64_t n = x.value().numel();
  return make_op(
      Tensor::scalar(x.value().mean()), {x},
      [n](Node& node) {
        const float g = node.grad.at(0) / static_cast<float>(n);
        node.parents[0]->accumulate_grad(
            Tensor::full(node.parents[0]->value.shape(), g));
      },
      "mean_all");
}

Variable sum_all(const Variable& x) {
  return make_op(
      Tensor::scalar(x.value().sum()), {x},
      [](Node& node) {
        const float g = node.grad.at(0);
        node.parents[0]->accumulate_grad(
            Tensor::full(node.parents[0]->value.shape(), g));
      },
      "sum_all");
}

Variable bce_with_logits(const Variable& logits, const Variable& targets) {
  check_same_shape(logits, targets, "bce_with_logits");
  ROADFUSION_CHECK(!targets.requires_grad(),
                   "bce_with_logits targets must not require grad");
  const float* pz = logits.value().raw();
  const float* pt = targets.value().raw();
  const int64_t n = logits.value().numel();
  double loss = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    const double z = pz[i];
    const double t_i = pt[i];
    loss += std::max(z, 0.0) - z * t_i + std::log1p(std::exp(-std::fabs(z)));
  }
  loss /= static_cast<double>(n);
  return make_op(
      Tensor::scalar(static_cast<float>(loss)), {logits, targets},
      [n](Node& node) {
        Node& zn = *node.parents[0];
        if (!zn.requires_grad) {
          return;
        }
        const Tensor& t_val = node.parents[1]->value;
        Tensor dz(zn.value.shape());
        const float g = node.grad.at(0) / static_cast<float>(n);
        const float* pz = zn.value.raw();
        const float* pt = t_val.raw();
        float* pdz = dz.raw();
        for (int64_t i = 0; i < n; ++i) {
          const float z = pz[i];
          const float s = z >= 0.0f ? 1.0f / (1.0f + std::exp(-z))
                                    : std::exp(z) / (1.0f + std::exp(z));
          pdz[i] = g * (s - pt[i]);
        }
        zn.accumulate_grad(dz);
      },
      "bce_with_logits");
}

Variable mse_loss(const Variable& a, const Variable& b) {
  check_same_shape(a, b, "mse_loss");
  const int64_t n = a.value().numel();
  return make_op(
      Tensor::scalar(static_cast<float>(t::mse(a.value(), b.value()))),
      {a, b},
      [n](Node& node) {
        Node& an = *node.parents[0];
        Node& bn = *node.parents[1];
        const float g = 2.0f * node.grad.at(0) / static_cast<float>(n);
        Tensor diff = t::sub(an.value, bn.value);
        if (an.requires_grad) {
          an.accumulate_grad(t::scale(diff, g));
        }
        if (bn.requires_grad) {
          bn.accumulate_grad(t::scale(diff, -g));
        }
      },
      "mse_loss");
}

}  // namespace roadfusion::autograd
