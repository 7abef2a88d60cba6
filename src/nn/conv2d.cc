#include "nn/conv2d.h"

#include <cmath>

#include "common/thread_pool.h"
#include "nn/batch_split.h"
#include "nn/im2col.h"
#include "tensor/gemm.h"
#include "tensor/tensor_ops.h"

namespace zeus::nn {

Conv2d::Conv2d(int in_channels, int out_channels, const Options& opts,
               common::Rng* rng)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      opts_(opts),
      weight_({out_channels, in_channels, opts.kernel[0], opts.kernel[1]}),
      bias_({out_channels}) {
  int fan_in = in_channels * opts.kernel[0] * opts.kernel[1];
  float bound = 1.0f / std::sqrt(static_cast<float>(fan_in));
  tensor::FillUniform(&weight_.value, rng, bound);
  tensor::FillUniform(&bias_.value, rng, bound);
}

tensor::Tensor Conv2d::Forward(const tensor::Tensor& input, bool train) {
  ZEUS_CHECK(input.ndim() == 4 && input.dim(1) == in_channels_);
  if (train) cached_input_ = input;
  if (compute_context().path == tensor::ComputePath::kReference) {
    // Any previously cached panels no longer match cached_input_.
    if (train) cached_cols_ = tensor::Tensor();
    return ForwardReference(input);
  }
  return ForwardGemm(input, train);
}

tensor::Tensor Conv2d::Backward(const tensor::Tensor& grad_output) {
  ZEUS_CHECK(!cached_input_.empty());
  return compute_context().path == tensor::ComputePath::kReference
             ? BackwardReference(grad_output)
             : BackwardGemm(grad_output);
}

tensor::Tensor Conv2d::ForwardGemm(const tensor::Tensor& input, bool train) {
  const int n = input.dim(0), ci = in_channels_, hi = input.dim(2),
            wi = input.dim(3);
  const auto [kh, kw] = opts_.kernel;
  const auto [sh, sw] = opts_.stride;
  const auto [ph, pw] = opts_.padding;
  const int ho = OutDim(hi, kh, sh, ph);
  const int wo = OutDim(wi, kw, sw, pw);
  ZEUS_CHECK(ho > 0 && wo > 0);
  tensor::Tensor out({n, out_channels_, ho, wo});

  const tensor::ComputeContext& ctx = compute_context();
  const int kdim = ci * kh * kw;       // GEMM depth
  const int spatial = ho * wo;         // GEMM columns
  const size_t x_nstride = static_cast<size_t>(ci) * hi * wi;
  const size_t y_nstride = static_cast<size_t>(out_channels_) * spatial;
  const size_t col_stride = static_cast<size_t>(kdim) * spatial;
  // Training-mode lowering writes straight into the persistent panel buffer
  // so Backward can skip the repack; eval uses per-task scratch panels and
  // leaves members untouched (eval forwards stay thread-safe).
  const bool keep = train && opts_.cache_lowering;
  if (keep) {
    cached_cols_ = tensor::Tensor({n, kdim, spatial});
  } else if (train) {
    cached_cols_ = tensor::Tensor();
  }

  // Int8 inference only: training forwards stay fp32 so the cached
  // activations backward differentiates are the ones that produced the loss.
  const bool use_int8 = !train && ctx.path == tensor::ComputePath::kInt8;
  tensor::Int8Panels wq;
  if (use_int8) {
    tensor::QuantizePackA(weight_.value.data(), kdim, out_channels_, kdim,
                          &wq, &ctx);
  }

  // Per image: Y {Co, ho*wo} = W {Co, Ci*kh*kw} @ col, then add bias.
  // Images are independent, so any batch split is bit-exact.
  auto run_range = [&](int b_lo, int b_hi) {
    tensor::Tensor scratch;
    if (!keep) scratch = tensor::Tensor({kdim, spatial});
    tensor::Int8Panels colq;
    for (int b = b_lo; b < b_hi; ++b) {
      float* colp =
          keep ? cached_cols_.data() + b * col_stride : scratch.data();
      Im2Col(input.data() + b * x_nstride, ci, hi, wi, kh, kw, sh, sw, ph, pw,
             ho, wo, colp);
      float* y = out.data() + b * y_nstride;
      if (use_int8) {
        tensor::QuantizePackB(colp, spatial, false, kdim, spatial, &colq,
                              &ctx);
        tensor::QuantizedGemm(out_channels_, spatial, kdim, wq, colq, y,
                              spatial, &ctx);
      } else {
        tensor::Sgemm(false, false, out_channels_, spatial, kdim, 1.0f,
                      weight_.value.data(), kdim, colp, spatial, 0.0f, y,
                      spatial, &ctx);
      }
      for (int oc = 0; oc < out_channels_; ++oc) {
        float* row = y + static_cast<size_t>(oc) * spatial;
        const float bv = bias_.value[oc];
        for (int s = 0; s < spatial; ++s) row[s] += bv;
      }
    }
  };
  const size_t per_image_macs =
      static_cast<size_t>(out_channels_) * spatial * kdim;
  const int tasks = BatchSplitTasks(ctx, n, per_image_macs);
  common::ParallelFor(ctx.pool, tasks, [&](int t) {
    run_range(BatchSplitBegin(n, tasks, t), BatchSplitEnd(n, tasks, t));
  });
  return out;
}

tensor::Tensor Conv2d::BackwardGemm(const tensor::Tensor& grad_output) {
  const tensor::Tensor& input = cached_input_;
  const int n = input.dim(0), ci = in_channels_, hi = input.dim(2),
            wi = input.dim(3);
  const auto [kh, kw] = opts_.kernel;
  const auto [sh, sw] = opts_.stride;
  const auto [ph, pw] = opts_.padding;
  const int ho = grad_output.dim(2), wo = grad_output.dim(3);

  const tensor::ComputeContext& ctx = compute_context();
  const int kdim = ci * kh * kw;
  const int spatial = ho * wo;
  const size_t x_nstride = static_cast<size_t>(ci) * hi * wi;
  const size_t y_nstride = static_cast<size_t>(out_channels_) * spatial;
  const size_t col_stride = static_cast<size_t>(kdim) * spatial;
  // Reuse the forward pass's im2col panels when they are present (they are
  // refreshed or cleared by every training-mode forward, so a non-empty
  // buffer always matches cached_input_); otherwise re-lower per image.
  const bool have_cols = !cached_cols_.empty() && cached_cols_.dim(0) == n &&
                         cached_cols_.dim(1) == kdim &&
                         cached_cols_.dim(2) == spatial;
  tensor::Tensor grad_input(input.shape());
  // Weight/bias gradients go through per-image partial buffers reduced in
  // ascending-b order below — even when the loop runs serially — so the
  // accumulation structure (and hence the bits) never depends on how the
  // minibatch is split across workers. grad_input regions are disjoint.
  const int wsize = static_cast<int>(weight_.grad.size());
  tensor::Tensor dw_part({n, wsize});
  tensor::Tensor db_part({n, out_channels_});

  auto run_range = [&](int b_lo, int b_hi) {
    tensor::Tensor col;
    if (!have_cols) col = tensor::Tensor({kdim, spatial});
    tensor::Tensor dcol({kdim, spatial});
    for (int b = b_lo; b < b_hi; ++b) {
      const float* dy = grad_output.data() + b * y_nstride;
      // db_part[b] = row sums of dY.
      float* db = db_part.data() + static_cast<size_t>(b) * out_channels_;
      for (int oc = 0; oc < out_channels_; ++oc) {
        const float* row = dy + static_cast<size_t>(oc) * spatial;
        float s = 0.0f;
        for (int i = 0; i < spatial; ++i) s += row[i];
        db[oc] = s;
      }
      // dw_part[b] {Co, K} = dY {Co, S} @ col^T.
      const float* colp;
      if (have_cols) {
        colp = cached_cols_.data() + b * col_stride;
      } else {
        Im2Col(input.data() + b * x_nstride, ci, hi, wi, kh, kw, sh, sw, ph,
               pw, ho, wo, col.data());
        colp = col.data();
      }
      tensor::Sgemm(false, true, out_channels_, kdim, spatial, 1.0f, dy,
                    spatial, colp, spatial, 0.0f,
                    dw_part.data() + static_cast<size_t>(b) * wsize, kdim,
                    &ctx);
      // dcol {K, S} = W^T @ dY, scattered back to image layout.
      tensor::Sgemm(true, false, kdim, spatial, out_channels_, 1.0f,
                    weight_.value.data(), kdim, dy, spatial, 0.0f,
                    dcol.data(), spatial, &ctx);
      Col2ImAdd(dcol.data(), ci, hi, wi, kh, kw, sh, sw, ph, pw, ho, wo,
                grad_input.data() + b * x_nstride);
    }
  };
  const size_t per_image_macs =
      2 * static_cast<size_t>(out_channels_) * spatial * kdim;
  const int tasks = BatchSplitTasks(ctx, n, per_image_macs);
  common::ParallelFor(ctx.pool, tasks, [&](int t) {
    run_range(BatchSplitBegin(n, tasks, t), BatchSplitEnd(n, tasks, t));
  });

  float* dw = weight_.grad.data();
  float* db = bias_.grad.data();
  for (int b = 0; b < n; ++b) {
    const float* wp = dw_part.data() + static_cast<size_t>(b) * wsize;
    for (int i = 0; i < wsize; ++i) dw[i] += wp[i];
    const float* bp = db_part.data() + static_cast<size_t>(b) * out_channels_;
    for (int oc = 0; oc < out_channels_; ++oc) db[oc] += bp[oc];
  }
  return grad_input;
}

tensor::Tensor Conv2d::ForwardReference(const tensor::Tensor& input) {
  const int n = input.dim(0), ci = in_channels_, hi = input.dim(2),
            wi = input.dim(3);
  const auto [kh, kw] = opts_.kernel;
  const auto [sh, sw] = opts_.stride;
  const auto [ph, pw] = opts_.padding;
  const int ho = OutDim(hi, kh, sh, ph);
  const int wo = OutDim(wi, kw, sw, pw);
  ZEUS_CHECK(ho > 0 && wo > 0);
  tensor::Tensor out({n, out_channels_, ho, wo});

  const float* x = input.data();
  const float* w = weight_.value.data();
  float* y = out.data();
  const size_t x_cstride = static_cast<size_t>(hi) * wi;
  const size_t x_nstride = x_cstride * ci;
  const size_t y_cstride = static_cast<size_t>(ho) * wo;
  const size_t y_nstride = y_cstride * out_channels_;
  const size_t w_cstride = static_cast<size_t>(kh) * kw;
  const size_t w_ostride = w_cstride * ci;

  for (int b = 0; b < n; ++b) {
    for (int oc = 0; oc < out_channels_; ++oc) {
      float* yplane = y + b * y_nstride + oc * y_cstride;
      const float bias_v = bias_.value[oc];
      for (int oh = 0; oh < ho; ++oh) {
        const int h0 = oh * sh - ph;
        for (int ow = 0; ow < wo; ++ow) {
          const int w0 = ow * sw - pw;
          double acc = bias_v;
          for (int ic = 0; ic < ci; ++ic) {
            const float* xc = x + b * x_nstride + ic * x_cstride;
            const float* wc = w + oc * w_ostride + ic * w_cstride;
            for (int dh = 0; dh < kh; ++dh) {
              const int hh = h0 + dh;
              if (hh < 0 || hh >= hi) continue;
              const float* xrow = xc + static_cast<size_t>(hh) * wi;
              const float* wrow = wc + static_cast<size_t>(dh) * kw;
              for (int dw = 0; dw < kw; ++dw) {
                const int ww = w0 + dw;
                if (ww < 0 || ww >= wi) continue;
                acc += static_cast<double>(xrow[ww]) * wrow[dw];
              }
            }
          }
          yplane[static_cast<size_t>(oh) * wo + ow] = static_cast<float>(acc);
        }
      }
    }
  }
  return out;
}

tensor::Tensor Conv2d::BackwardReference(const tensor::Tensor& grad_output) {
  const tensor::Tensor& input = cached_input_;
  const int n = input.dim(0), ci = in_channels_, hi = input.dim(2),
            wi = input.dim(3);
  const auto [kh, kw] = opts_.kernel;
  const auto [sh, sw] = opts_.stride;
  const auto [ph, pw] = opts_.padding;
  const int ho = grad_output.dim(2), wo = grad_output.dim(3);

  tensor::Tensor grad_input(input.shape());
  const float* x = input.data();
  const float* w = weight_.value.data();
  const float* dy = grad_output.data();
  float* dx = grad_input.data();
  float* dw_ = weight_.grad.data();
  float* db = bias_.grad.data();

  const size_t x_cstride = static_cast<size_t>(hi) * wi;
  const size_t x_nstride = x_cstride * ci;
  const size_t y_cstride = static_cast<size_t>(ho) * wo;
  const size_t y_nstride = y_cstride * out_channels_;
  const size_t w_cstride = static_cast<size_t>(kh) * kw;
  const size_t w_ostride = w_cstride * ci;

  for (int b = 0; b < n; ++b) {
    for (int oc = 0; oc < out_channels_; ++oc) {
      const float* dyplane = dy + b * y_nstride + oc * y_cstride;
      for (int oh = 0; oh < ho; ++oh) {
        const int h0 = oh * sh - ph;
        for (int ow = 0; ow < wo; ++ow) {
          const float g = dyplane[static_cast<size_t>(oh) * wo + ow];
          if (g == 0.0f) continue;
          const int w0 = ow * sw - pw;
          db[oc] += g;
          for (int ic = 0; ic < ci; ++ic) {
            const float* xc = x + b * x_nstride + ic * x_cstride;
            float* dxc = dx + b * x_nstride + ic * x_cstride;
            const float* wc = w + oc * w_ostride + ic * w_cstride;
            float* dwc = dw_ + oc * w_ostride + ic * w_cstride;
            for (int dh = 0; dh < kh; ++dh) {
              const int hh = h0 + dh;
              if (hh < 0 || hh >= hi) continue;
              const size_t xoff = static_cast<size_t>(hh) * wi;
              const size_t woff = static_cast<size_t>(dh) * kw;
              for (int dwk = 0; dwk < kw; ++dwk) {
                const int ww = w0 + dwk;
                if (ww < 0 || ww >= wi) continue;
                dwc[woff + dwk] += g * xc[xoff + ww];
                dxc[xoff + ww] += g * wc[woff + dwk];
              }
            }
          }
        }
      }
    }
  }
  return grad_input;
}

}  // namespace zeus::nn
