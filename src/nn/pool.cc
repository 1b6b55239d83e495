#include "nn/pool.h"

#include "common/parallel.h"
#include "nn/simd.h"

namespace deepcsi::nn {

void MaxPool2d::compute_forward(const float* x, std::size_t n_batch,
                                std::size_t ch, std::size_t hh, std::size_t ww,
                                float* out, std::size_t* argmax) const {
  const std::size_t oh = hh / kh_, ow = ww / kw_;
  std::size_t o_idx = 0;
  for (std::size_t n = 0; n < n_batch; ++n) {
    for (std::size_t c = 0; c < ch; ++c) {
      const std::size_t plane = (n * ch + c) * hh * ww;
      for (std::size_t ho = 0; ho < oh; ++ho) {
        for (std::size_t wo = 0; wo < ow; ++wo) {
          float best = -3.4e38f;
          std::size_t best_idx = 0;
          for (std::size_t i = 0; i < kh_; ++i) {
            for (std::size_t j = 0; j < kw_; ++j) {
              const std::size_t idx =
                  plane + (ho * kh_ + i) * ww + (wo * kw_ + j);
              const float v = x[idx];
              if (v > best) {
                best = v;
                best_idx = idx;
              }
            }
          }
          out[o_idx] = best;
          if (argmax != nullptr) argmax[o_idx] = best_idx;
          ++o_idx;
        }
      }
    }
  }
}

Tensor MaxPool2d::forward(const Tensor& x) {
  DEEPCSI_CHECK(x.rank() == 4);
  const std::size_t n_batch = x.dim(0), ch = x.dim(1), hh = x.dim(2),
                    ww = x.dim(3);
  const std::size_t oh = hh / kh_, ow = ww / kw_;
  DEEPCSI_CHECK_MSG(oh >= 1 && ow >= 1, "pool kernel larger than input");
  in_shape_ = x.shape();

  Tensor out({n_batch, ch, oh, ow});
  argmax_.assign(out.numel(), 0);
  compute_forward(x.data(), n_batch, ch, hh, ww, out.data(), argmax_.data());
  return out;
}

void MaxPool2d::plan_inference(InferencePlan& plan) const {
  DEEPCSI_CHECK(plan.in_shape.rank == 4);
  const std::size_t oh = plan.in_shape.dim(2) / kh_;
  const std::size_t ow = plan.in_shape.dim(3) / kw_;
  DEEPCSI_CHECK_MSG(oh >= 1 && ow >= 1, "pool kernel larger than input");
  plan.out_shape = {plan.in_shape.dim(0), plan.in_shape.dim(1), oh, ow};
}

void MaxPool2d::forward_into(const InferArgs& args) const {
  const std::size_t n_batch = args.x.dim(0), ch = args.x.dim(1),
                    hh = args.x.dim(2), ww = args.x.dim(3);
  // Serving fast path for the (1, 2) window the DeepCSI stack uses:
  // SIMD-dispatched pairwise max, fanned out over the pool. Rows are
  // independent and the kernel's comparison semantics match the generic
  // loop exactly, so output values are identical (see nn/simd.h) and
  // bit-identical across DEEPCSI_THREADS.
  if (kh_ == 1 && kw_ == 2) {
    const std::size_t ow = ww / 2;
    const std::size_t rows = n_batch * ch * hh;
    const simd::SimdOps& ops = simd::ops();
    const float* x = args.x.data();
    float* y = args.y.data();
    common::parallel_for(0, rows, common::grain_for(ww),
                         [&](std::size_t lo, std::size_t hi) {
                           for (std::size_t r = lo; r < hi; ++r)
                             ops.max_pool_1x2(x + r * ww, y + r * ow, ow);
                         });
    return;
  }
  compute_forward(args.x.data(), n_batch, ch, hh, ww, args.y.data(),
                  /*argmax=*/nullptr);
}

Tensor MaxPool2d::backward(const Tensor& grad_out) {
  DEEPCSI_CHECK(!in_shape_.empty());
  DEEPCSI_CHECK(grad_out.numel() == argmax_.size());
  Tensor grad_in(in_shape_);
  for (std::size_t i = 0; i < argmax_.size(); ++i)
    grad_in[argmax_[i]] += grad_out[i];
  return grad_in;
}

}  // namespace deepcsi::nn
