#include "nn/activations.h"

#include <algorithm>
#include <cmath>

#include "common/parallel.h"
#include "nn/simd.h"

namespace deepcsi::nn {
namespace {

// Elementwise SELU, shared by both forward paths. Dispatches to the
// active SIMD backend and fans out over the thread pool like the GEMMs it
// sits between: the backend kernel is a pure per-element function, so
// chunk boundaries (and therefore DEEPCSI_THREADS) cannot change a single
// output bit, and the result matches the fused conv->bias->SELU epilogue
// exactly.
void selu_apply(const float* x, float* y, std::size_t n) {
  const simd::SimdOps& ops = simd::ops();
  common::parallel_for(0, n, common::grain_for(4),
                       [&](std::size_t lo, std::size_t hi) {
                         ops.selu(x + lo, y + lo, hi - lo);
                       });
}

}  // namespace

Tensor Selu::forward(const Tensor& x) {
  cached_x_ = x;
  Tensor out = x;
  selu_apply(x.data(), out.data(), out.numel());
  return out;
}

void Selu::plan_inference(InferencePlan& plan) const {
  plan.out_shape = plan.in_shape;
}

void Selu::forward_into(const InferArgs& args) const {
  selu_apply(args.x.data(), args.y.data(), args.x.numel());
}

Tensor Selu::backward(const Tensor& grad_out) {
  DEEPCSI_CHECK(!cached_x_.empty());
  DEEPCSI_CHECK(grad_out.same_shape(cached_x_));
  Tensor grad_in = grad_out;
  float* __restrict g = grad_in.data();
  const float* __restrict x = cached_x_.data();
  const std::size_t n = grad_in.numel();
  for (std::size_t i = 0; i < n; ++i) {
    const float v = x[i];
    g[i] *= v > 0.0f ? kSeluLambda : kSeluLambda * kSeluAlpha * std::exp(v);
  }
  return grad_in;
}

Tensor Flatten::forward(const Tensor& x) {
  DEEPCSI_CHECK(x.rank() >= 2);
  cached_shape_ = x.shape();
  return x.reshaped({x.dim(0), x.numel() / x.dim(0)});
}

Tensor Flatten::backward(const Tensor& grad_out) {
  DEEPCSI_CHECK(!cached_shape_.empty());
  return grad_out.reshaped(cached_shape_);
}

void Flatten::plan_inference(InferencePlan& plan) const {
  DEEPCSI_CHECK(plan.in_shape.rank >= 2);
  plan.out_shape = {plan.in_shape.dim(0), plan.in_shape.sample_numel()};
}

void Flatten::forward_into(const InferArgs& args) const {
  // Pure reshape: same contiguous elements, new geometry.
  std::copy(args.x.data(), args.x.data() + args.x.numel(), args.y.data());
}

}  // namespace deepcsi::nn
