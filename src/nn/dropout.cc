#include "nn/dropout.h"

#include <algorithm>
#include <cmath>

namespace deepcsi::nn {

AlphaDropout::AlphaDropout(float drop_rate, std::uint64_t seed)
    : drop_rate_(drop_rate), rng_(seed) {
  DEEPCSI_CHECK_MSG(drop_rate >= 0.0f && drop_rate < 1.0f,
                    "drop_rate must be in [0, 1)");
  const float alpha_p = -kSeluLambda * kSeluAlpha;
  const float keep = 1.0f - drop_rate_;
  a_ = 1.0f / std::sqrt(keep * (1.0f + drop_rate_ * alpha_p * alpha_p));
  b_ = -a_ * drop_rate_ * alpha_p;
}

Tensor AlphaDropout::forward(const Tensor& x) {
  if (drop_rate_ == 0.0f) return x;

  const float alpha_p = -kSeluLambda * kSeluAlpha;
  Tensor out = x;
  mask_.assign(x.numel(), 1);
  std::bernoulli_distribution drop(drop_rate_);
  float* __restrict d = out.data();
  for (std::size_t i = 0; i < out.numel(); ++i) {
    if (drop(rng_)) {
      mask_[i] = 0;
      d[i] = alpha_p;
    }
    d[i] = a_ * d[i] + b_;
  }
  return out;
}

void AlphaDropout::plan_inference(InferencePlan& plan) const {
  plan.out_shape = plan.in_shape;
}

void AlphaDropout::forward_into(const InferArgs& args) const {
  // Inference-mode dropout is the identity.
  std::copy(args.x.data(), args.x.data() + args.x.numel(), args.y.data());
}

Tensor AlphaDropout::backward(const Tensor& grad_out) {
  if (drop_rate_ == 0.0f) return grad_out;
  DEEPCSI_CHECK(mask_.size() == grad_out.numel());
  Tensor grad_in = grad_out;
  float* __restrict g = grad_in.data();
  for (std::size_t i = 0; i < grad_in.numel(); ++i)
    g[i] = mask_[i] != 0 ? g[i] * a_ : 0.0f;
  return grad_in;
}

}  // namespace deepcsi::nn
