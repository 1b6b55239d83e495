// Alpha-dropout (Klambauer et al.): the dropout variant that preserves the
// self-normalizing property of SELU networks. Dropped units are set to
// alpha' = -lambda * alpha and the output is affinely rescaled so mean and
// variance are unchanged in expectation:
//
//   a = (keep * (1 + drop * alpha'^2))^{-1/2},   b = -a * drop * alpha'
//   y = a * (mask ? x : alpha') + b
#pragma once

#include <random>

#include "nn/activations.h"
#include "nn/layer.h"

namespace deepcsi::nn {

class AlphaDropout final : public Layer {
 public:
  AlphaDropout(float drop_rate, std::uint64_t seed);

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  void plan_inference(InferencePlan& plan) const override;
  void forward_into(const InferArgs& args) const override;
  std::string name() const override { return "alpha_dropout"; }

 private:
  float drop_rate_;
  float a_, b_;
  std::mt19937_64 rng_;
  std::vector<std::uint8_t> mask_;  // 1 = kept
};

}  // namespace deepcsi::nn
