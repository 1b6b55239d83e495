// Fully-connected layer over [N, F] tensors.
#pragma once

#include <random>

#include "nn/layer.h"
#include "nn/quantize.h"

namespace deepcsi::nn {

class Dense final : public Layer {
 public:
  Dense(std::size_t in_features, std::size_t out_features,
        std::mt19937_64& rng);

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  void plan_inference(InferencePlan& plan) const override;
  void forward_into(const InferArgs& args) const override;
  std::vector<Param*> params() override { return {&weight_, &bias_}; }
  std::vector<const Param*> params() const override {
    return {&weight_, &bias_};
  }
  std::string name() const override { return "dense"; }

  // Attach calibrated int8 weights; same contract as Conv2d::prepare_int8
  // (rebuild any InferenceContexts planned before this).
  void prepare_int8(float input_absmax);
  bool has_int8() const { return qw_.valid(); }

 private:
  void compute_forward(const float* x, std::size_t n_batch, float* out) const;

  std::size_t in_features_, out_features_;
  Param weight_;  // [out, in]
  Param bias_;    // [out]
  QuantizedWeights qw_;  // empty until prepare_int8
  Tensor cached_x_;
};

}  // namespace deepcsi::nn
