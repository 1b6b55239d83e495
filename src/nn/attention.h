// Spatial attention block (inspired by CBAM's spatial attention module,
// Woo et al. ECCV 2018), as described in Section III-C of the paper:
//
//   max/mean over the channel axis -> concat (2 maps) -> conv (1x5, same)
//   -> sigmoid -> weights w; output = x + x (.) w  (skip connection).
//
// The attention lets the classifier focus on the sub-carrier regions where
// the fingerprint is most informative.
#pragma once

#include <random>

#include "nn/conv2d.h"
#include "nn/layer.h"

namespace deepcsi::nn {

class SpatialAttention final : public Layer {
 public:
  explicit SpatialAttention(std::mt19937_64& rng, std::size_t kernel_w = 5);

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  void plan_inference(InferencePlan& plan) const override;
  void forward_into(const InferArgs& args) const override;
  std::vector<Param*> params() override { return conv_.params(); }
  std::vector<const Param*> params() const override { return conv_.params(); }
  std::string name() const override { return "spatial_attention"; }

 private:
  // Channel-wise max/mean maps shared by both forward paths; records the
  // max channel only when the training path needs it for backward.
  void compute_maps(const float* x, std::size_t n_batch, std::size_t ch,
                    std::size_t hh, std::size_t ww, float* maps,
                    std::size_t* argmax) const;

  Conv2d conv_;  // 2 -> 1 channels
  Tensor cached_x_;
  Tensor cached_w_;                  // sigmoid output, [N,1,H,W]
  std::vector<std::size_t> argmax_;  // channel index of the max map
};

}  // namespace deepcsi::nn
