// Sequential model container.
#pragma once

#include <memory>
#include <vector>

#include "nn/layer.h"

namespace deepcsi::nn {

class Sequential {
 public:
  Sequential() = default;
  Sequential(Sequential&&) = default;
  Sequential& operator=(Sequential&&) = default;

  template <typename L, typename... Args>
  L& emplace(Args&&... args) {
    auto layer = std::make_unique<L>(std::forward<Args>(args)...);
    L& ref = *layer;
    layers_.push_back(std::move(layer));
    return ref;
  }

  void add(LayerPtr layer) { layers_.push_back(std::move(layer)); }

  // Train-mode forward; inference runs through nn::InferenceContext.
  Tensor forward(const Tensor& x);
  // Backward through all layers; returns grad w.r.t. the model input.
  Tensor backward(const Tensor& grad_out);

  std::vector<Param*> params();
  std::vector<const Param*> params() const;
  void zero_grad();
  std::size_t num_trainable() const;
  std::size_t num_layers() const { return layers_.size(); }
  Layer& layer(std::size_t i) { return *layers_.at(i); }
  const Layer& layer(std::size_t i) const { return *layers_.at(i); }

 private:
  std::vector<LayerPtr> layers_;
};

}  // namespace deepcsi::nn
