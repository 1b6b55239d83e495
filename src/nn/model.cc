#include "nn/model.h"

#include <utility>

namespace deepcsi::nn {

Tensor Sequential::forward(const Tensor& x) {
  Tensor cur = x;
  for (auto& layer : layers_) cur = layer->forward(cur);
  return cur;
}

Tensor Sequential::backward(const Tensor& grad_out) {
  Tensor cur = grad_out;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it)
    cur = (*it)->backward(cur);
  return cur;
}

std::vector<Param*> Sequential::params() {
  std::vector<Param*> out;
  for (auto& layer : layers_)
    for (Param* p : layer->params()) out.push_back(p);
  return out;
}

std::vector<const Param*> Sequential::params() const {
  std::vector<const Param*> out;
  for (const auto& layer : layers_)
    for (const Param* p : std::as_const(*layer).params()) out.push_back(p);
  return out;
}

void Sequential::zero_grad() {
  for (Param* p : params()) p->grad.zero();
}

std::size_t Sequential::num_trainable() const {
  std::size_t n = 0;
  for (const Param* p : params()) n += p->numel();
  return n;
}

}  // namespace deepcsi::nn
