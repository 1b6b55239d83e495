#include "nn/loss.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace deepcsi::nn {

Tensor softmax(const Tensor& logits) {
  DEEPCSI_CHECK(logits.rank() == 2);
  const std::size_t n = logits.dim(0), k = logits.dim(1);
  Tensor probs({n, k});
  for (std::size_t r = 0; r < n; ++r) {
    const float* __restrict in = logits.data() + r * k;
    float* __restrict out = probs.data() + r * k;
    const float mx = *std::max_element(in, in + k);
    float denom = 0.0f;
    for (std::size_t c = 0; c < k; ++c) {
      out[c] = std::exp(in[c] - mx);
      denom += out[c];
    }
    for (std::size_t c = 0; c < k; ++c) out[c] /= denom;
  }
  return probs;
}

RowPrediction predict_row(const float* __restrict row, std::size_t k) {
  const float mx = *std::max_element(row, row + k);
  float denom = 0.0f;
  for (std::size_t c = 0; c < k; ++c) denom += std::exp(row[c] - mx);
  std::size_t best = 0;  // exp is deterministic: same bits as softmax()
  float best_p = std::exp(row[0] - mx) / denom;
  for (std::size_t c = 1; c < k; ++c) {
    const float p = std::exp(row[c] - mx) / denom;
    if (p > best_p) {
      best_p = p;
      best = c;
    }
  }
  return {static_cast<int>(best), best_p};
}

LossResult softmax_cross_entropy(const Tensor& logits,
                                 const std::vector<int>& labels) {
  DEEPCSI_CHECK(logits.rank() == 2);
  const std::size_t n = logits.dim(0), k = logits.dim(1);
  DEEPCSI_CHECK_MSG(labels.size() == n, "one label per row required");

  LossResult res;
  res.probs = softmax(logits);
  res.grad_logits = res.probs;
  res.predictions.resize(n);

  double loss = 0.0;
  const float inv_n = 1.0f / static_cast<float>(n);
  for (std::size_t r = 0; r < n; ++r) {
    const int y = labels[r];
    DEEPCSI_CHECK_MSG(y >= 0 && static_cast<std::size_t>(y) < k,
                      "label out of range");
    float* __restrict g = res.grad_logits.data() + r * k;
    const float* __restrict p = res.probs.data() + r * k;
    loss -= std::log(std::max(p[static_cast<std::size_t>(y)], 1e-12f));
    res.predictions[r] = static_cast<int>(
        std::max_element(p, p + k) - p);
    g[static_cast<std::size_t>(y)] -= 1.0f;
    for (std::size_t c = 0; c < k; ++c) g[c] *= inv_n;
  }
  res.loss = loss / static_cast<double>(n);
  return res;
}

}  // namespace deepcsi::nn
