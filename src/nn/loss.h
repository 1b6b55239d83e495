// Softmax + cross-entropy loss head (combined for numerical stability).
#pragma once

#include <vector>

#include "tensor/tensor.h"

namespace deepcsi::nn {

using tensor::Tensor;

struct LossResult {
  double loss = 0.0;               // mean cross-entropy over the batch
  Tensor grad_logits;              // d loss / d logits, [N, K]
  Tensor probs;                    // softmax outputs, [N, K]
  std::vector<int> predictions;    // argmax per row
};

// logits: [N, K]; labels: N entries in [0, K).
LossResult softmax_cross_entropy(const Tensor& logits,
                                 const std::vector<int>& labels);

// Inference-only softmax (no labels required).
Tensor softmax(const Tensor& logits);

// The verdict on one logits row: first-max argmax of softmax(row) and its
// probability, bit-identical to softmax() including ties (rounding can
// map distinct logits to one probability; the first wins). nn::evaluate
// and the serving Authenticator share it.
struct RowPrediction {
  int label = -1;
  float probability = 0.0f;
};
RowPrediction predict_row(const float* row, std::size_t k);

}  // namespace deepcsi::nn
