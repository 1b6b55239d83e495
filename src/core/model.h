// The DeepCSI classifier architecture (Sec. III-C / Fig. 4):
//
//   N_conv x [Conv2d(1, kw) 'same' -> SELU -> MaxPool(1, 2)]
//   -> spatial attention (with skip) -> flatten
//   -> N_dense x [Dense -> SELU -> AlphaDropout]
//   -> Dense(num_classes) (softmax applied in the loss head)
//
// With the paper's hyper-parameters (5 conv layers of 128 filters, kernels
// (1,7)x3 / (1,5) / (1,3), dense 128 and 64, dropout 0.5 / 0.2) and the
// full 234-sub-carrier, 3-antenna input, the network has exactly 489,301
// trainable parameters — asserted by the test suite.
#pragma once

#include <cstdint>
#include <vector>

#include "nn/model.h"

namespace deepcsi::core {

struct ModelConfig {
  int conv_layers = 5;
  int filters = 128;
  // Kernel widths per conv layer; padded/truncated by default_kernels().
  std::vector<int> kernel_widths = {7, 7, 7, 5, 3};
  int attention_kernel = 5;
  std::vector<int> dense = {128, 64};
  std::vector<float> dropout = {0.5f, 0.2f};
  std::uint64_t init_seed = 1234;
  bool operator==(const ModelConfig&) const = default;
};

// Kernel-width schedule used by the paper, generalized to n layers: all
// (1,7) except the final two, which shrink to (1,5) and (1,3).
std::vector<int> default_kernels(int conv_layers);

ModelConfig paper_model_config();

// CI-scale variant: 3 conv layers x 32 filters, dense {64, 32}. Identical
// code path, smaller tensors.
ModelConfig quick_model_config();

// Builds the network for an input of shape [N, in_channels, 1, width].
nn::Sequential build_deepcsi_model(int in_channels, int width,
                                   int num_classes, const ModelConfig& cfg);

}  // namespace deepcsi::core
