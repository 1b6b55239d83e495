// Mini-batch training loop with the paper's validation protocol: the last
// 20% of the training data is held out for validation (Sec. IV-B); the
// weights with the best validation accuracy are restored at the end.
#pragma once

#include <cstdint>
#include <vector>

#include "nn/metrics.h"
#include "nn/model.h"

namespace deepcsi::nn {

struct LabeledSet {
  Tensor x;            // [N, ...]
  std::vector<int> y;  // N labels
  int num_classes = 0;

  std::size_t size() const { return y.size(); }
  bool empty() const { return y.empty(); }
};

// Concatenate two sets with identical feature shapes.
LabeledSet concat(const LabeledSet& a, const LabeledSet& b);

struct TrainConfig {
  int epochs = 20;
  int batch_size = 32;
  float lr = 1e-3f;
  double val_fraction = 0.2;  // tail of the provided training set
  std::uint64_t shuffle_seed = 1;
  bool verbose = false;
  bool restore_best = true;  // reload weights of the best validation epoch
  bool operator==(const TrainConfig&) const = default;
};

struct EpochStats {
  double train_loss = 0.0;
  double train_accuracy = 0.0;
  double val_accuracy = 0.0;
};

struct TrainResult {
  std::vector<EpochStats> epochs;
  double best_val_accuracy = 0.0;
};

TrainResult train_classifier(Sequential& model, const LabeledSet& train,
                             const TrainConfig& cfg);

// Accuracy of the classifier as served: one InferenceContext planned at
// batch_size (>= 1; it never changes a prediction) and predict_row.
ConfusionMatrix evaluate(const Sequential& model, const LabeledSet& test,
                         int batch_size = 64);

}  // namespace deepcsi::nn
