#include "nn/quantize.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>

#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/infer.h"

namespace deepcsi::nn {

QuantizedWeights quantize_weights(const float* w, std::size_t rows,
                                  std::size_t k, float input_absmax) {
  QuantizedWeights q;
  q.rows = rows;
  q.k = k;
  q.ko = (k + 7) / 8;
  const std::size_t lda = 8 * q.ko;
  q.wq.assign(rows * lda, 0);
  q.dequant.assign(rows, 0.0f);
  q.corr.assign(rows, 0);
  const float act_scale = input_absmax > 0.0f ? input_absmax / 127.0f : 1.0f;
  q.act_inv_scale = 1.0f / act_scale;
  for (std::size_t r = 0; r < rows; ++r) {
    const float* row = w + r * k;
    float absmax = 0.0f;
    for (std::size_t kk = 0; kk < k; ++kk)
      absmax = std::max(absmax, std::fabs(row[kk]));
    if (absmax <= 0.0f) continue;  // all-zero row: wq 0, dequant 0 -> bias
    const float w_scale = absmax / 31.0f;
    const float w_inv = 31.0f / absmax;
    std::int8_t* qrow = q.wq.data() + r * lda;
    std::int32_t row_sum = 0;
    for (std::size_t kk = 0; kk < k; ++kk) {
      long v = std::lrintf(row[kk] * w_inv);
      if (v < -31) v = -31;
      if (v > 31) v = 31;
      qrow[kk] = static_cast<std::int8_t>(v);
      row_sum += static_cast<std::int32_t>(v);
    }
    q.dequant[r] = act_scale * w_scale;
    q.corr[r] = 128 * row_sum;
  }
  return q;
}

namespace {

// Calibration measures a strided subsample of at most kCalibrationRows
// rows, kCalibrationChunk per forward (a running max is chunking-free).
constexpr std::size_t kCalibrationRows = 512;
constexpr std::size_t kCalibrationChunk = 64;

}  // namespace

std::vector<CalibrationEntry> calibrate_input_ranges(
    const Sequential& model, const tensor::Tensor& samples) {
  std::vector<CalibrationEntry> entries;
  for (std::size_t i = 0; i < model.num_layers(); ++i) {
    const auto* conv = dynamic_cast<const Conv2d*>(&model.layer(i));
    const auto* dense = dynamic_cast<const Dense*>(&model.layer(i));
    if (conv == nullptr && dense == nullptr) continue;
    DEEPCSI_CHECK_MSG(conv != nullptr ? !conv->has_int8() : !dense->has_int8(),
                      "int8 calibration needs the fp32 model, but layer "
                          << i << " already carries int8 weights");
    entries.push_back({static_cast<std::uint32_t>(i), 0.0f});
  }
  const std::vector<std::size_t>& shape = samples.shape();
  const std::size_t n = shape.empty() ? 0 : shape[0];
  if (n == 0) return entries;

  const std::size_t stride = (n + kCalibrationRows - 1) / kCalibrationRows;
  const std::size_t picked = (n + stride - 1) / stride;
  const tensor::StaticShape sample =
      tensor::StaticShape::from({shape.begin() + 1, shape.end()});
  InferenceContext ctx(model, sample, std::min(picked, kCalibrationChunk));
  const std::size_t row = ctx.sample_numel();
  const InferenceContext::InputObserver observe =
      [&](std::size_t layer, tensor::ConstTensorView x) {
        for (CalibrationEntry& e : entries) {
          if (e.layer_index != layer) continue;
          for (std::size_t i = 0; i < x.numel(); ++i)
            e.input_absmax = std::max(e.input_absmax, std::abs(x.data()[i]));
        }
      };
  for (std::size_t at = 0; at < picked; at += ctx.max_batch()) {
    const std::size_t rows = std::min(ctx.max_batch(), picked - at);
    for (std::size_t r = 0; r < rows; ++r)
      std::memcpy(ctx.input() + r * row,
                  samples.data() + (at + r) * stride * row,
                  row * sizeof(float));
    ctx.run(rows, &observe);
  }
  return entries;
}

void apply_calibration(Sequential& model,
                       const std::vector<CalibrationEntry>& entries) {
  for (const CalibrationEntry& e : entries) {
    if (e.layer_index >= model.num_layers())
      throw std::runtime_error(
          "int8 calibration: layer index " + std::to_string(e.layer_index) +
          " out of range (model has " + std::to_string(model.num_layers()) +
          " layers) — calibration sidecar does not match this model");
    Layer& layer = model.layer(e.layer_index);
    if (auto* conv = dynamic_cast<Conv2d*>(&layer)) {
      conv->prepare_int8(e.input_absmax);
    } else if (auto* dense = dynamic_cast<Dense*>(&layer)) {
      dense->prepare_int8(e.input_absmax);
    } else {
      throw std::runtime_error(
          "int8 calibration: layer " + std::to_string(e.layer_index) + " is " +
          layer.name() +
          ", expected conv2d/dense — calibration sidecar does not match this "
          "model");
    }
  }
}

}  // namespace deepcsi::nn
