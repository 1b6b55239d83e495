#include "nn/trainer.h"

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <random>

#include "common/parallel.h"
#include "nn/infer.h"
#include "nn/loss.h"
#include "nn/optimizer.h"

namespace deepcsi::nn {
namespace {

Tensor gather_rows(const Tensor& x, const std::vector<std::size_t>& rows,
                   std::size_t begin, std::size_t end) {
  std::vector<std::size_t> shape = x.shape();
  shape[0] = end - begin;
  Tensor out(shape);
  const std::size_t row_elems = x.numel() / x.dim(0);
  common::parallel_for(
      begin, end, common::grain_for(row_elems),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i)
          std::copy(x.data() + rows[i] * row_elems,
                    x.data() + (rows[i] + 1) * row_elems,
                    out.data() + (i - begin) * row_elems);
      });
  return out;
}

std::vector<Tensor> snapshot(Sequential& model) {
  std::vector<Tensor> weights;
  for (Param* p : model.params()) weights.push_back(p->value);
  return weights;
}

void restore(Sequential& model, const std::vector<Tensor>& weights) {
  auto params = model.params();
  DEEPCSI_CHECK(params.size() == weights.size());
  for (std::size_t i = 0; i < params.size(); ++i)
    params[i]->value = weights[i];
}

}  // namespace

LabeledSet concat(const LabeledSet& a, const LabeledSet& b) {
  if (a.empty()) return b;
  if (b.empty()) return a;
  DEEPCSI_CHECK(a.num_classes == b.num_classes);
  DEEPCSI_CHECK(a.x.numel() / a.x.dim(0) == b.x.numel() / b.x.dim(0));
  std::vector<std::size_t> shape = a.x.shape();
  shape[0] = a.x.dim(0) + b.x.dim(0);
  LabeledSet out;
  out.num_classes = a.num_classes;
  out.x = Tensor(shape);
  std::copy(a.x.data(), a.x.data() + a.x.numel(), out.x.data());
  std::copy(b.x.data(), b.x.data() + b.x.numel(),
            out.x.data() + a.x.numel());
  out.y = a.y;
  out.y.insert(out.y.end(), b.y.begin(), b.y.end());
  return out;
}

TrainResult train_classifier(Sequential& model, const LabeledSet& train,
                             const TrainConfig& cfg) {
  DEEPCSI_CHECK(!train.empty());
  DEEPCSI_CHECK(train.x.dim(0) == train.size());
  DEEPCSI_CHECK(cfg.epochs >= 1 && cfg.batch_size >= 1);
  DEEPCSI_CHECK(cfg.val_fraction >= 0.0 && cfg.val_fraction < 1.0);

  // Paper protocol: last val_fraction of the provided data validates.
  const std::size_t n_total = train.size();
  const std::size_t n_val =
      static_cast<std::size_t>(static_cast<double>(n_total) * cfg.val_fraction);
  const std::size_t n_train = n_total - n_val;
  DEEPCSI_CHECK_MSG(n_train >= 1, "no training rows left after validation split");

  LabeledSet val;
  if (n_val > 0) {
    val.x = tensor::slice_rows(train.x, n_train, n_total);
    val.y.assign(train.y.begin() + static_cast<std::ptrdiff_t>(n_train),
                 train.y.end());
    val.num_classes = train.num_classes;
  }

  Adam optimizer(model.params(), {.lr = cfg.lr});
  std::mt19937_64 rng(cfg.shuffle_seed);
  std::vector<std::size_t> order(n_train);
  std::iota(order.begin(), order.end(), 0);

  TrainResult result;
  std::vector<Tensor> best_weights;

  for (int epoch = 0; epoch < cfg.epochs; ++epoch) {
    std::shuffle(order.begin(), order.end(), rng);
    double loss_sum = 0.0;
    std::size_t correct = 0;
    for (std::size_t at = 0; at < n_train;
         at += static_cast<std::size_t>(cfg.batch_size)) {
      const std::size_t hi =
          std::min(n_train, at + static_cast<std::size_t>(cfg.batch_size));
      Tensor xb = gather_rows(train.x, order, at, hi);
      std::vector<int> yb(hi - at);
      for (std::size_t i = at; i < hi; ++i) yb[i - at] = train.y[order[i]];

      model.zero_grad();
      const Tensor logits = model.forward(xb);
      LossResult loss = softmax_cross_entropy(logits, yb);
      model.backward(loss.grad_logits);
      optimizer.step();

      loss_sum += loss.loss * static_cast<double>(hi - at);
      for (std::size_t i = 0; i < yb.size(); ++i)
        if (loss.predictions[i] == yb[i]) ++correct;
    }

    EpochStats stats;
    stats.train_loss = loss_sum / static_cast<double>(n_train);
    stats.train_accuracy =
        static_cast<double>(correct) / static_cast<double>(n_train);
    if (n_val > 0) {
      stats.val_accuracy = evaluate(model, val, cfg.batch_size).accuracy();
      if (stats.val_accuracy > result.best_val_accuracy) {
        result.best_val_accuracy = stats.val_accuracy;
        if (cfg.restore_best) best_weights = snapshot(model);
      }
    }
    result.epochs.push_back(stats);
    if (cfg.verbose) {
      std::printf("  epoch %2d  loss %.4f  train acc %.3f  val acc %.3f\n",
                  epoch + 1, stats.train_loss, stats.train_accuracy,
                  stats.val_accuracy);
      std::fflush(stdout);
    }
  }

  if (cfg.restore_best && !best_weights.empty()) restore(model, best_weights);
  if (n_val == 0 && !result.epochs.empty())
    result.best_val_accuracy = result.epochs.back().train_accuracy;
  return result;
}

ConfusionMatrix evaluate(const Sequential& model, const LabeledSet& test,
                         int batch_size) {
  DEEPCSI_CHECK(!test.empty());
  DEEPCSI_CHECK(test.num_classes >= 1);
  DEEPCSI_CHECK_MSG(batch_size >= 1, "evaluate: batch_size must be >= 1");
  DEEPCSI_CHECK(test.x.dim(0) == test.size());
  ConfusionMatrix cm(test.num_classes);
  const std::size_t n = test.size();
  const std::vector<std::size_t>& shape = test.x.shape();
  const tensor::StaticShape sample =
      tensor::StaticShape::from({shape.begin() + 1, shape.end()});
  InferenceContext ctx(model, sample,
                       std::min(n, static_cast<std::size_t>(batch_size)));
  const std::size_t row = ctx.sample_numel();
  for (std::size_t at = 0; at < n; at += ctx.max_batch()) {
    const std::size_t rows = std::min(ctx.max_batch(), n - at);
    std::copy(test.x.data() + at * row, test.x.data() + (at + rows) * row,
              ctx.input());
    const tensor::ConstTensorView logits = ctx.run(rows);
    const std::size_t k = logits.dim(1);
    // The forward runs on the pool; the argmax over ~10 classes is too
    // small to dispatch.
    for (std::size_t r = 0; r < rows; ++r)
      cm.add(test.y[at + r], predict_row(logits.data() + r * k, k).label);
  }
  return cm;
}

}  // namespace deepcsi::nn
