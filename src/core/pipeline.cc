#include "core/pipeline.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#include "common/atomic_file.h"
#include "common/check.h"
#include "common/failpoint.h"
#include "common/parallel.h"
#include "dataset/scale.h"
#include "nn/loss.h"
#include "nn/serialize.h"
#include "phy/impairments.h"
#include "tensor/view.h"

namespace deepcsi::core {

ExperimentConfig quick_experiment_config() {
  ExperimentConfig cfg;
  cfg.model = quick_model_config();
  cfg.train.epochs = 18;
  cfg.train.batch_size = 32;
  cfg.train.lr = 1e-3f;
  cfg.train.val_fraction = 0.2;
  return cfg;
}

ExperimentConfig full_experiment_config() {
  ExperimentConfig cfg;
  cfg.model = paper_model_config();
  cfg.train.epochs = 30;
  cfg.train.batch_size = 32;
  cfg.train.lr = 1e-3f;
  cfg.train.val_fraction = 0.2;
  return cfg;
}

ExperimentConfig experiment_config_from_env() {
  return dataset::full_scale_selected() ? full_experiment_config()
                                        : quick_experiment_config();
}

ExperimentResult run_classification(const dataset::SplitSets& split,
                                    const ExperimentConfig& cfg) {
  DEEPCSI_CHECK(!split.train.empty() && !split.test.empty());
  const int in_channels = static_cast<int>(split.train.x.dim(1));
  const int width = static_cast<int>(split.train.x.dim(3));

  nn::Sequential model = build_deepcsi_model(
      in_channels, width, split.train.num_classes, cfg.model);

  ExperimentResult result{0.0, 0.0, nn::ConfusionMatrix(split.train.num_classes),
                          0};
  result.trainable_params = model.num_trainable();
  const nn::TrainResult tr = nn::train_classifier(model, split.train, cfg.train);
  result.best_val_accuracy = tr.best_val_accuracy;
  result.confusion = nn::evaluate(model, split.test);
  result.accuracy = result.confusion.accuracy();
  return result;
}

namespace {

tensor::StaticShape sample_shape_for(const dataset::InputSpec& spec) {
  return {static_cast<std::size_t>(dataset::num_input_channels(spec)), 1,
          dataset::num_input_columns(spec)};
}

std::string spec_text(const dataset::InputSpec& spec) {
  return "stride=" + std::to_string(spec.subcarrier_stride) + " (" +
         std::to_string(dataset::num_input_channels(spec)) + "ch x " +
         std::to_string(dataset::num_input_columns(spec)) + " cols)";
}

}  // namespace

ModelLoadStatus load_model_artifact(
    const std::string& path,
    const std::optional<dataset::InputSpec>& serving_spec,
    const ModelConfig& fallback, LoadedModel* out, std::string* error) {
  DEEPCSI_CHECK(out != nullptr);
  const auto fail = [&](ModelLoadStatus st, const std::string& why) {
    if (error) *error = "model " + path + ": " + why;
    return st;
  };
  // Chaos hook for the swap path: a fired "model.load" is treated exactly
  // like a torn weights file, before the real file is even touched.
  static common::Failpoint load_fp("model.load");
  if (const auto fire = load_fp.evaluate())
    return fail(ModelLoadStatus::kIoError,
                std::string("injected model.load failure (") +
                    std::strerror(fire->err == 0 ? EIO : fire->err) + ")");

  const std::map<std::string, int> meta = load_model_meta(path);
  LoadedModel lm;
  lm.config = fallback;
  lm.spec = serving_spec ? *serving_spec : dataset::InputSpec{};
  lm.num_classes = phy::kNumModules;
  if (const auto it = meta.find("stride"); it != meta.end())
    lm.spec.subcarrier_stride = it->second;
  if (const auto it = meta.find("filters"); it != meta.end())
    lm.config.filters = it->second;
  if (const auto it = meta.find("classes"); it != meta.end())
    lm.num_classes = it->second;
  if (lm.spec.subcarrier_stride < 1 || lm.num_classes < 1 ||
      lm.config.filters < 1)
    return fail(ModelLoadStatus::kIoError, "nonsensical .meta sidecar");

  if (serving_spec) {
    const bool mismatch =
        lm.spec.subcarrier_stride != serving_spec->subcarrier_stride ||
        dataset::num_input_channels(lm.spec) !=
            dataset::num_input_channels(*serving_spec) ||
        dataset::num_input_columns(lm.spec) !=
            dataset::num_input_columns(*serving_spec);
    if (mismatch)
      return fail(ModelLoadStatus::kSpecMismatch,
                  "input spec " + spec_text(lm.spec) +
                      " disagrees with serving spec " +
                      spec_text(*serving_spec));
  }

  nn::Sequential model = build_deepcsi_model(
      dataset::num_input_channels(lm.spec),
      static_cast<int>(dataset::num_input_columns(lm.spec)), lm.num_classes,
      lm.config);
  try {
    nn::load_weights(model, path);
    lm.calibration = nn::load_calibration(path);  // missing -> nullopt, fine
  } catch (const std::exception& e) {
    return fail(ModelLoadStatus::kIoError, e.what());
  }
  lm.model = std::move(model);
  *out = std::move(lm);
  return ModelLoadStatus::kOk;
}

Authenticator::Epoch::Epoch(nn::SharedModel m, const dataset::InputSpec& spec)
    : model(std::move(m)),
      pool(std::make_unique<nn::ContextPool>(model, sample_shape_for(spec),
                                             kContextBatch)) {}

Authenticator::Authenticator(nn::Sequential model, dataset::InputSpec spec)
    : spec_(spec), life_(std::make_unique<Lifecycle>()) {
  life_->epoch =
      std::make_shared<Epoch>(nn::SharedModel(std::move(model)), spec_);
}

std::shared_ptr<Authenticator::Epoch> Authenticator::pin_epoch() const {
  std::lock_guard<std::mutex> lock(life_->mu);
  return life_->epoch;
}

void Authenticator::publish_epoch(std::shared_ptr<Epoch> staged) {
  std::lock_guard<std::mutex> lock(life_->mu);
  staged->id = life_->epoch->id + 1;
  life_->epoch = std::move(staged);
}

const nn::SharedModel& Authenticator::shared_model() const {
  std::lock_guard<std::mutex> lock(life_->mu);
  return life_->epoch->model;
}

std::uint64_t Authenticator::epoch() const { return pin_epoch()->id; }

std::uint64_t Authenticator::swaps_completed() const {
  return life_->swaps_completed.load(std::memory_order_relaxed);
}

std::uint64_t Authenticator::swaps_rolled_back() const {
  return life_->swaps_rolled_back.load(std::memory_order_relaxed);
}

Authenticator::Prediction Authenticator::classify(
    const feedback::CompressedFeedbackReport& report) const {
  Prediction p;
  classify_batch_into(std::span(&report, 1), std::span(&p, 1));
  return p;
}

std::vector<Authenticator::Prediction> Authenticator::classify_batch(
    std::span<const feedback::CompressedFeedbackReport> reports) const {
  std::vector<Prediction> out(reports.size());
  classify_batch_into(reports, out);
  return out;
}

void Authenticator::classify_batch_into(
    std::span<const feedback::CompressedFeedbackReport> reports,
    std::span<Prediction> out) const {
  DEEPCSI_CHECK(out.size() >= reports.size());
  if (reports.empty()) return;

  // Pin the current epoch for the whole call: a concurrent swap_model
  // retires the old epoch only after this shared_ptr (and every other
  // in-flight pin) drops, so the lease below can never outlive its pool.
  const std::shared_ptr<Epoch> epoch = pin_epoch();
  const nn::ContextPool::Lease lease = epoch->pool->acquire();
  nn::InferenceContext& ctx = *lease;
  const std::size_t sample = ctx.sample_numel();

  for (std::size_t at = 0; at < reports.size(); at += ctx.max_batch()) {
    const std::size_t n = std::min(ctx.max_batch(), reports.size() - at);
    float* in = ctx.input();
    common::parallel_for(
        0, n, common::grain_for(sample * 64),
        [&](std::size_t lo, std::size_t hi) {
          for (std::size_t i = lo; i < hi; ++i)
            dataset::fill_features(reports[at + i], spec_, in + i * sample);
        });

    const tensor::ConstTensorView logits = ctx.run(n);
    const std::size_t k = logits.dim(1);
    common::parallel_for(0, n, common::grain_for(k),
                         [&](std::size_t lo, std::size_t hi) {
                           for (std::size_t i = lo; i < hi; ++i) {
                             const nn::RowPrediction p =
                                 nn::predict_row(logits.data() + i * k, k);
                             out[at + i] = {p.label, p.probability};
                           }
                         });
  }
}

void Authenticator::save(const std::string& path) const {
  nn::save_weights(pin_epoch()->model.graph(), path);
}

void Authenticator::load(const std::string& path) {
  nn::load_weights(pin_epoch()->model.mutable_graph(), path);
}

Authenticator::SwapResult Authenticator::swap_model(const std::string& path) {
  SwapResult r;
  const auto rolled_back = [&](SwapStatus status, std::string why) {
    life_->swaps_rolled_back.fetch_add(1, std::memory_order_relaxed);
    r.status = status;
    r.error = std::move(why);
    r.epoch = epoch();  // the incumbent keeps serving
    return r;
  };

  LoadedModel lm;
  std::string err;
  switch (load_model_artifact(path, spec_, quick_model_config(), &lm, &err)) {
    case ModelLoadStatus::kOk:
      break;
    case ModelLoadStatus::kIoError:
      return rolled_back(SwapStatus::kLoadError, std::move(err));
    case ModelLoadStatus::kSpecMismatch:
      return rolled_back(SwapStatus::kSpecMismatch, std::move(err));
  }

  // Stage the complete replacement off to the side: calibrated graph,
  // planned pool, one warm context. Nothing the serving path can observe
  // is touched until the single pointer exchange in publish_epoch.
  nn::SharedModel staged_model(std::move(*lm.model));
  if (lm.calibration)
    nn::apply_calibration(staged_model.mutable_graph(), *lm.calibration);
  auto staged = std::make_shared<Epoch>(std::move(staged_model), spec_);
  {
    // Pre-build one context so the first post-swap classify pays no
    // planning cost — and so a geometry bug aborts HERE, pre-publish.
    const nn::ContextPool::Lease warm = staged->pool->acquire();
    (void)warm;
  }

  // Chaos hook between staging and publish: a fired "model.swap" discards
  // the fully staged epoch, proving rollback costs nothing but the work.
  static common::Failpoint swap_fp("model.swap");
  if (const auto fire = swap_fp.evaluate())
    return rolled_back(SwapStatus::kAborted,
                       std::string("injected model.swap failure (") +
                           std::strerror(fire->err == 0 ? EIO : fire->err) +
                           ")");

  publish_epoch(std::move(staged));
  life_->swaps_completed.fetch_add(1, std::memory_order_relaxed);
  r.status = SwapStatus::kSwapped;
  r.epoch = epoch();
  return r;
}

std::vector<nn::CalibrationEntry> Authenticator::calibrate_int8(
    const tensor::Tensor& samples) {
  std::vector<nn::CalibrationEntry> entries =
      nn::calibrate_input_ranges(pin_epoch()->model.graph(), samples);
  apply_int8_calibration(entries);
  return entries;
}

void Authenticator::apply_int8_calibration(
    const std::vector<nn::CalibrationEntry>& entries) {
  const std::shared_ptr<Epoch> cur = pin_epoch();
  nn::apply_calibration(cur->model.mutable_graph(), entries);
  // Contexts planned before calibration lack the int8 arena slices (the
  // layers DEEPCSI_CHECK against running int8 on one) — republish the
  // same model under a fresh pool so every future lease plans them. The
  // epoch id is NOT advanced: same weights, new plan.
  auto replanned = std::make_shared<Epoch>(cur->model, spec_);
  std::lock_guard<std::mutex> lock(life_->mu);
  replanned->id = life_->epoch->id;
  life_->epoch = std::move(replanned);
}

void save_model_meta(const std::string& weights_path,
                     const std::map<std::string, int>& meta) {
  std::string text;
  for (const auto& [key, value] : meta)
    text += key + "=" + std::to_string(value) + "\n";
  // tmp + rename, matching save_weights: the sidecar and the weights may
  // be re-read by a racing or restarting server at any moment.
  common::write_file_atomic(weights_path + ".meta", text);
}

std::map<std::string, int> load_model_meta(const std::string& weights_path) {
  std::map<std::string, int> meta;
  std::FILE* f = std::fopen((weights_path + ".meta").c_str(), "r");
  if (f == nullptr) return meta;
  char key[32];
  int value = 0;
  while (std::fscanf(f, "%31[^=]=%d\n", key, &value) == 2) meta[key] = value;
  std::fclose(f);
  return meta;
}

Authenticator train_authenticator(const dataset::SplitSets& split,
                                  const dataset::InputSpec& spec,
                                  const ExperimentConfig& cfg) {
  DEEPCSI_CHECK(!split.train.empty());
  const int in_channels = static_cast<int>(split.train.x.dim(1));
  const int width = static_cast<int>(split.train.x.dim(3));
  DEEPCSI_CHECK(in_channels == dataset::num_input_channels(spec));
  DEEPCSI_CHECK(static_cast<std::size_t>(width) ==
                dataset::num_input_columns(spec));

  nn::Sequential model = build_deepcsi_model(
      in_channels, width, split.train.num_classes, cfg.model);
  nn::train_classifier(model, split.train, cfg.train);
  return Authenticator(std::move(model), spec);
}

}  // namespace deepcsi::core
