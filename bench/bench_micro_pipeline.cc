// Micro-benchmarks for the per-packet pipeline stages, backing the paper's
// deployability claim ("the trained learning algorithm can be run to
// perform online inference on low-cost Wi-Fi devices"): SVD, Algorithm 1,
// quantization, frame codec, feature assembly, and CNN inference latency.
//
// Before the Google-Benchmark section, main() runs the serving-throughput
// comparison — per-report classify() vs classify_batch() across thread
// counts — prints samples/s rows, checks the outputs are bit-identical,
// and writes BENCH_micro_pipeline.json for the perf trajectory.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdlib>
#include <random>
#include <vector>

#include "bench_common.h"
#include "capture/vht_frame.h"
#include "common/parallel.h"
#include "core/model.h"
#include "core/pipeline.h"
#include "dataset/features.h"
#include "dataset/splits.h"
#include "dataset/traces.h"
#include "feedback/bitpack.h"
#include "linalg/svd.h"
#include "nn/infer.h"
#include "phy/channel.h"
#include "phy/sounding.h"

namespace {

using namespace deepcsi;

linalg::CMat random_h(std::mt19937_64& rng) {
  return linalg::CMat::random_gaussian(3, 2, rng);
}

void BM_ComplexSvd3x2(benchmark::State& state) {
  std::mt19937_64 rng(1);
  const linalg::CMat h = random_h(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::svd(h.transpose()));
  }
}
BENCHMARK(BM_ComplexSvd3x2);

void BM_Algorithm1Decompose(benchmark::State& state) {
  std::mt19937_64 rng(2);
  const linalg::CMat v =
      linalg::svd(random_h(rng).transpose()).v.first_columns(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(feedback::decompose_v(v));
  }
}
BENCHMARK(BM_Algorithm1Decompose);

void BM_VtildeReconstruct(benchmark::State& state) {
  std::mt19937_64 rng(3);
  const linalg::CMat v =
      linalg::svd(random_h(rng).transpose()).v.first_columns(2);
  const auto angles = feedback::decompose_v(v);
  for (auto _ : state) {
    benchmark::DoNotOptimize(feedback::reconstruct_v(angles));
  }
}
BENCHMARK(BM_VtildeReconstruct);

void BM_QuantizeRoundTrip(benchmark::State& state) {
  std::mt19937_64 rng(4);
  const linalg::CMat v =
      linalg::svd(random_h(rng).transpose()).v.first_columns(2);
  const auto cfg = feedback::mu_mimo_codebook_high();
  for (auto _ : state) {
    benchmark::DoNotOptimize(feedback::quantized_vtilde(v, cfg));
  }
}
BENCHMARK(BM_QuantizeRoundTrip);

void BM_ChannelSounding234(benchmark::State& state) {
  const phy::Scene scene(0);
  const phy::ChannelModel channel(scene);
  std::mt19937_64 rng(5);
  const auto& sc = phy::vht80_sounded_subcarriers();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        channel.cfr(scene.ap_position_a(), scene.beamformee_position(0, 3), 3,
                    2, sc, {}, phy::FadingParams{}, rng));
  }
}
BENCHMARK(BM_ChannelSounding234);

void BM_FullFeedbackCompression234(benchmark::State& state) {
  // What the beamformee computes per sounding: 234 SVDs + Algorithm 1 +
  // quantization.
  const phy::Scene scene(0);
  const phy::ChannelModel channel(scene);
  std::mt19937_64 rng(6);
  const auto& sc = phy::vht80_sounded_subcarriers();
  const phy::Cfr cfr =
      channel.cfr(scene.ap_position_a(), scene.beamformee_position(0, 3), 3, 2,
                  sc, {}, phy::FadingParams{}, rng);
  const auto cfg = feedback::mu_mimo_codebook_high();
  for (auto _ : state) {
    const auto v = feedback::beamforming_v(cfr.h, 2);
    benchmark::DoNotOptimize(feedback::compress_v_series(v, sc, cfg));
  }
}
BENCHMARK(BM_FullFeedbackCompression234);

capture::BeamformingActionFrame make_frame() {
  const phy::Scene scene(0);
  const phy::ChannelModel channel(scene);
  std::mt19937_64 rng(7);
  const auto& sc = phy::vht80_sounded_subcarriers();
  const phy::Cfr cfr =
      channel.cfr(scene.ap_position_a(), scene.beamformee_position(0, 3), 3, 2,
                  sc, {}, phy::FadingParams{}, rng);
  const auto v = feedback::beamforming_v(cfr.h, 2);
  capture::BeamformingActionFrame f;
  f.ra = capture::MacAddress::for_module(0);
  f.ta = capture::MacAddress::for_station(0);
  f.bssid = f.ra;
  f.mimo_control.nc = 2;
  f.mimo_control.nr = 3;
  f.mimo_control.bandwidth = 2;
  f.report = feedback::pack_report(
      feedback::compress_v_series(v, sc, feedback::mu_mimo_codebook_high()));
  return f;
}

void BM_FrameSerialize(benchmark::State& state) {
  const auto frame = make_frame();
  for (auto _ : state) {
    benchmark::DoNotOptimize(frame.serialize());
  }
}
BENCHMARK(BM_FrameSerialize);

void BM_FrameParse(benchmark::State& state) {
  const auto bytes = make_frame().serialize();
  for (auto _ : state) {
    benchmark::DoNotOptimize(capture::BeamformingActionFrame::parse(bytes));
  }
}
BENCHMARK(BM_FrameParse);

void BM_FeatureAssembly(benchmark::State& state) {
  // Observer-side: quantized report -> DNN input tensor (full 234-sc).
  const dataset::Scale scale{2, 2, 1};
  const dataset::Trace trace = dataset::generate_d1_trace(
      0, 1, 0, scale, dataset::GeneratorConfig{});
  dataset::InputSpec spec;
  std::vector<float> buf(
      static_cast<std::size_t>(dataset::num_input_channels(spec)) *
      dataset::num_input_columns(spec));
  for (auto _ : state) {
    dataset::fill_features(trace.snapshots[0].report, spec, buf.data());
    benchmark::DoNotOptimize(buf.data());
  }
}
BENCHMARK(BM_FeatureAssembly);

// One report through the serving forward: InferenceContext::run(1).
void cnn_inference(benchmark::State& state, const core::ModelConfig& cfg,
                   std::size_t width) {
  const nn::Sequential model =
      core::build_deepcsi_model(5, static_cast<int>(width), 10, cfg);
  nn::InferenceContext ctx(model, {5, 1, width}, 1);
  for (std::size_t i = 0; i < ctx.sample_numel(); ++i)
    ctx.input()[i] = static_cast<float>(i % 13) * 0.01f;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.run(1).data());
    benchmark::ClobberMemory();
  }
}

void BM_CnnInferencePaperModel(benchmark::State& state) {
  // The paper's 489,301-parameter network on a full-band input: the
  // real-time authentication cost per feedback frame.
  cnn_inference(state, core::paper_model_config(), 234);
}
BENCHMARK(BM_CnnInferencePaperModel);

void BM_CnnInferenceQuickModel(benchmark::State& state) {
  cnn_inference(state, core::quick_model_config(), 117);
}
BENCHMARK(BM_CnnInferenceQuickModel);

// ---------------------------------------------------------------------
// Serving throughput: single-report classify() vs classify_batch() across
// thread counts. Returns false if any configuration's predictions differ
// bitwise from the 1-thread single-report reference.
bool run_serving_throughput(bench::BenchReport& report) {
  const dataset::Scale scale = dataset::scale_from_env();
  dataset::InputSpec spec;
  spec.subcarrier_stride = scale.subcarrier_stride;
  const core::ModelConfig model_cfg = dataset::full_scale_selected()
                                          ? core::paper_model_config()
                                          : core::quick_model_config();
  const int channels = dataset::num_input_channels(spec);
  const int width = static_cast<int>(dataset::num_input_columns(spec));
  core::Authenticator auth(
      core::build_deepcsi_model(channels, width, phy::kNumModules, model_cfg),
      spec);

  // A pool of distinct reports from two modules, tiled up to the batch.
  std::vector<feedback::CompressedFeedbackReport> reports;
  for (int module : {0, 1}) {
    const dataset::Trace trace =
        dataset::generate_d1_trace(module, 1, 0, scale, {});
    for (const dataset::Snapshot& s : trace.snapshots)
      reports.push_back(s.report);
  }
  std::size_t batch = 128;
  if (const char* s = std::getenv("DEEPCSI_BENCH_BATCH")) {
    const long v = std::atol(s);
    if (v >= 1) batch = static_cast<std::size_t>(v);
  }
  const std::size_t distinct = reports.size();
  for (std::size_t i = distinct; i < batch; ++i)
    reports.push_back(reports[i % distinct]);
  reports.resize(batch);

  const int original_threads = common::num_threads();
  std::vector<core::Authenticator::Prediction> reference;
  double single_1t = 0.0;
  bool identical = true;

  std::printf("serving throughput (%zu reports, %s model)\n", batch,
              dataset::full_scale_selected() ? "paper" : "quick");
  std::printf("%-8s %8s %14s %10s  %s\n", "mode", "threads", "samples/s",
              "speedup", "vs 1-thread single");
  for (const int threads : {1, 2, 4}) {
    common::set_num_threads(threads);
    for (const bool batched : {false, true}) {
      std::vector<core::Authenticator::Prediction> preds;
      double best = 0.0;
      for (int rep = 0; rep < 3; ++rep) {
        bench::Stopwatch timer;
        if (batched) {
          preds = auth.classify_batch(reports);
        } else {
          preds.clear();
          for (const auto& r : reports) preds.push_back(auth.classify(r));
        }
        const double rate = static_cast<double>(batch) / timer.seconds();
        if (rate > best) best = rate;
      }
      if (reference.empty()) {
        reference = preds;
        single_1t = best;
      }
      for (std::size_t i = 0; i < preds.size(); ++i)
        if (preds[i].module_id != reference[i].module_id ||
            preds[i].confidence != reference[i].confidence)
          identical = false;
      std::printf("%-8s %8d %14.1f %9.2fx\n", batched ? "batch" : "single",
                  threads, best, best / single_1t);
      report.add_metric("inference_throughput", best, "samples/s",
                        {{"threads", threads},
                         {"batched", batched ? 1.0 : 0.0},
                         {"batch_size", static_cast<double>(batch)}});
    }
  }
  common::set_num_threads(original_threads);
  std::printf("outputs bit-identical across all configurations: %s\n\n",
              identical ? "yes" : "NO");
  report.add_metric("outputs_bit_identical", identical ? 1.0 : 0.0, "bool");
  std::fflush(stdout);
  return identical;
}

}  // namespace

int main(int argc, char** argv) {
  bench::print_header("micro pipeline",
                      "per-packet stage latencies and serving throughput");
  bench::BenchReport report("micro_pipeline");
  const bool identical = run_serving_throughput(report);
  report.write_json();

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return identical ? 0 : 1;
}
