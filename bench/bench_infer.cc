// Inference-architecture benchmark: the SharedModel / InferenceContext
// serving forward per SIMD backend and the int8 gate.
//
// Writes BENCH_infer.json for the perf trajectory:
//   - infer_throughput: classified reports/s through the arena-planned
//     context-pool path (path=1; the row keeps its attribute so the
//     baseline key is stable)
//   - forward_backend_throughput: pure single-thread forward-pass
//     reports/s per SIMD backend (scalar / avx2 / avx2_int8) — the
//     per-core kernel speed the DEEPCSI_SIMD dispatch layer buys; rows
//     with paper_model=1 measure the paper architecture at batch 1 (the
//     per-report authentication cost) and batch 64
//   - int8_speedup_vs_avx2: avx2_int8 over fp32 avx2; the paper_model=1
//     row gates the exit code at >= 2x (see that section for why the
//     quick-scale row is reported, not gated)
//   - backend_verdicts_match: classify verdicts agree across backends
//     (rides the exit code)
#include <algorithm>
#include <cstdio>
#include <functional>
#include <random>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "common/parallel.h"
#include "core/model.h"
#include "core/pipeline.h"
#include "dataset/features.h"
#include "dataset/traces.h"
#include "nn/gemm.h"
#include "nn/infer.h"
#include "nn/quantize.h"
#include "nn/simd.h"
#include "phy/impairments.h"

namespace {

using namespace deepcsi;

std::vector<feedback::CompressedFeedbackReport> make_reports(std::size_t n) {
  dataset::Scale scale;
  scale.d1_snapshots_per_trace = 8;
  std::vector<feedback::CompressedFeedbackReport> reports;
  int module = 0;
  while (reports.size() < n) {
    const dataset::Trace trace = dataset::generate_d1_trace(
        module % phy::kNumModules, 1, 0, scale, dataset::GeneratorConfig{});
    for (const dataset::Snapshot& s : trace.snapshots) {
      if (reports.size() == n) break;
      reports.push_back(s.report);
    }
    ++module;
  }
  return reports;
}

double measure_reports_per_second(std::size_t reports_per_rep, int reps,
                                  const std::function<void()>& body) {
  body();  // warm-up: contexts, pack scratch, feature scratch
  bench::Stopwatch watch;
  for (int rep = 0; rep < reps; ++rep) body();
  const double seconds = watch.seconds();
  return seconds > 0.0
             ? static_cast<double>(reports_per_rep) * reps / seconds
             : 0.0;
}

}  // namespace

int main() {
  bench::BenchReport report("infer",
                            "SharedModel/InferenceContext const forward per "
                            "backend and the int8 gate");

  core::Authenticator auth = bench::scale_authenticator();
  const dataset::InputSpec spec = auth.input_spec();

  const std::size_t batch = bench::batch_from_env();
  const auto reports = make_reports(batch);
  const int reps = dataset::full_scale_selected() ? 8 : 24;

  // Calibrate the int8 activation ranges on the exact report features
  // this bench classifies (absmax measured, nothing clamped), so the
  // avx2_int8 rows below run genuinely quantized layers and the
  // cross-backend verdict check exercises the accuracy-parity contract.
  {
    const std::size_t c =
        static_cast<std::size_t>(dataset::num_input_channels(spec));
    const std::size_t w = dataset::num_input_columns(spec);
    nn::Tensor features({reports.size(), c, 1, w});
    for (std::size_t i = 0; i < reports.size(); ++i)
      dataset::fill_features(reports[i], spec, features.data() + i * c * w);
    auth.calibrate_int8(features);
  }

  // ---- serving forward ---------------------------------------------------
  std::vector<core::Authenticator::Prediction> out(reports.size());
  const double ctx_rps = measure_reports_per_second(
      reports.size(), reps,
      [&] { auth.classify_batch_into(reports, out); });
  std::printf("classify_batch_into (batch %zu, %d threads): %12.1f "
              "reports/s\n",
              batch, common::num_threads(), ctx_rps);
  report.add_metric("infer_throughput", ctx_rps, "reports/s",
                    {{"path", 1.0}, {"max_batch", static_cast<double>(batch)}});

  // ---- SIMD backend comparison ------------------------------------------
  // Pure single-thread forward passes through one InferenceContext: the
  // per-core kernel throughput each backend delivers, uncontaminated by
  // feature assembly or threading. The avx2/scalar ratio is the dispatch
  // layer's headline number. The avx2_int8/avx2 ratio at this (CI-sized)
  // model is a reported metric only — the >= 2x perf gate runs on the
  // paper architecture below, where the forward is GEMM-dominated. The
  // cross-backend verdict agreement DOES gate here, on the bench's real
  // report features.
  {
    const int saved_threads = common::num_threads();
    common::set_num_threads(1);
    const std::size_t c =
        static_cast<std::size_t>(dataset::num_input_channels(spec));
    const std::size_t w = dataset::num_input_columns(spec);
    nn::InferenceContext bctx(auth.shared_model(), {c, 1, w}, reports.size());
    for (std::size_t i = 0; i < reports.size(); ++i)
      dataset::fill_features(reports[i], spec, bctx.input() + i * c * w);

    bool sweeps_ok = true;
    for (const std::size_t n : {std::size_t{1}, reports.size()}) {
      std::printf(
          "\nsingle-thread forward pass per SIMD backend (batch %zu):\n", n);
      std::vector<std::pair<simd::Backend, double>> rates;
      const bool ok = bench::sweep_simd_backends(
          report, "forward_backend_throughput",
          {{"threads", 1.0}, {"batch", static_cast<double>(n)}},
          [&] {
            // These ratios are headline numbers and the noisiest thing
            // on shared runners — run 8x longer than the other sections
            // and keep the best of 3 windows so scheduler steal doesn't
            // write a phantom regression into the trajectory.
            double rps = 0.0;
            for (int window = 0; window < 3; ++window)
              rps = std::max(rps, measure_reports_per_second(
                                      n, 8 * reps, [&] { bctx.run(n); }));
            return rps;
          },
          [&] { return auth.classify_batch(reports); }, &rates);
      sweeps_ok = sweeps_ok && ok;
      if (n != reports.size()) continue;
      double fp32 = 0.0, int8 = 0.0;
      for (const auto& [backend, rate] : rates) {
        if (backend == simd::Backend::kAvx2) fp32 = rate;
        if (backend == simd::Backend::kAvx2Int8) int8 = rate;
      }
      if (fp32 > 0.0 && int8 > 0.0) {
        const double ratio = int8 / fp32;
        std::printf("int8 speedup over fp32 avx2 at batch %zu: %.2fx "
                    "(reported; the >= 2x gate runs on the paper model)\n",
                    n, ratio);
        report.add_metric("int8_speedup_vs_avx2", ratio, "x",
                          {{"batch", static_cast<double>(n)},
                           {"paper_model", 0.0}});
      }
    }
    common::set_num_threads(saved_threads);
    if (!sweeps_ok) {
      report.write_json();
      return 1;
    }
  }

  // ---- int8 perf gate: paper architecture -------------------------------
  // The paper model (5 convs x 128 filters, kernels {7,7,7,5,3}, ~489k
  // params) at the full 234-column input width, untrained and calibrated
  // on synthetic activations, runs at batch 1 (one feedback frame: the
  // real-time authentication cost per report) and at batch 64, where the
  // >= 2x single-thread int8 gate is measured. At
  // the CI quick scale roughly half the forward is non-GEMM work (SELU,
  // pools, attention, feature plumbing), so a 2x whole-forward speedup
  // is out of reach for ANY GEMM kernel there — the quick-scale ratio
  // above is reported, not gated. The paper forward is ~77% conv GEMM,
  // which is the workload the int8 backend exists for. Accuracy parity
  // is gated separately: the cross-backend verdict check above runs on
  // real report features, and tests/quantize_test.cc pins the kernels
  // bit-identical to the scalar reference.
  {
    std::vector<simd::Backend> avail = simd::available_backends();
    const bool has_avx2 =
        std::find(avail.begin(), avail.end(), simd::Backend::kAvx2Int8) !=
        avail.end();
    if (!has_avx2) {
      std::printf("\nint8 paper-model gate: skipped (avx2_int8 unavailable "
                  "on this host/build)\n");
    } else {
      const int saved_threads = common::num_threads();
      const simd::Backend saved_backend = simd::active();
      common::set_num_threads(1);
      dataset::InputSpec paper_spec;  // full subcarrier width
      const std::size_t c =
          static_cast<std::size_t>(dataset::num_input_channels(paper_spec));
      const std::size_t w = dataset::num_input_columns(paper_spec);
      nn::Sequential paper = core::build_deepcsi_model(
          static_cast<int>(c), static_cast<int>(w), phy::kNumModules,
          core::paper_model_config());
      const std::size_t gate_batch = 64;
      nn::Tensor gate_x({gate_batch, c, 1, w});
      std::mt19937_64 rng(4242);
      std::normal_distribution<float> dist(0.0f, 1.0f);
      for (std::size_t i = 0; i < gate_x.numel(); ++i)
        gate_x.data()[i] = dist(rng);
      nn::apply_calibration(paper,
                            nn::calibrate_input_ranges(paper, gate_x));
      nn::SharedModel paper_model(std::move(paper));

      // The gate pair (batch 64) runs first, back to back, so nothing
      // measured between its two rows skews the ratio; the batch-1 rows
      // follow with the same reports per window.
      std::printf("\n");
      double fp32 = 0.0, int8 = 0.0;
      bool int8_honest = true;
      for (const std::size_t n : {gate_batch, std::size_t{1}}) {
        const int reps = static_cast<int>(5 * gate_batch / n);
        for (const simd::Backend backend :
             {simd::Backend::kAvx2, simd::Backend::kAvx2Int8}) {
          simd::set_active(backend);
          nn::InferenceContext pctx(paper_model, {c, 1, w}, n);
          std::copy(gate_x.data(), gate_x.data() + n * c * w, pctx.input());
          const std::uint64_t int8_before = nn::int8_kernel_dispatches();
          double rps = 0.0;
          for (int window = 0; window < 3; ++window)
            rps = std::max(rps, measure_reports_per_second(
                                    n, reps, [&] { pctx.run(n); }));
          if (backend == simd::Backend::kAvx2Int8)
            int8_honest = int8_honest &&
                          nn::int8_kernel_dispatches() > int8_before;
          if (n == gate_batch && backend == simd::Backend::kAvx2) fp32 = rps;
          if (n == gate_batch && backend == simd::Backend::kAvx2Int8)
            int8 = rps;
          std::printf("paper model single-thread forward (%s, batch %zu): "
                      "%10.1f reports/s\n",
                      simd::name(backend), n, rps);
          report.add_metric("forward_backend_throughput", rps, "reports/s",
                            {{"threads", 1.0},
                             {"batch", static_cast<double>(n)},
                             {"backend", static_cast<double>(backend)},
                             {"paper_model", 1.0}});
        }
      }
      simd::set_active(saved_backend);
      common::set_num_threads(saved_threads);

      const double ratio = fp32 > 0.0 ? int8 / fp32 : 0.0;
      const bool gate_ok = ratio >= 2.0 && int8_honest;
      std::printf("int8 speedup over fp32 avx2, paper model: %.2fx  "
                  "(gate >= 2.00x): %s%s\n",
                  ratio, gate_ok ? "pass" : "FAIL",
                  int8_honest ? "" : " [int8 kernels never dispatched]");
      report.add_metric("int8_speedup_vs_avx2", ratio, "x",
                        {{"batch", static_cast<double>(gate_batch)},
                         {"paper_model", 1.0}});
      if (!gate_ok) {
        report.write_json();
        return 1;
      }
    }
  }

  report.write_json();
  return 0;
}
