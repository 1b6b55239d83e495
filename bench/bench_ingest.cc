// End-to-end feedback-ingest benchmark: how many observed compressed
// beamforming reports per second the observer can turn into fingerprint
// predictions (the paper's online-inference deployability claim at
// serving scale).
//
// Two sections, both written to BENCH_ingest.json for the perf
// trajectory:
//   1. reconstruct-per-subcarrier: the old explicit matrix-product form
//      of Eq. (7) (reconstruct_v_reference) vs the in-place rotation
//      kernels (reconstruct_v_into) — the PR's before/after measurement.
//   2. full ingest: serialized VHT action frame -> parse -> bitpack
//      decode -> dequantize -> Vtilde reconstruction -> feature fill ->
//      classify_batch, reports/s across thread counts, with predictions
//      checked bit-identical against the 1-thread run; plus the same
//      end-to-end path per SIMD backend (scalar vs avx2 rotation + NN
//      kernels) at 1 thread, with verdicts checked across backends.
#include <algorithm>
#include <cstdio>
#include <random>
#include <vector>

#include "bench_common.h"
#include "common/check.h"
#include "capture/vht_frame.h"
#include "common/parallel.h"
#include "core/pipeline.h"
#include "dataset/features.h"
#include "feedback/angles.h"
#include "feedback/bitpack.h"
#include "linalg/svd.h"
#include "nn/simd.h"
#include "phy/channel.h"
#include "phy/geometry.h"
#include "phy/impairments.h"
#include "phy/ofdm.h"
#include "phy/sounding.h"

namespace {

using namespace deepcsi;

// Quantization-grid angle sets for a pool of distinct 3x2 V matrices —
// exactly what dequantize hands to reconstruction during ingest.
std::vector<feedback::BfmAngles> make_angle_pool(std::size_t count) {
  std::mt19937_64 rng(42);
  const auto cfg = feedback::mu_mimo_codebook_high();
  std::vector<feedback::BfmAngles> pool;
  pool.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const linalg::CMat v =
        linalg::svd(linalg::CMat::random_gaussian(3, 2, rng).transpose())
            .v.first_columns(2);
    pool.push_back(feedback::dequantize(
        feedback::quantize(feedback::decompose_v(v), cfg), cfg));
  }
  return pool;
}

// Runs fn over the pool until `window_s` has elapsed; returns calls/s.
template <typename Fn>
double rate_of(const std::vector<feedback::BfmAngles>& pool, double window_s,
               Fn&& fn) {
  bench::Stopwatch timer;
  std::size_t calls = 0;
  double elapsed = 0.0;
  do {
    for (const feedback::BfmAngles& a : pool) fn(a);
    calls += pool.size();
    elapsed = timer.seconds();
  } while (elapsed < window_s);
  return static_cast<double>(calls) / elapsed;
}

double median_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

// Section 1: per-subcarrier Vtilde reconstruction, old path vs new. The
// two loops alternate over short rounds and the speedup is the median
// per-round ratio, so a steal burst on a shared host lands on both sides
// of one round (or skews one round of many), never on one side alone.
double run_reconstruct_comparison(bench::BenchReport& report) {
  constexpr int kRounds = 9;
  constexpr double kWindowS = 0.03;
  const std::vector<feedback::BfmAngles> pool = make_angle_pool(64);

  double sink = 0.0;
  linalg::CMat scratch;
  std::vector<double> ref(kRounds), inplace(kRounds), ratio(kRounds);
  for (int r = 0; r < kRounds; ++r) {
    ref[r] = rate_of(pool, kWindowS, [&](const feedback::BfmAngles& a) {
      sink += feedback::reconstruct_v_reference(a).frobenius_norm();
    });
    inplace[r] = rate_of(pool, kWindowS, [&](const feedback::BfmAngles& a) {
      feedback::reconstruct_v_into(a, &scratch);
      sink += scratch(0, 0).real();
    });
    ratio[r] = inplace[r] / ref[r];
  }
  const double ref_rate = median_of(ref);
  const double inplace_rate = median_of(inplace);
  const double speedup = median_of(ratio);

  std::printf("reconstruct_v per sub-carrier (M=3, NSS=2)\n");
  std::printf("%-28s %16.0f subcarriers/s\n", "matrix-product reference",
              ref_rate);
  std::printf("%-28s %16.0f subcarriers/s  (%.1fx)\n", "in-place rotations",
              inplace_rate, speedup);
  std::printf("(sink %.3g)\n\n", sink);
  report.add_metric("reconstruct_subcarriers_per_s", ref_rate,
                    "subcarriers/s", {{"inplace", 0.0}});
  report.add_metric("reconstruct_subcarriers_per_s", inplace_rate,
                    "subcarriers/s", {{"inplace", 1.0}});
  report.add_metric("reconstruct_speedup", speedup, "x");
  std::fflush(stdout);
  return speedup;
}

// A pool of serialized beamforming action frames from distinct channels.
std::vector<std::vector<std::uint8_t>> make_frame_pool(std::size_t distinct) {
  const phy::Scene scene(0);
  const phy::ChannelModel channel(scene);
  const auto& sc = phy::vht80_sounded_subcarriers();
  const auto cfg = feedback::mu_mimo_codebook_high();
  std::mt19937_64 rng(7);
  std::vector<std::vector<std::uint8_t>> out;
  out.reserve(distinct);
  for (std::size_t i = 0; i < distinct; ++i) {
    const phy::Cfr cfr = channel.cfr(
        scene.ap_position_a(), scene.beamformee_position(0, 1 + (i % 9)), 3, 2,
        sc, {}, phy::FadingParams{}, rng);
    const auto v = feedback::beamforming_v(cfr.h, 2);
    capture::BeamformingActionFrame f;
    f.ra = capture::MacAddress::for_module(static_cast<int>(i) %
                                           phy::kNumModules);
    f.ta = capture::MacAddress::for_station(0);
    f.bssid = f.ra;
    f.mimo_control.nc = 2;
    f.mimo_control.nr = 3;
    f.mimo_control.bandwidth = 2;
    f.report = feedback::pack_report(feedback::compress_v_series(v, sc, cfg));
    out.push_back(f.serialize());
  }
  return out;
}

// Section 2: the full observer path at serving scale.
bool run_ingest_throughput(bench::BenchReport& report) {
  core::Authenticator auth = bench::scale_authenticator();
  const dataset::InputSpec spec = auth.input_spec();

  const std::size_t batch = bench::batch_from_env();
  const std::vector<std::vector<std::uint8_t>> distinct = make_frame_pool(8);
  std::vector<const std::vector<std::uint8_t>*> frames(batch);
  for (std::size_t i = 0; i < batch; ++i)
    frames[i] = &distinct[i % distinct.size()];

  const auto& sc = phy::vht80_sounded_subcarriers();
  const auto cfg = feedback::mu_mimo_codebook_high();
  const int original_threads = common::num_threads();

  // Calibrate the int8 activation ranges on the bench's own traffic so
  // the avx2_int8 row of the backend sweep exercises the quantized
  // kernels (uncalibrated models degrade to fp32 and the sweep's
  // honesty check would fail the run).
  {
    const std::size_t c =
        static_cast<std::size_t>(dataset::num_input_channels(spec));
    const std::size_t w = dataset::num_input_columns(spec);
    nn::Tensor features({distinct.size(), c, 1, w});
    for (std::size_t i = 0; i < distinct.size(); ++i) {
      const auto f = capture::BeamformingActionFrame::parse(distinct[i]);
      DEEPCSI_CHECK(f.has_value());
      const auto r = feedback::unpack_report(f->report, f->mimo_control.nr,
                                             f->mimo_control.nc, sc, cfg);
      dataset::fill_features(r, spec, features.data() + i * c * w);
    }
    auth.calibrate_int8(features);
  }

  // Per-stage rates at 1 thread (per report, full 234-sc decode).
  common::set_num_threads(1);
  {
    const std::vector<std::uint8_t>& bytes = *frames[0];
    bench::Stopwatch t1;
    std::size_t iters = 0;
    while (t1.seconds() < 0.2) {
      const auto f = capture::BeamformingActionFrame::parse(bytes);
      if (!f) return false;
      ++iters;
    }
    report.add_metric("frame_parse_per_s",
                      static_cast<double>(iters) / t1.seconds(), "frames/s");

    const auto f = capture::BeamformingActionFrame::parse(bytes);
    bench::Stopwatch t2;
    iters = 0;
    while (t2.seconds() < 0.2) {
      const auto r = feedback::unpack_report(f->report, f->mimo_control.nr,
                                             f->mimo_control.nc, sc, cfg);
      ++iters;
    }
    report.add_metric("unpack_report_per_s",
                      static_cast<double>(iters) / t2.seconds(), "reports/s");

    const auto r = feedback::unpack_report(f->report, f->mimo_control.nr,
                                           f->mimo_control.nc, sc, cfg);
    std::vector<float> buf(
        static_cast<std::size_t>(dataset::num_input_channels(spec)) *
        dataset::num_input_columns(spec));
    bench::Stopwatch t3;
    iters = 0;
    while (t3.seconds() < 0.2) {
      dataset::fill_features(r, spec, buf.data());
      ++iters;
    }
    report.add_metric("fill_features_per_s",
                      static_cast<double>(iters) / t3.seconds(), "reports/s");
  }

  std::vector<core::Authenticator::Prediction> reference;
  std::vector<feedback::CompressedFeedbackReport> reports(batch);
  double rate_1t = 0.0;
  bool identical = true;

  std::printf("end-to-end ingest (%zu frames/batch, %s model): parse -> "
              "decode -> reconstruct -> features -> classify_batch\n",
              batch, dataset::full_scale_selected() ? "paper" : "quick");
  std::printf("%8s %14s %10s\n", "threads", "reports/s", "speedup");
  for (const int threads : {1, 2, 4}) {
    common::set_num_threads(threads);
    std::vector<core::Authenticator::Prediction> preds;
    double best = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
      bench::Stopwatch timer;
      // Frames decode independently, so parse + bitpack decode fans out
      // over the pool like the feature assembly inside classify_batch.
      common::parallel_for(
          0, batch, common::grain_for(sc.size() * 16),
          [&](std::size_t lo, std::size_t hi) {
            for (std::size_t i = lo; i < hi; ++i) {
              const auto f = capture::BeamformingActionFrame::parse(*frames[i]);
              DEEPCSI_CHECK(f.has_value());
              reports[i] = feedback::unpack_report(f->report, f->mimo_control.nr,
                                                   f->mimo_control.nc, sc, cfg);
            }
          });
      preds = auth.classify_batch(reports);
      const double rate = static_cast<double>(batch) / timer.seconds();
      if (rate > best) best = rate;
    }
    if (reference.empty()) {
      reference = preds;
      rate_1t = best;
    }
    for (std::size_t i = 0; i < preds.size(); ++i)
      if (preds[i].module_id != reference[i].module_id ||
          preds[i].confidence != reference[i].confidence)
        identical = false;
    std::printf("%8d %14.1f %9.2fx\n", threads, best, best / rate_1t);
    report.add_metric("ingest_throughput", best, "reports/s",
                      {{"threads", threads},
                       {"batch_size", static_cast<double>(batch)}});
  }
  // Per-SIMD-backend end-to-end rate at 1 thread: how much of the ingest
  // path (rotation-kernel decode + feature fill + NN forward) the avx2
  // backend accelerates on one core.
  common::set_num_threads(1);
  std::printf("end-to-end ingest per SIMD backend (1 thread):\n");
  const bool backend_verdicts_match = bench::sweep_simd_backends(
      report, "ingest_backend_throughput",
      {{"threads", 1.0}, {"batch_size", static_cast<double>(batch)}},
      [&] {
        double best = 0.0;
        for (int rep = 0; rep < 3; ++rep) {
          bench::Stopwatch timer;
          common::parallel_for(
              0, batch, common::grain_for(sc.size() * 16),
              [&](std::size_t lo, std::size_t hi) {
                for (std::size_t i = lo; i < hi; ++i) {
                  const auto f =
                      capture::BeamformingActionFrame::parse(*frames[i]);
                  DEEPCSI_CHECK(f.has_value());
                  reports[i] = feedback::unpack_report(
                      f->report, f->mimo_control.nr, f->mimo_control.nc, sc,
                      cfg);
                }
              });
          auth.classify_batch(reports);
          const double rate = static_cast<double>(batch) / timer.seconds();
          if (rate > best) best = rate;
        }
        return best;
      },
      [&] { return auth.classify_batch(reports); });

  common::set_num_threads(original_threads);
  std::printf("predictions bit-identical across thread counts: %s\n\n",
              identical ? "yes" : "NO");
  report.add_metric("outputs_bit_identical", identical ? 1.0 : 0.0, "bool");
  std::fflush(stdout);
  return identical && backend_verdicts_match;
}

}  // namespace

int main() {
  bench::BenchReport report("ingest",
                            "feedback-report ingest: rotation kernels + end-to-end "
                            "serving throughput");
  const double speedup = run_reconstruct_comparison(report);
  const bool identical = run_ingest_throughput(report);
  report.write_json();
  // Prediction bit-identity rides the exit code, and so does a
  // reconstruct-speedup regression backstop. The target is 5x (recorded
  // in the JSON and tracked by the trajectory); the hard gate sits at 3x
  // so a genuine fallback to matrix-product-level cost (~1x) fails CI
  // while noisy-neighbor jitter on shared runners does not.
  if (speedup < 5.0)
    std::printf("%s: reconstruct speedup %.1fx below the 5x target\n",
                speedup < 3.0 ? "FAIL" : "WARNING", speedup);
  if (speedup < 3.0) return 1;
  return identical ? 0 : 1;
}
