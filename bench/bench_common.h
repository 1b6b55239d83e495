// Shared utilities for the perf benches (bench_ingest, bench_serving,
// bench_infer, bench_net, bench_fleet): each writes BENCH_<name>.json rows
// and shares the fixtures below, one copy each. DEEPCSI_SCALE=full selects
// the paper model; the default is quick scale. The paper's figures live in
// bench_paper.cc.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "capture/monitor.h"
#include "common/parallel.h"
#include "core/model.h"
#include "core/pipeline.h"
#include "dataset/features.h"
#include "dataset/scale.h"
#include "dataset/splits.h"
#include "dataset/traces.h"
#include "nn/gemm.h"
#include "nn/simd.h"
#include "phy/impairments.h"
#include "serving/service.h"

namespace deepcsi::bench {

class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

// Machine-readable companion to the printed rows: collects metrics and
// writes BENCH_<name>.json next to the binary, one object per metric with
// numeric attributes (thread count, batch size, ...), plus the host that
// measured them. This seeds the repo's perf trajectory — CI archives the
// file per commit. Constructing one prints the bench's banner.
class BenchReport {
 public:
  BenchReport(std::string name, const char* what) : name_(std::move(name)) {
    std::printf("==============================================================\n");
    std::printf("DeepCSI reproduction — %s\n%s\n", name_.c_str(), what);
    std::printf("scale: %s\n",
                dataset::full_scale_selected() ? "full (paper-like)" : "quick");
    std::printf("==============================================================\n");
    std::fflush(stdout);
  }

  void add_metric(
      const std::string& metric, double value, const std::string& unit,
      std::vector<std::pair<std::string, double>> attrs = {}) {
    metrics_.push_back({metric, unit, value, std::move(attrs)});
  }

  std::string to_json() const {
    std::ostringstream os;
    os.precision(17);  // round-trip doubles: the trajectory must not quantize
    os << "{\n  \"bench\": \"" << name_ << "\",\n"
       << "  \"scale\": \""
       << (dataset::full_scale_selected() ? "full" : "quick") << "\",\n"
       << "  \"default_threads\": " << common::num_threads() << ",\n"
       << "  \"host\": " << host_json() << ",\n"
       << "  \"metrics\": [\n";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      os << "    {\"name\": \"" << m.name << "\", \"unit\": \"" << m.unit
         << "\", \"value\": " << m.value;
      for (const auto& [k, v] : m.attrs) os << ", \"" << k << "\": " << v;
      os << "}" << (i + 1 < metrics_.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
    return os.str();
  }

  // Writes BENCH_<name>.json in the working directory.
  void write_json() const {
    const std::string path = "BENCH_" + name_ + ".json";
    std::ofstream out(path);
    out << to_json();
    out.flush();
    std::printf(out ? "wrote %s\n" : "FAILED to write %s\n", path.c_str());
    std::fflush(stdout);
  }

 private:
  // nproc, the CPU model and the ISA flags the kernel backends care about,
  // from /proc/cpuinfo (model "" and every flag false where it is absent).
  static std::string host_json() {
    std::ifstream cpuinfo("/proc/cpuinfo");
    std::string line, model, flags;
    while (std::getline(cpuinfo, line) && (model.empty() || flags.empty())) {
      const std::size_t colon = line.find(':');
      if (colon == std::string::npos) continue;
      const std::string value = line.substr(std::min(colon + 2, line.size()));
      if (model.empty() && line.starts_with("model name")) model = value;
      if (flags.empty() && line.starts_with("flags")) flags = " " + value + " ";
    }
    std::erase_if(model, [](char c) { return c == '"' || c == '\\'; });
    std::ostringstream os;
    os << "{\"nproc\": " << std::thread::hardware_concurrency()
       << ", \"cpu\": \"" << model << "\"";
    for (const char* flag : {"avx2", "fma", "avx512_vnni", "amx_int8"})
      os << ", \"" << flag << "\": "
         << (flags.find(std::string(" ") + flag + " ") != std::string::npos
                 ? "true"
                 : "false");
    os << "}";
    return os.str();
  }

  struct Metric {
    std::string name, unit;
    double value;
    std::vector<std::pair<std::string, double>> attrs;
  };
  std::string name_;
  std::vector<Metric> metrics_;
};

// Shared per-SIMD-backend sweep protocol for the throughput benches:
// for every backend the host can run, measure() returns a reports/s
// rate (printed as a row and recorded as `metric` with a `backend`
// attribute plus `extra_attrs`), then classify() returns predictions
// whose argmax verdicts must agree across backends (the cross-backend
// contract; recorded as the bool metric "backend_verdicts_match").
// Restores the previously active backend. Returns false when verdicts
// diverged — callers ride that on their exit code.
//
// Honesty check for the quantized backend: while measuring avx2_int8
// the int8 driver dispatch counter (nn/gemm.h) must move — an "int8"
// row that silently ran the fp32 path (uncalibrated model, stale
// context pool) would invalidate the comparison, so it fails the sweep
// instead. `rates` (optional) receives each backend's measured rate so
// callers can gate ratios (bench_infer's >= 2x int8-vs-fp32 gate).
template <typename MeasureFn, typename ClassifyFn>
bool sweep_simd_backends(
    BenchReport& report, const std::string& metric,
    std::vector<std::pair<std::string, double>> extra_attrs,
    MeasureFn&& measure, ClassifyFn&& classify,
    std::vector<std::pair<simd::Backend, double>>* rates = nullptr) {
  const std::vector<simd::Backend> backends = simd::available_backends();
  if (backends.size() < 2)
    std::printf("NOTE: avx2 backend unavailable on this host — %s has only "
                "the scalar row\n",
                metric.c_str());
  const simd::Backend saved = simd::active();
  double scalar_rate = 0.0;
  bool verdicts_match = true;
  bool int8_honest = true;
  std::vector<core::Authenticator::Prediction> reference;
  for (const simd::Backend backend : backends) {
    simd::set_active(backend);
    const std::uint64_t int8_before = nn::int8_kernel_dispatches();
    const double rate = measure();
    if (backend == simd::Backend::kAvx2Int8 &&
        nn::int8_kernel_dispatches() == int8_before) {
      std::printf("  %-10s FAIL: int8 kernels never dispatched (uncalibrated "
                  "model or stale context pool?)\n",
                  simd::name(backend));
      int8_honest = false;
    }
    if (backend == simd::Backend::kScalar) scalar_rate = rate;
    std::printf("  %-10s %14.1f reports/s  (%.2fx scalar)\n",
                simd::name(backend), rate,
                scalar_rate > 0.0 ? rate / scalar_rate : 0.0);
    std::vector<std::pair<std::string, double>> attrs = extra_attrs;
    attrs.insert(attrs.begin(),
                 {"backend", static_cast<double>(backend)});
    report.add_metric(metric, rate, "reports/s", std::move(attrs));
    if (rates != nullptr) rates->push_back({backend, rate});
    const std::vector<core::Authenticator::Prediction> preds = classify();
    if (reference.empty()) {
      reference = preds;
    } else {
      for (std::size_t i = 0; i < preds.size(); ++i)
        if (preds[i].module_id != reference[i].module_id)
          verdicts_match = false;
    }
  }
  simd::set_active(saved);
  std::printf("classify verdicts match across backends: %s\n",
              verdicts_match ? "yes" : "NO");
  report.add_metric("backend_verdicts_match", verdicts_match ? 1.0 : 0.0,
                    "bool");
  std::fflush(stdout);
  return verdicts_match && int8_honest;
}

// ---------------------------------------------------- perf-bench fixtures

// Batch size (and scheduler max_batch) of every perf bench:
// DEEPCSI_BENCH_BATCH, default 64 (the value CI runs and every baseline
// carries).
inline std::size_t batch_from_env() {
  std::size_t batch = 64;
  if (const char* s = std::getenv("DEEPCSI_BENCH_BATCH")) {
    const long v = std::atol(s);
    if (v >= 1) batch = static_cast<std::size_t>(v);
  }
  return batch;
}

// Untrained classifier for the scale DEEPCSI_SCALE selects (quick model
// at the quick stride, paper model at full). Fixed init seeds: two calls
// classify identically.
inline core::Authenticator scale_authenticator() {
  dataset::InputSpec spec;
  spec.subcarrier_stride = dataset::scale_from_env().subcarrier_stride;
  return core::Authenticator(
      core::build_deepcsi_model(
          dataset::num_input_channels(spec),
          static_cast<int>(dataset::num_input_columns(spec)),
          phy::kNumModules, core::experiment_config_from_env().model),
      spec);
}

// `stations` beamformees, station s transmitting the reports of module
// s % kNumModules, interleaved frame by frame, 1 ms apart, all to one
// beamformer.
inline std::vector<capture::ObservedFeedback> station_stream(
    int stations, int reports_per_station) {
  dataset::Scale scale;
  scale.d1_snapshots_per_trace = reports_per_station;
  std::vector<std::vector<feedback::CompressedFeedbackReport>> per_station;
  for (int s = 0; s < stations; ++s) {
    const dataset::Trace trace =
        dataset::generate_d1_trace(s % phy::kNumModules, 1, 0, scale, {});
    std::vector<feedback::CompressedFeedbackReport> reports;
    for (const dataset::Snapshot& snap : trace.snapshots)
      reports.push_back(snap.report);
    per_station.push_back(std::move(reports));
  }
  std::vector<capture::ObservedFeedback> stream;
  for (int i = 0; i < reports_per_station; ++i)
    for (int s = 0; s < stations; ++s) {
      capture::ObservedFeedback obs;
      obs.timestamp_s = 0.001 * static_cast<double>(stream.size());
      obs.beamformee = capture::MacAddress::for_station(s);
      obs.beamformer = capture::MacAddress::for_module(0);
      obs.report = per_station[static_cast<std::size_t>(s)][
          static_cast<std::size_t>(i)];
      stream.push_back(std::move(obs));
    }
  return stream;
}

// The streaming benches' service: 1024-report queue, batches of
// batch_from_env() flushed after at most 2 ms, 31-report verdict window,
// one consumer lane.
inline serving::ServiceConfig service_config(
    common::OverflowPolicy policy = common::OverflowPolicy::kBlock) {
  serving::ServiceConfig cfg;
  cfg.queue_capacity = 1024;
  cfg.policy = policy;
  cfg.scheduler.max_batch = batch_from_env();
  cfg.scheduler.max_latency = std::chrono::milliseconds(2);
  cfg.sessions.window = 31;
  return cfg;
}

}  // namespace deepcsi::bench
