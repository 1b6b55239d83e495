#include "harness.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace servebench {

namespace {
// 1-based nearest rank of percentile q in a sample of n; the epsilon keeps
// q * n / 100 that is whole in exact arithmetic (99.9% of 10000) whole.
std::size_t rank_of(double q, std::size_t n) {
  const double r = std::ceil(q / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(std::max(r, 1.0)),
                                 1, std::max<std::size_t>(n, 1));
}
}  // namespace

double nearest_rank(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  return sorted[rank_of(q, sorted.size()) - 1];
}

bool percentile_supported(double q, std::size_t n) {
  // Samples strictly beyond the nearest-rank position.
  return n >= rank_of(q, n) + 10;
}

double highest_supported_percentile(std::size_t n) {
  double best = 0.0;
  for (const double q : {50.0, 90.0, 99.0, 99.9, 99.99})
    if (percentile_supported(q, n)) best = q;
  return best;
}

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double Rng::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::vector<double> poisson_schedule(std::uint64_t seed, double rate_rps,
                                     double seconds) {
  std::vector<double> due;
  if (rate_rps <= 0.0 || seconds <= 0.0) return due;
  due.reserve(static_cast<std::size_t>(rate_rps * seconds * 1.1) + 16);
  Rng rng(seed ^ 0xA11CE5EEDull);
  double t = 0.0;
  for (;;) {
    t += -std::log1p(-rng.uniform()) / rate_rps;
    if (t >= seconds) break;
    due.push_back(t);
  }
  return due;
}

std::uint64_t timestamp_seq(double timestamp_s) {
  return static_cast<std::uint64_t>(std::llround(timestamp_s * 1024.0));
}

OpenLoopSummary summarize_open_loop(const std::vector<OpenLoopSample>& s) {
  OpenLoopSummary out;
  out.reports = s.size();
  out.latency_ms.reserve(s.size());
  out.lag_ms.reserve(s.size());
  for (const OpenLoopSample& r : s) {
    out.lag_ms.push_back(std::max(0.0, r.sent - r.due) * 1e3);
    if (r.done < 0.0) {
      out.latency_ms.push_back(std::numeric_limits<double>::infinity());
    } else {
      ++out.completed;
      out.latency_ms.push_back((r.done - r.due) * 1e3);
    }
  }
  std::sort(out.latency_ms.begin(), out.latency_ms.end());
  std::sort(out.lag_ms.begin(), out.lag_ms.end());
  return out;
}

std::vector<double> block_latency_percentiles(
    const std::vector<OpenLoopSample>& s, std::size_t block, double q) {
  std::vector<double> out;
  if (block == 0) return out;
  std::vector<double> lat;
  for (std::size_t at = 0; at + block <= s.size(); at += block) {
    lat.clear();
    for (std::size_t i = at; i < at + block; ++i)
      lat.push_back(s[i].done < 0.0 ? std::numeric_limits<double>::infinity()
                                    : (s[i].done - s[i].due) * 1e3);
    std::sort(lat.begin(), lat.end());
    out.push_back(nearest_rank(lat, q));
  }
  return out;
}

std::vector<double> window_rates(std::vector<double> done, double start,
                                 double end, double window_s) {
  std::sort(done.begin(), done.end());
  std::vector<double> rates;
  auto from = std::lower_bound(done.begin(), done.end(), start);
  while (from != done.end()) {
    const auto to = std::lower_bound(from, done.end(), *from + window_s);
    if (to == done.end() || *to > end) break;
    rates.push_back(static_cast<double>(to - from) / (*to - *from));
    from = to;
  }
  return rates;
}

const std::vector<WorkloadDef>& workloads() {
  // Fixed rates are a third to 40% of each workload's saturation
  // throughput as measured when the benchmark was defined (4-vCPU Xeon
  // VM, see README.md), so that a slower period of a shared
  // host does not tip the open loop toward saturation. They are constants
  // on purpose: a later change is judged at its parent's offered load.
  static const std::vector<WorkloadDef> table = [] {
    std::vector<WorkloadDef> t;

    WorkloadDef wire;
    wire.name = "wire_quick";
    wire.front = Front::kWire;
    wire.paper_model = false;
    wire.stride = 2;
    wire.stations = 512;
    wire.fixed_rate_rps = 4000;
    t.push_back(wire);

    WorkloadDef monitor;
    monitor.name = "monitor_paper";
    monitor.front = Front::kMonitor;
    monitor.paper_model = true;
    monitor.stride = 1;
    monitor.stations = 512;
    monitor.fixed_rate_rps = 1000;
    t.push_back(monitor);

    WorkloadDef churn;
    churn.name = "fleet_churn";
    churn.front = Front::kSubmit;
    churn.paper_model = false;
    churn.stride = 1;
    // Far more distinct stations than the ceiling, in round order: no
    // station is seen twice in a run, so every record inserts and, once
    // the table is full, evicts.
    churn.stations = 4 * kPhaseSpan;
    churn.max_stations = 32768;
    churn.session_shards = 64;
    churn.fixed_rate_rps = 3500;
    t.push_back(churn);
    return t;
  }();
  return table;
}

const WorkloadDef* find_workload(const std::string& name) {
  for (const WorkloadDef& w : workloads())
    if (w.name == name) return &w;
  return nullptr;
}

const std::vector<MetricDef>& metric_table() {
  static const std::vector<MetricDef> table = {
      // End-to-end (--trace 0).
      {"setup_s", "s", false},
      {"throughput_rps", "1/s", false},
      {"latency_p50_ms", "ms", false},
      {"rss_mb", "MB", false},
      // Per-layer (--trace 1). The latency p99 is here, unbounded: on a
      // shared host its run-to-run spread is the host's own jitter.
      {"latency_p99_ms", "ms", true},
      {"net.decode_us", "us", true},
      {"net.pauses_per_kreport", "count", true},
      {"net.publish_frames_per_kreport", "count", true},
      {"net.publish_dropped_frac", "frac", true},
      {"capture.parse_us", "us", true},
      {"feedback.unpack_us", "us", true},
      {"dataset.features_us", "us", true},
      {"nn.forward_us", "us", true},
      {"nn.int8_dispatch_per_report", "count", true},
      {"core.classify_us", "us", true},
      {"serving.session_record_us", "us", true},
      {"serving.residence_ms_p50", "ms", true},
      {"serving.residence_ms_p99", "ms", true},
      {"serving.batch_size_mean", "count", true},
      {"serving.deadline_flush_frac", "frac", true},
      {"serving.evicted_per_report", "count", true},
      {"serving.session_mb", "MB", true},
      {"common.queue_handoff_us", "us", true},
      {"common.queue_peak_depth", "count", true},
      {"common.would_block_per_kreport", "count", true},
      {"ingress_ms_p50", "ms", true},
      {"ingress_ms_p99", "ms", true},
      {"gen_lag_ms_p99", "ms", true},
      {"trace.throughput_delta_rps", "1/s", true},
      {"trace.latency_p50_delta_ms", "ms", true},
  };
  return table;
}

}  // namespace servebench
