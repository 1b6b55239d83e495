// Million-station soak: streams a synthetic fleet of DISTINCT
// beamformees (10^5 quick / 10^6 full, overridable via
// DEEPCSI_FLEET_STATIONS) through the full ingest -> scheduler ->
// classify -> session path with a bounded, evicting SessionTable — the
// serving-at-scale claim behind `deepcsi fleet`.
//
// Writes BENCH_fleet.json for the perf trajectory:
//   - fleet_throughput: classified reports/s for the soak (gated by
//     tools/bench_compare.py)
//   - fleet_batch_p50_ms / p99: scheduler batch latency under fleet load
//   - fleet_session_bytes_mb / fleet_rss_delta_mb: memory telemetry
//   - occupancy_at_ceiling / session_bytes_bounded / rss_bounded /
//     p99_stable / resident_verdicts_bit_identical: the soak's pass
//     conditions (all ride the exit code)
//   - int8_resident_verdicts_match: the same bounded fleet replayed
//     under DEEPCSI_SIMD=avx2_int8 must leave resident verdicts equal
//     to the fp32 avx2 run, field for field (also on the exit code)
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <vector>

#include "bench_common.h"
#include "common/rss.h"
#include "core/model.h"
#include "core/pipeline.h"
#include "dataset/features.h"
#include "nn/gemm.h"
#include "nn/simd.h"
#include "serving/fleet.h"
#include "serving/service.h"

namespace {

using namespace deepcsi;

std::uint64_t fleet_stations() {
  if (const char* s = std::getenv("DEEPCSI_FLEET_STATIONS")) {
    const long long v = std::atoll(s);
    if (v >= 1) return static_cast<std::uint64_t>(v);
  }
  return dataset::full_scale_selected() ? 1000000u : 100000u;
}

core::Authenticator make_authenticator() {
  // Quick model at every scale: the soak measures the serving path, not
  // the classifier — full scale raises the station count instead.
  //
  // The model is TRAINED on a sample of the fleet generator's own
  // template traffic, then int8-calibrated on those training features.
  // The int8 parity section below demands bit-equal verdicts between the
  // fp32 and avx2_int8 backends; that contract is only meaningful when
  // the classifier has decisive margins on the evaluated templates — an
  // untrained model's near-tied logits make the argmax a coin toss that
  // any rounding difference flips. Training to convergence on the pool
  // distribution (fixed seeds, deterministic trainer) gives every
  // template a margin well clear of the int8 quantization error.
  const dataset::InputSpec spec;
  serving::FleetConfig tfc;
  tfc.stations = 1280;
  tfc.reports_per_station = 1;
  const serving::FleetGenerator tgen(tfc);
  const std::size_t c =
      static_cast<std::size_t>(dataset::num_input_channels(spec));
  const std::size_t w = dataset::num_input_columns(spec);
  nn::LabeledSet train;
  train.x = nn::Tensor({tfc.stations, c, 1, w});
  train.num_classes = phy::kNumModules;
  for (std::uint64_t s = 0; s < tfc.stations; ++s) {
    dataset::fill_features(tgen.report(s, 0).report, spec,
                           train.x.data() + s * c * w);
    train.y.push_back(tgen.expected_module(s));
  }
  const dataset::SplitSets split{train, train};
  core::ExperimentConfig cfg = core::quick_experiment_config();
  cfg.train.epochs = 24;
  core::Authenticator auth = core::train_authenticator(split, spec, cfg);
  // Activation ranges from the training set, per the calibration
  // contract. Calibration is inert under the fp32 backends, so the soak
  // and bounded-vs-unbounded sections are unaffected.
  auth.calibrate_int8(train.x);
  return auth;
}

// The soak itself: `stations` distinct beamformees x 2 reports against a
// 32768-entry LRU ceiling. Pass conditions are deterministic where they
// can be (occupancy, table bytes) and a coarse leak guard where they
// cannot (process RSS).
bool run_soak(const core::Authenticator& auth, bench::BenchReport& report) {
  const std::uint64_t stations = fleet_stations();
  serving::FleetConfig fc;
  fc.stations = stations;
  fc.reports_per_station = 2;
  fc.mobile_fraction = 0.2;
  fc.confusion_fraction = 0.05;

  serving::ServiceConfig cfg;
  cfg.queue_capacity = 1024;  // a full report is ~10s of KB; keep the queue
                              // out of the RSS story
  cfg.scheduler.max_batch = 64;
  cfg.scheduler.max_latency = std::chrono::milliseconds(2);
  cfg.consumers = 2;
  cfg.sessions.window = 31;
  cfg.sessions.num_shards = 64;
  cfg.sessions.max_stations = 32768;
  const int producers = 4;

  std::printf("fleet soak: %llu stations x %zu reports, ceiling %zu "
              "(%zu shards), %d producers, %zu consumers\n",
              static_cast<unsigned long long>(stations),
              fc.reports_per_station, cfg.sessions.max_stations,
              cfg.sessions.num_shards, producers, cfg.consumers);

  const std::size_t rss_before = common::process_rss_bytes();
  const serving::FleetGenerator gen(fc);
  bench::Stopwatch watch;
  serving::AuthService service(auth, cfg);
  const serving::FleetRunStats fr = serving::run_fleet(service, gen, producers);
  const double seconds = watch.seconds();
  const std::size_t rss_after = common::process_rss_bytes();
  const serving::StatsSnapshot stats = service.stats();

  const double rate = static_cast<double>(fr.accepted) / seconds;
  const std::size_t footprint =
      serving::SessionTable::session_footprint_bytes(cfg.sessions.window);
  const std::size_t session_budget = cfg.sessions.max_stations * footprint;
  const double rss_delta_mb =
      (rss_after > rss_before && rss_before > 0)
          ? static_cast<double>(rss_after - rss_before) / (1024.0 * 1024.0)
          : 0.0;

  const bool occupancy_ok =
      stats.sessions.stations == stats.sessions.station_ceiling &&
      stats.sessions.station_ceiling == cfg.sessions.max_stations;
  const bool bytes_ok = stats.sessions.approx_bytes <= session_budget;
  // Coarse leak guard: the run may only grow the process by the bounded
  // table plus queue/inference slack — an unbounded table would blow
  // straight through this at any soak scale.
  const bool rss_ok =
      common::process_rss_bytes() == 0 ||  // platform can't report RSS
      rss_delta_mb <= static_cast<double>(session_budget) / (1024.0 * 1024.0) +
                          96.0;
  const bool p99_ok = stats.batch_latency_p99_ms <=
                      std::max(10.0 * stats.batch_latency_p50_ms, 100.0);

  std::printf("  classified %zu/%zu reports in %.1fs  ->  %.1f reports/s\n",
              stats.reports_classified, fr.offered, seconds, rate);
  std::printf("  batch latency p50 %.2f ms, p99 %.2f ms  (p99 stable: %s)\n",
              stats.batch_latency_p50_ms, stats.batch_latency_p99_ms,
              p99_ok ? "yes" : "NO");
  std::printf("  sessions: %zu resident (ceiling %zu, %s), evicted "
              "lru=%zu ttl=%zu\n",
              stats.sessions.stations, stats.sessions.station_ceiling,
              occupancy_ok ? "at ceiling" : "NOT at ceiling",
              stats.sessions.evicted_lru, stats.sessions.evicted_ttl);
  std::printf("  table %.1f MB (budget %.1f MB, %s), rss delta %.1f MB "
              "(%s)\n\n",
              static_cast<double>(stats.sessions.approx_bytes) /
                  (1024.0 * 1024.0),
              static_cast<double>(session_budget) / (1024.0 * 1024.0),
              bytes_ok ? "bounded" : "OVER BUDGET", rss_delta_mb,
              rss_ok ? "bounded" : "LEAKING");
  std::fflush(stdout);

  const std::vector<std::pair<std::string, double>> attrs = {
      {"producers", static_cast<double>(producers)},
      {"consumers", static_cast<double>(cfg.consumers)},
      {"max_batch", static_cast<double>(cfg.scheduler.max_batch)}};
  report.add_metric("fleet_throughput", rate, "reports/s", attrs);
  report.add_metric("fleet_batch_p50_ms", stats.batch_latency_p50_ms, "ms",
                    attrs);
  report.add_metric("fleet_batch_p99_ms", stats.batch_latency_p99_ms, "ms",
                    attrs);
  report.add_metric("fleet_session_bytes_mb",
                    static_cast<double>(stats.sessions.approx_bytes) /
                        (1024.0 * 1024.0),
                    "MB");
  report.add_metric("fleet_rss_delta_mb", rss_delta_mb, "MB");
  report.add_metric("occupancy_at_ceiling", occupancy_ok ? 1.0 : 0.0, "bool");
  report.add_metric("session_bytes_bounded", bytes_ok ? 1.0 : 0.0, "bool");
  report.add_metric("rss_bounded", rss_ok ? 1.0 : 0.0, "bool");
  report.add_metric("p99_stable", p99_ok ? 1.0 : 0.0, "bool");
  return occupancy_ok && bytes_ok && rss_ok && p99_ok;
}

// The determinism contract under eviction: stations still resident in a
// bounded service (single-round fleet, so residents were never evicted)
// carry verdicts bit-identical to an unbounded service with different
// shard/lane, consumer and producer counts.
bool run_parity(const core::Authenticator& auth, bench::BenchReport& report) {
  serving::FleetConfig fc;
  fc.stations = 5000;
  fc.reports_per_station = 1;

  serving::ServiceConfig bounded_cfg;
  bounded_cfg.queue_capacity = 1024;
  bounded_cfg.scheduler.max_batch = 64;
  bounded_cfg.consumers = 2;
  bounded_cfg.sessions.window = 31;
  bounded_cfg.sessions.num_shards = 8;
  bounded_cfg.sessions.max_stations = 1024;

  const serving::FleetGenerator gen(fc);
  serving::AuthService bounded(auth, bounded_cfg);
  serving::run_fleet(bounded, gen, /*producers=*/4);

  serving::ServiceConfig unbounded_cfg = bounded_cfg;
  unbounded_cfg.sessions.max_stations = 0;
  unbounded_cfg.sessions.num_shards = 4;
  unbounded_cfg.consumers = 1;
  serving::AuthService unbounded(auth, unbounded_cfg);
  serving::run_fleet(unbounded, gen, /*producers=*/1);

  std::map<std::uint64_t, serving::StationVerdict> ref;
  for (const serving::StationVerdict& v : unbounded.sessions().snapshot())
    ref[v.station.to_u64()] = v;

  const std::vector<serving::StationVerdict> residents =
      bounded.sessions().snapshot();
  bool identical = ref.size() == fc.stations &&
                   residents.size() == bounded_cfg.sessions.max_stations;
  for (const serving::StationVerdict& v : residents) {
    const auto it = ref.find(v.station.to_u64());
    if (it == ref.end()) {
      identical = false;
      break;
    }
    const serving::StationVerdict& r = it->second;
    identical = identical && v.module_id == r.module_id &&
                v.votes == r.votes && v.window_size == r.window_size &&
                v.total_reports == r.total_reports &&
                v.mean_confidence == r.mean_confidence &&
                v.last_timestamp_s == r.last_timestamp_s;
    if (!identical) break;
  }
  std::printf("resident verdicts bit-identical to unbounded service "
              "(%zu residents vs %zu stations): %s\n\n",
              residents.size(), static_cast<std::size_t>(fc.stations),
              identical ? "yes" : "NO");
  std::fflush(stdout);
  report.add_metric("resident_verdicts_bit_identical", identical ? 1.0 : 0.0,
                    "bool");
  return identical;
}

// The accuracy-parity contract at fleet scale: every resident station's
// VERDICT under the avx2_int8 backend must equal the fp32 avx2 run
// exactly — module assignment, votes, window occupancy, report counts,
// timestamps. mean_confidence is deliberately excluded: int8 logits
// differ from fp32 in low-order float bits by design; the serving
// contract is that classifications, not probabilities, are preserved.
//
// The table is unbounded here so both runs retain every station: under
// an LRU ceiling the resident SET depends on the racy producer/consumer
// interleaving, not the backend (run_parity above owns the eviction
// determinism story), and a set diff would mask the verdict diff this
// check is after.
bool run_int8_parity(const core::Authenticator& auth,
                     bench::BenchReport& report) {
  const std::vector<simd::Backend> avail = simd::available_backends();
  if (std::find(avail.begin(), avail.end(), simd::Backend::kAvx2Int8) ==
      avail.end()) {
    std::printf("int8 resident-verdict parity: skipped (avx2_int8 "
                "unavailable on this host/build)\n\n");
    return true;
  }
  const simd::Backend saved = simd::active();

  serving::FleetConfig fc;
  fc.stations = 2000;
  fc.reports_per_station = 1;
  serving::ServiceConfig cfg;
  cfg.queue_capacity = 1024;
  cfg.scheduler.max_batch = 64;
  cfg.consumers = 2;
  cfg.sessions.window = 31;
  cfg.sessions.num_shards = 8;
  cfg.sessions.max_stations = 0;  // unbounded: resident set == fleet
  const serving::FleetGenerator gen(fc);

  std::map<std::uint64_t, serving::StationVerdict> fp32;
  std::map<std::uint64_t, serving::StationVerdict> int8;
  bool int8_honest = false;
  for (const simd::Backend backend :
       {simd::Backend::kAvx2, simd::Backend::kAvx2Int8}) {
    if (!simd::set_active(backend)) {
      simd::set_active(saved);
      std::printf("int8 resident-verdict parity: skipped (%s backend "
                  "refused)\n\n",
                  simd::name(backend));
      return true;
    }
    const std::uint64_t before = nn::int8_kernel_dispatches();
    serving::AuthService service(auth, cfg);
    serving::run_fleet(service, gen, /*producers=*/2);
    auto& dst = backend == simd::Backend::kAvx2 ? fp32 : int8;
    for (const serving::StationVerdict& v : service.sessions().snapshot())
      dst[v.station.to_u64()] = v;
    if (backend == simd::Backend::kAvx2Int8)
      int8_honest = nn::int8_kernel_dispatches() > before;
  }
  simd::set_active(saved);

  bool match = fp32.size() == int8.size() && !fp32.empty() && int8_honest;
  if (match) {
    for (const auto& [station, v] : int8) {
      const auto it = fp32.find(station);
      if (it == fp32.end()) {
        match = false;
        break;
      }
      const serving::StationVerdict& r = it->second;
      match = v.module_id == r.module_id && v.votes == r.votes &&
              v.window_size == r.window_size &&
              v.total_reports == r.total_reports &&
              v.last_timestamp_s == r.last_timestamp_s;
      if (!match) break;
    }
  }
  std::printf("int8 resident verdicts match fp32 avx2 (%zu residents%s): "
              "%s\n\n",
              int8.size(),
              int8_honest ? "" : ", int8 kernels never dispatched",
              match ? "yes" : "NO");
  std::fflush(stdout);
  report.add_metric("int8_resident_verdicts_match", match ? 1.0 : 0.0,
                    "bool");
  return match;
}

}  // namespace

int main() {
  bench::BenchReport report("fleet",
                            "bounded-session fleet soak: 10^5..10^6 distinct "
                            "beamformees through the full serving path");

  const core::Authenticator auth = make_authenticator();
  const bool soak_ok = run_soak(auth, report);
  const bool parity_ok = run_parity(auth, report);
  const bool int8_ok = run_int8_parity(auth, report);

  report.write_json();
  return soak_ok && parity_ok && int8_ok ? 0 : 1;
}
