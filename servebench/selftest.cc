// Self-tests of the serving benchmark's own logic: percentile rules, seed
// determinism of the generated traffic, lag accounting and the metric
// table. Run through `python3 servebench/run.py --self-test`, which also
// checks the metric table against BENCHMARK.json.
#include <cmath>
#include <cstdio>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "harness.h"
#include "net/protocol.h"
#include "serving/fleet.h"

namespace {

namespace sb = servebench;
int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::printf("FAIL %s\n", what);
    ++failures;
  }
}

bool near(double a, double b, double tol = 1e-9) {
  return std::fabs(a - b) <= tol;
}

void test_percentiles() {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  check(near(sb::nearest_rank(v, 50), 50), "p50 of 1..100 is 50");
  check(near(sb::nearest_rank(v, 99), 99), "p99 of 1..100 is 99");
  check(near(sb::nearest_rank(v, 99.5), 100), "p99.5 of 1..100 is 100");
  check(near(sb::nearest_rank(v, 0.1), 1), "a tiny percentile is the minimum");
  check(near(sb::nearest_rank({7.0}, 99), 7), "one sample is every percentile");
  check(near(sb::nearest_rank({}, 50), 0), "empty sample reads 0");

  // At least 10 samples beyond the nearest-rank position.
  check(!sb::percentile_supported(99, 999), "p99 unsupported at n=999");
  check(sb::percentile_supported(99, 1000), "p99 supported at n=1000");
  check(near(sb::highest_supported_percentile(19), 0), "n=19 supports nothing");
  check(near(sb::highest_supported_percentile(20), 50), "n=20 supports p50");
  check(near(sb::highest_supported_percentile(100), 90), "n=100 supports p90");
  check(near(sb::highest_supported_percentile(999), 90), "n=999 supports p90");
  check(near(sb::highest_supported_percentile(1000), 99), "n=1000 supports p99");
  check(near(sb::highest_supported_percentile(10000), 99.9),
        "n=10000 supports p99.9");
}

void test_seed_determinism() {
  const auto a = sb::poisson_schedule(7, 5000, 2.0);
  const auto b = sb::poisson_schedule(7, 5000, 2.0);
  const auto c = sb::poisson_schedule(8, 5000, 2.0);
  check(a == b, "same seed, same due times");
  check(a != c, "different seed, different due times");
  bool ascending = true;
  for (std::size_t i = 1; i < a.size(); ++i) ascending &= a[i] > a[i - 1];
  check(ascending && !a.empty() && a.back() < 2.0,
        "due times ascend inside the phase");
  check(std::fabs(static_cast<double>(a.size()) - 10000.0) < 400.0,
        "Poisson count near rate x seconds");

  // Station sequence: round order, disjoint phase ranges, ids exact in
  // the timestamp.
  sb::StationSequence seq;
  seq.stations = 512;
  check(seq.station(513) == 1 && seq.round(513) == 1, "round-order mapping");
  check(sb::kPrefillBase < sb::kFixedBase &&
            sb::kFixedBase + sb::kPhaseSpan <= sb::kSaturationBase &&
            sb::kSaturationBase + sb::kPhaseSpan <= sb::kWarmupBase,
        "phase seq ranges are disjoint");
  bool exact = true;
  for (std::uint64_t s : {std::uint64_t{0}, std::uint64_t{1}, sb::kFixedBase + 12345,
                          sb::kSaturationBase + sb::kPhaseSpan - 1,
                          sb::kWarmupBase + 63})
    exact &= sb::timestamp_seq(sb::seq_timestamp(s)) == s;
  check(exact, "report id round-trips through the stream timestamp");

  // The traffic itself: the fleet generator's reports are a pure function
  // of the seed.
  deepcsi::serving::FleetConfig fc;
  fc.stations = 64;
  fc.modules = 3;
  fc.positions = 2;
  fc.station_classes = 2;
  fc.mobile_fraction = 0.3;
  fc.confusion_fraction = 0.2;
  fc.seed = 11;
  const deepcsi::serving::FleetGenerator g1(fc), g2(fc);
  fc.seed = 12;
  const deepcsi::serving::FleetGenerator g3(fc);
  bool same = true, differs = false;
  for (std::uint64_t s = 0; s < 64; s += 5)
    for (std::size_t j = 0; j < 4; ++j) {
      const auto r1 = deepcsi::net::encode_report_frame(g1.report(s, j));
      same &= r1 == deepcsi::net::encode_report_frame(g2.report(s, j));
      differs |= r1 != deepcsi::net::encode_report_frame(g3.report(s, j));
    }
  check(same, "same seed, same reports");
  check(differs, "different seed, different reports");
}

void test_lag_accounting() {
  // The generator stalls until 5 ms: the three reports due at 1, 2, 3 ms
  // all leave at 5 ms and complete 1 ms later. Latency counts from the due
  // time, so the stall is charged to each of them; lag is their lateness.
  std::vector<sb::OpenLoopSample> s = {{0.000, 0.000, 0.001},
                                       {0.001, 0.005, 0.006},
                                       {0.002, 0.005, 0.006},
                                       {0.003, 0.005, 0.006},
                                       {0.004, 0.0039, -1.0}};
  const sb::OpenLoopSummary o = sb::summarize_open_loop(s);
  check(o.reports == 5 && o.completed == 4, "completed count");
  const std::vector<double> lat = {1, 3, 4, 5};
  bool lat_ok = o.latency_ms.size() == 5;
  for (std::size_t i = 0; lat_ok && i < lat.size(); ++i)
    lat_ok = near(o.latency_ms[i], lat[i], 1e-6);
  check(lat_ok, "latency from due time includes the stall");
  check(std::isinf(o.latency_ms.back()), "a lost report is an infinite latency");
  const std::vector<double> lag = {0, 0, 2, 3, 4};
  bool lag_ok = o.lag_ms.size() == 5;
  for (std::size_t i = 0; lag_ok && i < lag.size(); ++i)
    lag_ok = near(o.lag_ms[i], lag[i], 1e-6);
  check(lag_ok, "lag is sent - due, an early send counts as 0");

  // Windowed statistics.
  std::vector<double> done;
  for (int i = 0; i < 300; ++i) done.push_back(10.0 + i * 0.01);  // 100/s
  const std::vector<double> rates = sb::window_rates(done, 10.0, 13.75, 0.5);
  bool flat = rates.size() == 5;
  for (const double r : rates) flat &= near(r, 100.0, 1e-6);
  check(flat, "per-window rates over whole windows only");
  // 100/s completed in batches of 16 (every 0.16 s): a fixed 0.5-s window
  // would read 96 or 128; windows aligned to completions read 100.
  std::vector<double> batched;
  for (int b = 0; b < 40; ++b)
    for (int i = 0; i < 16; ++i) batched.push_back(b * 0.16 + i * 1e-6);
  bool exact = true;
  for (const double r : sb::window_rates(batched, 0.0, 6.3, 0.5))
    exact &= near(r, 100.0, 1e-2);
  check(exact, "batched completions are not quantized to the batch");
  std::vector<sb::OpenLoopSample> w;
  for (int i = 0; i < 2500; ++i) {
    const double due = i * 0.001;
    const double late = (i == 5) ? 1.0 : (i < 1000 ? 0.002 : 0.003);
    w.push_back({due, due, due + late});
  }
  const std::vector<double> p99 = sb::block_latency_percentiles(w, 1000, 99);
  check(p99.size() == 2 && near(p99[0], 2.0, 1e-6) && near(p99[1], 3.0, 1e-6),
        "per-block p99, one stall inside a block's top 1%, partial block dropped");
  check(sb::percentile_supported(99, 1000),
        "a 1000-report block supports p99");
}

void test_metric_table() {
  std::set<std::string> names;
  bool ok = true;
  for (const sb::MetricDef& m : sb::metric_table()) {
    const std::string name = m.name, unit = m.unit;
    ok &= !name.empty() && name.size() <= 64 && !unit.empty() &&
          unit.size() <= 16 && names.insert(name).second;
  }
  check(ok, "metric names unique, every metric has a unit");
  for (const char* required :
       {"setup_s", "throughput_rps", "latency_p50_ms", "latency_p99_ms",
        "rss_mb"})
    check(names.count(required) == 1, required);
  std::set<std::string> workloads;
  for (const sb::WorkloadDef& w : sb::workloads()) {
    workloads.insert(w.name);
    check(w.fixed_rate_rps > 0, "every workload has a fixed rate");
    // The session check of a bounded table relies on this.
    check(w.max_stations == 0 || w.stations >= sb::kWarmupBase,
          "a bounded workload's stations never repeat in a run");
  }
  check(workloads == std::set<std::string>{"wire_quick", "monitor_paper",
                                           "fleet_churn"},
        "the three workloads");
}

}  // namespace

int main() {
  test_percentiles();
  test_seed_determinism();
  test_lag_accounting();
  test_metric_table();
  std::printf("%s servebench self-tests (%d failure(s))\n",
              failures == 0 ? "ok  " : "FAIL", failures);
  return failures == 0 ? 0 : 1;
}
