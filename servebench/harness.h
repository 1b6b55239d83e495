// Pieces of the serving benchmark that carry its statistics and its
// determinism: percentile rules, the seeded arrival schedule and station
// sequence, generator-lateness accounting, the workload table and the
// metric table. The harness (servebench.cc) and the self-tests
// (selftest.cc) share them, so what the tests pin is what the runs use.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace servebench {

// ------------------------------------------------------------ percentiles

// Nearest-rank percentile of an ascending-sorted sample: the smallest
// value with at least q% of the sample at or below it (q in (0, 100]).
// Returns 0 for an empty sample.
double nearest_rank(const std::vector<double>& sorted, double q);

// The highest of the standard percentiles {50, 90, 99, 99.9, 99.99} that
// has at least 10 samples beyond it in a sample of n, or 0 when even the
// median lacks that support (n < 20).
double highest_supported_percentile(std::size_t n);

// True when percentile q has at least 10 samples beyond it in a sample
// of n.
bool percentile_supported(double q, std::size_t n);

// ------------------------------------------------------- seeded traffic

// splitmix64: the benchmark's only random source, so a seed means the same
// inputs on every platform and standard library.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  double uniform();  // [0, 1), 53 random bits

 private:
  std::uint64_t state_;
};

// Open-loop arrival offsets (seconds from phase start) of a Poisson
// process at `rate_rps`, truncated at `seconds`. Pure function of its
// arguments.
std::vector<double> poisson_schedule(std::uint64_t seed, double rate_rps,
                                     double seconds);

// The report sequence of a workload. Report `seq` belongs to station
// seq % stations and is that station's (seq / stations)-th report: every
// station sends report j before any station sends j+1 (round order).
// Each phase of a run owns a disjoint seq range starting at its base, so
// a station sequence never depends on how many reports an earlier phase
// managed to send.
struct StationSequence {
  std::uint64_t stations = 1;
  std::uint64_t station(std::uint64_t seq) const { return seq % stations; }
  std::uint64_t round(std::uint64_t seq) const { return seq / stations; }
};

inline constexpr std::uint64_t kPhaseSpan = 1ull << 20;
inline constexpr std::uint64_t kPrefillBase = 0;
inline constexpr std::uint64_t kFixedBase = kPhaseSpan;
inline constexpr std::uint64_t kSaturationBase = 2 * kPhaseSpan;
inline constexpr std::uint64_t kWarmupBase = 3 * kPhaseSpan;

// The stream timestamp of report `seq`. The report id rides in the
// timestamp (exact in binary: seq / 1024 s), the one per-report field
// the service hands back in its completion callback; stream time still
// advances monotonically per station.
inline double seq_timestamp(std::uint64_t seq) {
  return static_cast<double>(seq) / 1024.0;
}
std::uint64_t timestamp_seq(double timestamp_s);

// ---------------------------------------------------------- lag and latency

// Per-report outcome of an open-loop phase, all times in seconds on one
// clock. A report that never completed has done < 0.
struct OpenLoopSample {
  double due = 0.0;
  double sent = 0.0;
  double done = -1.0;
};

struct OpenLoopSummary {
  std::size_t reports = 0;
  std::size_t completed = 0;
  // Latency is timed from the DUE time, so a generator stall is charged
  // to every report it delayed; a report that never completed counts as
  // an infinite latency (it misses any limit).
  std::vector<double> latency_ms;  // ascending
  // How late the generator sent each report (sent - due, floored at 0).
  std::vector<double> lag_ms;      // ascending
};

OpenLoopSummary summarize_open_loop(const std::vector<OpenLoopSample>& s);

// Per-window and per-block statistics, for medians over a run: on a
// shared host one stall then moves one window, not the whole run.
//
// The nearest-rank q-th latency percentile of each consecutive block of
// `block` samples, in the order given; a trailing partial block is left
// out.
std::vector<double> block_latency_percentiles(
    const std::vector<OpenLoopSample>& s, std::size_t block, double q);
// Completions per second in consecutive windows of at least `window_s`
// seconds inside [start, end], from the completion times in `done`. Each
// window runs from one completion to the first completion `window_s` or
// more later, so it holds whole batches: a service that completes reports
// a batch at a time does not quantize the rate to its batch size.
std::vector<double> window_rates(std::vector<double> done, double start,
                                 double end, double window_s);

// ------------------------------------------------------------- workloads

enum class Front {
  kWire,     // NetClient -> loopback TCP -> TcpIngestServer -> try_submit
  kMonitor,  // raw action frame -> parse -> unpack_report -> submit(move)
  kSubmit,   // pre-decoded report -> submit(const ObservedFeedback&)
};

struct WorkloadDef {
  std::string name;
  Front front = Front::kSubmit;
  bool paper_model = false;      // paper 5x128 model, else the quick model
  int stride = 1;                // InputSpec sub-carrier stride
  std::uint64_t stations = 512;  // distinct stations in the sequence
  // Session ceiling (0 = unbounded). A bounded table is filled to its
  // ceiling before the measured phases.
  std::size_t max_stations = 0;
  std::size_t session_shards = 8;
  double fixed_rate_rps = 1000;  // open-loop rate, fixed per workload
};

const std::vector<WorkloadDef>& workloads();
const WorkloadDef* find_workload(const std::string& name);

// --------------------------------------------------------------- metrics

struct MetricDef {
  const char* name;
  const char* unit;
  bool traced;  // printed by --trace 1 (per-layer) or --trace 0 (end-to-end)
};

// Every metric the harness prints, in print order.
const std::vector<MetricDef>& metric_table();

}  // namespace servebench
