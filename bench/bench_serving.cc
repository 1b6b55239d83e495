// Streaming-service benchmark: how fast the async ingest queue +
// batching scheduler + classify_batch path turns a multi-station stream
// of feedback reports into per-station verdicts (the always-on observer
// of the paper's deployment claim), across producer counts and
// backpressure policies.
//
// Writes BENCH_serving.json for the perf trajectory:
//   - serving_throughput: classified reports/s per {producers, policy}
//   - batch_latency_p50_ms / p99 / max per configuration
//   - verdicts_bit_identical: single-producer determinism across
//     DEEPCSI_THREADS in {1, 4} (also rides the exit code)
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "capture/monitor.h"
#include "common/parallel.h"
#include "common/report_queue.h"
#include "core/pipeline.h"
#include "serving/replay.h"
#include "serving/service.h"

namespace {

using namespace deepcsi;

const char* policy_name(common::OverflowPolicy policy) {
  switch (policy) {
    case common::OverflowPolicy::kBlock: return "block";
    case common::OverflowPolicy::kDropOldest: return "drop-oldest";
    case common::OverflowPolicy::kReject: return "reject";
  }
  return "?";
}

void run_throughput_grid(const core::Authenticator& auth,
                         const std::vector<capture::ObservedFeedback>& stream,
                         int loops, bench::BenchReport& report) {
  const std::size_t max_batch = bench::batch_from_env();
  std::printf("streaming service (%zu reports/loop x %d loops, batch<=%zu, "
              "latency<=2ms, queue=1024)\n",
              stream.size(), loops, max_batch);
  std::printf("%10s %12s %14s %10s %10s %10s %9s\n", "producers", "policy",
              "classified/s", "p50 ms", "p99 ms", "dropped", "batches");
  for (const common::OverflowPolicy policy :
       {common::OverflowPolicy::kBlock, common::OverflowPolicy::kDropOldest}) {
    for (const int producers : {1, 2, 4}) {
      serving::AuthService service(auth, bench::service_config(policy));
      serving::ReplayConfig replay;
      replay.loops = loops;
      replay.producers = producers;
      serving::replay_observed(service, stream, replay);
      const serving::StatsSnapshot stats = service.stats();
      std::printf("%10d %12s %14.1f %10.2f %10.2f %10zu %9zu\n", producers,
                  policy_name(policy), stats.throughput_rps,
                  stats.batch_latency_p50_ms, stats.batch_latency_p99_ms,
                  stats.queue.dropped_oldest, stats.scheduler.batches);
      const double policy_code =
          policy == common::OverflowPolicy::kBlock ? 0.0 : 1.0;
      std::vector<std::pair<std::string, double>> attrs = {
          {"producers", static_cast<double>(producers)},
          {"policy", policy_code},
          {"max_batch", static_cast<double>(max_batch)}};
      report.add_metric("serving_throughput", stats.throughput_rps,
                        "reports/s", attrs);
      report.add_metric("batch_latency_p50_ms", stats.batch_latency_p50_ms,
                        "ms", attrs);
      report.add_metric("batch_latency_p99_ms", stats.batch_latency_p99_ms,
                        "ms", attrs);
    }
  }
  std::printf("\n");
  std::fflush(stdout);
}

// Consumer-lane scaling: the same stream through 1/2/4 sharded consumer
// lanes, each lane running per-lane-serial const forwards through its own
// InferenceContext (1 pool thread, so lanes — not intra-batch fan-out —
// provide the parallelism; on a multi-core runner 4 consumers should beat
// the single-consumer row).
void run_consumer_scaling(const core::Authenticator& auth,
                          const std::vector<capture::ObservedFeedback>& stream,
                          int loops, bench::BenchReport& report) {
  const std::size_t max_batch = bench::batch_from_env();
  const int original_threads = common::num_threads();
  common::set_num_threads(1);
  std::printf("consumer-lane scaling (2 producers, per-lane-serial "
              "forward)\n");
  std::printf("%10s %14s %10s %10s %9s\n", "consumers", "classified/s",
              "p50 ms", "p99 ms", "batches");
  double single_rps = 0.0, last_rps = 0.0;
  for (const std::size_t consumers : {std::size_t{1}, std::size_t{2},
                                      std::size_t{4}}) {
    serving::ServiceConfig cfg = bench::service_config();
    cfg.consumers = consumers;
    serving::AuthService service(auth, cfg);
    serving::ReplayConfig replay;
    replay.loops = loops;
    replay.producers = 2;
    serving::replay_observed(service, stream, replay);
    const serving::StatsSnapshot stats = service.stats();
    if (consumers == 1) single_rps = stats.throughput_rps;
    last_rps = stats.throughput_rps;
    std::printf("%10zu %14.1f %10.2f %10.2f %9zu\n", consumers,
                stats.throughput_rps, stats.batch_latency_p50_ms,
                stats.batch_latency_p99_ms, stats.scheduler.batches);
    report.add_metric("serving_throughput_consumers", stats.throughput_rps,
                      "reports/s",
                      {{"consumers", static_cast<double>(consumers)},
                       {"max_batch", static_cast<double>(max_batch)}});
  }
  if (single_rps > 0.0)
    std::printf("(4-consumer vs single-consumer: %.2fx on %d hardware "
                "threads)\n",
                last_rps / single_rps,
                static_cast<int>(std::thread::hardware_concurrency()));
  common::set_num_threads(original_threads);
  std::printf("\n");
  std::fflush(stdout);
}

// The determinism contract, end to end: one producer, fixed stream =>
// bit-identical per-station verdicts whatever DEEPCSI_THREADS is.
bool run_determinism_check(const core::Authenticator& auth,
                           const std::vector<capture::ObservedFeedback>& stream,
                           bench::BenchReport& report) {
  const int original_threads = common::num_threads();
  std::vector<serving::StationVerdict> reference;
  bool identical = true;
  for (const int threads : {1, 4}) {
    common::set_num_threads(threads);
    serving::AuthService service(auth, bench::service_config());
    serving::ReplayConfig replay;  // single producer, one loop
    serving::replay_observed(service, stream, replay);
    const auto verdicts = service.sessions().snapshot();
    if (reference.empty()) {
      reference = verdicts;
      continue;
    }
    if (verdicts.size() != reference.size()) identical = false;
    for (std::size_t i = 0; identical && i < verdicts.size(); ++i)
      identical = verdicts[i].station == reference[i].station &&
                  verdicts[i].module_id == reference[i].module_id &&
                  verdicts[i].votes == reference[i].votes &&
                  verdicts[i].mean_confidence == reference[i].mean_confidence;
  }
  common::set_num_threads(original_threads);
  std::printf("single-producer verdicts bit-identical across "
              "DEEPCSI_THREADS {1,4}: %s\n\n",
              identical ? "yes" : "NO");
  report.add_metric("verdicts_bit_identical", identical ? 1.0 : 0.0, "bool");
  std::fflush(stdout);
  return identical;
}

}  // namespace

int main() {
  bench::BenchReport report("serving",
                            "streaming multi-station authentication: async queue + "
                            "batching scheduler + classify_batch");

  const core::Authenticator auth = bench::scale_authenticator();

  // 4 stations x 8 reports = 32 reports per loop; 16 loops = 512 reports
  // measured per configuration (cheap enough for the CI smoke step, long
  // enough that scheduler batching dominates startup). The lane rows use
  // 8 stations so four lanes all get work.
  const auto stream = bench::station_stream(4, 8);
  run_throughput_grid(auth, stream, 16, report);
  run_consumer_scaling(auth, bench::station_stream(8, 8), 16, report);
  const bool identical = run_determinism_check(auth, stream, report);

  report.write_json();
  return identical ? 0 : 1;
}
