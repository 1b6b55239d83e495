// Networked-serving benchmark: feedback reports pushed through the real
// wire path — NetClient framing -> loopback TCP -> TcpIngestServer
// (epoll reassembly + decode) -> AuthService lane queues, assembled by
// serving::Server as `deepcsi serve --listen` assembles it — at 1, 8
// and 64 concurrent connections. This is the cost of the network front end
// on top of the in-process serving bench (bench_serving), so the two
// throughput numbers bracket the protocol + syscall overhead.
//
// Writes BENCH_net.json for the perf trajectory:
//   - net_ingest_throughput: ingested reports/s per connection count
//     (gated by tools/bench_compare.py via the reports/s unit)
//   - net_batch_latency_p99_ms: end-to-end batch staleness, informational
//   - net_verdict_parity: single-connection verdicts vs the offline
//     replay pipeline, bit-identical (also rides the exit code)
//   - net_failpoint_disabled_overhead_ns: cost of one unarmed failpoint
//     check on the hot path, informational
//
// 64 stations x 8 reports = 512 reports per configuration. Stations are
// sharded across connections by mix64(MAC) — the same rule the service
// uses for lanes — so one station's reports travel one connection in
// FIFO order and the verdict stream stays deterministic.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "capture/monitor.h"
#include "common/check.h"
#include "common/failpoint.h"
#include "common/hash.h"
#include "net/client.h"
#include "net/ingest_server.h"
#include "serving/options.h"
#include "serving/replay.h"
#include "serving/server.h"
#include "serving/service.h"

namespace {

using namespace deepcsi;

constexpr int kStations = 64;
constexpr int kReportsPerStation = 8;

// `serve --listen` on an ephemeral loopback port with the bench service.
// The accept gate never sheds (the high watermark sits above the queue
// budget): this bench measures ingest, not the degradation ladder.
serving::ServeOptions loopback_options() {
  serving::ServeOptions o;
  o.service = bench::service_config();
  o.listen = true;
  o.listen_port = 0;
  o.shed_high = static_cast<int>(o.service.queue_capacity) + 1;
  o.shed_low = o.shed_high;
  return o;
}

// Runs one connection-count configuration: start a Server, stream the
// whole report set from `conns` client threads, wait for every report to
// be accepted, stop (drains). Fills `verdicts` with the final per-station
// snapshot (used for the single-connection parity check) and returns the
// measured ingest rate in reports/s.
double run_config(const std::vector<capture::ObservedFeedback>& stream,
                  int conns, bench::BenchReport& report,
                  std::vector<serving::StationVerdict>& verdicts) {
  serving::Server server(loopback_options(), bench::scale_authenticator());
  DEEPCSI_CHECK(server.start().ok());
  const std::uint16_t port = server.ingest_port();

  bench::Stopwatch timer;
  std::vector<std::thread> senders;
  senders.reserve(static_cast<std::size_t>(conns));
  for (int c = 0; c < conns; ++c) {
    senders.emplace_back([&stream, conns, c, port] {
      net::NetClient client = net::NetClient::connect("127.0.0.1", port);
      for (const capture::ObservedFeedback& obs : stream) {
        const std::size_t lane =
            common::mix64(obs.beamformee.to_u64()) %
            static_cast<std::size_t>(conns);
        if (lane != static_cast<std::size_t>(c)) continue;
        if (!client.send_report(obs)) break;
      }
      client.close();
    });
  }
  for (std::thread& t : senders) t.join();
  // Clients have closed, but the server may still hold buffered frames;
  // the measurement ends when the last report has been accepted into a
  // lane queue (bounded wait so a wedged server fails loudly, not
  // silently forever). The poll reads the ingest counters alone: a full
  // Server::stats() inside the timed window would take every queue,
  // shard and stats lock and sort the latency ring each millisecond.
  const net::TcpIngestServer& ingest = *server.ingest();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (ingest.stats().reports_submitted < stream.size()) {
    if (std::chrono::steady_clock::now() > deadline) {
      std::fprintf(stderr, "bench_net: ingest stalled (%llu/%zu reports)\n",
                   static_cast<unsigned long long>(
                       ingest.stats().reports_submitted),
                   stream.size());
      std::exit(1);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const double elapsed = timer.seconds();
  server.stop();

  const serving::StatsSnapshot stats = server.stats();
  const serving::StatsSnapshot::Ingest& in = stats.ingest;
  DEEPCSI_CHECK(in.reports_dropped == 0);
  DEEPCSI_CHECK(stats.reports_classified == stream.size());
  verdicts = server.service().sessions().snapshot();

  const double rate =
      elapsed > 0.0 ? static_cast<double>(stream.size()) / elapsed : 0.0;
  std::printf("%12d %14.1f %10.2f %10llu %8llu\n", conns, rate,
              stats.batch_latency_p99_ms,
              static_cast<unsigned long long>(in.frames),
              static_cast<unsigned long long>(in.pauses));
  const std::vector<std::pair<std::string, double>> attrs = {
      {"connections", static_cast<double>(conns)},
      {"max_batch", static_cast<double>(bench::batch_from_env())}};
  report.add_metric("net_ingest_throughput", rate, "reports/s", attrs);
  report.add_metric("net_batch_latency_p99_ms", stats.batch_latency_p99_ms,
                    "ms", attrs);
  std::fflush(stdout);
  return rate;
}

// The loopback stream must not change what the pipeline concludes: the
// single-connection verdicts have to match the offline replay of the
// same stream field for field.
bool verdicts_match_offline(const core::Authenticator& auth,
                            const std::vector<capture::ObservedFeedback>& stream,
                            const std::vector<serving::StationVerdict>& online,
                            bench::BenchReport& report) {
  serving::AuthService service(auth, bench::service_config());
  serving::replay_observed(service, stream, serving::ReplayConfig{});
  const std::vector<serving::StationVerdict> offline =
      service.sessions().snapshot();
  bool identical = online.size() == offline.size();
  for (std::size_t i = 0; identical && i < online.size(); ++i)
    identical = online[i].station == offline[i].station &&
                online[i].module_id == offline[i].module_id &&
                online[i].votes == offline[i].votes &&
                online[i].mean_confidence == offline[i].mean_confidence;
  std::printf("single-connection verdicts identical to offline replay: %s\n",
              identical ? "yes" : "NO");
  report.add_metric("net_verdict_parity", identical ? 1.0 : 0.0, "bool");
  std::fflush(stdout);
  return identical;
}

// Cost of one DISABLED failpoint check — the price every sys_recv /
// sys_send / queue.push pays for being injectable. Informational ("ns"
// is not a gated unit): the claim to keep honest is "a relaxed load,
// nanoseconds", i.e. cheap enough to stay compiled into release builds.
void measure_failpoint_overhead(bench::BenchReport& report) {
  static common::Failpoint fp("bench.disabled");
  constexpr std::size_t kIters = 10'000'000;
  std::size_t fired = 0;
  bench::Stopwatch timer;
  for (std::size_t i = 0; i < kIters; ++i)
    if (fp.evaluate()) ++fired;
  const double ns = timer.seconds() * 1e9 / static_cast<double>(kIters);
  DEEPCSI_CHECK(fired == 0);  // unarmed — and keeps the loop observable
  std::printf("disabled failpoint check: %.2f ns/call\n", ns);
  report.add_metric("net_failpoint_disabled_overhead_ns", ns, "ns");
  std::fflush(stdout);
}

}  // namespace

int main() {
  bench::BenchReport report("net",
                            "networked serving: NetClient -> loopback TCP -> "
                            "epoll ingest -> lane queues");

  const auto stream = bench::station_stream(kStations, kReportsPerStation);
  std::printf("loopback ingest (%zu reports = %d stations x %d, batch<=%zu, "
              "queue=1024, block policy)\n",
              stream.size(), kStations, kReportsPerStation,
              bench::batch_from_env());
  std::printf("%12s %14s %10s %10s %8s\n", "connections", "ingested/s",
              "p99 ms", "frames", "pauses");
  std::vector<serving::StationVerdict> single_conn_verdicts;
  for (const int conns : {1, 8, 64}) {
    std::vector<serving::StationVerdict> verdicts;
    run_config(stream, conns, report, verdicts);
    if (conns == 1) single_conn_verdicts = std::move(verdicts);
  }
  std::printf("\n");

  const bool parity = verdicts_match_offline(
      bench::scale_authenticator(), stream, single_conn_verdicts, report);

  measure_failpoint_overhead(report);

  report.write_json();
  return parity ? 0 : 1;
}
