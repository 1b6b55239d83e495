// deepcsi — command-line front end for the library.
//
//   deepcsi generate --out DIR [--modules M] [--positions P] [--snapshots N]
//       Simulate a D1-style campaign and write a trace archive (.dcst).
//   deepcsi train --data FILE.dcst --out MODEL.bin [--epochs E] [--stride S]
//       Train the fingerprint classifier on an archive.
//   deepcsi classify --model MODEL.bin --pcap FILE.pcap [--stride S]
//       Run the observer on a capture: parse frames, fingerprint each
//       feedback report, print per-frame predictions and the majority vote.
//   deepcsi serve --model MODEL.bin --pcap FILE.pcap [--loop N] [--rate R]
//       Replay a capture through the streaming authentication service:
//       async ingest queue -> batching scheduler -> classify_batch ->
//       per-station rolling majority verdicts, plus throughput/latency
//       stats. `--loop` repeats the capture, `--rate` paces it.
//   deepcsi serve --model MODEL.bin --listen PORT [--publish PORT]
//       Same service fed over TCP instead of replay: an epoll ingest
//       server accepts feedback-report frames from any number of
//       clients, and the optional publisher streams per-station verdict
//       transitions to subscribers. `--once 1` exits after the first
//       wave of clients disconnects (CI's loopback e2e uses this).
//       Both serve front ends run through serving::Server, the one place
//       the serve process (publisher, shadow scorer, session restore and
//       snapshots, shed gate, model watch, stats) is assembled; this file
//       only loads the models, maps signals onto it and prints.
//   deepcsi drive --pcap FILE.pcap --connect PORT [--subscribe PORT]
//       Network replay driver: streams a capture's feedback reports into
//       a running `serve --listen` over N connections (stations sharded
//       by MAC so per-station order is preserved), collects the
//       published verdict stream, and — given --model — checks the
//       published verdicts match the offline pipeline bit-for-bit.
//   deepcsi fleet --model MODEL.bin [--stations N] [--reports R] ...
//       Scale harness: synthesize feedback for N distinct beamformees
//       through the real PHY stack (template-pooled) and soak it through
//       the full ingest -> scheduler -> session path, with the bounded
//       session table's TTL/LRU eviction doing the forgetting. The
//       end-of-run block reports occupancy, eviction counters and RSS.
//   deepcsi inspect --pcap FILE.pcap
//       Decode VHT Compressed Beamforming frames (Wireshark-style).
//
// Every serving knob (--queue/--batch/--window/--shards/--ttl/...) is
// parsed and validated by serving::ServeOptions — one shared path for
// serve, fleet, the benches and the tests, so a malformed value fails
// identically everywhere: diagnostic + usage + exit 2.
//
// The tool works on the same artifacts the examples produce (e.g.
// examples/dataset_export emits .dcst archives and per-trace pcaps).
#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <deque>
#include <map>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "capture/monitor.h"
#include "common/atomic_file.h"
#include "common/hash.h"
#include "core/pipeline.h"
#include "dataset/io.h"
#include "dataset/splits.h"
#include "net/client.h"
#include "nn/serialize.h"
#include "nn/simd.h"
#include "serving/fleet.h"
#include "serving/options.h"
#include "serving/replay.h"
#include "serving/server.h"
#include "serving/stats.h"

namespace {

using namespace deepcsi;

struct Args {
  std::map<std::string, std::string> named;
  bool has(const std::string& k) const { return named.count(k) > 0; }
  std::string get(const std::string& k, const std::string& fallback = "") const {
    const auto it = named.find(k);
    return it == named.end() ? fallback : it->second;
  }
  // Malformed numbers are a usage error, not an uncaught std::stoi throw:
  // "--epochs foo" must print a diagnostic and exit 2, never abort.
  int get_int(const std::string& k, int fallback) const {
    const auto it = named.find(k);
    if (it == named.end()) return fallback;
    try {
      std::size_t consumed = 0;
      const int value = std::stoi(it->second, &consumed);
      if (consumed != it->second.size())
        throw std::invalid_argument("trailing characters");
      return value;
    } catch (const std::exception&) {
      std::fprintf(stderr, "invalid integer for --%s: '%s'\n", k.c_str(),
                   it->second.c_str());
      std::exit(2);
    }
  }
  double get_double(const std::string& k, double fallback) const {
    const auto it = named.find(k);
    if (it == named.end()) return fallback;
    try {
      std::size_t consumed = 0;
      const double value = std::stod(it->second, &consumed);
      if (consumed != it->second.size())
        throw std::invalid_argument("trailing characters");
      return value;
    } catch (const std::exception&) {
      std::fprintf(stderr, "invalid number for --%s: '%s'\n", k.c_str(),
                   it->second.c_str());
      std::exit(2);
    }
  }
};

Args parse_args(int argc, char** argv, int from) {
  Args args;
  for (int i = from; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unexpected argument: %s\n", key.c_str());
      std::exit(2);
    }
    key = key.substr(2);
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for --%s\n", key.c_str());
      std::exit(2);
    }
    args.named[key] = argv[++i];
  }
  return args;
}

int usage() {
  std::fprintf(stderr,
               "usage: deepcsi <generate|train|classify|serve|fleet|drive|inspect> [options]\n"
               "  generate --out DIR [--modules M=10] [--positions P=3] "
               "[--snapshots N=12] [--seed S=17] [--pcap FILE.pcap]\n"
               "  train    --data FILE.dcst --out MODEL.bin [--epochs E=18] "
               "[--stride S=2] [--filters F=32]\n"
               "  classify --model MODEL.bin --pcap FILE.pcap [--stride S=2] "
               "[--filters F=32]\n"
               "  serve    --model MODEL.bin (--pcap FILE.pcap [--loop N=1] "
               "[--producers P=1] [--rate RPS=0]\n"
               "            | --listen PORT [--publish PORT] [--max-conns N=64] "
               "[--once 0|1] [--port-file PATH]\n"
               "              [--state-file PATH] [--state-interval-ms I=1000] "
               "[--shed-high N] [--shed-low N])\n"
               "           [--batch B=64] [--latency-us L=2000] "
               "[--policy block|drop-oldest|reject] [--queue C=1024] "
               "[--window W=31] [--consumers K=1] [--watchdog-ms W=2000]\n"
               "           [--shards S=8] [--ttl SECONDS=0] [--max-stations N=0] "
               "[--max-session-mb MB=0] [--stats-json PATH]\n"
               "           [--model-watch MS=0] [--shadow-model M.bin] "
               "[--shadow-sample N=8] [--promote-below DIV] [--promote-min "
               "N=64]\n"
               "           [--drift-alpha A=0.1] [--drift-threshold T=0] "
               "[--drift-min-reports N=8]   (SIGHUP hot-swaps --model)\n"
               "  fleet    --model MODEL.bin [--stations N=100000] "
               "[--reports R=2] [--producers P=2] [--mobile F=0.1] "
               "[--confused F=0]\n"
               "           [--modules M=10] [--positions P=3] [--classes C=4] "
               "[--pool-snapshots N=1] [--snr DB=30] [--seed S=17]\n"
               "           [+ the serve service/eviction knobs above]\n"
               "  drive    --pcap FILE.pcap --connect PORT [--subscribe PORT] "
               "[--host H=127.0.0.1] [--conns N=1]\n"
               "           [--skip N=0] [--limit N=0] [--reconnect N=0] "
               "[--reconnect-base-ms B=20] [--reconnect-cap-ms C=1000] "
               "[--resubscribe N=0]\n"
               "           [--model MODEL.bin] [--window W=31]   "
               "(--model enables offline-parity verification)\n"
               "  inspect  --pcap FILE.pcap [--max N=5]\n");
  // Built from the one backend table in nn/simd.cc so this line cannot
  // drift from what resolve_backend actually accepts.
  std::string backends;
  for (const char* n : simd::backend_names()) {
    if (!backends.empty()) backends += '|';
    backends += n;
  }
  std::fprintf(stderr, "  env: DEEPCSI_SIMD=%s  DEEPCSI_THREADS=N\n",
               backends.c_str());
  return 2;
}

// TCP ports live in [1, 65535]; anything else (including 0 — the drills
// start serve and drive on a fixed port pair, so no ephemeral binds here)
// is a usage error like a malformed integer: diagnostic + exit 2.
std::uint16_t get_port(const Args& args, const std::string& key) {
  const int port = args.get_int(key, 0);
  if (port < 1 || port > 65535) {
    std::fprintf(stderr, "invalid port for --%s: %d (expected 1..65535)\n",
                 key.c_str(), port);
    std::exit(2);
  }
  return static_cast<std::uint16_t>(port);
}

dataset::InputSpec spec_from(const Args& args) {
  dataset::InputSpec spec;
  spec.subcarrier_stride = args.get_int("stride", 2);
  return spec;
}

core::ExperimentConfig config_from(const Args& args) {
  core::ExperimentConfig cfg = core::quick_experiment_config();
  cfg.train.epochs = args.get_int("epochs", cfg.train.epochs);
  cfg.model.filters = args.get_int("filters", cfg.model.filters);
  return cfg;
}

// Rebuild a saved Authenticator through the one validated artifact path
// (weights + .meta + .calib as a unit). An artifact that disagrees with
// the serving geometry (an explicit --stride fighting the sidecar, or a
// shadow candidate built for another spec) is REFUSED at startup — exit 2
// with both specs in the diagnostic — instead of classifying garbage
// features. `what` prefixes the diagnostics ("shadow ").
core::Authenticator load_artifact(const std::string& path,
                                  const dataset::InputSpec& spec,
                                  const core::ModelConfig& cfg,
                                  const std::string& what) {
  core::LoadedModel lm;
  std::string err;
  switch (core::load_model_artifact(path, spec, cfg, &lm, &err)) {
    case core::ModelLoadStatus::kOk:
      break;
    case core::ModelLoadStatus::kSpecMismatch:
      std::fprintf(stderr, "deepcsi: %s%s\n", what.c_str(), err.c_str());
      std::exit(2);
    case core::ModelLoadStatus::kIoError:
      throw std::runtime_error(what + err);
  }
  core::Authenticator auth(std::move(*lm.model), lm.spec);
  // The int8 calibration sidecar rides next to the weights like .meta.
  // Missing is fine (pre-int8 model) — but if the user explicitly asked
  // for the int8 backend, say out loud that the layers will run fp32.
  if (lm.calibration) {
    auth.apply_int8_calibration(*lm.calibration);
  } else if (simd::active() == simd::Backend::kAvx2Int8) {
    std::fprintf(stderr,
                 "deepcsi: DEEPCSI_SIMD=avx2_int8 but %s has no .calib "
                 "sidecar (model trained before int8 support?); "
                 "conv/dense layers will run the fp32 avx2 kernels\n",
                 path.c_str());
  }
  return auth;
}

// The --model Authenticator; its ".meta" sidecar restores the
// training-time architecture unless a flag overrides it.
core::Authenticator load_authenticator(const Args& args) {
  Args effective = args;
  for (const auto& [key, value] : core::load_model_meta(args.get("model")))
    if (!effective.has(key)) effective.named[key] = std::to_string(value);
  return load_artifact(args.get("model"), spec_from(effective),
                       config_from(effective).model, "");
}

// The --shadow-model candidate (nullopt without one), held to the
// primary's geometry: a candidate that can never be promoted cleanly
// fails at startup, not after an hour of shadow scoring.
std::optional<core::Authenticator> load_candidate(
    const serving::ServeOptions& o, const core::Authenticator& primary) {
  if (o.shadow_model.empty()) return std::nullopt;
  return load_artifact(o.shadow_model, primary.input_spec(),
                       core::quick_model_config(), "shadow ");
}

int cmd_generate(const Args& args) {
  if (!args.has("out")) return usage();
  const int modules = args.get_int("modules", 10);
  const int positions = args.get_int("positions", 3);
  const int snapshots = args.get_int("snapshots", 12);
  if (modules < 1 || modules > phy::kNumModules || positions < 1 ||
      positions > phy::kNumBeamformeePositions || snapshots < 1) {
    std::fprintf(stderr, "generate: parameters out of range\n");
    return 2;
  }
  dataset::Scale scale;
  scale.d1_snapshots_per_trace = snapshots;
  dataset::GeneratorConfig gen;
  gen.seed = static_cast<std::uint64_t>(args.get_int("seed", 17));

  std::vector<dataset::Trace> corpus;
  for (int module = 0; module < modules; ++module)
    for (int pos = 1; pos <= positions; ++pos)
      corpus.push_back(dataset::generate_d1_trace(module, pos, 0, scale, gen));

  const std::string path = args.get("out") + "/deepcsi_corpus.dcst";
  dataset::save_traces(path, corpus);
  std::printf("generate: %zu traces (%d modules x %d positions, %d "
              "snapshots each) -> %s\n",
              corpus.size(), modules, positions, snapshots, path.c_str());

  if (args.has("pcap")) {
    // Merged multi-station capture for the serving paths: station i
    // transmits module i's position-1 reports, interleaved snapshot by
    // snapshot, so one pcap exercises many concurrent sessions and the
    // expected fingerprint of station i is simply module i.
    std::vector<capture::CapturedPacket> packets;
    std::vector<std::uint16_t> seq(static_cast<std::size_t>(modules), 0);
    double t = 0.0;
    for (int s = 0; s < snapshots; ++s) {
      for (int module = 0; module < modules; ++module) {
        const dataset::Snapshot& snap =
            corpus[static_cast<std::size_t>(module * positions)].snapshots
                [static_cast<std::size_t>(s)];
        capture::BeamformingActionFrame frame;
        frame.ra = capture::MacAddress::for_module(module);
        frame.ta = capture::MacAddress::for_station(module);
        frame.bssid = frame.ra;
        frame.sequence = seq[static_cast<std::size_t>(module)]++;
        frame.mimo_control.nc = snap.report.nss;
        frame.mimo_control.nr = snap.report.m;
        frame.mimo_control.bandwidth = 2;
        frame.mimo_control.codebook_high =
            snap.report.quant == feedback::mu_mimo_codebook_high();
        frame.report = feedback::pack_report(snap.report);
        packets.push_back({t, frame.serialize()});
        t += 0.05;
      }
    }
    capture::write_pcap(args.get("pcap"), packets);
    std::printf("generate: %zu-frame multi-station capture (%d stations) "
                "-> %s\n",
                packets.size(), modules, args.get("pcap").c_str());
  }
  return 0;
}

int cmd_train(const Args& args) {
  if (!args.has("data") || !args.has("out")) return usage();
  const auto corpus = dataset::load_traces(args.get("data"));
  const dataset::InputSpec spec = spec_from(args);
  nn::LabeledSet train = dataset::make_labeled_set(corpus, spec);
  dataset::shuffle_labeled_set(train, 97);
  std::printf("train: %zu reports from %zu traces\n", train.size(),
              corpus.size());

  const core::ExperimentConfig cfg = config_from(args);
  dataset::SplitSets split{train, train};
  core::Authenticator auth = core::train_authenticator(split, spec, cfg);

  const auto cm = nn::evaluate(auth.shared_model().graph(), train);
  std::printf("train: final training-set accuracy %.1f%%\n",
              100.0 * cm.accuracy());
  auth.save(args.get("out"));
  // Sidecar metadata so `classify` / `serve` can rebuild the same
  // architecture without the user re-passing flags.
  core::save_model_meta(args.get("out"),
                        {{"filters", cfg.model.filters},
                         {"stride", spec.subcarrier_stride},
                         {"classes", train.num_classes}});
  // Calibrate int8 activation ranges on the training set and persist
  // them next to the weights, so any later `classify`/`serve`/`fleet`
  // can run DEEPCSI_SIMD=avx2_int8 without retraining.
  const std::vector<nn::CalibrationEntry> calib = auth.calibrate_int8(train.x);
  nn::save_calibration(args.get("out"), calib);
  std::printf(
      "train: weights written to %s (+ .meta, + .calib: %zu int8-calibrated "
      "layers)\n",
      args.get("out").c_str(), calib.size());
  return 0;
}

int cmd_classify(const Args& args) {
  if (!args.has("model") || !args.has("pcap")) return usage();
  const core::Authenticator auth = load_authenticator(args);

  const auto packets = capture::read_pcap(args.get("pcap"));
  const auto observed = capture::observe_feedback(packets, std::nullopt);
  if (observed.empty()) {
    std::printf("classify: no decodable beamforming feedback in capture\n");
    return 1;
  }
  std::map<int, int> votes;
  for (const auto& obs : observed) {
    const auto pred = auth.classify(obs.report);
    ++votes[pred.module_id];
    std::printf("  t=%8.3fs  %s -> %s : module %d (confidence %.2f)\n",
                obs.timestamp_s, obs.beamformee.to_string().c_str(),
                obs.beamformer.to_string().c_str(), pred.module_id,
                pred.confidence);
  }
  int best = -1, best_count = 0;
  for (const auto& [id, count] : votes)
    if (count > best_count) {
      best = id;
      best_count = count;
    }
  std::printf("classify: majority vote -> module %d (%d/%zu frames)\n", best,
              best_count, observed.size());
  return 0;
}

// SIGINT (operator ^C) and SIGTERM (systemd / container stop) share one
// drain path: stop accepting, classify what is queued, snapshot, exit —
// an orchestrated shutdown is never state-losing.
volatile std::sig_atomic_t g_interrupted = 0;
void on_shutdown_signal(int) { g_interrupted = 1; }

// SIGHUP = "reload your model" (the classic config-reload signal): the
// listen loop turns the flag into Server::request_swap(). A failed swap
// logs and keeps serving the incumbent epoch.
volatile std::sig_atomic_t g_hup = 0;
void on_hup_signal(int) { g_hup = 1; }

// The end-of-run tail of serve and fleet: the stats block, the optional
// --stats-json file (written atomically so a watcher never reads a torn
// file) and the exit code.
int finish_run(const serving::StatsSnapshot& stats,
               const std::string& json_path) {
  std::printf("\n%s", stats.render_text().c_str());
  if (!json_path.empty()) {
    try {
      common::write_file_atomic(json_path, stats.render_json());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "serve: cannot write --stats-json: %s\n",
                   e.what());
    }
  }
  return stats.reports_classified > 0 ? 0 : 1;
}

void print_swaps(const serving::Server::TickReport& tick) {
  for (const serving::Server::SwapAttempt& a : tick.swaps) {
    const auto epoch = static_cast<unsigned long long>(a.result.epoch);
    if (a.result.ok()) {
      std::printf("serve: model hot-swapped (%s) -> epoch %llu\n",
                  a.trigger.c_str(), epoch);
      std::fflush(stdout);  // drills tail the log for this line
    } else {
      std::fprintf(stderr,
                   "serve: model swap REFUSED (%s): %s — still serving "
                   "epoch %llu\n",
                   a.trigger.c_str(), a.result.error.c_str(), epoch);
    }
  }
  if (!tick.snapshot_error.empty())
    std::fprintf(stderr, "serve: session snapshot failed: %s\n",
                 tick.snapshot_error.c_str());
}

// Both serve front ends end with the per-station verdicts.
int finish_serve(const serving::Server& server,
                 const serving::StatsSnapshot& stats) {
  std::printf("\nper-station verdicts (rolling window of %zu):\n",
              server.options().service.sessions.window);
  for (const serving::StationVerdict& v : server.service().sessions().snapshot())
    std::printf("  %s -> module %d (%zu/%zu window votes, mean confidence "
                "%.2f, %zu reports, last t=%.3fs)\n",
                v.station.to_string().c_str(), v.module_id, v.votes,
                v.window_size, v.mean_confidence, v.total_reports,
                v.last_timestamp_s);
  return finish_run(stats, server.options().stats_json);
}

// `serve --listen`: serving::Server assembles the process; this loop
// only maps signals onto it and prints. All knob validation already
// happened in ServeOptions::parse.
int cmd_serve_listen(const serving::ServeOptions& o, core::Authenticator auth,
                     std::optional<core::Authenticator> candidate) {
  if (candidate)
    std::printf("serve: shadow-scoring %s on 1-in-%d of the stream%s\n",
                o.shadow_model.c_str(), o.shadow_sample,
                o.promote_below >= 0.0 ? " (auto-promote armed)" : "");
  serving::Server server(o, std::move(auth), std::move(candidate));
  const serving::Server::Startup up = server.start();
  if (up.restore == serving::SessionTable::RestoreStatus::kRestored)
    std::printf("serve: restored %zu station session(s) from %s\n",
                up.restored_stations, o.state_file.c_str());
  else if (up.restore == serving::SessionTable::RestoreStatus::kNoFile)
    std::printf("serve: no session snapshot at %s, starting cold\n",
                o.state_file.c_str());
  if (!up.ok()) {
    std::fprintf(stderr, "serve: %s\n", up.error.c_str());
    return 1;
  }
  const std::string publish_note =
      o.publish ? ", publishing verdicts on " +
                      std::to_string(server.publish_port())
                : "";
  std::printf("serve: ingest on %u%s, %zu consumer lane(s), max %d "
              "connection(s)%s\n",
              server.ingest_port(), publish_note.c_str(),
              server.service().num_lanes(), o.max_conns,
              o.once ? ", exiting after first client wave" : "");

  std::signal(SIGINT, on_shutdown_signal);
  std::signal(SIGTERM, on_shutdown_signal);
  std::signal(SIGHUP, on_hup_signal);
  while (g_interrupted == 0 && !server.wait(std::chrono::milliseconds(200))) {
    if (g_hup != 0) {
      g_hup = 0;
      server.request_swap();
    }
    print_swaps(server.tick());
  }
  if (g_interrupted != 0) std::printf("serve: signal received, draining\n");
  const std::string err = server.stop();
  if (!err.empty())
    std::fprintf(stderr, "serve: final session snapshot failed: %s\n",
                 err.c_str());
  return finish_serve(server, server.stats());
}

int cmd_serve(const Args& args) {
  // ONE parse-and-validate path for every serving knob (shared with the
  // fleet verb, the benches and the tests): a bad flag fails fast with a
  // diagnostic + usage, before the model or capture is touched.
  std::string err;
  const std::optional<serving::ServeOptions> parsed =
      serving::ServeOptions::parse(args.named,
                                   serving::ServeOptions::Front::kServe, &err);
  if (!parsed) {
    std::fprintf(stderr, "serve: %s\n", err.c_str());
    return usage();
  }
  const serving::ServeOptions& o = *parsed;
  const serving::ServiceConfig& cfg = o.service;

  core::Authenticator auth = load_authenticator(args);
  // Shadow works on replay too (offline candidate qualification against a
  // recorded capture); only auto-promotion needs the listen loop's tick.
  std::optional<core::Authenticator> candidate = load_candidate(o, auth);
  if (o.listen)
    return cmd_serve_listen(o, std::move(auth), std::move(candidate));

  serving::ReplayConfig replay;
  replay.loops = o.loops;
  replay.producers = o.producers;
  replay.rate_rps = o.rate_rps;

  const auto packets = capture::read_pcap(o.pcap);
  const auto observed = capture::observe_feedback(packets, std::nullopt);
  if (observed.empty()) {
    std::printf("serve: no decodable beamforming feedback in capture\n");
    return 1;
  }

  if (replay.producers > replay.loops)
    std::fprintf(stderr,
                 "serve: note: only whole loops are dealt to producers — "
                 "--producers %d clamped to --loop %d\n",
                 replay.producers, replay.loops);
  std::printf("serve: %zu reports/loop x %d loop(s), %d producer(s), "
              "%zu consumer lane(s), policy=%s, batch<=%zu, latency<=%ldus\n",
              observed.size(), replay.loops,
              std::min(replay.producers, replay.loops), cfg.consumers,
              args.get("policy", "block").c_str(), cfg.scheduler.max_batch,
              static_cast<long>(cfg.scheduler.max_latency.count()));

  serving::Server server(o, std::move(auth), std::move(candidate));
  const serving::ReplayResult rr =
      serving::replay_observed(server.service(), observed, replay);
  server.stop();
  serving::StatsSnapshot stats = server.stats();
  stats.reports_offered = rr.offered;
  stats.reports_accepted = rr.accepted;
  return finish_serve(server, stats);
}

// Decodes a MacAddress minted by MacAddress::for_fleet_station back to
// its station id; nullopt for anything outside the fleet OUI.
std::optional<std::uint64_t> fleet_station_id(const capture::MacAddress& mac) {
  if (mac.octets[0] != 0xDA || mac.octets[1] != 0x7A) return std::nullopt;
  return (static_cast<std::uint64_t>(mac.octets[2]) << 24) |
         (static_cast<std::uint64_t>(mac.octets[3]) << 16) |
         (static_cast<std::uint64_t>(mac.octets[4]) << 8) |
         static_cast<std::uint64_t>(mac.octets[5]);
}

// `deepcsi fleet`: PHY-driven scale soak. Generates feedback for N
// distinct stations (template-pooled through the real pipeline) and
// pushes all of it through the full service path; the end-of-run block
// shows what the bounded session table did about it.
int cmd_fleet(const Args& args) {
  std::string err;
  const std::optional<serving::ServeOptions> parsed =
      serving::ServeOptions::parse(args.named,
                                   serving::ServeOptions::Front::kFleet, &err);
  if (!parsed) {
    std::fprintf(stderr, "fleet: %s\n", err.c_str());
    return usage();
  }
  const serving::ServeOptions& o = *parsed;

  serving::FleetConfig fc;
  const int stations = args.get_int("stations", 100000);
  const int reports = args.get_int("reports", 2);
  fc.modules = args.get_int("modules", fc.modules);
  fc.positions = args.get_int("positions", fc.positions);
  fc.station_classes = args.get_int("classes", fc.station_classes);
  fc.mobile_fraction = args.get_double("mobile", fc.mobile_fraction);
  fc.confusion_fraction = args.get_double("confused", fc.confusion_fraction);
  fc.snapshots_per_template =
      args.get_int("pool-snapshots", fc.snapshots_per_template);
  fc.snr_db = args.get_double("snr", fc.snr_db);
  fc.seed = static_cast<std::uint64_t>(args.get_int("seed", 17));
  const int producers = args.get_int("producers", 2);
  if (stations < 1 || reports < 1 || producers < 1 || fc.modules < 1 ||
      fc.modules > phy::kNumModules || fc.positions < 1 ||
      fc.positions > phy::kNumBeamformeePositions || fc.station_classes < 1 ||
      fc.snapshots_per_template < 1 || fc.mobile_fraction < 0.0 ||
      fc.mobile_fraction > 1.0 || fc.confusion_fraction < 0.0 ||
      fc.confusion_fraction > 1.0) {
    std::fprintf(stderr, "fleet: parameters out of range\n");
    return 2;
  }
  fc.stations = static_cast<std::uint64_t>(stations);
  fc.reports_per_station = static_cast<std::size_t>(reports);

  const core::Authenticator auth = load_authenticator(args);
  const serving::FleetGenerator gen(fc);
  std::printf("fleet: %d station(s) x %d report(s) over %zu pipeline "
              "template(s), %d producer(s), %zu lane(s), %zu shard(s)\n",
              stations, reports, gen.num_templates(), producers,
              o.service.consumers, o.service.sessions.num_shards);

  serving::AuthService service(auth, o.service);
  const serving::FleetRunStats fr = serving::run_fleet(service, gen, producers);
  serving::StatsSnapshot stats = service.stats();
  stats.reports_offered = fr.offered;
  stats.reports_accepted = fr.accepted;

  // Verdict quality over the SURVIVING stations (eviction decides who
  // that is): agreement with each station's ground-truth module.
  std::size_t live = 0, agree = 0;
  for (const serving::StationVerdict& v : service.sessions().snapshot()) {
    const std::optional<std::uint64_t> id = fleet_station_id(v.station);
    if (!id) continue;
    ++live;
    if (v.module_id == gen.expected_module(*id)) ++agree;
  }
  std::printf("fleet: %zu station(s) resident after the run, verdict "
              "agreement %.1f%%\n",
              live, live > 0 ? 100.0 * static_cast<double>(agree) /
                                   static_cast<double>(live)
                             : 0.0);
  return finish_run(stats, o.stats_json);
}

// Network replay driver: pushes a capture into `serve --listen` over N
// connections and (optionally) verifies the published verdicts against
// the offline pipeline.
int cmd_drive(const Args& args) {
  if (!args.has("pcap") || !args.has("connect")) return usage();
  const std::uint16_t ingest_port = get_port(args, "connect");
  const bool subscribe = args.has("subscribe");
  const std::uint16_t sub_port = subscribe ? get_port(args, "subscribe") : 0;
  const std::string host = args.get("host", "127.0.0.1");
  const int conns = args.get_int("conns", 1);
  const int window = args.get_int("window", 31);
  if (conns < 1 || window < 1) {
    std::fprintf(stderr, "drive: --conns/--window must be >= 1\n");
    return 2;
  }
  // Replay slicing for kill-and-restore drills: --skip/--limit bound
  // which reports are SENT, while --model parity always replays the FULL
  // capture offline — so "send the first half, kill the server, restart
  // from the snapshot, send the rest with --skip" must end in exactly
  // the state a single uninterrupted run would produce.
  const int skip = args.get_int("skip", 0);
  const int limit = args.get_int("limit", 0);
  // Reconnect-with-backoff knobs (0 attempts = fail fast, the default).
  const int reconnect_attempts = args.get_int("reconnect", 0);
  const int backoff_base_ms = args.get_int("reconnect-base-ms", 20);
  const int backoff_cap_ms = args.get_int("reconnect-cap-ms", 1000);
  const int resubscribe = args.get_int("resubscribe", 0);
  if (skip < 0 || limit < 0 || reconnect_attempts < 0 || backoff_base_ms < 1 ||
      backoff_cap_ms < backoff_base_ms || resubscribe < 0) {
    std::fprintf(stderr,
                 "drive: --skip/--limit/--reconnect/--resubscribe must be "
                 ">= 0, --reconnect-cap-ms >= --reconnect-base-ms >= 1\n");
    return 2;
  }
  net::ReconnectPolicy rpolicy;
  rpolicy.attempts = reconnect_attempts;
  rpolicy.backoff_base = std::chrono::milliseconds(backoff_base_ms);
  rpolicy.backoff_cap = std::chrono::milliseconds(backoff_cap_ms);

  const auto packets = capture::read_pcap(args.get("pcap"));
  const auto observed = capture::observe_feedback(packets, std::nullopt);
  if (observed.empty()) {
    std::printf("drive: no decodable beamforming feedback in capture\n");
    return 1;
  }
  const std::size_t send_first =
      std::min(static_cast<std::size_t>(skip), observed.size());
  const std::size_t send_count =
      limit == 0 ? observed.size() - send_first
                 : std::min(static_cast<std::size_t>(limit),
                            observed.size() - send_first);
  if (send_first > 0 || send_count < observed.size())
    std::printf("drive: sending reports [%zu, %zu) of %zu\n", send_first,
                send_first + send_count, observed.size());

  // Subscribe before sending so no transition can slip past between the
  // last report and the server's final snapshot.
  std::optional<net::VerdictSubscriber> sub;
  if (subscribe)
    sub.emplace(net::VerdictSubscriber::connect(host, sub_port));

  // Shard stations across connections the way the service shards lanes:
  // one station's reports all travel one connection, in capture order —
  // the invariant the verdict math (and the parity check) rests on.
  std::vector<net::NetClient> clients;
  clients.reserve(static_cast<std::size_t>(conns));
  for (int i = 0; i < conns; ++i) {
    clients.push_back(net::NetClient::connect(host, ingest_port));
    net::ReconnectPolicy p = rpolicy;
    p.jitter_seed = static_cast<std::uint64_t>(i);  // de-synchronized redials
    clients.back().set_reconnect(p);
  }
  std::size_t sent = 0;
  for (std::size_t i = send_first; i < send_first + send_count; ++i) {
    const auto& obs = observed[i];
    const std::size_t c =
        common::mix64(obs.beamformee.to_u64()) % clients.size();
    if (!clients[c].send_report(obs)) {
      std::fprintf(stderr,
                   "drive: connection %zu lost and not recovered "
                   "(--reconnect %d)\n",
                   c, reconnect_attempts);
      return 1;
    }
    ++sent;
  }
  std::uint64_t reconnects = 0;
  for (auto& c : clients) {
    reconnects += c.reconnects();
    c.close();
  }
  std::printf("drive: sent %zu reports over %d connection(s), %llu "
              "reconnect(s)\n",
              sent, conns, static_cast<unsigned long long>(reconnects));
  std::fflush(stdout);  // drills wait for this line while drive runs on
  if (!sub) return 0;

  // Collect the verdict stream until the server flushes and closes (the
  // once-mode server ends with a full snapshot + stats frame). Last
  // update per station wins — that snapshot makes it the final state.
  std::map<capture::MacAddress, net::VerdictMsg> final_verdicts;
  std::optional<net::StatsMsg> server_stats;
  int resubscribes_left = resubscribe;
  for (;;) {
    while (auto frame = sub->next_frame()) {
      const std::span<const std::uint8_t> payload(frame->payload.data(),
                                                  frame->payload.size());
      if (frame->type ==
          static_cast<std::uint8_t>(net::FrameType::kVerdictUpdate)) {
        if (const auto v = net::decode_verdict(payload))
          final_verdicts[v->station] = *v;
      } else if (frame->type ==
                 static_cast<std::uint8_t>(net::FrameType::kStats)) {
        server_stats = net::decode_stats(payload);
      }
    }
    if (sub->error() != net::FrameAssembler::Error::kNone) {
      std::fprintf(stderr, "drive: verdict stream protocol error: %s\n",
                   net::error_name(sub->error()));
      return 1;
    }
    // The once-mode server always ends its stream with a stats frame
    // after the full verdict snapshot; an EOF without one means the
    // stream dropped mid-run (server restart). The final snapshot after
    // a resubscribe re-publishes every station, so reconnecting loses
    // nothing.
    if (server_stats || resubscribes_left <= 0) break;
    --resubscribes_left;
    std::fprintf(stderr,
                 "drive: verdict stream dropped before the final stats "
                 "frame; resubscribing (%d attempt(s) left)\n",
                 resubscribes_left);
    net::ReconnectPolicy sp = rpolicy;
    if (sp.attempts <= 0) sp.attempts = 5;
    if (!sub->reconnect(sp)) {
      std::fprintf(stderr, "drive: resubscribe failed\n");
      return 1;
    }
  }

  std::printf("drive: published verdicts (%zu stations):\n",
              final_verdicts.size());
  for (const auto& [mac, v] : final_verdicts)
    std::printf("  %s -> module %d (%u/%u window votes, %llu reports)\n",
                mac.to_string().c_str(), v.module_id, v.votes, v.window_size,
                static_cast<unsigned long long>(v.total_reports));
  if (server_stats) {
    std::printf("drive: server classified %llu reports (%.0f reports/s, "
                "p99 %.2fms; drops: oldest=%llu rejected=%llu)\n",
                static_cast<unsigned long long>(
                    server_stats->reports_classified),
                server_stats->throughput_rps,
                server_stats->batch_latency_p99_ms,
                static_cast<unsigned long long>(server_stats->dropped_oldest),
                static_cast<unsigned long long>(server_stats->rejected));
    if (server_stats->swaps_completed > 0 ||
        server_stats->swaps_rolled_back > 0)
      std::printf("drive: server lifecycle: epoch %llu, swaps "
                  "completed=%llu rolled-back=%llu, drifting=%llu\n",
                  static_cast<unsigned long long>(server_stats->epoch),
                  static_cast<unsigned long long>(
                      server_stats->swaps_completed),
                  static_cast<unsigned long long>(
                      server_stats->swaps_rolled_back),
                  static_cast<unsigned long long>(
                      server_stats->stations_drifting));
  }

  if (!args.has("model")) return 0;

  // Offline parity: classify the capture through the same model locally
  // and fold predictions into the same rolling-window majority (lowest
  // module id wins ties — SessionTable's documented rule). Any diff means
  // the wire path changed a bit somewhere: encode, reassembly, decode, or
  // ordering. Requires a lossless run (policy=block), which is how the
  // drills invoke it.
  const core::Authenticator auth = load_authenticator(args);
  struct RollingRef {
    std::deque<int> window;
    std::map<int, std::size_t> counts;
  };
  std::map<capture::MacAddress, RollingRef> refs;
  for (const auto& obs : observed) {
    const auto pred = auth.classify(obs.report);
    RollingRef& ref = refs[obs.beamformee];
    if (ref.window.size() == static_cast<std::size_t>(window)) {
      auto it = ref.counts.find(ref.window.front());
      if (--it->second == 0) ref.counts.erase(it);
      ref.window.pop_front();
    }
    ref.window.push_back(pred.module_id);
    ++ref.counts[pred.module_id];
  }
  std::size_t mismatches = 0;
  if (refs.size() != final_verdicts.size()) {
    std::fprintf(stderr,
                 "drive: PARITY MISMATCH: %zu stations offline vs %zu "
                 "published\n",
                 refs.size(), final_verdicts.size());
    ++mismatches;
  }
  for (const auto& [mac, ref] : refs) {
    int expected = -1;
    std::size_t best = 0;
    for (const auto& [id, count] : ref.counts)
      if (count > best) {
        expected = id;
        best = count;
      }
    const auto it = final_verdicts.find(mac);
    if (it == final_verdicts.end()) {
      std::fprintf(stderr, "drive: PARITY MISMATCH: %s never published\n",
                   mac.to_string().c_str());
      ++mismatches;
    } else if (it->second.module_id != expected ||
               it->second.votes != static_cast<std::uint32_t>(best)) {
      std::fprintf(stderr,
                   "drive: PARITY MISMATCH: %s published module %d (%u "
                   "votes), offline says module %d (%zu votes)\n",
                   mac.to_string().c_str(), it->second.module_id,
                   it->second.votes, expected, best);
      ++mismatches;
    }
  }
  if (mismatches > 0) return 1;
  std::printf("drive: verdict parity OK (%zu stations match the offline "
              "pipeline)\n",
              refs.size());
  return 0;
}

int cmd_inspect(const Args& args) {
  if (!args.has("pcap")) return usage();
  const int max_frames = args.get_int("max", 5);
  const auto packets = capture::read_pcap(args.get("pcap"));
  int shown = 0;
  for (const auto& p : packets) {
    const auto frame = capture::BeamformingActionFrame::parse(p.bytes);
    if (!frame) continue;
    const auto& mc = frame->mimo_control;
    std::printf(
        "frame t=%8.3fs  TA=%s RA=%s  Nc=%d Nr=%d BW=%d codebook=(%d,%d) "
        "report=%zuB\n",
        p.timestamp_s, frame->ta.to_string().c_str(),
        frame->ra.to_string().c_str(), mc.nc, mc.nr, mc.bandwidth,
        mc.quant_config().b_psi, mc.quant_config().b_phi,
        frame->report.size());
    if (++shown >= max_frames) break;
  }
  std::printf("inspect: %d beamforming frames shown (of %zu packets)\n",
              shown, packets.size());
  return shown > 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  const Args args = parse_args(argc, argv, 2);
  try {
    if (cmd == "generate") return cmd_generate(args);
    if (cmd == "train") return cmd_train(args);
    if (cmd == "classify") return cmd_classify(args);
    if (cmd == "serve") return cmd_serve(args);
    if (cmd == "fleet") return cmd_fleet(args);
    if (cmd == "drive") return cmd_drive(args);
    if (cmd == "inspect") return cmd_inspect(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "deepcsi %s: %s\n", cmd.c_str(), e.what());
    return 1;
  }
  return usage();
}
