// The serving benchmark harness: runs one workload of the DeepCSI serving
// path as an operator deploys it, drives it from a seeded traffic
// generator, checks every verdict against an offline reference, and
// prints one JSON object with the metrics (see README.md).
//
//   servebench --workload NAME --seed N --seconds S --trace 0|1
//              [--out-dir DIR]
//   servebench --list-metrics
//
// A run has two measured phases, the fixed-rate (open-loop, seeded
// Poisson arrivals) phase first and the saturation (closed-loop,
// backpressure-limited) phase second, so queue counters read after the
// first phase describe the fixed-rate load alone. A report is done when
// the service's shadow callback fires for it, which happens once per
// classified report after its prediction is folded into the session
// table.
//
// --trace 1 runs the live phases twice (untraced, then traced, for the
// tracing overhead), records spans for the traced run, and times the
// benchmark's own calls into each library layer on a sample of the
// workload's inputs.
#include <malloc.h>
#include <sys/prctl.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "capture/monitor.h"
#include "capture/vht_frame.h"
#include "common/hash.h"
#include "common/parallel.h"
#include "common/report_queue.h"
#include "core/model.h"
#include "core/pipeline.h"
#include "dataset/features.h"
#include "feedback/bitpack.h"
#include "harness.h"
#include "net/client.h"
#include "net/ingest_server.h"
#include "net/protocol.h"
#include "net/publisher.h"
#include "nn/gemm.h"
#include "nn/infer.h"
#include "nn/serialize.h"
#include "nn/simd.h"
#include "phy/impairments.h"
#include "serving/fleet.h"
#include "serving/service.h"
#include "serving/session_table.h"

#ifndef SERVEBENCH_BUILD_TYPE
#define SERVEBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace deepcsi;
namespace sb = servebench;
using Clock = std::chrono::steady_clock;

// Deployment constants shared by every workload (the `serve` defaults
// except for the lane count, which the benchmark fixes at 2).
constexpr std::size_t kConsumers = 2;
constexpr std::size_t kQueueCapacity = 1024;
constexpr std::size_t kMaxBatch = 64;
constexpr auto kMaxLatency = std::chrono::milliseconds(2);
constexpr std::size_t kWindow = 31;
constexpr std::size_t kWireConnections = 3;  // + 1 verdict subscriber
constexpr std::size_t kWarmupReports = 64;
constexpr int kSetupsPerRepetition = 3;
// Round period of a fleet station's report sequence: positions (3) for
// mobile stations x odd/even rounds for confused ones, with one snapshot
// per template. The correctness gate re-derives a sample of the sent
// reports from the generator to check it.
constexpr std::uint64_t kRoundPeriod = 6;
// Fleet scenario shared by every workload: 10% of the stations move
// between positions and 5% interleave a neighbouring module's reports, so
// verdicts flip and the publisher has work.
constexpr double kMobileFraction = 0.1;
constexpr double kConfusionFraction = 0.05;
constexpr std::uint16_t kUnknownTemplate = 0xFFFF;
// Share of each phase excluded from its statistics while lazy state
// (page faults, first leases, socket buffers) settles.
constexpr double kRampSeconds = 0.5;
constexpr auto kCompletionTimeout = std::chrono::seconds(10);
// Throughput is counted in windows of this length, and the latency p99 in
// blocks of this many consecutive reports (the fewest that give p99 10
// samples beyond it); both are reported as medians over the run.
constexpr double kThroughputWindowSeconds = 0.5;
constexpr std::size_t kLatencyBlock = 1000;
// Each live run is split into this many repetitions, each on a freshly
// deployed system.
constexpr int kRepetitions = 8;

std::int64_t to_ns(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}
std::int64_t now_ns() { return to_ns(Clock::now()); }

void sleep_until_ns(std::int64_t t_ns) {
  // steady_clock is CLOCK_MONOTONIC; an absolute sleep cannot drift.
  timespec ts;
  ts.tv_sec = static_cast<time_t>(t_ns / 1000000000);
  ts.tv_nsec = static_cast<long>(t_ns % 1000000000);
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) != 0) {
  }
}

// A field of /proc/self/status ("VmRSS", "VmHWM") in MB.
double proc_status_mb(const std::string& field) {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line))
    if (line.rfind(field + ":", 0) == 0)
      return std::stod(line.substr(field.size() + 1)) / 1024.0;  // kB
  throw std::runtime_error("no " + field + " in /proc/self/status");
}

// Returns free heap pages to the kernel and resets the process's peak
// resident memory (VmHWM) to what it holds now, so a later VmHWM minus
// the returned VmRSS is the peak that the code run in between added.
double reset_peak_rss_mb() {
  malloc_trim(0);
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.close();
  if (!f) throw std::runtime_error("cannot reset the peak RSS");
  return proc_status_mb("VmRSS");
}

// The host's CPU time so far (jiffies, all CPUs) and the part of it the
// hypervisor gave to other guests ("steal"), from /proc/stat.
struct CpuTimes {
  double total = 0.0, steal = 0.0;
};
CpuTimes cpu_times() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  f >> cpu;
  CpuTimes t;
  double v = 0.0;
  for (int field = 0; field < 8 && f >> v; ++field) {
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

double median_of(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return sb::nearest_rank(v, 50.0);
}

// ------------------------------------------------------------ the inputs

std::uint64_t fingerprint(const capture::ObservedFeedback& obs) {
  const feedback::CompressedFeedbackReport& r = obs.report;
  std::uint64_t h = common::mix64(obs.beamformer.to_u64());
  const auto add = [&h](std::uint64_t v) { h = common::mix64(h ^ v); };
  add(static_cast<std::uint64_t>(r.m) << 8 | static_cast<std::uint64_t>(r.nss));
  add(static_cast<std::uint64_t>(r.quant.b_phi) << 8 |
      static_cast<std::uint64_t>(r.quant.b_psi));
  for (const int k : r.subcarriers) add(static_cast<std::uint64_t>(k));
  for (const feedback::QuantizedAngles& q : r.per_subcarrier) {
    for (const std::uint16_t v : q.q_phi) add(v);
    for (const std::uint16_t v : q.q_psi) add(0x10000u | v);
  }
  return h;
}

// The phases of a repetition of `rep_seconds`: the fixed-rate phase takes
// 60% of it, the saturation phase the rest, and each phase has room for
// this many reports.
double fixed_seconds(double rep_seconds) { return 0.6 * rep_seconds; }
std::size_t fixed_capacity(double rate_rps, double rep_seconds) {
  // Far above any Poisson count at this rate (mean + 30 sigma).
  const double mean = rate_rps * fixed_seconds(rep_seconds);
  return static_cast<std::size_t>(mean + 30.0 * std::sqrt(mean)) + 64;
}
std::size_t saturation_capacity(double rep_seconds) {
  return std::min<std::size_t>(
      sb::kPhaseSpan,
      static_cast<std::size_t>(
          60000.0 * (rep_seconds - fixed_seconds(rep_seconds))) +
          1024);
}

// The workload's traffic: a FleetGenerator plus the distinct reports
// ("templates") it draws from, and the template of every report a run can
// send, all worked out before the system is deployed. The generator then
// only copies a pre-encoded frame (wire), action frame (monitor) or
// report (submit) per send and patches its station and timestamp, so its
// cost and memory stay flat.
struct Inputs {
  sb::WorkloadDef wl;
  sb::StationSequence seq;
  dataset::InputSpec spec;
  std::unique_ptr<serving::FleetGenerator> gen;
  std::vector<capture::ObservedFeedback> templates;
  std::unordered_map<std::uint64_t, std::uint16_t> by_fingerprint;
  std::vector<std::uint16_t> periodic;  // [station * kRoundPeriod + round % P]
  // Distinct stations (submit front): [seq / kPhaseSpan][seq % kPhaseSpan].
  std::vector<std::vector<std::uint16_t>> phase_tids;
  std::vector<std::vector<std::uint8_t>> wire_frames;
  std::vector<capture::BeamformingActionFrame> action_frames;
  std::vector<std::uint8_t> wire_conn;  // per station (wire front)

  std::uint16_t intern(const capture::ObservedFeedback& obs) {
    const std::uint64_t fp = fingerprint(obs);
    if (const auto it = by_fingerprint.find(fp); it != by_fingerprint.end())
      return it->second;
    if (templates.size() >= kUnknownTemplate)
      throw std::runtime_error("too many distinct report templates");
    const auto tid = static_cast<std::uint16_t>(templates.size());
    templates.push_back(obs);
    by_fingerprint.emplace(fp, tid);
    return tid;
  }
  bool periodic_front() const { return wl.front != sb::Front::kSubmit; }
  std::uint16_t tid(std::uint64_t s) const {
    if (!periodic_front())
      return phase_tids[s / sb::kPhaseSpan][s % sb::kPhaseSpan];
    return periodic[seq.station(s) * kRoundPeriod +
                    seq.round(s) % kRoundPeriod];
  }
  capture::ObservedFeedback report(std::uint64_t s) const {
    return gen->report(seq.station(s), seq.round(s));
  }
  capture::MacAddress mac(std::uint64_t s) const {
    return capture::MacAddress::for_fleet_station(seq.station(s));
  }
};

// The VHT compressed-beamforming action frame a monitor-mode sensor
// would capture for `obs` (80 MHz, geometry and codebook from the report).
capture::BeamformingActionFrame action_frame(
    const capture::ObservedFeedback& obs) {
  capture::BeamformingActionFrame f;
  f.ra = obs.beamformer;
  f.ta = obs.beamformee;
  f.bssid = obs.beamformer;
  f.mimo_control.nc = obs.report.nss;
  f.mimo_control.nr = obs.report.m;
  f.mimo_control.bandwidth = 2;
  f.mimo_control.codebook_high =
      obs.report.quant == feedback::mu_mimo_codebook_high();
  f.report = feedback::pack_report(obs.report);
  return f;
}

// The template of each report in [base, base + count) of a distinct-
// station sequence. The fleet generator's reports are fingerprinted on
// two threads; new templates are interned in sequence order.
std::vector<std::uint16_t> distinct_tids(Inputs& in, std::uint64_t base,
                                         std::size_t count) {
  std::vector<std::uint64_t> fp(count);
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < 2; ++t)
    pool.emplace_back([&, t] {
      for (std::size_t i = t; i < count; i += 2)
        fp[i] = fingerprint(in.report(base + i));
    });
  for (std::thread& th : pool) th.join();
  std::vector<std::uint16_t> tids(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto it = in.by_fingerprint.find(fp[i]);
    tids[i] = it != in.by_fingerprint.end() ? it->second
                                            : in.intern(in.report(base + i));
  }
  return tids;
}

Inputs make_inputs(const sb::WorkloadDef& wl, std::uint64_t seed,
                   double rep_seconds) {
  Inputs in;
  in.wl = wl;
  in.seq.stations = wl.stations;
  in.spec.subcarrier_stride = wl.stride;
  serving::FleetConfig fc;
  fc.stations = wl.stations;
  fc.reports_per_station = 1;
  fc.mobile_fraction = kMobileFraction;
  fc.confusion_fraction = kConfusionFraction;
  fc.snapshots_per_template = 1;
  fc.seed = seed;
  in.gen = std::make_unique<serving::FleetGenerator>(fc);

  if (in.periodic_front()) {
    in.periodic.resize(wl.stations * kRoundPeriod);
    for (std::uint64_t s = 0; s < wl.stations; ++s)
      for (std::uint64_t j = 0; j < kRoundPeriod; ++j)
        in.periodic[s * kRoundPeriod + j] = in.intern(in.gen->report(s, j));
  } else {
    in.phase_tids.resize(3);
    in.phase_tids[0] = distinct_tids(in, sb::kPrefillBase, wl.max_stations);
    in.phase_tids[1] = distinct_tids(
        in, sb::kFixedBase, fixed_capacity(wl.fixed_rate_rps, rep_seconds));
    in.phase_tids[2] = distinct_tids(in, sb::kSaturationBase,
                                     saturation_capacity(rep_seconds));
  }

  for (const capture::ObservedFeedback& t : in.templates) {
    in.wire_frames.push_back(net::encode_report_frame(t));
    in.action_frames.push_back(action_frame(t));
  }
  if (wl.front == sb::Front::kWire) {
    in.wire_conn.resize(wl.stations);
    for (std::uint64_t s = 0; s < wl.stations; ++s)
      in.wire_conn[s] = static_cast<std::uint8_t>(
          common::mix64(capture::MacAddress::for_fleet_station(s).to_u64()) %
          kWireConnections);
  }
  return in;
}

// Seeded untrained model, int8-calibrated on the workload's own
// features, saved as the weights + .meta + .calib trio `serve` loads.
core::ModelConfig model_config(const sb::WorkloadDef& wl, std::uint64_t seed) {
  core::ModelConfig mc =
      wl.paper_model ? core::paper_model_config() : core::quick_model_config();
  mc.init_seed = common::mix64(seed ^ 0x5EEDull);
  return mc;
}

void save_model(const Inputs& in, std::uint64_t seed, const std::string& path) {
  const core::ModelConfig mc = model_config(in.wl, seed);
  const std::size_t c =
      static_cast<std::size_t>(dataset::num_input_channels(in.spec));
  const std::size_t w = dataset::num_input_columns(in.spec);
  core::Authenticator auth(
      core::build_deepcsi_model(static_cast<int>(c), static_cast<int>(w),
                                phy::kNumModules, mc),
      in.spec);
  nn::Tensor x({in.templates.size(), c, 1, w});
  for (std::size_t i = 0; i < in.templates.size(); ++i)
    dataset::fill_features(in.templates[i].report, in.spec,
                           x.data() + i * c * w);
  const std::vector<nn::CalibrationEntry> calib = auth.calibrate_int8(x);
  auth.save(path);
  core::save_model_meta(path, {{"stride", in.spec.subcarrier_stride},
                               {"filters", mc.filters},
                               {"classes", phy::kNumModules}});
  nn::save_calibration(path, calib);
}

// ------------------------------------------------- the completion probe

struct Slot {
  std::int64_t due_ns = 0;       // open loop only
  std::int64_t sent_ns = 0;      // generator: send started
  std::int64_t sent_end_ns = 0;  // generator: send returned (traced)
  std::int64_t enq_ns = 0;       // PendingReport::enqueued_at (traced)
  std::int64_t done_ns = 0;      // completion callback
  double confidence = 0.0;
  std::int32_t module = -1;
  std::uint16_t tid = kUnknownTemplate;
  bool sent = false;
};

struct Phase {
  std::uint64_t base = 0;
  std::vector<Slot> slots;
  std::unique_ptr<std::atomic<std::uint8_t>[]> seen;
  std::atomic<std::size_t> completed{0};

  void reset(std::uint64_t b, std::size_t capacity) {
    base = b;
    slots.assign(capacity, Slot{});
    seen = std::make_unique<std::atomic<std::uint8_t>[]>(capacity);
    for (std::size_t i = 0; i < capacity; ++i) seen[i].store(0);
    completed.store(0);
  }
  std::size_t sent() const {
    return static_cast<std::size_t>(std::count_if(
        slots.begin(), slots.end(), [](const Slot& s) { return s.sent; }));
  }
};

struct Recorder {
  bool traced = false;
  Phase fixed, saturation;
  std::atomic<std::size_t> warmup{0};
  std::atomic<std::size_t> strays{0};
  std::atomic<std::size_t> duplicates{0};

  void on_done(const serving::PendingReport& r,
               const core::Authenticator::Prediction& p) {
    const std::int64_t done = now_ns();
    const std::uint64_t seq = sb::timestamp_seq(r.timestamp_s);
    if (seq >= sb::kWarmupBase) {
      warmup.fetch_add(1, std::memory_order_release);
      return;
    }
    Phase& ph = seq >= sb::kSaturationBase ? saturation : fixed;
    const std::uint64_t k = seq - ph.base;
    if (seq < sb::kFixedBase || k >= ph.slots.size()) {
      strays.fetch_add(1);
      return;
    }
    if (ph.seen[k].exchange(1) != 0) {
      duplicates.fetch_add(1);
      return;
    }
    Slot& s = ph.slots[k];
    s.done_ns = done;
    s.module = p.module_id;
    s.confidence = p.confidence;
    if (traced) s.enq_ns = to_ns(r.enqueued_at);
    ph.completed.fetch_add(1, std::memory_order_release);
  }
};

// Waits until `count()` reaches `target` or the timeout lapses.
bool wait_for(const std::function<std::size_t()>& count, std::size_t target,
              Clock::duration timeout = kCompletionTimeout) {
  const auto deadline = Clock::now() + timeout;
  while (count() < target) {
    if (Clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return true;
}

// ------------------------------------------------------------ the system

// One deployed serving process: model trio loaded, service started, and
// (wire front) ingest server plus verdict publisher listening.
struct System {
  std::optional<net::VerdictPublisher> pub;
  std::unique_ptr<core::Authenticator> auth;
  std::unique_ptr<serving::AuthService> service;
  std::unique_ptr<net::TcpIngestServer> ingest;

  void shutdown() {
    if (ingest) ingest->stop();
    if (service) service->drain();
    if (pub) pub->stop();
  }
  ~System() { shutdown(); }
};

serving::ServiceConfig service_config(const sb::WorkloadDef& wl) {
  serving::ServiceConfig cfg;
  cfg.queue_capacity = kQueueCapacity;
  cfg.policy = common::OverflowPolicy::kBlock;
  cfg.scheduler.max_batch = kMaxBatch;
  cfg.scheduler.max_latency = kMaxLatency;
  cfg.consumers = kConsumers;
  cfg.sessions.window = kWindow;
  cfg.sessions.num_shards = wl.session_shards;
  cfg.sessions.max_stations = wl.max_stations;
  return cfg;
}

// Loads the weights + .meta + .calib trio as `serve` does.
std::unique_ptr<core::Authenticator> load_authenticator(
    const Inputs& in, std::uint64_t seed, const std::string& model_path) {
  core::LoadedModel lm;
  std::string err;
  if (core::load_model_artifact(model_path, in.spec, model_config(in.wl, seed),
                                &lm, &err) != core::ModelLoadStatus::kOk)
    throw std::runtime_error(err);
  auto auth =
      std::make_unique<core::Authenticator>(std::move(*lm.model), lm.spec);
  if (!lm.calibration) throw std::runtime_error("model has no .calib sidecar");
  auth->apply_int8_calibration(*lm.calibration);
  return auth;
}

std::vector<core::Authenticator::Prediction> expected_predictions(
    const Inputs& in, const core::Authenticator& auth) {
  std::vector<feedback::CompressedFeedbackReport> reports;
  reports.reserve(in.templates.size());
  for (const capture::ObservedFeedback& t : in.templates)
    reports.push_back(t.report);
  return auth.classify_batch(reports);
}

// A bounded table is full before the measured phases: the first
// max_stations stations of the sequence, one report each, folded offline
// from their offline predictions and saved as a session snapshot, which
// every deployed system restores (as a restarted `serve` does) before its
// traffic starts.
void save_prefill_snapshot(const Inputs& in, std::uint64_t seed,
                           const std::string& model_path,
                           const std::string& path) {
  const std::vector<core::Authenticator::Prediction> expect =
      expected_predictions(in, *load_authenticator(in, seed, model_path));
  serving::SessionTable table(service_config(in.wl).sessions);
  for (std::uint64_t s = sb::kPrefillBase;
       s < sb::kPrefillBase + in.wl.max_stations; ++s)
    table.record(in.mac(s), expect[in.tid(s)], sb::seq_timestamp(s));
  table.save_snapshot(path);
}

// Timed set-up: load the trio, start the service (and sockets), and push
// one warm-up batch through to completion.
std::unique_ptr<System> start_system(const Inputs& in, std::uint64_t seed,
                                     const std::string& model_path,
                                     Recorder& rec, double* seconds) {
  const auto t0 = Clock::now();
  auto sys = std::make_unique<System>();
  sys->auth = load_authenticator(in, seed, model_path);

  if (in.wl.front == sb::Front::kWire) {
    sys->pub.emplace(net::PublisherConfig{});
    sys->pub->start();
  }
  sys->service =
      std::make_unique<serving::AuthService>(*sys->auth, service_config(in.wl));
  if (sys->pub) {
    net::VerdictPublisher* pub = &*sys->pub;
    sys->service->set_verdict_callback([pub](const serving::StationVerdict& v) {
      net::VerdictMsg m;
      m.station = v.station;
      m.module_id = v.module_id;
      m.votes = static_cast<std::uint32_t>(v.votes);
      m.window_size = static_cast<std::uint32_t>(v.window_size);
      m.total_reports = v.total_reports;
      m.mean_confidence = v.mean_confidence;
      m.last_timestamp_s = v.last_timestamp_s;
      pub->publish(m);
    });
  }
  sys->service->set_shadow_callback(
      [&rec](const serving::PendingReport& r,
             const core::Authenticator::Prediction& p) { rec.on_done(r, p); });
  sys->service->start();
  if (in.wl.front == sb::Front::kWire) {
    serving::AuthService* svc = sys->service.get();
    sys->ingest = std::make_unique<net::TcpIngestServer>(
        net::IngestConfig{}, [svc](capture::ObservedFeedback& obs) {
          return svc->try_submit(obs);
        });
    sys->ingest->start();
  }

  const std::size_t before = rec.warmup.load();
  for (std::size_t i = 0; i < kWarmupReports; ++i) {
    const capture::ObservedFeedback& t = in.templates[i % in.templates.size()];
    sys->service->submit(capture::MacAddress::for_station(static_cast<int>(i)),
                         sb::seq_timestamp(sb::kWarmupBase + i), t.report);
  }
  if (!wait_for([&rec] { return rec.warmup.load(std::memory_order_acquire); },
                before + kWarmupReports))
    throw std::runtime_error("warm-up batch did not complete");
  *seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  return sys;
}

// ------------------------------------------------------------ generators

// Sends report k of a phase through the workload's front door, from
// scratch copies of the templates it owns.
class Sender {
 public:
  Sender(const Inputs& in, System& sys,
         std::vector<net::NetClient>* clients)
      : in_(in),
        sys_(sys),
        clients_(clients),
        frames_(in.action_frames),
        reports_(in.templates) {}

  std::size_t rejected = 0;   // refused by the service or the socket
  std::size_t malformed = 0;  // sensor could not parse its own frame

  void send(Phase& ph, std::size_t k) {
    const std::uint64_t seq = ph.base + k;
    Slot& slot = ph.slots[k];
    const double ts = sb::seq_timestamp(seq);
    slot.tid = in_.tid(seq);
    switch (in_.wl.front) {
      case sb::Front::kWire: {
        buf_ = in_.wire_frames[slot.tid];
        const capture::MacAddress mac = in_.mac(seq);
        // Payload layout: station MAC at 0, beamformer MAC at 6, f64
        // timestamp at 12 (net/protocol.h).
        std::memcpy(buf_.data() + net::kHeaderBytes, mac.octets.data(), 6);
        const std::uint64_t bits = std::bit_cast<std::uint64_t>(ts);
        for (int i = 0; i < 8; ++i)
          buf_[net::kHeaderBytes + 12 + static_cast<std::size_t>(i)] =
              static_cast<std::uint8_t>(bits >> (8 * i));
        const std::size_t conn = in_.wire_conn[in_.seq.station(seq)];
        if (!(*clients_)[conn].send_bytes(buf_)) ++rejected;
        break;
      }
      case sb::Front::kMonitor: {
        capture::BeamformingActionFrame& f = frames_[slot.tid];
        f.ta = in_.mac(seq);
        f.sequence = static_cast<std::uint16_t>(seq & 0xFFF);
        packet_[0].timestamp_s = ts;
        packet_[0].bytes = f.serialize();
        // The sensor thread: parse, validate and unpack the captured frame
        // as the monitor-mode observer does, then hand the report over.
        std::vector<capture::ObservedFeedback> observed =
            capture::observe_feedback(packet_, std::nullopt);
        if (observed.size() != 1) {
          ++malformed;
          break;
        }
        if (!sys_.service->submit(observed[0].beamformee, ts,
                                  std::move(observed[0].report)))
          ++rejected;
        break;
      }
      case sb::Front::kSubmit: {
        capture::ObservedFeedback& obs = reports_[slot.tid];
        obs.beamformee = in_.mac(seq);
        obs.timestamp_s = ts;
        if (!sys_.service->submit(obs)) ++rejected;
        break;
      }
    }
  }

 private:
  const Inputs& in_;
  System& sys_;
  std::vector<net::NetClient>* clients_;
  std::vector<capture::BeamformingActionFrame> frames_;
  std::vector<capture::ObservedFeedback> reports_;
  std::vector<capture::CapturedPacket> packet_{1};
  std::vector<std::uint8_t> buf_;
};

struct GeneratorTally {
  std::size_t rejected = 0;
  std::size_t malformed = 0;
};

// Closed loop: the generator sends its next report as soon as the
// previous send returned, so the rate is whatever backpressure (blocking
// queue push, TCP flow control) lets through. Stops at `end_ns` or when
// the phase capacity is used up.
GeneratorTally closed_loop(const Inputs& in, System& sys,
                           std::vector<net::NetClient>* clients, Phase& ph,
                           std::int64_t end_ns, bool traced) {
  Sender s(in, sys, clients);
  for (std::size_t k = 0; k < ph.slots.size(); ++k) {
    const std::int64_t start = now_ns();
    if (end_ns > 0 && start >= end_ns) break;
    Slot& slot = ph.slots[k];
    slot.sent_ns = start;
    slot.sent = true;
    s.send(ph, k);
    if (traced) slot.sent_end_ns = now_ns();
  }
  return {s.rejected, s.malformed};
}

// Open loop: each report leaves at its due time whatever the system's
// state; lateness is recorded per report.
GeneratorTally open_loop(const Inputs& in, System& sys,
                         std::vector<net::NetClient>* clients, Phase& ph,
                         bool traced) {
  Sender s(in, sys, clients);
  for (std::size_t k = 0; k < ph.slots.size(); ++k) {
    Slot& slot = ph.slots[k];
    if (now_ns() < slot.due_ns) sleep_until_ns(slot.due_ns);
    slot.sent_ns = now_ns();
    slot.sent = true;
    s.send(ph, k);
    if (traced) slot.sent_end_ns = now_ns();
  }
  return {s.rejected, s.malformed};
}

// ------------------------------------------------------------- one run

struct Counters {
  serving::StatsSnapshot stats;
  net::IngestStats ingest;
  net::PublisherStats publish;
  std::uint64_t int8 = 0;
};

Counters read_counters(System& sys) {
  Counters c;
  c.stats = sys.service->stats();
  if (sys.ingest) c.ingest = sys.ingest->stats();
  if (sys.pub) c.publish = sys.pub->stats();
  c.int8 = nn::int8_kernel_dispatches();
  return c;
}

// Counter deltas of one repetition, summed over repetitions.
struct LayerCounters {
  double fixed_reports = 0, sat_reports = 0, live_reports = 0;
  double batches = 0, batch_items = 0, deadline_flushes = 0;  // fixed phase
  double would_block = 0;                                     // fixed phase
  double pauses = 0;                                          // saturation
  double evicted = 0, publish_frames = 0, publish_dropped = 0, int8 = 0;
  double session_mb = 0;  // at the end of the last repetition
  std::size_t peak_depth = 0;

  void add(const Counters& f0, const Counters& f1, const Counters& s0,
           const Counters& s1) {
    const auto d = [](auto a, auto b) { return static_cast<double>(b - a); };
    fixed_reports += d(f0.stats.reports_classified, f1.stats.reports_classified);
    sat_reports += d(s0.stats.reports_classified, s1.stats.reports_classified);
    live_reports += d(f0.stats.reports_classified, s1.stats.reports_classified);
    batches += d(f0.stats.scheduler.batches, f1.stats.scheduler.batches);
    batch_items += d(f0.stats.scheduler.items, f1.stats.scheduler.items);
    deadline_flushes += d(f0.stats.scheduler.flush_deadline,
                          f1.stats.scheduler.flush_deadline);
    would_block += d(f0.stats.queue.would_block, f1.stats.queue.would_block);
    pauses += d(s0.ingest.pauses, s1.ingest.pauses);
    evicted += d(f0.stats.sessions.evicted_lru + f0.stats.sessions.evicted_ttl,
                 s1.stats.sessions.evicted_lru + s1.stats.sessions.evicted_ttl);
    publish_frames += d(f0.publish.frames_published, s1.publish.frames_published);
    publish_dropped += d(f0.publish.frames_dropped, s1.publish.frames_dropped);
    int8 += d(f0.int8, s1.int8);
    session_mb =
        static_cast<double>(s1.stats.sessions.approx_bytes) / (1024.0 * 1024.0);
  }
};

// Everything a live run measured, pooled over its repetitions. Each
// repetition deploys a fresh system (new threads, new sockets), so one
// unlucky thread placement moves one repetition's windows, not the run.
struct LiveResult {
  int repetitions = 0;
  std::vector<double> setup_s;
  // Peak resident memory the deployed system added, through the first
  // fixed-rate phase.
  double peak_rss_mb = 0.0;
  std::vector<double> throughput_windows_rps;  // saturation, per window
  std::vector<double> throughput_rep_rps;      // median per repetition
  std::vector<sb::OpenLoopSample> samples;     // fixed phase, after ramp
  std::vector<double> ingress_ms;              // traced only
  std::vector<double> residence_ms;            // traced only
  std::size_t throughput_samples = 0;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t rejected = 0;
  std::size_t malformed = 0;
  std::size_t reports_completed = 0;
  LayerCounters counters;
  // Correctness gate.
  std::vector<std::string> gate_failures;
  std::size_t reports_checked = 0;
  std::size_t verdicts_checked = 0;
  std::size_t published_checked = 0;
  std::size_t publish_frames_seen = 0;
  // Traced runs: the last repetition's fixed-phase slots (the span store)
  // and clock origin.
  std::vector<Slot> fixed_slots;
  std::int64_t t0_ns = 0;

  double throughput_rps() const { return median_of(throughput_windows_rps); }
  // p99 of each block of kLatencyBlock consecutive fixed-phase reports.
  std::vector<double> p99_blocks_ms() const {
    return sb::block_latency_percentiles(samples, kLatencyBlock, 99.0);
  }
  // The median latency of each block of kLatencyBlock consecutive
  // fixed-phase reports, lower quartile over the blocks. The host lends
  // the VM's CPUs to other guests in bursts, and a burst lifts the median
  // of every block it overlaps (2.2 ms to 2.8 ms at 5% steal on
  // fleet_churn); the lower quartile is the median latency of the quarter
  // of the run the host disturbed least, and moves with the code as the
  // median does.
  double latency_p50_ms() const {
    std::vector<double> p50 =
        sb::block_latency_percentiles(samples, kLatencyBlock, 50.0);
    std::sort(p50.begin(), p50.end());
    return sb::nearest_rank(p50, 25.0);
  }
  sb::OpenLoopSummary open() const { return sb::summarize_open_loop(samples); }
};

bool same_prediction(const Slot& s, const core::Authenticator::Prediction& p) {
  return s.module == p.module_id &&
         std::bit_cast<std::uint64_t>(s.confidence) ==
             std::bit_cast<std::uint64_t>(p.confidence);
}

// The correctness gate for one repetition: every completed report's
// (module, confidence) bit-equal to offline classify_batch of the same
// report under the same backend; sessions (and, on the wire, the
// published verdict stream) equal to an offline replay of the offline
// predictions in per-station order; int8 kernels actually dispatched.
// Lost reports are gated by the caller; with any report lost the session
// check cannot run, and says so.
void check_rep(const Inputs& in, System& sys, Recorder& rec,
               const std::map<std::uint64_t, net::VerdictMsg>& published,
               std::uint64_t publish_dropped, bool all_completed,
               std::uint64_t int8_delta, const std::string& rep,
               LiveResult& out) {
  const auto failure = [&](std::size_t n, const std::string& what) {
    if (n > 0) out.gate_failures.push_back(rep + std::to_string(n) + " " + what);
  };
  const std::vector<core::Authenticator::Prediction> expect =
      expected_predictions(in, *sys.auth);
  std::size_t mismatches = 0, generator_drift = 0;
  sb::Rng sample_rng(0x5A3B1Eull);
  for (Phase* ph : {&rec.fixed, &rec.saturation}) {
    for (std::size_t k = 0; k < ph->slots.size(); ++k) {
      const Slot& s = ph->slots[k];
      if (!s.sent || s.done_ns == 0) continue;
      ++out.reports_checked;
      if (!same_prediction(s, expect[s.tid])) ++mismatches;
      // Templates stand in for the generator's own reports: re-derive a
      // sample of the sent ones and compare.
      if (sample_rng.next() % 64 == 0 &&
          fingerprint(in.report(ph->base + k)) !=
              fingerprint(in.templates[s.tid]))
        ++generator_drift;
    }
  }
  failure(mismatches, "report(s) differ from offline classify_batch");
  failure(generator_drift, "sent report(s) differ from the generator's");
  failure(rec.duplicates.load(), "duplicate completion(s)");
  failure(rec.strays.load(), "completion(s) for reports never sent");
  failure(int8_delta == 0 ? 1 : 0, "run without an int8 kernel dispatch");
  failure(publish_dropped, "verdict frame(s) dropped by the publisher");
  if (!all_completed) {
    failure(1, "session check not run: reports were lost");
    return;
  }

  // Session state, replayed offline from the offline predictions in
  // sequence order; the generator sends in that order, one phase after
  // the other (the fixed phase, then saturation), after a bounded table's
  // restored prefill. A bounded table evicts, so only its resident
  // stations are replayed: a bounded workload's stations never repeat in
  // a run, so a resident station's session holds every report it had.
  // The table must then sit at its ceiling.
  const bool bounded = in.wl.max_stations != 0;
  std::unordered_map<std::uint64_t, serving::StationVerdict> live;
  for (const serving::StationVerdict& v : sys.service->sessions().snapshot())
    live[v.station.to_u64()] = v;
  if (bounded) {
    const std::size_t resident = live.size();
    failure(resident > in.wl.max_stations ? resident - in.wl.max_stations
                                          : in.wl.max_stations - resident,
            "station(s) off the session ceiling");
    // LRU evicts the oldest: the last 4096 stations sent (about 64 per
    // shard, against 512 places in each) must all be resident.
    std::size_t recent = 0, missing = 0;
    for (Phase* ph : {&rec.saturation, &rec.fixed})
      for (std::size_t k = ph->slots.size(); k-- > 0 && recent < 4096;) {
        if (!ph->slots[k].sent) continue;
        ++recent;
        if (live.count(in.mac(ph->base + k).to_u64()) == 0) ++missing;
      }
    failure(missing, "recently sent station(s) not resident");
  }
  serving::SessionConfig ref_cfg = service_config(in.wl).sessions;
  ref_cfg.max_stations = 0;
  serving::SessionTable ref(ref_cfg);
  for (std::uint64_t s = sb::kPrefillBase;
       bounded && s < sb::kPrefillBase + in.wl.max_stations; ++s)
    if (live.count(in.mac(s).to_u64()) != 0)
      ref.record(in.mac(s), expect[in.tid(s)], sb::seq_timestamp(s));
  for (Phase* ph : {&rec.fixed, &rec.saturation})
    for (std::size_t k = 0; k < ph->slots.size(); ++k) {
      const Slot& s = ph->slots[k];
      if (!s.sent) continue;
      const std::uint64_t seq = ph->base + k;
      const capture::MacAddress mac = in.mac(seq);
      if (bounded && live.count(mac.to_u64()) == 0) continue;
      ref.record(mac, expect[s.tid], sb::seq_timestamp(seq));
    }
  std::size_t verdict_mismatches = 0, publish_mismatches = 0;
  for (const serving::StationVerdict& r : ref.snapshot()) {
    ++out.verdicts_checked;
    const auto it = live.find(r.station.to_u64());
    if (it == live.end()) {
      ++verdict_mismatches;
      continue;
    }
    const serving::StationVerdict& v = it->second;
    if (v.module_id != r.module_id || v.votes != r.votes ||
        v.window_size != r.window_size || v.total_reports != r.total_reports ||
        std::bit_cast<std::uint64_t>(v.mean_confidence) !=
            std::bit_cast<std::uint64_t>(r.mean_confidence) ||
        v.last_timestamp_s != r.last_timestamp_s)
      ++verdict_mismatches;
    if (in.wl.front == sb::Front::kWire) {
      ++out.published_checked;
      const auto p = published.find(r.station.to_u64());
      if (p == published.end() || p->second.module_id != r.module_id)
        ++publish_mismatches;
    }
  }
  failure(verdict_mismatches, "station verdict(s) differ from offline replay");
  failure(publish_mismatches,
          "published verdict(s) differ from offline replay");
}

// One repetition: builds the system (`setups` timed times, keeping the
// last), restores the prefill snapshot (if any), runs the fixed-rate and
// saturation phases, tears down, checks, and pools what it measured into
// `out`.
void run_rep(const Inputs& in, std::uint64_t seed, int rep,
             const std::string& model_path, const std::string& prefill_path,
             double seconds, int setups, bool traced, LiveResult& out) {
  Recorder rec;
  rec.traced = traced;
  const double fixed_s = fixed_seconds(seconds);
  const double sat_s = seconds - fixed_s;

  const std::vector<double> due = sb::poisson_schedule(
      common::mix64(seed + static_cast<std::uint64_t>(rep)),
      in.wl.fixed_rate_rps, fixed_s);
  if (due.size() > fixed_capacity(in.wl.fixed_rate_rps, seconds))
    throw std::logic_error("fixed-rate schedule exceeds its capacity");
  rec.fixed.reset(sb::kFixedBase, due.size());
  rec.saturation.reset(sb::kSaturationBase, saturation_capacity(seconds));

  // Memory is what the first repetition's system holds once deployed, on
  // top of the harness's own inputs and per-report records, and its peak
  // through the fixed-rate phase: later repetitions start on a heap the
  // earlier ones fragmented, and in saturation the in-flight reports (up
  // to the queue budget) depend on which thread the host slows down.
  // For the same reason the first repetition serves on the process's
  // first system (a system torn down earlier leaves its lanes' heap
  // arenas behind, in a state that varies with thread timing) and times
  // its other set-ups after the phases; every other repetition serves on
  // the last of its set-ups.
  const auto deploy = [&] {
    double s = 0.0;
    std::unique_ptr<System> d = start_system(in, seed, model_path, rec, &s);
    out.setup_s.push_back(s);
    return d;
  };
  const double rss_base_mb = rep == 0 ? reset_peak_rss_mb() : 0.0;
  for (int i = 1; rep != 0 && i < setups; ++i) deploy();
  const std::unique_ptr<System> sys = deploy();
  std::string err;
  if (!prefill_path.empty() &&
      sys->service->restore_sessions(prefill_path, &err) !=
          serving::SessionTable::RestoreStatus::kRestored)
    throw std::runtime_error("cannot restore the prefill snapshot: " + err);
  // Set-up transients (model parsing, the snapshot's read buffer) are not
  // the serving footprint: the peak restarts from what the system holds.
  if (rep == 0) reset_peak_rss_mb();

  // The wire generator: kWireConnections sharded ingest connections plus
  // one verdict subscriber read on the generator's second thread.
  std::vector<net::NetClient> clients;
  std::optional<net::VerdictSubscriber> sub;
  std::map<std::uint64_t, net::VerdictMsg> published;
  std::size_t publish_frames = 0;
  std::thread reader;
  if (in.wl.front == sb::Front::kWire) {
    sub.emplace(net::VerdictSubscriber::connect("127.0.0.1", sys->pub->port()));
    for (std::size_t c = 0; c < kWireConnections; ++c)
      clients.push_back(
          net::NetClient::connect("127.0.0.1", sys->ingest->port()));
    reader = std::thread([&] {
      while (auto frame = sub->next_frame()) {
        if (frame->type !=
            static_cast<std::uint8_t>(net::FrameType::kVerdictUpdate))
          continue;
        ++publish_frames;
        if (const auto v = net::decode_verdict(frame->payload))
          published[v->station.to_u64()] = *v;
      }
    });
  }

  const std::string tag = "repetition " + std::to_string(rep) + ": ";
  const auto await = [&](Phase& ph, const char* phase) {
    if (!wait_for([&] { return ph.completed.load(std::memory_order_acquire); },
                  ph.sent()))
      out.gate_failures.push_back(tag + phase +
                                  " phase: timed out waiting for completions");
  };
  const std::int64_t t0 = now_ns();
  GeneratorTally tally;
  const auto add = [&tally](const GeneratorTally& g) {
    tally.rejected += g.rejected;
    tally.malformed += g.malformed;
  };

  const Counters before_fixed = read_counters(*sys);
  const std::int64_t fixed_start = now_ns() + 2000000;  // thread starts
  for (std::size_t k = 0; k < due.size(); ++k)
    rec.fixed.slots[k].due_ns =
        fixed_start + static_cast<std::int64_t>(due[k] * 1e9);
  {
    // The open loop runs on its own thread; in a traced run this
    // thread samples the total queue depth meanwhile (a queue's own peak
    // counter also remembers the warm-up batch).
    GeneratorTally g;
    std::atomic<bool> finished{false};
    std::thread loop_thread([&] {
      g = open_loop(in, *sys, &clients, rec.fixed, traced);
      finished.store(true);
    });
    while (traced && !finished.load()) {
      out.counters.peak_depth =
          std::max(out.counters.peak_depth, sys->service->queue_depth());
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    loop_thread.join();
    add(g);
  }
  await(rec.fixed, "fixed-rate");
  const Counters after_fixed = read_counters(*sys);
  if (rep == 0) out.peak_rss_mb = proc_status_mb("VmHWM") - rss_base_mb;

  const Counters before_sat = read_counters(*sys);
  const std::int64_t sat_start = now_ns();
  const std::int64_t sat_end =
      sat_start + static_cast<std::int64_t>(sat_s * 1e9);
  {
    // On a thread of its own, like the open loop, so the producer's
    // heap arena is not the one the set-up and a restored session table
    // were allocated from.
    GeneratorTally g;
    std::thread loop_thread([&] {
      g = closed_loop(in, *sys, &clients, rec.saturation, sat_end, traced);
    });
    loop_thread.join();
    add(g);
  }
  const std::int64_t sat_stop = std::min(now_ns(), sat_end);
  await(rec.saturation, "saturation");
  const Counters after_sat = read_counters(*sys);
  out.counters.add(before_fixed, after_fixed, before_sat, after_sat);

  // Tear down in deployment order; the subscriber sees EOF once the
  // publisher has flushed everything.
  for (net::NetClient& c : clients) c.close();
  sys->shutdown();
  if (reader.joinable()) reader.join();
  out.publish_frames_seen += publish_frames;

  // Throughput: completions per second in whole windows of the
  // saturation phase after the ramp.
  const double ramp = std::min(
      kRampSeconds, 0.25 * static_cast<double>(sat_stop - sat_start) / 1e9);
  std::vector<double> sat_done;
  for (const Slot& s : rec.saturation.slots)
    if (s.done_ns != 0) sat_done.push_back(static_cast<double>(s.done_ns) / 1e9);
  const std::vector<double> rates = sb::window_rates(
      sat_done, static_cast<double>(sat_start) / 1e9 + ramp,
      static_cast<double>(sat_stop) / 1e9, kThroughputWindowSeconds);
  out.throughput_rep_rps.push_back(median_of(rates));
  out.throughput_windows_rps.insert(out.throughput_windows_rps.end(),
                                    rates.begin(), rates.end());
  out.throughput_samples += sat_done.size();

  // Open-loop latency: reports due after the ramp.
  const double fixed_ramp = std::min(kRampSeconds, 0.25 * fixed_s);
  std::vector<sb::OpenLoopSample> samples;
  for (const Slot& s : rec.fixed.slots) {
    if (static_cast<double>(s.due_ns - fixed_start) / 1e9 < fixed_ramp)
      continue;
    samples.push_back({static_cast<double>(s.due_ns) / 1e9,
                       static_cast<double>(s.sent_ns) / 1e9,
                       s.done_ns == 0 ? -1.0
                                      : static_cast<double>(s.done_ns) / 1e9});
    if (traced && s.done_ns != 0) {
      out.ingress_ms.push_back(static_cast<double>(s.enq_ns - s.due_ns) / 1e6);
      out.residence_ms.push_back(static_cast<double>(s.done_ns - s.enq_ns) /
                                 1e6);
    }
  }
  out.samples.insert(out.samples.end(), samples.begin(), samples.end());

  const std::size_t sent = rec.fixed.sent() + rec.saturation.sent();
  const std::size_t done =
      rec.fixed.completed.load() + rec.saturation.completed.load();
  const std::size_t failed = sent - std::min(sent, done) +
                             (rec.fixed.slots.size() - rec.fixed.sent());
  const std::size_t rejected = tally.rejected + after_sat.ingest.reports_dropped;
  const std::size_t malformed =
      tally.malformed + after_sat.ingest.malformed_payloads;
  out.attempted += sent;
  out.failed += failed;
  out.reports_completed += done;
  out.rejected += rejected;
  out.malformed += malformed;

  // Every report must come back: a lost, rejected or malformed one fails
  // the run, whatever it did to the timings.
  const auto lost = [&](std::size_t n, const char* what) {
    if (n > 0) out.gate_failures.push_back(tag + std::to_string(n) + what);
  };
  lost(failed, " report(s) not sent or not completed");
  lost(rejected, " report(s) rejected or dropped");
  lost(malformed, " malformed report(s)");
  check_rep(in, *sys, rec, published, after_sat.publish.frames_dropped,
            failed == 0, after_sat.int8 - before_fixed.int8, tag, out);

  if (traced) {
    out.fixed_slots = std::move(rec.fixed.slots);
    out.t0_ns = t0;
  }
  for (int i = 1; rep == 0 && i < setups; ++i) deploy();
  ++out.repetitions;
}

LiveResult run_live(const Inputs& in, std::uint64_t seed,
                    const std::string& model_path,
                    const std::string& prefill_path, double seconds, int reps,
                    int setups_per_rep, bool traced) {
  LiveResult out;
  // A failed repetition fails the run: stop there.
  for (int rep = 0; rep < reps && out.gate_failures.empty(); ++rep)
    run_rep(in, seed, rep, model_path, prefill_path, seconds / reps,
            setups_per_rep, traced, out);
  return out;
}

// ------------------------------------------------------------------ spans

// A trace span: name, interval, the span that caused it, and the report
// it belongs to. Kept in memory, written out when the run ends.
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  const char* name = "";
  std::uint64_t report = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class SpanLog {
 public:
  std::uint64_t add(const char* name, std::uint64_t parent,
                    std::uint64_t report, std::int64_t start,
                    std::int64_t end) {
    spans_.push_back({next_id_, parent, name, report, start, end});
    return next_id_++;
  }
  std::size_t size() const { return spans_.size(); }
  Span& at(std::size_t i) { return spans_[i]; }

  void write(const std::string& path, std::int64_t t0_ns) const {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) throw std::runtime_error("cannot write " + path);
    for (const Span& s : spans_)
      std::fprintf(f,
                   "{\"id\":%llu,\"parent\":%llu,\"name\":\"%s\","
                   "\"report\":%llu,\"start_us\":%.3f,\"end_us\":%.3f}\n",
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent), s.name,
                   static_cast<unsigned long long>(s.report),
                   static_cast<double>(s.start_ns - t0_ns) / 1e3,
                   static_cast<double>(s.end_ns - t0_ns) / 1e3);
    if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path);
  }

 private:
  std::vector<Span> spans_;
  std::uint64_t next_id_ = 1;
};

// Live-run spans of the fixed phase: report (due -> done) with children
// ingress (due -> enqueued_at) and residence (enqueued_at -> done), and
// the generator's send nested in ingress. Residence cannot be split into
// queue wait and batch classify from outside the program.
void add_live_spans(const LiveResult& r, SpanLog& log) {
  for (std::size_t k = 0; k < r.fixed_slots.size(); ++k) {
    const Slot& s = r.fixed_slots[k];
    if (s.done_ns == 0) continue;
    const std::uint64_t seq = sb::kFixedBase + k;
    const std::uint64_t report =
        log.add("report", 0, seq, s.due_ns, s.done_ns);
    const std::uint64_t ingress =
        log.add("ingress", report, seq, s.due_ns, s.enq_ns);
    log.add("send", ingress, seq, s.sent_ns, s.sent_end_ns);
    log.add("residence", report, seq, s.enq_ns, s.done_ns);
  }
}

// ---------------------------------------------------------- layer replays

// Times `call(i)` for every sample index, pass after pass, until the time
// budget is spent (at least one pass). Returns the median per-report cost
// in microseconds; `per_call` reports share one call (batched layers).
// `prepare(i)` runs before each timed call, outside the clock.
template <typename P, typename F>
double time_layer(SpanLog& log, const char* layer, const char* fn,
                  std::size_t n, std::size_t per_call, double budget_s,
                  P&& prepare, F&& call) {
  const std::int64_t start = now_ns();
  const std::size_t parent_index = log.size();
  const std::uint64_t parent = log.add(layer, 0, 0, start, start);
  std::vector<double> us;
  const std::int64_t budget_end = start + static_cast<std::int64_t>(budget_s * 1e9);
  for (int pass = 0; pass < 64 && (pass == 0 || now_ns() < budget_end);
       ++pass) {
    for (std::size_t i = 0; i < n; ++i) {
      prepare(i);
      const std::int64_t t0 = now_ns();
      call(i);
      const std::int64_t t1 = now_ns();
      us.push_back(static_cast<double>(t1 - t0) / 1e3 /
                   static_cast<double>(per_call));
      log.add(fn, parent, i, t0, t1);
    }
  }
  log.at(parent_index).end_ns = now_ns();
  return median_of(std::move(us));
}

template <typename F>
double time_layer(SpanLog& log, const char* layer, const char* fn,
                  std::size_t n, std::size_t per_call, double budget_s,
                  F&& call) {
  return time_layer(log, layer, fn, n, per_call, budget_s,
                    [](std::size_t) {}, std::forward<F>(call));
}

struct LayerCosts {
  double decode_us = 0, parse_us = 0, unpack_us = 0, features_us = 0,
         forward_us = 0, classify_us = 0, record_us = 0, handoff_us = 0;
};

// Times the benchmark's own calls into each layer's public functions on
// the workload's first fixed-phase reports.
LayerCosts replay_layers(const Inputs& in, std::uint64_t seed,
                         const std::string& model_path, const LiveResult& live,
                         SpanLog& log) {
  constexpr std::size_t kSample = 256;
  constexpr double kBudget = 0.25;
  LayerCosts c;
  std::vector<capture::ObservedFeedback> sample;
  for (std::uint64_t i = 0; i < kSample; ++i) {
    const std::uint64_t seq = sb::kFixedBase + i;
    capture::ObservedFeedback obs = in.report(seq);
    obs.timestamp_s = sb::seq_timestamp(seq);
    sample.push_back(std::move(obs));
  }
  std::vector<feedback::CompressedFeedbackReport> reports;
  for (const capture::ObservedFeedback& o : sample) reports.push_back(o.report);

  // net: decode_report on the wire payload.
  std::vector<std::vector<std::uint8_t>> frames;
  for (const capture::ObservedFeedback& o : sample)
    frames.push_back(net::encode_report_frame(o));
  c.decode_us = time_layer(log, "replay.net", "net.decode_report", kSample, 1,
                           kBudget, [&](std::size_t i) {
                             const std::span<const std::uint8_t> payload(
                                 frames[i].data() + net::kHeaderBytes,
                                 frames[i].size() - net::kHeaderBytes);
                             if (!net::decode_report(payload))
                               throw std::runtime_error("decode_report failed");
                           });

  // capture: parse of the raw action frame.
  std::vector<std::vector<std::uint8_t>> raw;
  for (const capture::ObservedFeedback& o : sample)
    raw.push_back(action_frame(o).serialize());
  std::vector<capture::BeamformingActionFrame> parsed(kSample);
  c.parse_us = time_layer(
      log, "replay.capture", "capture.BeamformingActionFrame::parse", kSample, 1,
      kBudget, [&](std::size_t i) {
        auto f = capture::BeamformingActionFrame::parse(raw[i]);
        if (!f) throw std::runtime_error("parse failed");
        parsed[i] = std::move(*f);
      });

  // feedback: unpack_report of the parsed payload.
  c.unpack_us = time_layer(
      log, "replay.feedback", "feedback.unpack_report", kSample, 1, kBudget,
      [&](std::size_t i) {
        const capture::VhtMimoControl& mc = parsed[i].mimo_control;
        const feedback::CompressedFeedbackReport r = feedback::unpack_report(
            parsed[i].report, mc.nr, mc.nc, sample[i].report.subcarriers,
            mc.quant_config());
        if (r.per_subcarrier.size() != sample[i].report.per_subcarrier.size())
          throw std::runtime_error("unpack_report size mismatch");
      });

  // dataset: fill_features at the workload's InputSpec.
  const std::size_t ch =
      static_cast<std::size_t>(dataset::num_input_channels(in.spec));
  const std::size_t cols = dataset::num_input_columns(in.spec);
  dataset::FeatureScratch scratch;
  std::vector<float> feat(ch * cols);
  c.features_us = time_layer(log, "replay.dataset", "dataset.fill_features",
                             kSample, 1, kBudget, [&](std::size_t i) {
                               dataset::fill_features(reports[i], in.spec,
                                                      feat.data(), scratch);
                             });

  // nn + core need the model: load the same trio the live run served.
  const std::unique_ptr<core::Authenticator> loaded =
      load_authenticator(in, seed, model_path);
  const core::Authenticator& auth = *loaded;
  const std::size_t batch = core::Authenticator::kContextBatch;
  const std::size_t batches = kSample / batch;
  nn::InferenceContext ctx(auth.shared_model(), {ch, 1, cols}, batch);
  c.forward_us = time_layer(
      log, "replay.nn", "nn.InferenceContext::run", batches, batch, kBudget,
      [&](std::size_t b) {
        for (std::size_t i = 0; i < batch; ++i)
          dataset::fill_features(reports[b * batch + i], in.spec,
                                 ctx.input() + i * ctx.sample_numel(), scratch);
      },
      [&](std::size_t) { ctx.run(batch); });

  std::vector<core::Authenticator::Prediction> preds(batch);
  c.classify_us = time_layer(
      log, "replay.core", "core.Authenticator::classify_batch_into", batches,
      batch, kBudget, [&](std::size_t b) {
        auth.classify_batch_into(
            std::span<const feedback::CompressedFeedbackReport>(
                reports.data() + b * batch, batch),
            std::span<core::Authenticator::Prediction>(preds));
      });

  // serving: SessionTable::record over the workload's station sequence,
  // after an untimed fill that puts the table in its steady state (at the
  // ceiling for a bounded table, full windows otherwise).
  {
    serving::SessionTable table(service_config(in.wl).sessions);
    const std::size_t fill = in.wl.max_stations != 0
                                 ? in.wl.max_stations
                                 : static_cast<std::size_t>(in.wl.stations) *
                                       kWindow;
    constexpr std::size_t kTimed = 8192;
    const auto prediction = [&](std::size_t i) {
      const Slot& s = live.fixed_slots.empty()
                          ? Slot{}
                          : live.fixed_slots[i % live.fixed_slots.size()];
      return core::Authenticator::Prediction{std::max(0, s.module),
                                             s.confidence};
    };
    for (std::size_t i = 0; i < fill; ++i)
      table.record(in.mac(sb::kFixedBase + i), prediction(i),
                   sb::seq_timestamp(sb::kFixedBase + i));
    c.record_us = time_layer(log, "replay.serving", "serving.SessionTable::record",
                             kTimed, 1, 0.0, [&](std::size_t i) {
                               const std::uint64_t seq = sb::kFixedBase + fill + i;
                               table.record(in.mac(seq), prediction(fill + i),
                                            sb::seq_timestamp(seq));
                             });
  }

  // common: push + pop of a copied report through a lane queue.
  {
    common::ReportQueue<serving::PendingReport> queue(
        kQueueCapacity / kConsumers, common::OverflowPolicy::kBlock);
    serving::PendingReport out;
    c.handoff_us = time_layer(
        log, "replay.common", "common.ReportQueue::push+pop", kSample, 1,
        kBudget, [&](std::size_t i) {
          serving::PendingReport p;
          p.station = sample[i].beamformee;
          p.timestamp_s = sample[i].timestamp_s;
          p.report = sample[i].report;
          p.enqueued_at = Clock::now();
          queue.push(std::move(p));
          queue.pop(out);
        });
  }
  return c;
}

// ------------------------------------------------------------------ output

class JsonObject {
 public:
  JsonObject& num(const std::string& key, double v) {
    char buf[64];
    if (std::isfinite(v))
      std::snprintf(buf, sizeof(buf), "%.17g", v);
    else
      std::snprintf(buf, sizeof(buf), "null");
    return raw(key, buf);
  }
  JsonObject& num(const std::string& key, std::size_t v) {
    return raw(key, std::to_string(v));
  }
  JsonObject& str(const std::string& key, const std::string& v) {
    std::string q = "\"";
    for (const char ch : v) {
      if (ch == '"' || ch == '\\') q += '\\';
      if (static_cast<unsigned char>(ch) >= 0x20) q += ch;
    }
    return raw(key, q + "\"");
  }
  JsonObject& boolean(const std::string& key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  JsonObject& raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ",") + ("\"" + key + "\":") + json;
    return *this;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string json_list(const std::vector<double>& v) {
  std::string out;
  for (const double x : v)
    out += (out.empty() ? "" : ",") + std::to_string(x);
  return "[" + out + "]";
}

std::string cpu_model() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line))
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  return "unknown";
}

double per_k(double count, double reports) {
  return reports > 0 ? 1000.0 * count / reports : 0.0;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool list_metrics = false;
  std::string out_dir = ".";
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
      return argv[++i];
    };
    if (k == "--workload") a.workload = value();
    else if (k == "--seed") a.seed = std::stoull(value());
    else if (k == "--seconds") a.seconds = std::stod(value());
    else if (k == "--trace") a.trace = std::stoi(value()) != 0;
    else if (k == "--out-dir") a.out_dir = value();
    else if (k == "--list-metrics") a.list_metrics = true;
    else throw std::invalid_argument("unknown argument " + k);
  }
  if (!a.list_metrics && sb::find_workload(a.workload) == nullptr)
    throw std::invalid_argument("unknown workload '" + a.workload + "'");
  if (!(a.seconds > 0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

int run(const Args& args) {
  if (args.list_metrics) {
    std::string out;
    for (const sb::MetricDef& m : sb::metric_table())
      out += std::string(out.empty() ? "" : ",") + JsonObject()
                                                       .str("name", m.name)
                                                       .str("unit", m.unit)
                                                       .boolean("traced", m.traced)
                                                       .str();
    std::printf("[%s]\n", out.c_str());
    return 0;
  }
  // Every workload is defined on the int8 backend with one pool thread;
  // a run on anything else would measure a different program.
  if (simd::active() != simd::Backend::kAvx2Int8)
    throw std::runtime_error(std::string("DEEPCSI_SIMD must be avx2_int8 (active: ") +
                             simd::name(simd::active()) + ")");
  if (common::num_threads() != 1)
    throw std::runtime_error("DEEPCSI_THREADS must be 1");

  const sb::WorkloadDef& wl = *sb::find_workload(args.workload);
  std::filesystem::create_directories(args.out_dir);
  const std::string tag = wl.name + "-" + std::to_string(args.seed) + "-" +
                          std::to_string(getpid());
  const std::string model_path = args.out_dir + "/model-" + tag + ".bin";

  const auto inputs_start = Clock::now();
  const Inputs in = make_inputs(wl, args.seed, args.seconds / kRepetitions);
  save_model(in, args.seed, model_path);
  const std::string prefill_path =
      wl.max_stations != 0 ? args.out_dir + "/sessions-" + tag + ".snap" : "";
  if (!prefill_path.empty())
    save_prefill_snapshot(in, args.seed, model_path, prefill_path);
  JsonObject metrics, info;
  // Traffic generation, model calibration and the prefill snapshot,
  // outside every metric.
  info.num("inputs_s",
           std::chrono::duration<double>(Clock::now() - inputs_start).count());
  LiveResult main_run;
  std::string span_path;
  const CpuTimes cpu_start = cpu_times();
  const auto metric = [&](const char* name, double v) {
    for (const sb::MetricDef& m : sb::metric_table())
      if (std::strcmp(m.name, name) == 0) {
        metrics.raw(name, JsonObject().num("value", v).str("unit", m.unit).str());
        return;
      }
    throw std::logic_error(std::string("metric not in table: ") + name);
  };

  if (!args.trace) {
    main_run = run_live(in, args.seed, model_path, prefill_path, args.seconds,
                        kRepetitions, kSetupsPerRepetition, false);
    metric("setup_s", median_of(main_run.setup_s));
    metric("throughput_rps", main_run.throughput_rps());
    metric("latency_p50_ms", main_run.latency_p50_ms());
    metric("rss_mb", main_run.peak_rss_mb);
  } else {
    // Half the measuring time each, so a traced run costs about what an
    // untraced one does.
    const LiveResult untraced =
        run_live(in, args.seed, model_path, prefill_path, args.seconds / 2,
                 kRepetitions / 2, 1, false);
    main_run = run_live(in, args.seed, model_path, prefill_path,
                        args.seconds / 2, kRepetitions / 2, 1, true);
    for (const std::string& f : untraced.gate_failures)
      main_run.gate_failures.push_back("untraced run: " + f);
    main_run.attempted += untraced.attempted;
    main_run.failed += untraced.failed;
    SpanLog log;
    add_live_spans(main_run, log);
    const LayerCosts lc =
        replay_layers(in, args.seed, model_path, main_run, log);
    span_path = args.out_dir + "/spans-" + tag + ".jsonl";
    log.write(span_path, main_run.t0_ns);

    const LiveResult& r = main_run;
    const LayerCounters& c = r.counters;
    const sb::OpenLoopSummary o = r.open();
    std::vector<double> ingress = r.ingress_ms, residence = r.residence_ms;
    std::sort(ingress.begin(), ingress.end());
    std::sort(residence.begin(), residence.end());
    metric("net.decode_us", lc.decode_us);
    metric("net.pauses_per_kreport", per_k(c.pauses, c.sat_reports));
    metric("net.publish_frames_per_kreport",
           per_k(c.publish_frames, c.live_reports));
    metric("net.publish_dropped_frac",
           ratio(c.publish_dropped, c.publish_frames));
    metric("capture.parse_us", lc.parse_us);
    metric("feedback.unpack_us", lc.unpack_us);
    metric("dataset.features_us", lc.features_us);
    metric("nn.forward_us", lc.forward_us);
    metric("nn.int8_dispatch_per_report", ratio(c.int8, c.live_reports));
    metric("core.classify_us", lc.classify_us);
    metric("serving.session_record_us", lc.record_us);
    metric("serving.residence_ms_p50", sb::nearest_rank(residence, 50));
    metric("serving.residence_ms_p99", sb::nearest_rank(residence, 99));
    metric("serving.batch_size_mean", ratio(c.batch_items, c.batches));
    metric("serving.deadline_flush_frac", ratio(c.deadline_flushes, c.batches));
    metric("serving.evicted_per_report", ratio(c.evicted, c.live_reports));
    metric("serving.session_mb", c.session_mb);
    metric("common.queue_handoff_us", lc.handoff_us);
    metric("common.queue_peak_depth", static_cast<double>(c.peak_depth));
    metric("common.would_block_per_kreport",
           per_k(c.would_block, c.fixed_reports));
    // From the untraced half, like the end-to-end latency it belongs to.
    metric("latency_p99_ms", median_of(untraced.p99_blocks_ms()));
    metric("ingress_ms_p50", sb::nearest_rank(ingress, 50));
    metric("ingress_ms_p99", sb::nearest_rank(ingress, 99));
    metric("gen_lag_ms_p99", sb::nearest_rank(o.lag_ms, 99));
    metric("trace.throughput_delta_rps",
           r.throughput_rps() - untraced.throughput_rps());
    metric("trace.latency_p50_delta_ms",
           r.latency_p50_ms() - untraced.latency_p50_ms());
    info.num("untraced_throughput_rps", untraced.throughput_rps())
        .num("untraced_latency_p50_ms", untraced.latency_p50_ms())
        .num("spans", log.size());
  }
  if (main_run.p99_blocks_ms().empty())
    main_run.gate_failures.push_back("too few fixed-rate reports for a p99");
  if (main_run.throughput_windows_rps.empty())
    main_run.gate_failures.push_back(
        "saturation phase too short for a throughput window");
  std::filesystem::remove(model_path);
  std::filesystem::remove(model_path + ".meta");
  std::filesystem::remove(model_path + ".calib");
  if (!prefill_path.empty()) std::filesystem::remove(prefill_path);

  const LiveResult& r = main_run;
  const sb::OpenLoopSummary o = r.open();
  const CpuTimes cpu_end = cpu_times();
  const double top = sb::highest_supported_percentile(o.latency_ms.size());
  info.num("fixed_rate_rps", wl.fixed_rate_rps)
      .num("repetitions", static_cast<std::size_t>(r.repetitions))
      .num("latency_samples", o.latency_ms.size())
      .num("latency_blocks", r.p99_blocks_ms().size())
      .num("latency_top_percentile", top)
      .num("latency_top_ms", sb::nearest_rank(o.latency_ms, top))
      .num("latency_p99_ms", median_of(r.p99_blocks_ms()))
      .num("latency_p99_all_ms", sb::nearest_rank(o.latency_ms, 99))
      .num("latency_p50_all_ms", sb::nearest_rank(o.latency_ms, 50))
      .num("throughput_samples", r.throughput_samples)
      .num("throughput_windows", r.throughput_windows_rps.size())
      .raw("throughput_rep_rps", json_list(r.throughput_rep_rps))
      .num("setup_samples", r.setup_s.size())
      .num("gen_lag_ms_p50", sb::nearest_rank(o.lag_ms, 50))
      .num("gen_lag_ms_p99", sb::nearest_rank(o.lag_ms, 99))
      // Share of the host's CPU time taken by other guests during the
      // run: a run on a host short of CPU measures the host.
      .num("host_steal_frac", ratio(cpu_end.steal - cpu_start.steal,
                                    cpu_end.total - cpu_start.total))
      .num("failed_frac", ratio(static_cast<double>(r.failed),
                                static_cast<double>(r.attempted)))
      .num("rejected", r.rejected)
      .num("malformed", r.malformed)
      .num("reports_completed", r.reports_completed)
      .num("publish_frames_seen", r.publish_frames_seen);
  std::string failures;
  for (const std::string& f : r.gate_failures)
    failures += (failures.empty() ? "\"" : ",\"") + f + "\"";
  JsonObject gate;
  gate.raw("failures", "[" + failures + "]")
      .num("reports_checked", r.reports_checked)
      .num("verdicts_checked", r.verdicts_checked)
      .num("published_checked", r.published_checked);
  JsonObject host;
  host.num("nproc", static_cast<std::size_t>(sysconf(_SC_NPROCESSORS_ONLN)))
      .str("cpu_model", cpu_model())
      .str("simd_backend", simd::name(simd::active()))
      .num("deepcsi_threads", static_cast<std::size_t>(common::num_threads()))
      .str("build_type", SERVEBENCH_BUILD_TYPE);

  const bool correct = r.gate_failures.empty();
  JsonObject result;
  result.str("workload", wl.name)
      .num("seed", static_cast<std::size_t>(args.seed))
      .num("seconds", args.seconds)
      .num("trace", static_cast<std::size_t>(args.trace ? 1 : 0))
      .boolean("correct", correct)
      .num("attempted", r.attempted)
      .num("failed", r.failed)
      .raw("metrics", correct ? metrics.str() : "{}")
      .raw("gate", gate.str())
      .raw("info", info.str())
      .raw("host", host.str())
      .str("spans", span_path);
  std::printf("%s\n", result.str().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // Sleeps of the open loop (and of every thread, which inherits this)
  // end within 1 us of their deadline rather than the default 50 us.
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "servebench: %s\n", e.what());
    return 2;
  }
}
