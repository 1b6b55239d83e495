// Shared fixtures for the in-process serving tests: a deterministic quick
// model and its saved artifact trio, an interleaved multi-station report
// stream, a polling wait for asynchronous server-side conditions, and
// loopback ServeOptions for serving::Server.
#pragma once

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "capture/monitor.h"
#include "core/model.h"
#include "core/pipeline.h"
#include "dataset/features.h"
#include "dataset/traces.h"
#include "serving/options.h"

namespace deepcsi::fixture {

// Same seed every call, so two of these classify identically.
inline core::Authenticator quick_authenticator(const dataset::InputSpec& spec) {
  return core::Authenticator(
      core::build_deepcsi_model(
          dataset::num_input_channels(spec),
          static_cast<int>(dataset::num_input_columns(spec)),
          phy::kNumModules, core::quick_model_config()),
      spec);
}

// Persist the full deployable trio (weights + authoritative .meta) under
// the test temp dir the way `deepcsi train` does, so swap_model can
// reload it. Returns the weights path.
inline std::string save_artifact(const core::Authenticator& auth,
                                 const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  auth.save(path);
  core::save_model_meta(
      path, {{"filters", core::quick_model_config().filters},
             {"stride", auth.input_spec().subcarrier_stride},
             {"classes", phy::kNumModules}});
  return path;
}

inline void remove_artifact(const std::string& path) {
  std::remove(path.c_str());
  std::remove((path + ".meta").c_str());
}

// `stations` beamformees, station s streaming module-(s % kNumModules)
// reports, interleaved frame by frame.
inline std::vector<capture::ObservedFeedback> multi_station_stream(
    int stations, int snapshots) {
  dataset::Scale scale;
  scale.d1_snapshots_per_trace = snapshots;
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
  double t = 0.0;
  for (int i = 0; i < snapshots; ++i) {
    for (int s = 0; s < stations; ++s) {
      capture::ObservedFeedback obs;
      obs.timestamp_s = t;
      obs.beamformee = capture::MacAddress::for_station(s);
      obs.beamformer = capture::MacAddress::for_module(s % phy::kNumModules);
      obs.report = per_station[static_cast<std::size_t>(s)]
                              [static_cast<std::size_t>(i)];
      stream.push_back(std::move(obs));
      t += 0.01;
    }
  }
  return stream;
}

// Spin-wait with timeout for a server-side condition (loopback delivery
// is asynchronous; never assert immediately on a counter).
template <typename Pred>
bool eventually(Pred pred, std::chrono::milliseconds budget =
                               std::chrono::milliseconds(5000)) {
  const auto deadline = std::chrono::steady_clock::now() + budget;
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

// `serve --listen PORT [--publish PORT] --once 1 --queue N` through the
// CLI's own parser (so derived knobs like the shed watermarks match a
// real process), then `cfg` and ephemeral ports (0: the sockets resolve
// them, read back via Server::ingest_port() / publish_port()).
inline serving::ServeOptions loopback_options(const serving::ServiceConfig& cfg,
                                              bool publish) {
  std::map<std::string, std::string> flags = {
      {"model", "unused"},
      {"listen", "1"},
      {"once", "1"},
      {"queue", std::to_string(cfg.queue_capacity)}};
  if (publish) flags.emplace("publish", "2");
  std::string err;
  serving::ServeOptions o = *serving::ServeOptions::parse(
      flags, serving::ServeOptions::Front::kServe, &err);
  o.service = cfg;
  o.listen_port = 0;
  o.publish_port = 0;
  return o;
}

}  // namespace deepcsi::fixture
