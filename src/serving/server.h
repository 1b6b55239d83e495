// The serve process, assembled in one place: both `deepcsi serve` front
// ends and the in-process loopback tests build a Server from
// ServeOptions instead of wiring the parts by hand.
//
//   TcpIngestServer ──try_submit──> AuthService ──verdicts──> VerdictPublisher
//   (accept gate: ShedGate)            └──shadow tap──> ShadowScorer
//
// Around that pipeline it owns the process lifecycle: session restore,
// the --port-file readiness signal, periodic and final snapshots, swap
// requests, the --model-watch poll, shadow promotion, the end-of-run
// frames to subscribers and the stats pull. The library never prints:
// start(), tick() and stop() return what happened.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "serving/options.h"
#include "serving/service.h"
#include "serving/shadow.h"

namespace deepcsi::net {
class TcpIngestServer;
class VerdictPublisher;
}  // namespace deepcsi::net

namespace deepcsi::serving {

// Accept-gate load shedding with hysteresis: from `high` queued reports
// on, NEW connections are refused (established streams keep flowing);
// accepting resumes only at `low` or below, so a depth hovering at the
// threshold does not flap the gate. Polled from the ingest loop only.
class ShedGate {
 public:
  ShedGate(std::size_t high, std::size_t low) : high_(high), low_(low) {}
  bool admit(std::size_t depth) {
    if (!shedding_ && depth >= high_)
      shedding_ = true;
    else if (shedding_ && depth <= low_)
      shedding_ = false;
    return !shedding_;
  }

 private:
  std::size_t high_, low_;
  bool shedding_ = false;
};

class Server {
 public:
  // `candidate` is the model loaded from o.shadow_model, if any.
  Server(ServeOptions o, core::Authenticator primary,
         std::optional<core::Authenticator> candidate = std::nullopt);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  struct Startup {
    std::string error;  // non-empty: the process must not serve
    std::optional<SessionTable::RestoreStatus> restore;  // with a state file
    std::size_t restored_stations = 0;
    bool ok() const { return error.empty(); }
  };
  // Restores sessions (a corrupt snapshot fails here, before anything
  // starts; a missing one starts cold), then starts the publisher, the
  // service and ingest, and writes the port file. Bind failures throw.
  // Replay front ends skip this: replay_observed starts service() itself.
  Startup start();

  // Bound ports (an ephemeral 0 resolved); 0 when not configured.
  std::uint16_t ingest_port() const;
  std::uint16_t publish_port() const;

  // Blocks up to `interval`; true once the serve loop should end on its
  // own (once mode: the first wave of ingest clients came and went).
  bool wait(std::chrono::milliseconds interval);

  // Ask the next tick() to hot-swap from o.model (SIGHUP). Thread-safe.
  void request_swap() { swap_requested_ = true; }

  struct SwapAttempt {
    std::string trigger;  // "SIGHUP", "watch" or "shadow-promotion"
    core::Authenticator::SwapResult result;
  };
  struct TickReport {
    std::vector<SwapAttempt> swaps;
    std::string snapshot_error;  // a periodic snapshot failed
  };
  // Lifecycle housekeeping for the serve loop: a requested swap, the
  // model watch (swaps only once the file's mtime/size stamp is unchanged
  // across two polls, so a half-written file never reaches the loader),
  // one promotion offer per promotable candidate, the periodic snapshot.
  TickReport tick();

  // Stops ingest, drains, writes the final snapshot (not after a failed
  // start(): a refused snapshot stays as it was), stops the shadow, then
  // flushes a full verdict snapshot and the stats frame before the
  // publisher closes. Returns the final snapshot's error, if any.
  // Idempotent.
  std::string stop();

  // service().stats() plus the shadow, ingest and publish counters.
  StatsSnapshot stats() const;

  AuthService& service() { return service_; }
  const AuthService& service() const { return service_; }
  core::Authenticator& authenticator() { return auth_; }
  const ServeOptions& options() const { return opts_; }
  // nullptr when not configured.
  const net::TcpIngestServer* ingest() const { return ingest_.get(); }
  const net::VerdictPublisher* publisher() const { return pub_.get(); }
  const ShadowScorer* shadow() const { return shadow_.get(); }

 private:
  struct FileStamp {
    std::int64_t mtime_ns = -1;  // -1 = file absent
    std::int64_t size = -1;
    bool operator==(const FileStamp&) const = default;
  };
  static FileStamp stamp_of(const std::string& path);
  SwapAttempt attempt_swap(const std::string& path, const char* trigger);

  ServeOptions opts_;
  core::Authenticator auth_;
  // Lifetime rule, by declaration order: lane threads call the verdict
  // and shadow callbacks until the service drains, so the publisher and
  // the scorer outlive the service; ingest submits into it, so it dies
  // first.
  std::unique_ptr<net::VerdictPublisher> pub_;
  std::unique_ptr<ShadowScorer> shadow_;
  AuthService service_;
  ShedGate shed_;
  std::unique_ptr<net::TcpIngestServer> ingest_;

  std::atomic<bool> swap_requested_{false};
  bool start_failed_ = false;
  bool stopped_ = false;
  std::chrono::steady_clock::time_point last_save_, last_watch_;
  FileStamp watch_prev_, watch_attempted_;
};

}  // namespace deepcsi::serving
