#include "serving/server.h"

#include <sys/stat.h>

#include <exception>
#include <thread>
#include <utility>

#include "common/atomic_file.h"
#include "net/ingest_server.h"
#include "net/protocol.h"
#include "net/publisher.h"

namespace deepcsi::serving {

namespace {

net::VerdictMsg to_verdict_msg(const StationVerdict& v) {
  net::VerdictMsg m;
  m.station = v.station;
  m.module_id = static_cast<std::int32_t>(v.module_id);
  m.votes = static_cast<std::uint32_t>(v.votes);
  m.window_size = static_cast<std::uint32_t>(v.window_size);
  m.total_reports = static_cast<std::uint64_t>(v.total_reports);
  m.mean_confidence = v.mean_confidence;
  m.last_timestamp_s = v.last_timestamp_s;
  return m;
}

}  // namespace

Server::Server(ServeOptions o, core::Authenticator primary,
               std::optional<core::Authenticator> candidate)
    : opts_(std::move(o)),
      auth_(std::move(primary)),
      service_(auth_, opts_.service),
      shed_(static_cast<std::size_t>(opts_.shed_high),
            static_cast<std::size_t>(opts_.shed_low)) {
  if (opts_.publish) {
    net::PublisherConfig pcfg;
    pcfg.port = opts_.publish_port;
    pcfg.max_conns = static_cast<std::size_t>(opts_.max_conns);
    pub_ = std::make_unique<net::VerdictPublisher>(pcfg);
    service_.set_verdict_callback(
        [this](const StationVerdict& v) { pub_->publish(to_verdict_msg(v)); });
  }
  if (candidate) {
    ShadowConfig scfg;
    scfg.sample_every = static_cast<std::size_t>(opts_.shadow_sample);
    scfg.max_divergence = opts_.promote_below;
    scfg.min_samples = static_cast<std::uint64_t>(opts_.promote_min);
    shadow_ = std::make_unique<ShadowScorer>(std::move(*candidate), scfg);
    service_.set_shadow_callback(
        [this](const PendingReport& r,
               const core::Authenticator::Prediction& p) {
          shadow_->observe(r, p);
        });
  }
  if (opts_.listen) {
    net::IngestConfig icfg;
    icfg.port = opts_.listen_port;
    icfg.max_conns = static_cast<std::size_t>(opts_.max_conns);
    icfg.accept_gate = [this] { return shed_.admit(service_.queue_depth()); };
    ingest_ = std::make_unique<net::TcpIngestServer>(
        icfg, [this](capture::ObservedFeedback& obs) {
          return service_.try_submit(obs);
        });
  }
}

Server::~Server() = default;

Server::Startup Server::start() {
  Startup up;
  if (!opts_.state_file.empty()) {
    // Before any report flows, so rolling majorities continue where the
    // last process (clean exit or kill -9) snapshotted. A damaged
    // snapshot is refused, never half-loaded.
    up.restore = service_.restore_sessions(opts_.state_file, &up.error);
    if (*up.restore == SessionTable::RestoreStatus::kCorrupt) {
      start_failed_ = true;  // stop() must not overwrite the evidence
      return up;
    }
    up.error.clear();  // kNoFile's "no such file" is a cold start
    up.restored_stations = service_.sessions().num_stations();
  }
  if (pub_) pub_->start();
  service_.start();
  if (ingest_) ingest_->start();
  if (!opts_.port_file.empty()) {
    // Written once both sockets accept, atomically: a racing driver
    // reads two ports or no file, never a torn line.
    try {
      common::write_file_atomic(opts_.port_file,
                                std::to_string(ingest_port()) + " " +
                                    std::to_string(publish_port()) + "\n");
    } catch (const std::exception& e) {
      up.error = std::string("cannot write --port-file: ") + e.what();
      start_failed_ = true;
      return up;
    }
  }
  last_save_ = last_watch_ = std::chrono::steady_clock::now();
  watch_prev_ = watch_attempted_ = stamp_of(opts_.model);
  return up;
}

std::uint16_t Server::ingest_port() const {
  return ingest_ ? ingest_->port() : 0;
}

std::uint16_t Server::publish_port() const { return pub_ ? pub_->port() : 0; }

bool Server::wait(std::chrono::milliseconds interval) {
  if (opts_.once && ingest_) return ingest_->wait_until_idle_for(interval);
  std::this_thread::sleep_for(interval);
  return false;
}

// Nanosecond mtime, so back-to-back rewrites in one second still differ.
Server::FileStamp Server::stamp_of(const std::string& path) {
  struct ::stat st{};
  if (::stat(path.c_str(), &st) != 0) return {};
  return {static_cast<std::int64_t>(st.st_mtim.tv_sec) * 1000000000 +
              static_cast<std::int64_t>(st.st_mtim.tv_nsec),
          static_cast<std::int64_t>(st.st_size)};
}

Server::SwapAttempt Server::attempt_swap(const std::string& path,
                                         const char* trigger) {
  SwapAttempt a{trigger, auth_.swap_model(path)};
  if (a.result.ok()) service_.on_model_swapped();  // drift EWMA re-warms
  return a;
}

Server::TickReport Server::tick() {
  TickReport r;
  const auto now = std::chrono::steady_clock::now();
  if (swap_requested_.exchange(false))
    r.swaps.push_back(attempt_swap(opts_.model, "SIGHUP"));
  if (opts_.model_watch_ms > 0 &&
      now - last_watch_ >= std::chrono::milliseconds(opts_.model_watch_ms)) {
    // Changed since the last attempt AND unchanged since the last look:
    // our own artifacts rename atomically, external cp pipelines do not.
    last_watch_ = now;
    const FileStamp cur = stamp_of(opts_.model);
    if (cur.mtime_ns >= 0 && cur != watch_attempted_ && cur == watch_prev_) {
      watch_attempted_ = cur;
      r.swaps.push_back(attempt_swap(opts_.model, "watch"));
    }
    watch_prev_ = cur;
  }
  if (shadow_ && shadow_->promotable()) {
    // One offer per candidate, won or lost: a refused candidate stays in
    // shadow with its stats still accumulating for the operator.
    shadow_->mark_promoted();
    r.swaps.push_back(attempt_swap(opts_.shadow_model, "shadow-promotion"));
  }
  if (!opts_.state_file.empty() &&
      now - last_save_ >= std::chrono::milliseconds(opts_.state_interval_ms)) {
    try {
      service_.save_sessions(opts_.state_file);
    } catch (const std::exception& e) {
      r.snapshot_error = e.what();
    }
    last_save_ = now;
  }
  return r;
}

std::string Server::stop() {
  if (stopped_) return {};
  stopped_ = true;
  if (ingest_) ingest_->stop();
  service_.drain();  // queued reports classify; verdict callbacks still fire
  std::string snapshot_error;
  if (!opts_.state_file.empty() && !start_failed_) {
    try {
      service_.save_sessions(opts_.state_file);
    } catch (const std::exception& e) {
      snapshot_error = e.what();
    }
  }
  if (shadow_) shadow_->stop();  // lanes are joined: score what is queued
  if (pub_) {
    // The full verdict snapshot covers subscribers that joined after the
    // early transitions; the stats frame tells them the run is over.
    for (const StationVerdict& v : service_.sessions().snapshot())
      pub_->publish(to_verdict_msg(v));
    const StatsSnapshot s = service_.stats();
    net::StatsMsg sm;
    sm.reports_classified = s.reports_classified;
    sm.dropped_oldest = s.queue.dropped_oldest;
    sm.rejected = s.queue.rejected;
    sm.throughput_rps = s.throughput_rps;
    sm.batch_latency_p99_ms = s.batch_latency_p99_ms;
    sm.stations = s.sessions.stations;
    sm.evicted_ttl = s.sessions.evicted_ttl;
    sm.evicted_lru = s.sessions.evicted_lru;
    sm.session_bytes = s.sessions.approx_bytes;
    sm.epoch = s.lifecycle.epoch;
    sm.swaps_completed = s.lifecycle.swaps_completed;
    sm.swaps_rolled_back = s.lifecycle.swaps_rolled_back;
    sm.stations_drifting = s.sessions.stations_drifting;
    pub_->publish_stats(sm);
    pub_->stop();
  }
  return snapshot_error;
}

StatsSnapshot Server::stats() const {
  StatsSnapshot s = service_.stats();
  if (shadow_) s.shadow = shadow_->stats();
  if (ingest_) {
    const net::IngestStats is = ingest_->stats();
    s.ingest = {.present = true,
                .conns_accepted = is.conns_accepted,
                .conns_rejected = is.conns_rejected,
                .conns_shed = is.conns_shed,
                .frames = is.frames,
                .reports_submitted = is.reports_submitted,
                .reports_dropped = is.reports_dropped,
                .malformed_payloads = is.malformed_payloads,
                .protocol_errors = is.protocol_errors,
                .pauses = is.pauses};
  }
  if (pub_) {
    const net::PublisherStats ps = pub_->stats();
    s.publish = {.present = true,
                 .subscribers_accepted = ps.subscribers_accepted,
                 .frames_published = ps.frames_published,
                 .frames_dropped = ps.frames_dropped,
                 .bytes_sent = ps.bytes_sent};
  }
  return s;
}

}  // namespace deepcsi::serving
