// serving::Server, the one place the serve process is assembled: the
// shed gate's hysteresis, the --model-watch stable-stamp rule, stats()
// pulling every component's counters, and session restore at startup.
#include <gtest/gtest.h>

#include <chrono>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "net/client.h"
#include "net/ingest_server.h"
#include "net/publisher.h"
#include "serving/server.h"
#include "serve_fixture.h"

namespace deepcsi {
namespace {

using namespace std::chrono_literals;
using fixture::quick_authenticator;

const dataset::InputSpec kSpec{.subcarrier_stride = 4};

// A plain, non-atomic rewrite of the first `n` bytes — what `cp` does.
void write_bytes(const std::string& path, const std::vector<char>& bytes,
                 std::size_t n) {
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      .write(bytes.data(), static_cast<std::streamsize>(n));
}

TEST(ShedGateTest, RefusesAtHighAndResumesOnlyAtOrBelowLow) {
  serving::ShedGate gate(/*high=*/10, /*low=*/4);
  EXPECT_TRUE(gate.admit(9));
  EXPECT_FALSE(gate.admit(10));  // reached the high watermark
  EXPECT_FALSE(gate.admit(9));   // back under high: still shedding
  EXPECT_FALSE(gate.admit(5));
  EXPECT_TRUE(gate.admit(4));    // at low: accepting again
  EXPECT_TRUE(gate.admit(9));    // and open until high again
  EXPECT_FALSE(gate.admit(12));
}

TEST(ServerTest, ModelWatchSwapsOnceForEachSettledRewrite) {
  serving::ServeOptions o;
  o.model = fixture::save_artifact(quick_authenticator(kSpec), "watch.model");
  o.model_watch_ms = 1;
  std::ifstream in(o.model, std::ios::binary);
  const std::vector<char> weights{std::istreambuf_iterator<char>(in), {}};
  serving::Server server(o, quick_authenticator(kSpec));
  ASSERT_TRUE(server.start().ok());
  const auto poll = [&] {  // sleeps past the 1 ms watch interval first
    std::this_thread::sleep_for(5ms);
    return server.tick().swaps;
  };
  EXPECT_TRUE(poll().empty());  // nothing changed since start()

  // A torn copy: half the weights land before one poll, the rest before
  // the next. Neither poll sees a settled stamp, so the loader never
  // reads the half file.
  write_bytes(o.model, weights, weights.size() / 2);
  EXPECT_TRUE(poll().empty());
  write_bytes(o.model, weights, weights.size());
  EXPECT_TRUE(poll().empty());
  // Unchanged across two polls: exactly one swap, then quiet.
  auto swaps = poll();
  ASSERT_EQ(swaps.size(), 1u);
  EXPECT_EQ(swaps[0].trigger, "watch");
  EXPECT_EQ(swaps[0].result.epoch, 2u) << swaps[0].result.error;
  EXPECT_TRUE(poll().empty());
  EXPECT_TRUE(poll().empty());

  // Another settled rewrite (past the mtime granularity): one more swap.
  std::this_thread::sleep_for(20ms);
  write_bytes(o.model, weights, weights.size());
  EXPECT_TRUE(poll().empty());
  swaps = poll();
  ASSERT_EQ(swaps.size(), 1u);
  EXPECT_EQ(swaps[0].result.epoch, 3u);

  // A swap request reloads o.model on the next tick.
  server.request_swap();
  swaps = server.tick().swaps;
  ASSERT_EQ(swaps.size(), 1u);
  EXPECT_EQ(swaps[0].trigger, "SIGHUP");
  EXPECT_EQ(swaps[0].result.epoch, 4u);
  EXPECT_EQ(server.authenticator().swaps_rolled_back(), 0u);
  EXPECT_EQ(server.stop(), "");
  fixture::remove_artifact(o.model);
}

TEST(ServerTest, StatsPullTheIngestPublishAndShadowCounters) {
  const auto stream = fixture::multi_station_stream(3, 4);
  serving::ServiceConfig cfg;
  cfg.consumers = 2;
  serving::ServeOptions o = fixture::loopback_options(cfg, /*publish=*/true);
  o.shadow_sample = 1;
  serving::Server server(o, quick_authenticator(kSpec),
                         quick_authenticator(kSpec));
  ASSERT_TRUE(server.start().ok());
  auto subscriber =
      net::VerdictSubscriber::connect("127.0.0.1", server.publish_port());
  ASSERT_TRUE(fixture::eventually(
      [&] { return server.publisher()->subscriber_count() == 1; }));
  auto client = net::NetClient::connect("127.0.0.1", server.ingest_port());
  for (const auto& obs : stream) ASSERT_TRUE(client.send_report(obs));
  client.close();
  while (!server.wait(200ms)) {
  }
  EXPECT_EQ(server.stop(), "");

  const serving::StatsSnapshot s = server.stats();
  const net::IngestStats is = server.ingest()->stats();
  EXPECT_TRUE(s.ingest.present);
  EXPECT_EQ(s.ingest.conns_accepted, is.conns_accepted);
  EXPECT_EQ(s.ingest.conns_rejected, is.conns_rejected);
  EXPECT_EQ(s.ingest.conns_shed, is.conns_shed);
  EXPECT_EQ(s.ingest.frames, is.frames);
  EXPECT_EQ(s.ingest.reports_submitted, is.reports_submitted);
  EXPECT_EQ(s.ingest.reports_dropped, is.reports_dropped);
  EXPECT_EQ(s.ingest.malformed_payloads, is.malformed_payloads);
  EXPECT_EQ(s.ingest.protocol_errors, is.protocol_errors);
  EXPECT_EQ(s.ingest.pauses, is.pauses);
  EXPECT_EQ(s.ingest.reports_submitted, stream.size());

  const net::PublisherStats ps = server.publisher()->stats();
  EXPECT_TRUE(s.publish.present);
  EXPECT_EQ(s.publish.subscribers_accepted, ps.subscribers_accepted);
  EXPECT_EQ(s.publish.frames_published, ps.frames_published);
  EXPECT_EQ(s.publish.frames_dropped, ps.frames_dropped);
  EXPECT_EQ(s.publish.bytes_sent, ps.bytes_sent);
  EXPECT_GT(s.publish.frames_published, 0u);

  // The candidate has the primary's weights and mirrors every report.
  const serving::StatsSnapshot::Shadow sh = server.shadow()->stats();
  EXPECT_TRUE(s.shadow.present);
  EXPECT_EQ(s.shadow.sampled, sh.sampled);
  EXPECT_EQ(s.shadow.diverged, sh.diverged);
  EXPECT_EQ(s.shadow.mean_confidence_delta, sh.mean_confidence_delta);
  EXPECT_EQ(s.shadow.stations_diverging, sh.stations_diverging);
  EXPECT_EQ(s.shadow.promoted, sh.promoted);
  EXPECT_EQ(s.shadow.sampled, stream.size());
  EXPECT_EQ(s.shadow.diverged, 0u);
}

TEST(ServerTest, CorruptSessionSnapshotRefusesToStart) {
  serving::ServeOptions o = fixture::loopback_options({}, /*publish=*/false);
  o.state_file = ::testing::TempDir() + "/corrupt.snap";
  write_bytes(o.state_file, std::vector<char>(64, 'x'), 64);
  serving::Server server(o, quick_authenticator(kSpec));
  const serving::Server::Startup up = server.start();
  EXPECT_FALSE(up.ok());
  EXPECT_EQ(up.restore, serving::SessionTable::RestoreStatus::kCorrupt);
  EXPECT_NE(up.error.find("session snapshot " + o.state_file),
            std::string::npos)
      << up.error;
  EXPECT_EQ(server.ingest_port(), 0u);  // nothing was bound
  // Stopping the refused server leaves the damaged file for the operator.
  EXPECT_EQ(server.stop(), "");
  std::ifstream in(o.state_file, std::ios::binary);
  EXPECT_EQ(std::string(std::istreambuf_iterator<char>(in), {}),
            std::string(64, 'x'));
  std::remove(o.state_file.c_str());
}

TEST(ServerTest, FinalSnapshotRestoresIntoTheNextServer) {
  serving::ServeOptions o;
  o.state_file = ::testing::TempDir() + "/restore.snap";
  std::remove(o.state_file.c_str());
  {
    serving::Server first(o, quick_authenticator(kSpec));
    const serving::Server::Startup up = first.start();
    ASSERT_TRUE(up.ok()) << up.error;  // a missing snapshot starts cold
    EXPECT_EQ(up.restore, serving::SessionTable::RestoreStatus::kNoFile);
    for (const auto& obs : fixture::multi_station_stream(3, 2))
      ASSERT_TRUE(first.service().submit(obs));
    EXPECT_EQ(first.stop(), "");  // drains, then writes the snapshot
  }
  serving::Server second(o, quick_authenticator(kSpec));
  const serving::Server::Startup up = second.start();
  ASSERT_TRUE(up.ok()) << up.error;
  EXPECT_EQ(up.restore, serving::SessionTable::RestoreStatus::kRestored);
  EXPECT_EQ(up.restored_stations, 3u);
  std::remove(o.state_file.c_str());
}

}  // namespace
}  // namespace deepcsi
