// Serving subsystem tests: every wire frame must round-trip
// bit-exactly, every flavour of byte damage (truncation, corruption,
// wrong versions, trailing bytes, implausible length prefixes) must be
// rejected with io::FormatError — never a crash — and the Server must
// hold its acceptance contract end to end over real socketpairs:
// concurrent clients served from warm bundles, coalesced batches,
// BUSY backpressure, ERROR replies for bad requests, and a SHUTDOWN
// that drains everything admitted before the BYE.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <thread>
#include <tuple>

#include "core/detector.hpp"
#include "core/eval_engine.hpp"
#include "datasets/spec.hpp"
#include "serve/backoff.hpp"
#include "serve/server.hpp"
#include "serve/transport.hpp"
#include "serve/wire.hpp"
#include "support/check.hpp"

namespace mpidetect {
namespace {

namespace fs = std::filesystem;

/// Named scratch directory, removed on destruction.
struct TempDir {
  fs::path path;

  explicit TempDir(const std::string& name) {
    path = fs::temp_directory_path() / ("mpidetect_serve_" + name);
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string file(const char* name) const { return (path / name).string(); }
};

constexpr const char* kSpec = "mbi:0.02@7";

core::DetectorConfig tiny_config() {
  core::DetectorConfig cfg;
  cfg.ir2vec.use_ga = false;
  cfg.gnn.cfg.embed_dim = 8;
  cfg.gnn.cfg.layers = {16, 8};
  cfg.gnn.cfg.fc_hidden = 8;
  cfg.gnn.cfg.epochs = 2;
  return cfg;
}

/// Trained bundles shared by every server test (training once keeps the
/// suite fast; each test still builds its own Server from the files).
struct Bundles {
  TempDir dir{"bundles"};
  std::string gnn = dir.file("gnn.mpib");
  std::string ir2vec = dir.file("ir2vec.mpib");

  Bundles() {
    const auto ds = datasets::make_dataset(kSpec);
    auto& registry = core::DetectorRegistry::global();
    core::EvalEngine engine(2);
    for (const char* key : {"gnn", "ir2vec"}) {
      auto det = registry.create(key, tiny_config());
      engine.fit_full(*det, ds);
      registry.save_bundle(key, *det, dir.file(key) + ".mpib");
    }
  }
};

const Bundles& bundles() {
  static Bundles b;
  return b;
}

serve::ServerOptions server_options() {
  serve::ServerOptions opts;
  opts.model_paths = {bundles().gnn, bundles().ir2vec};
  opts.queue_capacity = 8;
  opts.max_batch = 4;
  opts.threads = 2;
  return opts;
}

/// One in-process connection: a socketpair with serve_connection running
/// on its far end, exactly as the daemon would.
struct Conn {
  std::unique_ptr<serve::Transport> client;
  std::unique_ptr<serve::Transport> server_end;
  std::thread th;

  explicit Conn(serve::Server& s, const std::string& peer = "test-client") {
    auto [a, b] = serve::local_pair();
    client = std::move(a);
    server_end = std::move(b);
    th = std::thread([&s, this, peer] { s.serve_connection(*server_end, peer); });
  }
  ~Conn() { close(); }

  /// Closes the client end and waits for serve_connection to return.
  void close() {
    if (client) client->shutdown();
    if (th.joinable()) th.join();
  }

  serve::Frame read() {
    auto f = serve::read_frame(*client, "server");
    if (!f) throw std::runtime_error("unexpected EOF from server");
    return *f;
  }
};

// ---- wire format ------------------------------------------------------------

std::vector<serve::Frame> every_frame() {
  serve::WireVerdict v;
  v.request_id = 9;
  v.outcome = 1;
  v.predicted_label = 3;
  v.confidence = 0.875;
  v.batch_size = 4;
  serve::WireVerdict bare;
  bare.request_id = 10;
  serve::Caps caps;
  caps.server = "testd";
  caps.queue_capacity = 64;
  caps.max_batch = 8;
  caps.detectors = {"gnn", "ir2vec"};
  serve::Stats stats;
  stats.received = 1;
  stats.served = 2;
  stats.busy_rejected = 3;
  stats.request_errors = 4;
  stats.protocol_errors = 5;
  stats.batches = 6;
  stats.max_coalesced = 7;
  stats.max_queue_depth = 8;
  stats.datasets_materialized = 9;
  stats.cache_disk_hits = 10;
  stats.cache_disk_writes = 11;
  stats.deadline_sheds = 12;
  stats.io_timeouts = 13;
  stats.reaped_connections = 14;
  stats.retries = 15;
  stats.watchdog_trips = 16;
  stats.faults_fired = 17;
  serve::Submit with_deadline{43, "gnn", "mbi:0.05@7", 18};
  with_deadline.deadline_ms = 250;
  return {serve::Hello{"cli"},
          caps,
          serve::Submit{42, "gnn", "mbi:0.05@7", 17},
          with_deadline,
          v,
          bare,
          serve::Busy{7},
          serve::Error{0, "lost framing"},
          serve::StatsReq{},
          stats,
          serve::Shutdown{},
          serve::Bye{},
          serve::Expired{13}};
}

/// Strips the u32 length prefix off a full encoded frame.
std::string payload_of(const serve::Frame& f) {
  const std::string bytes = serve::encode_frame(f);
  EXPECT_GE(bytes.size(), 4u + 9u);
  return bytes.substr(4);
}

TEST(WireTest, EveryFrameRoundTrips) {
  for (const auto& f : every_frame()) {
    const serve::Frame back = serve::decode_payload(payload_of(f), "test");
    ASSERT_EQ(serve::frame_type(back), serve::frame_type(f));
    // Spot-check the payload-bearing frames field by field.
    if (const auto* s = std::get_if<serve::Submit>(&f)) {
      const auto& b = std::get<serve::Submit>(back);
      EXPECT_EQ(b.request_id, s->request_id);
      EXPECT_EQ(b.detector, s->detector);
      EXPECT_EQ(b.dataset, s->dataset);
      EXPECT_EQ(b.index, s->index);
      EXPECT_EQ(b.deadline_ms, s->deadline_ms);
    } else if (const auto* v = std::get_if<serve::WireVerdict>(&f)) {
      const auto& b = std::get<serve::WireVerdict>(back);
      EXPECT_EQ(b.request_id, v->request_id);
      EXPECT_EQ(b.outcome, v->outcome);
      EXPECT_EQ(b.predicted_label, v->predicted_label);
      EXPECT_EQ(b.confidence, v->confidence);
      EXPECT_EQ(b.batch_size, v->batch_size);
    } else if (const auto* c = std::get_if<serve::Caps>(&f)) {
      const auto& b = std::get<serve::Caps>(back);
      EXPECT_EQ(b.server, c->server);
      EXPECT_EQ(b.queue_capacity, c->queue_capacity);
      EXPECT_EQ(b.max_batch, c->max_batch);
      EXPECT_EQ(b.detectors, c->detectors);
    } else if (const auto* s = std::get_if<serve::Stats>(&f)) {
      const auto& b = std::get<serve::Stats>(back);
      EXPECT_EQ(b.received, s->received);
      EXPECT_EQ(b.max_coalesced, s->max_coalesced);
      EXPECT_EQ(b.cache_disk_writes, s->cache_disk_writes);
      EXPECT_EQ(b.deadline_sheds, s->deadline_sheds);
      EXPECT_EQ(b.io_timeouts, s->io_timeouts);
      EXPECT_EQ(b.reaped_connections, s->reaped_connections);
      EXPECT_EQ(b.retries, s->retries);
      EXPECT_EQ(b.watchdog_trips, s->watchdog_trips);
      EXPECT_EQ(b.faults_fired, s->faults_fired);
    } else if (const auto* e = std::get_if<serve::Error>(&f)) {
      EXPECT_EQ(std::get<serve::Error>(back).message, e->message);
    } else if (const auto* x = std::get_if<serve::Expired>(&f)) {
      EXPECT_EQ(std::get<serve::Expired>(back).request_id, x->request_id);
    }
  }
}

// ---- golden bytes -----------------------------------------------------------

std::string le64(std::uint64_t v) {
  std::string s(8, '\0');
  for (int i = 0; i < 8; ++i) s[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  return s;
}

std::string wire_str(const std::string& s) { return le64(s.size()) + s; }

std::string le32(std::uint32_t v) {
  std::string s(4, '\0');
  for (int i = 0; i < 4; ++i) s[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  return s;
}

/// Builds the exact wire-version-3 payload of a frame by hand (magic,
/// version, type, little-endian fields) — frozen independently of the
/// encoder, so an accidental change to the encoding cannot hide behind a
/// matching change to the decoder.
std::string golden(std::uint8_t type, const std::string& body) {
  static_assert(serve::kWireVersion == 3, "re-freeze the golden bytes");
  return "MGWP" + le32(3) + static_cast<char>(type) + body;
}

TEST(WireTest, EncodingIsByteIdenticalToGolden) {
  const auto encoded = [](const serve::Frame& f) {
    const std::string bytes = serve::encode_frame(f);
    EXPECT_EQ(bytes.substr(0, 4), le32(static_cast<std::uint32_t>(
                                      bytes.size() - 4)));  // length prefix
    return bytes.substr(4);
  };
  // HELLO: str client.
  EXPECT_EQ(encoded(serve::Hello{"cli"}), golden(1, wire_str("cli")));
  // SUBMIT: id, detector, dataset, index, u32 deadline_ms.
  serve::Submit sub{42, "gnn", "mbi:0.05@7", 17};
  sub.deadline_ms = 250;
  EXPECT_EQ(encoded(sub), golden(3, le64(42) + wire_str("gnn") +
                                        wire_str("mbi:0.05@7") + le64(17) +
                                        le32(250)));
  // STATS: the 17 counters in declaration order, then the op rows.
  serve::Stats s;
  s.received = 1;
  s.served = 2;
  s.busy_rejected = 3;
  s.request_errors = 4;
  s.protocol_errors = 5;
  s.batches = 6;
  s.max_coalesced = 7;
  s.max_queue_depth = 8;
  s.datasets_materialized = 9;
  s.cache_disk_hits = 10;
  s.cache_disk_writes = 11;
  s.deadline_sheds = 12;
  s.io_timeouts = 13;
  s.reaped_connections = 14;
  s.retries = 15;
  s.watchdog_trips = 16;
  s.faults_fired = 17;
  s.op_counters = {serve::OpCounter{"matmul", 18, 19, 20}};
  std::string body;
  for (std::uint64_t v = 1; v <= 17; ++v) body += le64(v);
  body += le64(1) + wire_str("matmul") + le64(18) + le64(19) + le64(20);
  EXPECT_EQ(encoded(s), golden(8, body));
  // EXPIRED: request id.
  EXPECT_EQ(encoded(serve::Expired{13}), golden(11, le64(13)));
}

// ---- byte damage ------------------------------------------------------------

TEST(WireTest, TruncationAtEveryLengthRejected) {
  for (const auto& f : every_frame()) {
    const std::string payload = payload_of(f);
    for (std::size_t len = 0; len < payload.size(); ++len) {
      EXPECT_THROW(serve::decode_payload(payload.substr(0, len), "test"),
                   io::FormatError)
          << serve::frame_type_name(serve::frame_type(f)) << " truncated to "
          << len << " bytes";
    }
  }
}

TEST(WireTest, CorruptionOfEveryByteNeverCrashes) {
  for (const auto& f : every_frame()) {
    const std::string payload = payload_of(f);
    for (std::size_t i = 0; i < payload.size(); ++i) {
      std::string bad = payload;
      bad[i] = static_cast<char>(bad[i] ^ 0xff);
      // Damage to a value byte may still parse (a different string is a
      // valid string); damage must never escape as anything but
      // FormatError, and never crash.
      try {
        (void)serve::decode_payload(bad, "test");
      } catch (const io::FormatError&) {
      }
      // The self-describing header (magic, version, frame type) must
      // always catch its own corruption.
      if (i < 9) {
        EXPECT_THROW(serve::decode_payload(bad, "test"), io::FormatError)
            << serve::frame_type_name(serve::frame_type(f)) << " header byte "
            << i;
      }
    }
  }
}

TEST(WireTest, EveryOtherVersionRejected) {
  const std::string good = payload_of(serve::Submit{1, "gnn", "mbi", 0});
  for (const std::uint32_t version : {0u, 1u, 2u, serve::kWireVersion + 1}) {
    // The u32 version sits right after the 4-byte magic.
    const std::string payload =
        good.substr(0, 4) + le32(version) + good.substr(8);
    try {
      serve::decode_payload(payload, "test");
      ADD_FAILURE() << "version " << version << " decoded";
    } catch (const io::FormatError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("version " + std::to_string(version)),
                std::string::npos)
          << what;
    }
  }
}

TEST(WireTest, TrailingBytesRejected) {
  for (const auto& f : every_frame()) {
    const std::string payload = payload_of(f) + std::string(1, '\0');
    EXPECT_THROW(serve::decode_payload(payload, "test"), io::FormatError)
        << serve::frame_type_name(serve::frame_type(f));
  }
}

TEST(WireTest, ImplausibleLengthPrefixRejectedBeforeAllocation) {
  for (const std::uint32_t bad_len :
       {std::uint32_t{0}, std::uint32_t{8},
        static_cast<std::uint32_t>(serve::kMaxFrameBytes + 1),
        std::uint32_t{0xffffffff}}) {
    auto [a, b] = serve::local_pair();
    unsigned char prefix[4];
    for (int i = 0; i < 4; ++i) {
      prefix[i] = static_cast<unsigned char>((bad_len >> (8 * i)) & 0xff);
    }
    a->write_all(prefix, 4);
    EXPECT_THROW((void)serve::read_frame(*b, "test"), io::FormatError)
        << "length " << bad_len;
  }
}

TEST(WireTest, CleanEofIsNullopt) {
  auto [a, b] = serve::local_pair();
  a->shutdown();
  EXPECT_EQ(serve::read_frame(*b, "test"), std::nullopt);
}

TEST(WireTest, MidFrameEofIsTransportError) {
  auto [a, b] = serve::local_pair();
  const std::string bytes = serve::encode_frame(serve::Hello{"half"});
  a->write_all(bytes.data(), bytes.size() - 3);
  a->shutdown();
  EXPECT_THROW((void)serve::read_frame(*b, "test"),
               std::runtime_error);  // FormatError or TransportError
}

// ---- server end to end ------------------------------------------------------

TEST(ServerTest, HelloAnswersCapsWithLoadedDetectors) {
  serve::Server server(server_options());
  server.start();
  Conn conn(server);
  serve::write_frame(*conn.client, serve::Hello{"test"});
  const auto caps = std::get<serve::Caps>(conn.read());
  EXPECT_EQ(caps.server, "mpiguardd");
  EXPECT_EQ(caps.queue_capacity, 8u);
  EXPECT_EQ(caps.max_batch, 4u);
  EXPECT_EQ(caps.detectors, (std::vector<std::string>{"gnn", "ir2vec"}));
  conn.close();
  server.stop();
}

TEST(ServerTest, BatchedAdmissionCoalescesAndMatchesReference) {
  core::DetectorConfig cfg;
  cfg.cache = std::make_shared<core::EncodingCache>();
  auto ref = core::DetectorRegistry::global().load_bundle(bundles().gnn, cfg);
  const auto ds = datasets::make_dataset(kSpec);
  ref->prepare(ds, 2);
  const std::vector<std::size_t> idx{0, 3, 5, 9};
  const auto expected = ref->run_indexed(ds, idx);

  // The worker is not started yet, so every submit is admitted into the
  // queue first — coalescing is deterministic, not timing-dependent.
  serve::Server server(server_options());
  Conn conn(server);
  for (std::size_t i = 0; i < idx.size(); ++i) {
    serve::write_frame(*conn.client,
                       serve::Submit{i + 1, "gnn", kSpec, idx[i]});
  }
  // Admission is asynchronous from the test's point of view; the queue
  // fills as the connection thread parses. Give it a moment, then start.
  while (server.snapshot_stats().received < idx.size()) {
    std::this_thread::yield();
  }
  server.start();

  std::map<std::uint64_t, serve::WireVerdict> got;
  while (got.size() < idx.size()) {
    const auto v = std::get<serve::WireVerdict>(conn.read());
    got.emplace(v.request_id, v);
  }
  conn.close();

  for (std::size_t i = 0; i < idx.size(); ++i) {
    const auto& v = got.at(i + 1);
    EXPECT_EQ(static_cast<core::Verdict::Outcome>(v.outcome),
              expected[i].outcome)
        << "case " << idx[i];
    ASSERT_TRUE(v.confidence.has_value());
    EXPECT_EQ(*v.confidence, *expected[i].confidence) << "case " << idx[i];
    // All four fit one window: the whole burst must be one batch.
    EXPECT_EQ(v.batch_size, 4u);
  }
  const auto stats = server.snapshot_stats();
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.max_coalesced, 4u);
  server.stop();
}

TEST(ServerTest, ConcurrentClientsAllServed) {
  serve::Server server(server_options());
  server.start();
  constexpr int kClients = 4;
  constexpr int kPerClient = 3;
  std::vector<std::unique_ptr<Conn>> conns;
  for (int c = 0; c < kClients; ++c) {
    conns.push_back(std::make_unique<Conn>(server));
  }
  for (int c = 0; c < kClients; ++c) {
    for (int i = 0; i < kPerClient; ++i) {
      serve::write_frame(*conns[c]->client,
                         serve::Submit{static_cast<std::uint64_t>(i + 1),
                                       c % 2 == 0 ? "gnn" : "ir2vec", kSpec,
                                       static_cast<std::uint64_t>(c + i)});
    }
  }
  for (int c = 0; c < kClients; ++c) {
    std::map<std::uint64_t, serve::WireVerdict> got;
    while (got.size() < kPerClient) {
      const auto frame = conns[c]->read();
      if (const auto* b = std::get_if<serve::Busy>(&frame)) {
        // Backpressure is legal under a concurrent burst; resubmit.
        const auto it = got.find(b->request_id);
        ASSERT_EQ(it, got.end());
        serve::write_frame(*conns[c]->client,
                           serve::Submit{b->request_id,
                                         c % 2 == 0 ? "gnn" : "ir2vec", kSpec,
                                         b->request_id - 1 + c});
        continue;
      }
      const auto v = std::get<serve::WireVerdict>(frame);
      got.emplace(v.request_id, v);
    }
  }
  for (auto& c : conns) c->close();
  const auto stats = server.snapshot_stats();
  EXPECT_EQ(stats.served,
            static_cast<std::uint64_t>(kClients * kPerClient));
  EXPECT_EQ(stats.request_errors, 0u);
  EXPECT_EQ(stats.protocol_errors, 0u);
  server.stop();
}

TEST(ServerTest, FullQueueAnswersBusy) {
  auto opts = server_options();
  opts.queue_capacity = 2;
  serve::Server server(opts);  // worker not started: the queue stays full
  Conn conn(server);
  for (std::uint64_t i = 1; i <= 3; ++i) {
    serve::write_frame(*conn.client, serve::Submit{i, "gnn", kSpec, i});
  }
  const auto busy = std::get<serve::Busy>(conn.read());
  EXPECT_EQ(busy.request_id, 3u);
  EXPECT_EQ(server.snapshot_stats().busy_rejected, 1u);

  // Draining the queue frees the slots and the rejected request can be
  // resubmitted successfully. The worker frees a slot before it sends
  // that slot's verdict, so resubmit only once both verdicts are back:
  // resubmitting right after start() races the worker and may be BUSY.
  server.start();
  std::map<std::uint64_t, serve::WireVerdict> got;
  while (got.size() < 2) {
    const auto v = std::get<serve::WireVerdict>(conn.read());
    got.emplace(v.request_id, v);
  }
  serve::write_frame(*conn.client, serve::Submit{3, "gnn", kSpec, 3});
  while (got.size() < 3) {
    const auto v = std::get<serve::WireVerdict>(conn.read());
    got.emplace(v.request_id, v);
  }
  conn.close();
  server.stop();
}

TEST(ServerTest, BadRequestsGetErrorsAndConnectionSurvives) {
  serve::Server server(server_options());
  server.start();
  Conn conn(server);

  serve::write_frame(*conn.client, serve::Submit{1, "nonesuch", kSpec, 0});
  auto err = std::get<serve::Error>(conn.read());
  EXPECT_EQ(err.request_id, 1u);
  EXPECT_NE(err.message.find("unknown detector"), std::string::npos);

  serve::write_frame(*conn.client, serve::Submit{2, "gnn", "bogus:1", 0});
  err = std::get<serve::Error>(conn.read());
  EXPECT_EQ(err.request_id, 2u);
  EXPECT_NE(err.message.find("unknown dataset"), std::string::npos);

  serve::write_frame(*conn.client, serve::Submit{3, "gnn", "mbi:banana", 0});
  err = std::get<serve::Error>(conn.read());
  EXPECT_NE(err.message.find("not a number"), std::string::npos);

  serve::write_frame(*conn.client, serve::Submit{4, "gnn", "mbi:500", 0});
  err = std::get<serve::Error>(conn.read());
  EXPECT_NE(err.message.find("limit"), std::string::npos);

  serve::write_frame(*conn.client, serve::Submit{5, "gnn", kSpec, 100000});
  err = std::get<serve::Error>(conn.read());
  EXPECT_NE(err.message.find("out of range"), std::string::npos);

  // A server-bound frame type from a client is an error, but framing is
  // intact so the connection keeps working...
  serve::write_frame(*conn.client, serve::Bye{});
  err = std::get<serve::Error>(conn.read());
  EXPECT_EQ(err.request_id, 0u);
  EXPECT_NE(err.message.find("BYE"), std::string::npos);

  // ...and a well-formed request on the same connection still serves.
  serve::write_frame(*conn.client, serve::Submit{6, "ir2vec", kSpec, 0});
  const auto v = std::get<serve::WireVerdict>(conn.read());
  EXPECT_EQ(v.request_id, 6u);
  conn.close();

  const auto stats = server.snapshot_stats();
  EXPECT_EQ(stats.request_errors, 5u);
  EXPECT_EQ(stats.protocol_errors, 1u);
  EXPECT_EQ(stats.served, 1u);
  server.stop();
}

TEST(ServerTest, MalformedBytesGetErrorFrameAndDaemonSurvives) {
  serve::Server server(server_options());
  server.start();
  {
    Conn conn(server);
    // A plausible length prefix followed by garbage: framing is lost.
    const std::string junk = "XXXXXXXXXXXX";
    unsigned char prefix[4] = {static_cast<unsigned char>(junk.size()), 0, 0,
                               0};
    conn.client->write_all(prefix, 4);
    conn.client->write_all(junk.data(), junk.size());
    const auto err = std::get<serve::Error>(conn.read());
    EXPECT_EQ(err.request_id, 0u);
    // The server dropped the connection after replying.
    EXPECT_EQ(serve::read_frame(*conn.client, "server"), std::nullopt);
    conn.close();
  }
  {
    Conn conn(server);
    // An implausible length prefix is rejected before allocation.
    unsigned char prefix[4] = {0xff, 0xff, 0xff, 0xff};
    conn.client->write_all(prefix, 4);
    const auto err = std::get<serve::Error>(conn.read());
    EXPECT_EQ(err.request_id, 0u);
    conn.close();
  }
  EXPECT_EQ(server.snapshot_stats().protocol_errors, 2u);

  // The damage was contained to those connections: a fresh client is
  // served normally.
  Conn conn(server);
  serve::write_frame(*conn.client, serve::Submit{1, "ir2vec", kSpec, 2});
  const auto v = std::get<serve::WireVerdict>(conn.read());
  EXPECT_EQ(v.request_id, 1u);
  conn.close();
  server.stop();
}

TEST(ServerTest, ShutdownDrainsAdmittedWorkThenByes) {
  serve::Server server(server_options());
  server.start();
  Conn conn(server);
  // Pipeline submits and the SHUTDOWN behind them on one connection:
  // the daemon must answer every admitted request before the BYE.
  for (std::uint64_t i = 1; i <= 3; ++i) {
    serve::write_frame(*conn.client, serve::Submit{i, "gnn", kSpec, i});
  }
  serve::write_frame(*conn.client, serve::Shutdown{});

  std::map<std::uint64_t, serve::WireVerdict> got;
  bool bye = false;
  while (!bye) {
    const auto frame = conn.read();
    if (std::holds_alternative<serve::Bye>(frame)) {
      bye = true;
    } else {
      const auto v = std::get<serve::WireVerdict>(frame);
      got.emplace(v.request_id, v);
    }
  }
  EXPECT_EQ(got.size(), 3u);  // all verdicts arrived BEFORE the BYE
  conn.close();
  EXPECT_TRUE(server.stopped());
  // stop() after a wire shutdown is a no-op, not a deadlock.
  server.stop();
}

TEST(ServerTest, StatsOverTheWire) {
  serve::Server server(server_options());
  server.start();
  Conn conn(server);
  serve::write_frame(*conn.client, serve::Submit{1, "gnn", kSpec, 0});
  (void)std::get<serve::WireVerdict>(conn.read());
  serve::write_frame(*conn.client, serve::StatsReq{});
  const auto stats = std::get<serve::Stats>(conn.read());
  EXPECT_EQ(stats.received, 1u);
  EXPECT_EQ(stats.served, 1u);
  EXPECT_EQ(stats.datasets_materialized, 1u);
  EXPECT_GE(stats.batches, 1u);
  conn.close();
  server.stop();
}

TEST(ServerTest, AlternatingCorporaResolveEachCorpusOnce) {
  const std::vector<std::string> specs{kSpec, "corr:0.05@7"};
  const std::vector<std::string> models{"gnn", "ir2vec"};
  // Local references: every (model, corpus) verdict for the first cases.
  constexpr std::size_t kRounds = 6;
  std::map<std::pair<std::string, std::string>, std::vector<core::Verdict>>
      want;
  for (const auto& spec : specs) {
    const auto ds = datasets::make_dataset(spec);
    ASSERT_GE(ds.size(), kRounds);
    std::vector<std::size_t> idx(kRounds);
    for (std::size_t i = 0; i < kRounds; ++i) idx[i] = i;
    for (const auto& key : models) {
      core::DetectorConfig cfg;
      cfg.cache = std::make_shared<core::EncodingCache>();
      auto ref = core::DetectorRegistry::global().load_bundle(
          key == "gnn" ? bundles().gnn : bundles().ir2vec, cfg);
      ref->prepare(ds);
      want[{key, spec}] = ref->run_indexed(ds, idx);
    }
  }

  serve::Server server(server_options());
  server.start();
  const std::size_t lookups = server.cache().lookups();
  Conn conn(server);
  // Every round switches corpus on every request, for both detectors.
  std::uint64_t id = 0;
  std::map<std::uint64_t, std::tuple<std::string, std::string, std::size_t>>
      sent;
  for (std::size_t i = 0; i < kRounds; ++i) {
    for (std::size_t k = 0; k < 4; ++k) {
      const std::string& key = models[k / 2];
      const std::string& spec = specs[(k + i) % 2];
      serve::write_frame(*conn.client, serve::Submit{++id, key, spec, i});
      sent.emplace(id, std::make_tuple(key, spec, i));
    }
    for (std::size_t k = 0; k < 4; ++k) {
      const auto v = std::get<serve::WireVerdict>(conn.read());
      const auto& [key, spec, index] = sent.at(v.request_id);
      const core::Verdict& w = want.at({key, spec})[index];
      EXPECT_EQ(static_cast<core::Verdict::Outcome>(v.outcome), w.outcome)
          << key << " " << spec << " case " << index;
      EXPECT_EQ(v.confidence, w.confidence)
          << key << " " << spec << " case " << index;
    }
  }
  conn.close();
  // One resolution per (detector, corpus) — the first batch's prepare —
  // and none per request afterwards.
  EXPECT_EQ(server.cache().lookups(), lookups + models.size() * specs.size());
  const auto stats = server.snapshot_stats();
  EXPECT_EQ(stats.served, kRounds * 4);
  EXPECT_EQ(stats.datasets_materialized, specs.size());
  server.stop();
}

TEST(ServerTest, RejectsCorruptBundleAtStartup) {
  TempDir dir("corrupt_bundle");
  const std::string path = dir.file("bad.mpib");
  {
    std::ofstream os(path, std::ios::binary);
    os << "not a bundle at all";
  }
  serve::ServerOptions opts;
  opts.model_paths = {path};
  EXPECT_THROW(serve::Server{opts}, io::FormatError);
}

TEST(ServerTest, RejectsDuplicateBundleKeysAtStartup) {
  serve::ServerOptions opts;
  opts.model_paths = {bundles().gnn, bundles().gnn};
  EXPECT_THROW(serve::Server{opts}, ContractViolation);
}

// ---- robustness: one wire version -------------------------------------------

TEST(ServerTest, OldVersionHelloGetsOneErrorAndTheConnectionCloses) {
  serve::Server server(server_options());
  server.start();
  {
    Conn conn(server);
    // A well-formed HELLO from a version-1 client.
    const std::string hello = "MGWP" + le32(1) + '\x01' + wire_str("");
    const std::string framed = le32(static_cast<std::uint32_t>(hello.size())) +
                               hello;
    conn.client->write_all(framed.data(), framed.size());

    // Exactly one ERROR frame comes back, spoken at this build's version...
    char prefix[4];
    ASSERT_TRUE(conn.client->read_exact(prefix, 4));
    std::uint32_t len = 0;
    for (int i = 0; i < 4; ++i) {
      len |= static_cast<std::uint32_t>(static_cast<unsigned char>(prefix[i]))
             << (8 * i);
    }
    std::string payload(len, '\0');
    ASSERT_TRUE(conn.client->read_exact(payload.data(), payload.size()));
    EXPECT_EQ(payload.substr(0, 9),
              "MGWP" + le32(serve::kWireVersion) + '\x06');
    const auto err =
        std::get<serve::Error>(serve::decode_payload(payload, "server"));
    EXPECT_EQ(err.request_id, 0u);
    EXPECT_NE(err.message.find("version 1"), std::string::npos)
        << err.message;
    // ...and then the server closes the connection.
    EXPECT_EQ(serve::read_frame(*conn.client, "server"), std::nullopt);
    conn.close();
  }
  EXPECT_EQ(server.snapshot_stats().protocol_errors, 1u);

  // A fresh connection at the current version is served normally.
  Conn conn(server);
  serve::write_frame(*conn.client, serve::Submit{1, "ir2vec", kSpec, 2});
  EXPECT_EQ(std::get<serve::WireVerdict>(conn.read()).request_id, 1u);
  conn.close();
  server.stop();
}

// ---- robustness: deadlines, reaping, slot reclamation -----------------------

TEST(ServerTest, ExpiredDeadlineIsShedBeforeRunning) {
  serve::Server server(server_options());  // worker NOT started yet
  Conn conn(server);
  serve::Submit doomed{1, "gnn", kSpec, 0};
  doomed.deadline_ms = 1;
  serve::write_frame(*conn.client, doomed);
  serve::write_frame(*conn.client, serve::Submit{2, "gnn", kSpec, 1});
  while (server.snapshot_stats().received < 2) std::this_thread::yield();
  // Let request 1's deadline pass while both sit in the queue, then
  // start the worker: 1 must be shed, 2 must be served.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  server.start();

  bool expired = false, served = false;
  while (!expired || !served) {
    const auto frame = conn.read();
    if (const auto* x = std::get_if<serve::Expired>(&frame)) {
      EXPECT_EQ(x->request_id, 1u);
      expired = true;
    } else {
      const auto& v = std::get<serve::WireVerdict>(frame);
      EXPECT_EQ(v.request_id, 2u);
      served = true;
    }
  }
  conn.close();
  const auto stats = server.snapshot_stats();
  EXPECT_EQ(stats.deadline_sheds, 1u);
  EXPECT_EQ(stats.served, 1u);
  server.stop();
}

TEST(ServerTest, GenerousDeadlineIsServedNormally) {
  serve::Server server(server_options());
  server.start();
  Conn conn(server);
  serve::Submit req{1, "gnn", kSpec, 0};
  req.deadline_ms = 60000;
  serve::write_frame(*conn.client, req);
  const auto v = std::get<serve::WireVerdict>(conn.read());
  EXPECT_EQ(v.request_id, 1u);
  conn.close();
  EXPECT_EQ(server.snapshot_stats().deadline_sheds, 0u);
  server.stop();
}

TEST(ServerTest, IdleConnectionIsReaped) {
  auto opts = server_options();
  opts.idle_timeout_ms = 50;
  serve::Server server(opts);
  server.start();
  Conn conn(server);
  serve::write_frame(*conn.client, serve::Hello{"idler"});
  (void)std::get<serve::Caps>(conn.read());
  // Send nothing more: the reaper must close the connection, visible to
  // the client as EOF — a slot/thread cannot be parked forever.
  EXPECT_EQ(serve::read_frame(*conn.client, "server"), std::nullopt);
  conn.close();
  const auto stats = server.snapshot_stats();
  EXPECT_EQ(stats.reaped_connections, 1u);
  EXPECT_GE(stats.io_timeouts, 1u);
  server.stop();
}

TEST(ServerTest, SlowLorisTricklingAFrameIsReaped) {
  auto opts = server_options();
  opts.io_timeout_ms = 50;  // idle stays 0: only mid-frame reads race
  serve::Server server(opts);
  server.start();
  Conn conn(server);
  // Two bytes of a length prefix, then silence: the frame has started,
  // so the io deadline (not the infinite idle one) governs.
  const unsigned char half[2] = {0x20, 0x00};
  conn.client->write_all(half, 2);
  EXPECT_EQ(serve::read_frame(*conn.client, "server"), std::nullopt);
  conn.close();
  EXPECT_EQ(server.snapshot_stats().reaped_connections, 1u);
  server.stop();
}

TEST(ServerTest, HalfFrameCloseReclaimsSlotsAndServesAdmittedWork) {
  auto opts = server_options();
  opts.queue_capacity = 2;
  serve::Server server(opts);  // worker not started: admissions sit
  auto conn = std::make_unique<Conn>(server);
  serve::write_frame(*conn->client, serve::Submit{1, "gnn", kSpec, 0});
  while (server.snapshot_stats().received < 1) std::this_thread::yield();
  // Die mid-frame: a length prefix promising more than ever arrives.
  const unsigned char prefix[4] = {0x40, 0, 0, 0};
  conn->client->write_all(prefix, 4);
  conn->client->shutdown();

  // Starting the worker serves the admitted request into the dead
  // connection (dropped, but counted) and frees its slot.
  server.start();
  conn->close();  // serve_connection returns once in_flight drains

  // Both slots must be reusable by a fresh client.
  Conn fresh(server);
  serve::write_frame(*fresh.client, serve::Submit{1, "gnn", kSpec, 1});
  serve::write_frame(*fresh.client, serve::Submit{2, "gnn", kSpec, 2});
  std::map<std::uint64_t, serve::WireVerdict> got;
  while (got.size() < 2) {
    const auto frame = fresh.read();
    if (const auto* v = std::get_if<serve::WireVerdict>(&frame)) {
      got.emplace(v->request_id, *v);
    } else {
      ASSERT_TRUE(std::holds_alternative<serve::Busy>(frame))
          << "unexpected frame";
      const auto id = std::get<serve::Busy>(frame).request_id;
      serve::write_frame(*fresh.client,
                         serve::Submit{id, "gnn", kSpec, id});
    }
  }
  fresh.close();
  const auto stats = server.snapshot_stats();
  EXPECT_EQ(stats.served, 3u);  // incl. the one sent to the dead peer
  server.stop();
}

TEST(ServerTest, BusyResubmitsAreCountedAsRetries) {
  auto opts = server_options();
  opts.queue_capacity = 1;
  serve::Server server(opts);  // worker not started: the queue stays full
  Conn conn(server);
  serve::write_frame(*conn.client, serve::Submit{1, "gnn", kSpec, 0});
  serve::write_frame(*conn.client, serve::Submit{2, "gnn", kSpec, 1});
  const auto busy = std::get<serve::Busy>(conn.read());
  EXPECT_EQ(busy.request_id, 2u);

  server.start();  // free the slot
  (void)std::get<serve::WireVerdict>(conn.read());  // request 1 served
  serve::write_frame(*conn.client, serve::Submit{2, "gnn", kSpec, 1});
  const auto v = std::get<serve::WireVerdict>(conn.read());
  EXPECT_EQ(v.request_id, 2u);
  conn.close();
  EXPECT_EQ(server.snapshot_stats().retries, 1u);
  server.stop();
}

// ---- robustness: transport deadlines and backoff ----------------------------

TEST(TransportTest, WriteDeadlineFiresWhenPeerStopsDraining) {
  auto [a, b] = serve::local_pair_small_buffers();
  a->set_write_timeout(50);
  // Nobody reads b: the tiny socket buffers fill and the write deadline
  // must fire instead of parking the writer forever.
  const std::string block(1 << 20, 'x');
  EXPECT_THROW(a->write_all(block.data(), block.size()),
               serve::TransportTimeout);
}

TEST(TransportTest, ReadDeadlineFiresOnSilence) {
  auto [a, b] = serve::local_pair();
  b->set_read_timeout(50);
  char byte;
  EXPECT_THROW((void)b->read_some(&byte, 1), serve::TransportTimeout);
  // A deadline is inactivity, not total time: bytes that arrive in time
  // are delivered normally.
  a->write_all("z", 1);
  EXPECT_EQ(b->read_some(&byte, 1), 1u);
  EXPECT_EQ(byte, 'z');
}

TEST(BackoffTest, DeterministicBoundedAndGrowing) {
  serve::Backoff x(5, 500, 42);
  serve::Backoff y(5, 500, 42);
  std::vector<std::uint32_t> xs, ys;
  for (int i = 0; i < 12; ++i) {
    xs.push_back(x.next_delay_ms());
    ys.push_back(y.next_delay_ms());
  }
  EXPECT_EQ(xs, ys);  // same seed, same schedule — replayable campaigns
  for (const auto d : xs) {
    EXPECT_GE(d, 1u);
    EXPECT_LE(d, 500u);
  }
  // The cap is reached: late delays sit in the top (jittered) band.
  EXPECT_GE(xs.back(), 250u);
  // A different seed jitters differently.
  serve::Backoff z(5, 500, 43);
  std::vector<std::uint32_t> zs;
  for (int i = 0; i < 12; ++i) zs.push_back(z.next_delay_ms());
  EXPECT_NE(xs, zs);

  x.reset();
  EXPECT_EQ(x.attempts(), 0u);
  EXPECT_EQ(x.next_delay_ms(), xs[0]);  // reset restarts the schedule
}

TEST(BackoffTest, ZeroJitterIsPureExponential) {
  serve::Backoff b(10, 400, 7, /*jitter=*/0.0);
  EXPECT_EQ(b.next_delay_ms(), 10u);
  EXPECT_EQ(b.next_delay_ms(), 20u);
  EXPECT_EQ(b.next_delay_ms(), 40u);
  EXPECT_EQ(b.next_delay_ms(), 80u);
  EXPECT_EQ(b.next_delay_ms(), 160u);
  EXPECT_EQ(b.next_delay_ms(), 320u);
  EXPECT_EQ(b.next_delay_ms(), 400u);  // capped
  EXPECT_EQ(b.next_delay_ms(), 400u);
}

// ---- robustness: stale-socket startup ---------------------------------------

TEST(ListenerTest, ReplacesStaleSocketFileFromACrashedDaemon) {
  TempDir dir("stale_socket");
  const std::string path = dir.file("d.sock");
  // Simulate a crash: bind a socket (creating the file), then close the
  // fd WITHOUT unlinking — exactly what a SIGKILLed daemon leaves.
  {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
    ::close(fd);
  }
  ASSERT_TRUE(fs::exists(path));
  // The probe finds nothing alive, unlinks, and binds: unattended
  // restart after a crash needs no manual rm.
  serve::Listener listener(path);
  EXPECT_TRUE(fs::exists(path));
}

TEST(ListenerTest, RefusesToDisplaceALiveDaemon) {
  TempDir dir("live_socket");
  const std::string path = dir.file("d.sock");
  serve::Listener alive(path);
  try {
    serve::Listener usurper(path);
    FAIL() << "expected TransportError";
  } catch (const serve::TransportError& e) {
    EXPECT_NE(std::string(e.what()).find("alive"), std::string::npos);
  }
  // The live listener still works after the failed takeover.
  auto client = serve::connect_unix(path);
  auto served = alive.accept(1000);
  ASSERT_NE(served, nullptr);
}

}  // namespace
}  // namespace mpidetect
