#include "serve/server.hpp"

#include <algorithm>
#include <thread>

#include "core/detector.hpp"
#include "datasets/spec.hpp"
#include "ml/kernels.hpp"
#include "serve/transport.hpp"
#include "support/check.hpp"
#include "support/faultpoint.hpp"

namespace mpidetect::serve {

namespace {

/// Pre-reads the registry key a bundle records, so the server can index
/// its warm model table by key before the (validating) full load.
std::string bundle_key(const std::string& path) {
  std::string key;
  io::load_file(path, [&](io::Reader& r) {
    io::read_section(r, "MPGD", 1, 1, "mpidetect model bundle");
    key = r.str(256);
  });
  return key;
}

}  // namespace

/// Per-connection state shared between the connection's frame loop and
/// the batch worker writing replies. `in_flight` (guarded by the
/// server's flight_mu_) keeps the ctx alive until every admitted
/// request has been answered; `dead` (guarded by write_mu) latches a
/// vanished peer so later replies are dropped instead of thrown.
struct Server::ConnectionCtx {
  Transport& t;
  std::string origin;
  std::mutex write_mu;
  bool dead = false;
  std::size_t in_flight = 0;
  /// Request ids this connection was told BUSY for, bounded ring
  /// (connection thread only). A resubmit of one counts as a retry.
  std::vector<std::uint64_t> busy_ids;

  ConnectionCtx(Transport& transport, std::string peer)
      : t(transport), origin(std::move(peer)) {}
};

namespace {
/// Bound on the per-connection BUSY-id memory of the retry counter.
constexpr std::size_t kBusyIdCap = 128;
}  // namespace

Server::Server(ServerOptions opts) : opts_(std::move(opts)) {
  MPIDETECT_EXPECTS(!opts_.model_paths.empty());
  MPIDETECT_EXPECTS(opts_.queue_capacity >= 1);
  MPIDETECT_EXPECTS(opts_.max_batch >= 1);

  cache_ = std::make_shared<core::EncodingCache>();
  if (!opts_.cache_dir.empty()) cache_->set_spill_dir(opts_.cache_dir);

  core::DetectorConfig cfg;
  cfg.cache = cache_;
  const auto& registry = core::DetectorRegistry::global();
  for (const auto& path : opts_.model_paths) {
    LoadedModel m;
    m.key = bundle_key(path);
    for (const auto& other : models_) {
      if (other.key == m.key) {
        throw ContractViolation("mpiguardd: detector '" + m.key +
                                "' loaded twice (" + path +
                                "); SUBMIT targets must be unambiguous");
      }
    }
    m.detector = registry.load_bundle(path, cfg);
    models_.push_back(std::move(m));
  }

  // The preallocated slot table: every request the daemon will ever
  // hold concurrently exists now; admission only fills fields.
  slots_.resize(opts_.queue_capacity);
  free_.reserve(opts_.queue_capacity);
  for (std::size_t i = opts_.queue_capacity; i > 0; --i) {
    free_.push_back(static_cast<std::uint32_t>(i - 1));
  }
  pending_.reserve(opts_.queue_capacity);
}

Server::~Server() { stop(); }

void Server::start() {
  MPIDETECT_EXPECTS(!worker_.joinable());
  worker_ = std::thread([this] { worker_loop(); });
  if (opts_.watchdog_ms > 0) {
    watchdog_ = std::thread([this] { watchdog_loop(); });
  }
}

void Server::drain() {
  std::unique_lock<std::mutex> lk(queue_mu_);
  draining_ = true;
  work_cv_.notify_all();
  if (!worker_.joinable()) return;  // nothing will drain a dead queue
  drained_cv_.wait(lk, [&] { return pending_.empty() && !worker_busy_; });
}

void Server::stop() {
  std::lock_guard<std::mutex> stop_lock(stop_mu_);
  drain();
  {
    std::lock_guard<std::mutex> lk(queue_mu_);
    stop_worker_ = true;
    work_cv_.notify_all();
  }
  if (worker_.joinable()) worker_.join();
  {
    std::lock_guard<std::mutex> lk(watchdog_mu_);
    watchdog_stop_ = true;
    watchdog_cv_.notify_all();
  }
  if (watchdog_.joinable()) watchdog_.join();
  stopped_.store(true, std::memory_order_release);
  // Unblock connection threads parked in read_frame; their loops end on
  // the EOF this produces.
  std::lock_guard<std::mutex> lk(conns_mu_);
  for (ConnectionCtx* c : conns_) c->t.shutdown();
}

std::vector<std::string> Server::detector_keys() const {
  std::vector<std::string> keys;
  keys.reserve(models_.size());
  for (const auto& m : models_) keys.push_back(m.key);
  return keys;
}

Stats Server::snapshot_stats() const {
  Stats s;
  s.received = received_.load();
  s.served = served_.load();
  s.busy_rejected = busy_rejected_.load();
  s.request_errors = request_errors_.load();
  s.protocol_errors = protocol_errors_.load();
  s.batches = batches_.load();
  s.max_coalesced = max_coalesced_.load();
  s.max_queue_depth = max_queue_depth_.load();
  s.datasets_materialized = datasets_materialized_.load();
  s.cache_disk_hits = cache_->disk_hits();
  s.cache_disk_writes = cache_->disk_writes();
  s.deadline_sheds = deadline_sheds_.load();
  s.io_timeouts = io_timeouts_.load();
  s.reaped_connections = reaped_connections_.load();
  s.retries = retries_.load();
  s.watchdog_trips = watchdog_trips_.load();
  s.faults_fired = fault::Registry::global().fired_total();
  // Kernel profiling rows: process-lifetime totals, one row per op
  // class even when calls == 0 so clients see a stable table.
  const auto ops = ml::kernels::op_counters();
  s.op_counters.reserve(ml::kernels::kNumOps);
  for (std::size_t i = 0; i < ml::kernels::kNumOps; ++i) {
    OpCounter c;
    c.name = ml::kernels::op_name(static_cast<ml::kernels::Op>(i));
    c.calls = ops[i].calls;
    c.flops = ops[i].flops;
    c.ns = ops[i].ns;
    s.op_counters.push_back(std::move(c));
  }
  return s;
}

void Server::bump_max(std::atomic<std::uint64_t>& target,
                      std::uint64_t value) {
  std::uint64_t seen = target.load(std::memory_order_relaxed);
  while (seen < value &&
         !target.compare_exchange_weak(seen, value,
                                       std::memory_order_relaxed)) {
  }
}

void Server::send(ConnectionCtx& conn, const Frame& f) {
  std::lock_guard<std::mutex> lk(conn.write_mu);
  if (conn.dead) return;
  try {
    write_frame(conn.t, f);
  } catch (const TransportTimeout&) {
    // The peer stopped draining its socket; a reply deadline fired so
    // the worker is NOT wedged behind this connection. Latch it dead —
    // half a frame went out, the stream is unrecoverable.
    io_timeouts_.fetch_add(1, std::memory_order_relaxed);
    conn.dead = true;
    conn.t.shutdown();
  } catch (const std::exception&) {
    // The peer vanished; nothing left to tell it. Latch so queued
    // replies for this connection are dropped silently.
    conn.dead = true;
  }
}

const datasets::Dataset* Server::dataset_for(const std::string& spec) {
  std::lock_guard<std::mutex> lk(datasets_mu_);
  if (const auto it = datasets_.find(spec); it != datasets_.end()) {
    return it->second.get();
  }
  // First touch generates (and holds) the corpus; concurrent submits of
  // other specs wait — generation is a warm-up cost, not the hot path.
  auto ds = std::make_unique<const datasets::Dataset>(
      datasets::make_dataset(spec, opts_.max_scale));
  if (ds->size() == 0) {
    throw datasets::SpecError("dataset spec '" + spec +
                              "': generated an empty corpus");
  }
  if (ds->size() > opts_.max_cases) {
    throw datasets::SpecError(
        "dataset spec '" + spec + "': " + std::to_string(ds->size()) +
        " cases exceeds this server's limit of " +
        std::to_string(opts_.max_cases));
  }
  const datasets::Dataset* out = ds.get();
  datasets_.emplace(spec, std::move(ds));
  datasets_materialized_.fetch_add(1, std::memory_order_relaxed);
  return out;
}

// ---- typed frame handlers ---------------------------------------------------

void Server::hello_impl(ConnectionCtx& conn, const Hello&) {
  Caps caps;
  caps.server = opts_.name;
  caps.queue_capacity = static_cast<std::uint32_t>(opts_.queue_capacity);
  caps.max_batch = static_cast<std::uint32_t>(opts_.max_batch);
  caps.detectors = detector_keys();
  send(conn, caps);
}

void Server::submit_impl(ConnectionCtx& conn, const Submit& f) {
  received_.fetch_add(1, std::memory_order_relaxed);

  // A resubmit of a request id this connection was BUSY-bounced for is
  // a retry: the backoff loop on the other end is working as designed,
  // and the operator can see it happening (Stats::retries).
  if (const auto it =
          std::find(conn.busy_ids.begin(), conn.busy_ids.end(), f.request_id);
      it != conn.busy_ids.end()) {
    conn.busy_ids.erase(it);
    retries_.fetch_add(1, std::memory_order_relaxed);
  }

  // Resolve every string BEFORE admission: a slot holds only an index
  // and two pointers, and a bad request never occupies a slot.
  std::uint32_t model = 0;
  if (!f.detector.empty()) {
    const auto it = std::find_if(
        models_.begin(), models_.end(),
        [&](const LoadedModel& m) { return m.key == f.detector; });
    if (it == models_.end()) {
      request_errors_.fetch_add(1, std::memory_order_relaxed);
      send(conn,
           Error{f.request_id, "unknown detector '" + f.detector +
                                   "' (not among the loaded bundles)"});
      return;
    }
    model = static_cast<std::uint32_t>(it - models_.begin());
  }

  const datasets::Dataset* ds = nullptr;
  try {
    ds = dataset_for(f.dataset);
  } catch (const datasets::SpecError& e) {
    request_errors_.fetch_add(1, std::memory_order_relaxed);
    send(conn, Error{f.request_id, e.what()});
    return;
  }
  if (f.index >= ds->size()) {
    request_errors_.fetch_add(1, std::memory_order_relaxed);
    send(conn,
         Error{f.request_id, "case index " + std::to_string(f.index) +
                                 " out of range for '" + f.dataset + "' (" +
                                 std::to_string(ds->size()) + " cases)"});
    return;
  }

  {
    std::unique_lock<std::mutex> lk(queue_mu_);
    if (draining_ || free_.empty()) {
      lk.unlock();
      busy_rejected_.fetch_add(1, std::memory_order_relaxed);
      if (conn.busy_ids.size() >= kBusyIdCap) {
        conn.busy_ids.erase(conn.busy_ids.begin());
      }
      conn.busy_ids.push_back(f.request_id);
      send(conn, Busy{f.request_id});
      return;
    }
    const std::uint32_t idx = free_.back();
    free_.pop_back();
    Slot& s = slots_[idx];
    s.request_id = f.request_id;
    s.model = model;
    s.ds = ds;
    s.index = static_cast<std::size_t>(f.index);
    s.conn = &conn;
    // The deadline clock starts at admission: time spent queued counts
    // against the client's budget, which is what makes shedding honest.
    s.deadline = f.deadline_ms > 0
                     ? std::chrono::steady_clock::now() +
                           std::chrono::milliseconds(f.deadline_ms)
                     : std::chrono::steady_clock::time_point{};
    pending_.push_back(idx);
    bump_max(max_queue_depth_, pending_.size());
    {
      std::lock_guard<std::mutex> fl(flight_mu_);
      ++conn.in_flight;
    }
    work_cv_.notify_one();
  }
}

void Server::stats_impl(ConnectionCtx& conn, const StatsReq&) {
  send(conn, snapshot_stats());
}

void Server::shutdown_impl(ConnectionCtx& conn) {
  drain();  // every admitted request is answered before the BYE
  send(conn, Bye{});
  stop();
}

// ---- the batch worker -------------------------------------------------------

void Server::worker_loop() {
  std::vector<Slot> batch;
  batch.reserve(opts_.max_batch);
  while (true) {
    batch.clear();
    std::vector<Slot> shed;
    {
      std::unique_lock<std::mutex> lk(queue_mu_);
      work_cv_.wait(lk, [&] { return stop_worker_ || !pending_.empty(); });
      if (pending_.empty()) {
        // stop requested and nothing left: the queue is drained.
        drained_cv_.notify_all();
        return;
      }
      // Shed before scheduling: a request whose deadline already passed
      // gets EXPIRED instead of burning a batch slot on an answer the
      // client has stopped waiting for.
      shed = shed_expired_locked();
      if (!pending_.empty()) {
        // Coalesce: the oldest entry picks the (model, dataset) target;
        // every queued request for the same target joins, FIFO order,
        // up to the window.
        const Slot& head = slots_[pending_.front()];
        const std::uint32_t model = head.model;
        const datasets::Dataset* ds = head.ds;
        std::size_t kept = 0;
        for (std::size_t i = 0; i < pending_.size(); ++i) {
          const std::uint32_t idx = pending_[i];
          const Slot& s = slots_[idx];
          if (batch.size() < opts_.max_batch && s.model == model &&
              s.ds == ds) {
            batch.push_back(s);      // copy out, then recycle the slot
            free_.push_back(idx);
          } else {
            pending_[kept++] = idx;
          }
        }
        pending_.resize(kept);
      }
      // worker_busy_ covers the EXPIRED replies below too: drain() must
      // not conclude "all answered" while they are still unsent.
      worker_busy_ = true;
    }

    if (!shed.empty()) {
      for (const Slot& s : shed) {
        deadline_sheds_.fetch_add(1, std::memory_order_relaxed);
        send(*s.conn, Expired{s.request_id});
      }
      {
        std::lock_guard<std::mutex> lk(flight_mu_);
        for (const Slot& s : shed) --s.conn->in_flight;
      }
      flight_cv_.notify_all();
    }

    if (!batch.empty()) {
      {
        std::lock_guard<std::mutex> lk(watchdog_mu_);
        ++batch_seq_;
        batch_start_ = std::chrono::steady_clock::now();
        batch_running_ = true;
        watchdog_cv_.notify_all();
      }
      run_batch(batch);
      {
        std::lock_guard<std::mutex> lk(watchdog_mu_);
        batch_running_ = false;
        watchdog_cv_.notify_all();
      }
    }

    {
      std::lock_guard<std::mutex> lk(queue_mu_);
      worker_busy_ = false;
      if (pending_.empty()) drained_cv_.notify_all();
    }
  }
}

std::vector<Server::Slot> Server::shed_expired_locked() {
  std::vector<Slot> shed;
  const auto now = std::chrono::steady_clock::now();
  std::size_t kept = 0;
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    const std::uint32_t idx = pending_[i];
    const Slot& s = slots_[idx];
    const bool expired =
        s.deadline != std::chrono::steady_clock::time_point{} &&
        s.deadline <= now;
    if (expired) {
      shed.push_back(s);       // copy out, then recycle the slot
      free_.push_back(idx);
    } else {
      pending_[kept++] = idx;
    }
  }
  pending_.resize(kept);
  return shed;
}

void Server::run_batch(const std::vector<Slot>& batch) {
  LoadedModel& m = models_[batch.front().model];
  const datasets::Dataset& ds = *batch.front().ds;

  const auto ensure_prepared = [&] {
    if (std::find(m.prepared.begin(), m.prepared.end(), &ds) ==
        m.prepared.end()) {
      // First batch against this corpus encodes it once through the
      // shared (possibly disk-spilled) cache; afterwards inference is
      // gather + forward only.
      m.detector->prepare(ds, opts_.threads);
      m.prepared.push_back(&ds);
    }
  };
  const auto reply = [&](const Slot& s, const core::Verdict& verdict,
                         std::uint32_t batch_size) {
    WireVerdict v;
    v.request_id = s.request_id;
    v.outcome = static_cast<std::uint8_t>(verdict.outcome);
    if (verdict.predicted_label) {
      v.predicted_label = static_cast<std::uint64_t>(*verdict.predicted_label);
    }
    v.confidence = verdict.confidence;
    v.batch_size = batch_size;
    // Count before sending: a stats probe racing the reply must never
    // observe a verdict the counters do not yet admit to.
    served_.fetch_add(1, std::memory_order_relaxed);
    send(*s.conn, v);
  };

  try {
    std::uint32_t ms = 0;
    if (MPIDETECT_FAULTPOINT_MS("serve.batch.slow", &ms)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(ms));
    }
    if (MPIDETECT_FAULTPOINT("serve.batch.throw")) {
      throw std::runtime_error("injected detector failure (serve.batch.throw)");
    }
    ensure_prepared();
    std::vector<std::size_t> idx;
    idx.reserve(batch.size());
    for (const Slot& s : batch) idx.push_back(s.index);
    const std::vector<core::Verdict> verdicts =
        m.detector->run_indexed(ds, idx);
    MPIDETECT_CHECK(verdicts.size() == batch.size());

    batches_.fetch_add(1, std::memory_order_relaxed);
    bump_max(max_coalesced_, batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      reply(batch[i], verdicts[i], static_cast<std::uint32_t>(batch.size()));
    }
  } catch (const std::exception&) {
    // Whole-batch failure → singleton degradation: rerun each request
    // alone so one poisonous case cannot take its batchmates down with
    // it. Requests that still fail get a per-request ERROR; the others
    // get their verdict, and the worker survives regardless.
    for (const Slot& s : batch) {
      try {
        ensure_prepared();  // prepare itself may have been what threw
        const std::size_t lone[] = {s.index};
        const std::vector<core::Verdict> one =
            m.detector->run_indexed(ds, lone);
        MPIDETECT_CHECK(one.size() == 1);
        reply(s, one.front(), 1);
      } catch (const std::exception& e) {
        request_errors_.fetch_add(1, std::memory_order_relaxed);
        send(*s.conn,
             Error{s.request_id,
                   std::string("detector failure: ") + e.what()});
      }
    }
  }
  {
    std::lock_guard<std::mutex> lk(flight_mu_);
    for (const Slot& s : batch) --s.conn->in_flight;
  }
  flight_cv_.notify_all();
}

void Server::watchdog_loop() {
  std::unique_lock<std::mutex> lk(watchdog_mu_);
  std::uint64_t last_tripped = 0;
  while (!watchdog_stop_) {
    if (!batch_running_ || batch_seq_ == last_tripped) {
      watchdog_cv_.wait(lk, [&] {
        return watchdog_stop_ ||
               (batch_running_ && batch_seq_ != last_tripped);
      });
      continue;
    }
    const std::uint64_t seq = batch_seq_;
    const auto trip_at =
        batch_start_ + std::chrono::milliseconds(opts_.watchdog_ms);
    if (watchdog_cv_.wait_until(lk, trip_at, [&] {
          return watchdog_stop_ || !batch_running_ || batch_seq_ != seq;
        })) {
      continue;  // the batch finished (or a new one began) in budget
    }
    // The same batch is still running past its budget: one trip —
    // detection, not termination. Killing a detector mid-forward would
    // corrupt the shared cache; the operator reads the counter instead.
    last_tripped = seq;
    watchdog_trips_.fetch_add(1, std::memory_order_relaxed);
  }
}

// ---- the connection frame loop ----------------------------------------------

void Server::serve_connection(Transport& t, const std::string& peer) {
  ConnectionCtx ctx(t, peer);
  {
    std::lock_guard<std::mutex> lk(conns_mu_);
    conns_.push_back(&ctx);
  }

  // Replies respect the io deadline too: a peer that stops draining its
  // socket cannot wedge the batch worker behind a full send buffer.
  t.set_write_timeout(opts_.io_timeout_ms);
  const ReadTimeouts deadlines{opts_.idle_timeout_ms, opts_.io_timeout_ms};

  while (true) {
    std::optional<Frame> frame;
    try {
      frame = read_frame(t, peer, deadlines);
    } catch (const TransportTimeout&) {
      // Idle past the reaper deadline, or trickling a frame slower than
      // the io deadline (slow loris): reap the connection. Any admitted
      // requests still drain normally — in_flight below holds the ctx
      // alive until their replies have landed or been dropped.
      io_timeouts_.fetch_add(1, std::memory_order_relaxed);
      reaped_connections_.fetch_add(1, std::memory_order_relaxed);
      t.shutdown();
      break;
    } catch (const io::FormatError& e) {
      // Corrupt bytes: framing is gone, so after the ERROR reply the
      // connection is useless — but the daemon is untouched. The
      // half-close delivers the queued ERROR and then EOF, whoever
      // owns the transport.
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      send(ctx, Error{0, e.what()});
      t.shutdown();
      break;
    } catch (const TransportError&) {
      break;  // peer died mid-frame
    }
    if (!frame) break;  // clean EOF

    const FrameType type = frame_type(*frame);
    if (type == FrameType::Hello) {
      hello_impl(ctx, std::get<Hello>(*frame));
    } else if (type == FrameType::Submit) {
      submit_impl(ctx, std::get<Submit>(*frame));
    } else if (type == FrameType::StatsReq) {
      stats_impl(ctx, std::get<StatsReq>(*frame));
    } else if (type == FrameType::Shutdown) {
      shutdown_impl(ctx);
      break;
    } else {
      // Well-formed but server-bound only (CAPS, VERDICT, ...): answer
      // and keep the connection — framing is intact.
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      send(ctx,
           Error{0, "unexpected " + std::string(frame_type_name(type)) +
                        " frame from a client"});
    }
  }

  // The slot table may still point at this ctx; replies must land (or
  // be dropped against a dead transport) before the frame goes away.
  {
    std::unique_lock<std::mutex> lk(flight_mu_);
    flight_cv_.wait(lk, [&] { return ctx.in_flight == 0; });
  }
  {
    std::lock_guard<std::mutex> lk(conns_mu_);
    std::erase(conns_, &ctx);
  }
}

}  // namespace mpidetect::serve
