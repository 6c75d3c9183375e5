#include "serve/daemon.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <utility>

#include "fault/fault.hpp"
#include "io/snapshot.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/executor.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"

namespace rp::serve {

namespace {

obs::Counter& accepted_counter() {
  static obs::Counter c("rp.serve.connections.accepted");
  return c;
}
obs::Counter& rejected_counter() {
  static obs::Counter c("rp.serve.connections.rejected");
  return c;
}
obs::Counter& accept_errors_counter() {
  static obs::Counter c("rp.serve.accept_errors", obs::Stability::kScheduling);
  return c;
}
obs::Counter& killed_counter() {
  static obs::Counter c("rp.serve.connections.killed");
  return c;
}
obs::Counter& received_counter() {
  static obs::Counter c("rp.serve.requests.received");
  return c;
}
obs::Counter& busy_counter() {
  static obs::Counter c("rp.serve.busy", obs::Stability::kScheduling);
  return c;
}
obs::Counter& responses_counter() {
  static obs::Counter c("rp.serve.responses.sent");
  return c;
}
obs::Histogram& batch_occupancy() {
  static obs::Histogram h("rp.serve.batch.occupancy");
  return h;
}
obs::Histogram& request_ns() {
  static obs::Histogram h("rp.serve.request_ns");
  return h;
}
obs::Histogram& exec_ns() {
  static obs::Histogram h("rp.serve.exec_ns");
  return h;
}
// Per-request phase breakdown (all wall-clock, hence kScheduling — the
// Histogram default). The same numbers feed the daemon's RequestTracer; the
// histograms exist so the time-series sampler and metric exports see them.
obs::Histogram& phase_queue_ns() {
  static obs::Histogram h("rp.serve.phase.queue_ns");
  return h;
}
obs::Histogram& phase_pool_ns() {
  static obs::Histogram h("rp.serve.phase.pool_ns");
  return h;
}
obs::Histogram& phase_compute_ns() {
  static obs::Histogram h("rp.serve.phase.compute_ns");
  return h;
}
obs::Histogram& phase_write_ns() {
  static obs::Histogram h("rp.serve.phase.write_ns");
  return h;
}

fault::Site& accept_site() {
  static fault::Site site(fault::kSiteServeAccept);
  return site;
}
fault::Site& parse_site() {
  static fault::Site site(fault::kSiteServeParse);
  return site;
}
fault::Site& respond_site() {
  static fault::Site site(fault::kSiteServeRespond);
  return site;
}
fault::Site& stats_site() {
  static fault::Site site(fault::kSiteServeStats);
  return site;
}

// A send blocked this long fails and kills its connection: a client that stops
// reading its answers must not hold the I/O thread or the dispatcher.
constexpr timeval kSendTimeout{2, 0};

// The "serve.request" flow name: one arrow per request id across threads.
constexpr const char* kRequestFlow = "serve.request";

}  // namespace

// ---------------------------------------------------------------- Connection

Connection::~Connection() {
  if (fd_ >= 0) ::close(fd_);
}

bool Connection::send_payload(std::span<const std::uint8_t> payload) {
  std::vector<std::uint8_t> frame;
  frame.reserve(payload.size() + 4);
  append_frame(frame, payload);

  std::lock_guard<std::mutex> lock(write_mutex_);
  if (!alive()) return false;
  std::size_t sent = 0;
  while (sent < frame.size()) {
    const ssize_t n = ::send(fd_, frame.data() + sent, frame.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      alive_.store(false, std::memory_order_relaxed);
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

void Connection::kill() {
  if (alive_.exchange(false, std::memory_order_relaxed))
    ::shutdown(fd_, SHUT_RDWR);
}

// -------------------------------------------------------------- RequestQueue

RequestQueue::RequestQueue(std::size_t capacity)
    : capacity_(std::max<std::size_t>(1, capacity)) {}

bool RequestQueue::try_push(QueueItem item) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopped_ || items_.size() >= capacity_) return false;
    items_.push_back(std::move(item));
    high_water_ = std::max(high_water_, items_.size());
  }
  cv_.notify_one();
  return true;
}

std::vector<QueueItem> RequestQueue::pop_batch(std::size_t max_batch) {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock, [this] { return stopped_ || !items_.empty(); });
  std::vector<QueueItem> batch;
  const std::size_t take = std::min(items_.size(), std::max<std::size_t>(
                                                       1, max_batch));
  batch.reserve(take);
  for (std::size_t i = 0; i < take; ++i) {
    batch.push_back(std::move(items_.front()));
    items_.pop_front();
  }
  return batch;
}

void RequestQueue::stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopped_ = true;
  }
  cv_.notify_all();
}

std::size_t RequestQueue::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return items_.size();
}

std::size_t RequestQueue::high_water() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return high_water_;
}

// -------------------------------------------------------------- DaemonConfig

DaemonConfig DaemonConfig::from_env() {
  DaemonConfig config;
  // A signed or out-of-range value is as unusable as text.
  if (const char* raw = std::getenv("RP_SERVE_PORT"))
    config.port = util::parse_exact<std::uint16_t>(raw).value_or(config.port);
  return config;
}

// -------------------------------------------------------------------- Daemon

Daemon::Daemon(DaemonConfig config)
    : config_(std::move(config)),
      pool_(config_.worlds, config_.cache_dir.empty()
                                ? io::default_cache_dir()
                                : config_.cache_dir),
      queue_(config_.queue_capacity) {}

Daemon::~Daemon() { stop(); }

void Daemon::start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0)
    throw std::runtime_error(std::string("socket: ") + std::strerror(errno));
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("unparsable listen host '" + config_.host + "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0 ||
      ::listen(listen_fd_, 64) != 0) {
    const std::string why = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("cannot listen on " + config_.host + ":" +
                             std::to_string(config_.port) + ": " + why);
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof bound;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &bound_len);
  port_ = ntohs(bound.sin_port);

  // A resident daemon always wants its metrics (the stats surface and the
  // sampler read them) and its time-series sampler. All scheduling-tagged,
  // so deterministic snapshots are unaffected.
  obs::set_metrics_enabled(true);
  recorder_.start(obs::kDefaultSampleMs);
  start_ns_ = obs::monotonic_ns();

  io_thread_ = std::thread([this] { io_loop(); });
  dispatcher_thread_ = std::thread([this] { dispatcher_loop(); });
}

void Daemon::wait() {
  std::unique_lock<std::mutex> lock(shutdown_mutex_);
  shutdown_cv_.wait(lock, [this] { return shutdown_requested_; });
}

void Daemon::request_shutdown() {
  {
    std::lock_guard<std::mutex> lock(shutdown_mutex_);
    shutdown_requested_ = true;
  }
  shutdown_cv_.notify_all();
}

void Daemon::stop() {
  if (stopped_.exchange(true)) return;

  // shutdown() turns the listener's poll entry into POLLHUP, which ends the
  // I/O thread (within kSendTimeout if it is blocked in a send). Its exit
  // drops every connection no queued request holds; the dispatcher answers
  // what is queued, and the last of those references closes the rest.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (io_thread_.joinable()) io_thread_.join();
  if (listen_fd_ >= 0) ::close(std::exchange(listen_fd_, -1));

  queue_.stop();
  if (dispatcher_thread_.joinable()) dispatcher_thread_.join();

  // Metrics stay on: other components may share the process-wide flag, and
  // a stopped daemon recording nothing costs nothing.
  recorder_.stop();

  request_shutdown();  // Unblock a wait()er that did not see a client ask.
}

void Daemon::io_loop() {
  // Each connection this thread reads, with its input not yet parsed.
  struct Peer {
    std::shared_ptr<Connection> connection;
    std::vector<std::uint8_t> buffer;
  };
  std::vector<Peer> peers;
  std::vector<pollfd> fds;  // fds[0] is the listener, fds[i + 1] peers[i].
  std::uint64_t listen_resume_ns = 0;
  for (;;) {
    // At the descriptor limit (EMFILE) accept() fails at once, and so does
    // every immediate retry. After a failure the listener sits out of the
    // poll set (poll skips a negative fd) for 10 ms instead of spinning a
    // core, while established connections are still read.
    const std::uint64_t now = obs::monotonic_ns();
    const bool listening = now >= listen_resume_ns;
    fds.assign(1, pollfd{listening ? listen_fd_ : -1, POLLIN, 0});
    for (const Peer& peer : peers)
      fds.push_back(pollfd{peer.connection->fd(), POLLIN, 0});
    const int timeout_ms =
        listening ? -1 : static_cast<int>((listen_resume_ns - now + 999'999) /
                                          1'000'000);
    if (::poll(fds.data(), fds.size(), timeout_ms) < 0) continue;  // EINTR.
    if (fds[0].revents & (POLLHUP | POLLERR)) break;  // stop() shut it down.

    const std::size_t polled = peers.size();  // Accepted peers wait a round.
    if (fds[0].revents & POLLIN) {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) {
        accept_errors_counter().add();
        listen_resume_ns = obs::monotonic_ns() + 10'000'000;
      } else if (obs::Span span("serve.accept"); accept_site().fire()) {
        // The fault kills only the brand-new connection: the listener and
        // every established client are untouched.
        ::close(fd);
        rejected_counter().add();
      } else {
        ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &kSendTimeout,
                     sizeof kSendTimeout);
        peers.push_back({std::make_shared<Connection>(fd), {}});
        accepted_counter().add();
      }
    }
    for (std::size_t i = 0; i < polled; ++i)
      if (fds[i + 1].revents != 0)
        read_from(peers[i].connection, peers[i].buffer);
    // A dead connection (peer gone, bad frame, or killed by the dispatcher)
    // leaves the poll set now; queued requests keep it open until answered.
    std::erase_if(peers,
                  [](const Peer& peer) { return !peer.connection->alive(); });
  }
}

void Daemon::read_from(const std::shared_ptr<Connection>& connection,
                       std::vector<std::uint8_t>& buffer) {
  std::uint8_t chunk[4096];
  const ssize_t n = ::recv(connection->fd(), chunk, sizeof chunk, 0);
  if (n <= 0) {
    if (n == 0 || errno != EINTR) connection->kill();  // Gone or broken.
    return;
  }
  buffer.insert(buffer.end(), chunk, chunk + n);
  // Drain every complete frame in the buffer (clients may pipeline).
  for (;;) {
    std::optional<std::pair<std::size_t, std::span<const std::uint8_t>>> frame;
    try {
      obs::Span span("serve.parse");
      frame = try_parse_frame(buffer);
      // The fault site fires only once a complete frame parsed: nth= then
      // counts frames, not drain-loop polls, so it neither depends on TCP
      // segmentation nor races an arm() against the leftover-buffer check
      // that runs after the previous response was already sent.
      if (frame) {
        parse_site().maybe_throw();
        handle_frame(connection, frame->second);
      }
    } catch (const std::exception&) {
      // Malformed frame or injected parse fault: this connection is
      // unrecoverable (framing is lost), so it dies — alone.
      connection->kill();
      killed_counter().add();
      return;
    }
    if (!frame) break;
    buffer.erase(buffer.begin(),
                 buffer.begin() + static_cast<std::ptrdiff_t>(frame->first));
  }
}

void Daemon::handle_frame(const std::shared_ptr<Connection>& connection,
                          std::span<const std::uint8_t> payload) {
  // decode_request throws ProtocolError on malformed payloads — the caller
  // kills the connection, which is the contract for framing-level damage.
  Request request = decode_request(payload);
  received_counter().add();

  // Assign the server-side request id and open its flow arrow ('s' binds to
  // the enclosing serve.parse slice on the I/O thread).
  const std::uint64_t server_id = obs::RequestTracer::next_request_id();
  const std::uint64_t accept_ns = obs::monotonic_ns();
  obs::flow_begin(kRequestFlow, server_id);

  if (request.type == RequestType::kPing ||
      request.type == RequestType::kShutdown ||
      request.type == RequestType::kStats) {
    // No world needed: answer inline on the I/O thread. The serve.stats
    // site throws into read_from's catch, so a firing stats fault kills
    // exactly this connection — the daemon and its other clients carry on.
    const std::uint64_t compute_start = obs::monotonic_ns();
    Response response;
    if (request.type == RequestType::kStats) {
      stats_site().maybe_throw();
      response = stats_response(request.stats_window);
      response.id = request.id;
    } else {
      response = execute_request(request, nullptr);
    }
    const std::uint64_t write_start = obs::monotonic_ns();
    connection->send_payload(encode_response(response));
    responses_counter().add();
    obs::RequestRecord record;
    record.request_id = server_id;
    record.type = static_cast<std::uint8_t>(request.type);
    record.ok = response.status == Status::kOk;
    record.accept_ns = accept_ns;
    record.compute_ns = write_start - compute_start;
    record.write_ns = obs::monotonic_ns() - write_start;
    complete(record);
    if (request.type == RequestType::kShutdown) request_shutdown();
    return;
  }

  QueueItem item;
  item.connection = connection;
  item.request = std::move(request);
  item.server_id = server_id;
  item.accept_ns = accept_ns;
  item.enqueue_ns = obs::monotonic_ns();
  const std::uint64_t id = item.request.id;
  if (!queue_.try_push(std::move(item))) {
    busy_counter().add();
    Response busy;
    busy.status = Status::kBusy;
    busy.id = id;
    busy.message = "queue full (" + std::to_string(queue_.capacity()) +
                   " requests); retry";
    connection->send_payload(encode_response(busy));
    // The request dies at admission: close its flow so s/f stay balanced.
    obs::flow_end(kRequestFlow, server_id);
  }
}

void Daemon::dispatcher_loop() {
  for (;;) {
    std::vector<QueueItem> batch = queue_.pop_batch(config_.max_batch);
    if (batch.empty()) return;  // Stopped and drained.
    batch_occupancy().record(batch.size());

    const std::size_t count = batch.size();
    // Per-request phase attribution: queue wait ends here, at dequeue.
    const std::uint64_t dequeue_ns = obs::monotonic_ns();
    std::vector<obs::RequestRecord> records(count);
    for (std::size_t i = 0; i < count; ++i) {
      records[i].request_id = batch[i].server_id;
      records[i].type = static_cast<std::uint8_t>(batch[i].request.type);
      records[i].accept_ns = batch[i].accept_ns;
      records[i].queue_ns = dequeue_ns - batch[i].enqueue_ns;
    }

    // Resolve each item's world spec and group the batch by config digest so
    // every distinct world is acquired (and its artifacts warmed) once.
    std::vector<Response> responses(count);
    // One byte per slot: pool workers set neighbouring flags concurrently,
    // which std::vector<bool> would pack into one shared word.
    std::vector<std::uint8_t> done(count, 0);
    std::vector<std::shared_ptr<const World>> worlds(count);
    std::vector<core::ScenarioConfig> configs(count);
    std::unordered_map<std::uint64_t, std::vector<std::size_t>> by_digest;
    for (std::size_t i = 0; i < count; ++i) {
      try {
        configs[i] = batch[i].request.world.resolve();
        by_digest[io::config_digest(configs[i])].push_back(i);
      } catch (const std::exception& e) {
        responses[i].status = Status::kError;
        responses[i].id = batch[i].request.id;
        responses[i].message = e.what();
        done[i] = 1;
      }
    }
    for (const auto& [digest, indices] : by_digest) {
      const std::uint64_t pool_start = obs::monotonic_ns();
      std::uint8_t built = 0;
      try {
        bool loaded = false;
        const auto world = pool_.acquire(configs[indices.front()], &loaded);
        if (loaded) built |= kBuiltWorld;
        for (std::size_t i : indices) worlds[i] = world;
        // Pre-warm shared artifacts here, with the pool's full parallelism,
        // so the per-request fan-out below only reads.
        for (std::size_t i : indices)
          built |= prewarm(batch[i].request, world.get());
      } catch (const std::exception& e) {
        for (std::size_t i : indices) {
          responses[i].status = Status::kError;
          responses[i].id = batch[i].request.id;
          responses[i].message = std::string("world load failed: ") + e.what();
          done[i] = 1;
        }
      }
      // The group's acquire+prewarm wall time, and what it built, are
      // attributed to each member — every one of them waited on it.
      const std::uint64_t pool_wall = obs::monotonic_ns() - pool_start;
      for (std::size_t i : indices) {
        records[i].pool_ns = pool_wall;
        records[i].built = built;
      }
    }

    // One request's compute, on whichever worker runs it. The 't' flow step
    // lands inside the serve.exec_one slice, tying the cross-thread arrow to
    // this request's span in the Perfetto view.
    auto run_one = [&](std::size_t i) {
      obs::Span span("serve.exec_one");
      obs::flow_step(kRequestFlow, batch[i].server_id);
      const std::uint64_t compute_start = obs::monotonic_ns();
      responses[i] = execute_request(batch[i].request, worlds[i].get());
      records[i].compute_ns = obs::monotonic_ns() - compute_start;
      done[i] = 1;
    };

    {
      obs::Span span("serve.exec");
      obs::ScopedTimer timer(exec_ns());
      try {
        util::ThreadPool::global().parallel_for(count, [&](std::size_t i) {
          if (done[i]) return;
          run_one(i);
        });
      } catch (const std::exception&) {
        // An injected pool.task fault aborted the fan-out; the serial sweep
        // below finishes whatever it skipped.
      }
      for (std::size_t i = 0; i < count; ++i)
        if (!done[i]) run_one(i);
    }

    // Responses go out sequentially in enqueue order: per-connection FIFO is
    // part of the protocol contract.
    obs::Span span("serve.respond");
    for (std::size_t i = 0; i < count; ++i) {
      if (respond_site().fire()) {
        batch[i].connection->kill();
        killed_counter().add();
        // The response never goes out, but the request is over: close the
        // flow so every 's' still meets an 'f'.
        obs::flow_end(kRequestFlow, batch[i].server_id);
        continue;
      }
      const std::uint64_t write_start = obs::monotonic_ns();
      if (batch[i].connection->send_payload(encode_response(responses[i])))
        responses_counter().add();
      const std::uint64_t end_ns = obs::monotonic_ns();
      request_ns().record(end_ns - batch[i].enqueue_ns);
      phase_queue_ns().record(records[i].queue_ns);
      phase_pool_ns().record(records[i].pool_ns);
      records[i].ok = responses[i].status == Status::kOk;
      records[i].world_digest = worlds[i] ? worlds[i]->digest() : 0;
      records[i].write_ns = end_ns - write_start;
      complete(records[i]);
    }
  }
}

void Daemon::complete(const obs::RequestRecord& record) {
  phase_compute_ns().record(record.compute_ns);
  phase_write_ns().record(record.write_ns);
  tracer_.record(record);
  obs::flow_end(kRequestFlow, record.request_id);
}

}  // namespace rp::serve
