// The rp::serve daemon: a resident TCP query server over warm worlds.
//
// Thread shape (two threads, whatever the number of clients)
//   I/O thread       polls the listener and every live connection. It
//                    accepts (serve.accept fault site: a fire closes the one
//                    new socket, never the listener), reads, and frames +
//                    decodes requests (serve.parse site). A malformed or
//                    fault-poisoned frame kills that connection only.
//                    Well-formed requests go through admission control: a
//                    full queue earns an immediate kBusy response and the
//                    connection stays healthy. ping/shutdown/stats are
//                    answered inline (they need no world; stats works even
//                    when the queue is saturated, and carries its own
//                    serve.stats fault site). A dead connection leaves the
//                    poll set at once and closes once its queued requests
//                    are answered.
//   dispatcher       pops batches off the bounded queue, resolves each
//                    batch's distinct worlds once through the WorldPool,
//                    pre-warms the artifacts the batch needs, executes the
//                    requests on the global ThreadPool (indexed fan-out, so
//                    responses are independent of scheduling), then writes
//                    responses back in enqueue order (serve.respond site: a
//                    fire kills the one target connection).
//
// Determinism: a response's payload is a pure function of (request, world) —
// batching, thread count, and client interleaving only affect latency,
// never bytes.
//
// Observability: rp.serve.* counters, rp.serve.batch.occupancy /
// .request_ns / .exec_ns histograms, per-phase rp.serve.phase.{queue,pool,
// compute,write}_ns histograms, and serve.accept / serve.parse / serve.exec
// / serve.respond spans.
//
// Request telemetry: every accepted frame gets a server-side request id
// (obs::RequestTracer::next_request_id, one counter per process), threaded
// accept → parse → enqueue → batch-group → pool lookup → execute → respond.
// Every finished request goes through Daemon::complete(), which records the
// per-phase latency breakdown into the daemon's own obs::RequestTracer (one
// locked ring) and — when an RP_TRACE session is live — closes the
// "serve.request" flow ('s' at admission on the I/O thread, 't' at
// execute on the worker, 'f' at respond) that ties one request's spans
// together across threads in the Perfetto view. The daemon also owns an
// obs::TimeSeriesRecorder whose 500 ms sampler runs from start()
// to stop(). Tracer and recorder are members, so two daemons in one process
// never report each other's traffic, and one daemon's stop() leaves the
// other's telemetry running. start() turns metrics on (the flag is
// process-wide and stays on). All of this telemetry is wall-clock and
// therefore scheduling-tagged — deterministic_snapshot() never sees it.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "obs/request_trace.hpp"
#include "obs/timeseries.hpp"
#include "serve/protocol.hpp"
#include "serve/world_pool.hpp"

namespace rp::serve {

/// One live client connection. Writes are serialized by an internal mutex
/// (the I/O thread answers busy/ping inline while the dispatcher writes query
/// responses). kill() shuts the socket down and fails later writes; the fd
/// closes when the last reference drops.
class Connection {
 public:
  explicit Connection(int fd) : fd_(fd) {}
  ~Connection();

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  int fd() const { return fd_; }
  bool alive() const { return alive_.load(std::memory_order_relaxed); }

  /// Frames `payload` and writes it out. Returns false (and marks the
  /// connection dead) when the peer is gone or leaves it unread for 2 s.
  bool send_payload(std::span<const std::uint8_t> payload);

  /// Marks the connection dead and shuts the socket down both ways (the I/O
  /// thread reads end of stream). Idempotent.
  void kill();

 private:
  int fd_;
  std::mutex write_mutex_;
  std::atomic<bool> alive_{true};
};

/// A queued, decoded request awaiting dispatch.
struct QueueItem {
  std::shared_ptr<Connection> connection;
  Request request;
  std::uint64_t enqueue_ns = 0;  ///< monotonic_ns when queued.
  std::uint64_t server_id = 0;   ///< Daemon-assigned request id.
  std::uint64_t accept_ns = 0;   ///< monotonic_ns at admission.
};

/// The bounded admission queue between the I/O thread and the dispatcher.
/// try_push never blocks — a full queue is the daemon's backpressure signal
/// (the I/O thread turns it into a kBusy response).
class RequestQueue {
 public:
  explicit RequestQueue(std::size_t capacity);

  /// Enqueues unless the queue is full or stopped; returns success.
  bool try_push(QueueItem item);

  /// Pops up to `max_batch` items, blocking while the queue is empty and
  /// running. After stop(), drains without blocking; an empty return means
  /// stopped-and-drained.
  std::vector<QueueItem> pop_batch(std::size_t max_batch);

  /// Wakes the consumer; pending items remain poppable, new pushes fail.
  void stop();

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const;
  /// Deepest the queue has ever been (monotone; survives drains).
  std::size_t high_water() const;

 private:
  std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<QueueItem> items_;
  std::size_t high_water_ = 0;
  bool stopped_ = false;
};

struct DaemonConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;        ///< 0 = ephemeral; read back via port().
  std::size_t worlds = 4;        ///< WorldPool capacity.
  std::size_t queue_capacity = 128;
  std::size_t max_batch = 64;
  std::filesystem::path cache_dir;  ///< Empty = io::default_cache_dir().

  /// Overlays RP_SERVE_PORT, the port rpq also dials, onto the defaults (an
  /// unparsable or out-of-range value is ignored).
  static DaemonConfig from_env();
};

class Daemon {
 public:
  explicit Daemon(DaemonConfig config);
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Binds, listens, and starts the I/O + dispatcher threads. Throws
  /// std::runtime_error when the socket cannot be bound.
  void start();

  /// The bound port (after start(); resolves port 0 to the actual one).
  std::uint16_t port() const { return port_; }

  /// Blocks until a client sends shutdown or stop() is called elsewhere.
  void wait();

  /// Stops accepting and reading, drains the queue (answering what was
  /// queued), closes every connection, and joins both threads. Idempotent.
  void stop();

  const WorldPool& pool() const { return pool_; }
  const RequestQueue& queue() const { return queue_; }
  /// The daemon's time-series recorder (tests drive it with sample_once()).
  obs::TimeSeriesRecorder& recorder() { return recorder_; }

  /// Builds the kOk stats report (see src/serve/stats.cpp for the row set):
  /// uptime, queue depth/capacity/high-water, pool occupancy with per-world
  /// hit/resident-bytes accounting, per-request-type latency quantiles, the
  /// slow-query log, and — when `window` > 0 — the most recent `window`
  /// points of every recorded time series. Exposed for tests; the daemon
  /// answers kStats requests with it inline on the I/O thread.
  Response stats_response(std::uint64_t window) const;

 private:
  void io_loop();
  /// One recv(), then handle_frame for each complete frame in `buffer`.
  void read_from(const std::shared_ptr<Connection>& connection,
                 std::vector<std::uint8_t>& buffer);
  void dispatcher_loop();
  void handle_frame(const std::shared_ptr<Connection>& connection,
                    std::span<const std::uint8_t> payload);
  void request_shutdown();
  /// Records a finished request: the compute and write phase histograms,
  /// the tracer record, and the end of its flow.
  void complete(const obs::RequestRecord& record);

  DaemonConfig config_;
  WorldPool pool_;
  RequestQueue queue_;
  obs::RequestTracer tracer_;
  obs::TimeSeriesRecorder recorder_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::uint64_t start_ns_ = 0;  ///< monotonic_ns at start(), for uptime.
  std::atomic<bool> stopped_{false};

  std::thread io_thread_;
  std::thread dispatcher_thread_;

  std::mutex shutdown_mutex_;
  std::condition_variable shutdown_cv_;
  bool shutdown_requested_ = false;
};

}  // namespace rp::serve
