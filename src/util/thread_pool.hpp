// A small fixed-size thread pool for the embarrassingly parallel stages of
// the pipeline: per-IXP measurement campaigns and their filters (§3), the
// offload analysis's per-peer cone masks and per-IXP coverage masks (§4),
// 256-bin blocks of the Fig. 5b series folds, the sweep's world groups, the
// query daemon's batches, and the snapshot's section encodes, decodes and
// checksums. Loops whose per-index work is a few microseconds (the greedy's
// per-step scan over 65 IXPs, one bin's rates) run serially: their fan-outs
// measured slower than a plain loop.
//
// Work is always expressed as an indexed loop (`parallel_for(n, fn)` runs
// fn(0..n-1)), so results land in caller-owned slots and the output is
// independent of scheduling order — the same inputs produce byte-identical
// results at any thread count. Worker count comes from the RP_THREADS
// environment variable, defaulting to std::thread::hardware_concurrency().
//
// Submission allocates nothing: a parallel_for call enqueues a single
// pointer to its stack-resident Batch (loop body type-erased to a plain
// function pointer + context), and each worker that picks the batch up
// claims indices from a shared atomic cursor. The batch stays at the queue
// front until the intended number of workers has entered it, so the caller
// can rely on exactly that many decrements before its stack frame unwinds.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "fault/fault.hpp"
#include "obs/metrics.hpp"

namespace rp::util {

class ThreadPool {
 public:
  /// Spawns `threads` workers; 0 means configured_threads(). A pool of one
  /// thread spawns no workers and runs every loop inline on the caller.
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Logical parallelism (1 when the pool runs inline).
  unsigned thread_count() const { return threads_; }

  /// Worker count from RP_THREADS (clamped to [1, 512]), or
  /// hardware_concurrency() when unset/unparsable.
  static unsigned configured_threads();

  /// The process-wide pool, built on first use with configured_threads().
  static ThreadPool& global();

  /// Replaces the global pool with one of `threads` workers (0 restores the
  /// RP_THREADS/hardware default on next use). Intended for tests and tools;
  /// must not race with loops running on the old pool.
  static void set_global_threads(unsigned threads);

  /// Runs fn(i) for every i in [0, n), distributing indices across the
  /// workers, and blocks until all complete. Calls from inside a worker (or
  /// on a single-thread pool) run inline and serial, so nesting cannot
  /// deadlock. The first exception thrown by any fn is rethrown here.
  template <typename Fn>
  void parallel_for(std::size_t n, Fn&& fn) {
    if (n == 0) return;
    if (obs::metrics_enabled()) note_parallel_for(n);
    if (workers_.empty() || n == 1 || on_worker_thread()) {
      // The pool.task site fires on the inline path too, so RP_THREADS=1
      // injects the same faults a worker run does (the throw just propagates
      // directly instead of via the batch's error slot). The disarmed check
      // is hoisted out of the loop: inline loops can be tight argmax scans,
      // so the disarmed cost is one branch per call, not per index.
      if (fault::injection_enabled()) {
        for (std::size_t i = 0; i < n; ++i) {
          task_site().maybe_throw();
          fn(i);
        }
        return;
      }
      for (std::size_t i = 0; i < n; ++i) fn(i);
      return;
    }
    Batch batch;
    batch.n = n;
    batch.tasks = std::min<std::size_t>(workers_.size(), n);
    batch.pending = batch.tasks;
    using Body = std::remove_reference_t<Fn>;
    batch.ctx = const_cast<void*>(
        static_cast<const void*>(std::addressof(fn)));
    batch.invoke = [](void* ctx, std::size_t i) {
      (*static_cast<Body*>(ctx))(i);
    };
    submit_and_wait(&batch);
  }

  /// Runs fn(i) for every i in [0, n) and collects the results, in index
  /// order, into a vector. The result type must be default-constructible
  /// and movable.
  template <typename Fn>
  auto parallel_transform(std::size_t n, Fn&& fn)
      -> std::vector<decltype(fn(std::size_t{0}))> {
    std::vector<decltype(fn(std::size_t{0}))> out(n);
    parallel_for(n, [&out, &fn](std::size_t i) { out[i] = fn(i); });
    return out;
  }

 private:
  /// One parallel_for in flight. Stack-allocated by the caller; the queue
  /// holds only the pointer. `tasks` workers enter the batch (it is popped
  /// when the last one does) and each decrements `pending` exactly once, so
  /// the caller's wait completes only after every entrant is done touching
  /// the batch.
  struct Batch {
    std::atomic<std::size_t> next{0};  ///< Index-claim cursor.
    std::size_t n = 0;
    void (*invoke)(void*, std::size_t) = nullptr;
    void* ctx = nullptr;
    std::size_t tasks = 0;          ///< Workers that will enter this batch.
    std::size_t entered = 0;        ///< Guarded by queue_mutex_.
    std::uint64_t enqueue_ns = 0;   ///< Set only when metrics are enabled.
    std::size_t pending = 0;        ///< Guarded by mutex.
    std::exception_ptr error;       ///< Guarded by mutex.
    std::mutex mutex;
    std::condition_variable done;
  };

  static bool& worker_flag();
  static bool on_worker_thread() { return worker_flag(); }
  static fault::Site& task_site();
  static void note_parallel_for(std::size_t n);
  void submit_and_wait(Batch* batch);
  void run_batch(Batch* batch);
  void worker_loop();

  unsigned threads_ = 1;
  std::vector<std::thread> workers_;
  std::deque<Batch*> queue_;
  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  bool stop_ = false;
};

}  // namespace rp::util
