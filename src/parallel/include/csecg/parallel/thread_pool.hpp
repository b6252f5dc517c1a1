// Reusable worker pool and data-parallel loops for the experiment layer.
//
// Design constraints (see DESIGN.md "Threading model"):
//  * Dynamic dispatch, deterministic results: every participating thread
//    claims the next unclaimed index of [begin, end) from one atomic
//    counter, so uneven per-index costs do not leave threads idle behind a
//    slow slice.  Which thread runs an index is not fixed, so callers write
//    results into pre-sized slots indexed by loop index; the output of a
//    parallel run is then bit-identical to the serial run.
//  * The calling thread participates: a pool of size T runs T-1 workers
//    and the caller claims indices too, so ThreadPool(1) is a plain serial
//    loop with zero synchronization.
//  * Nested parallel_for calls from inside a worker degrade to serial
//    inline execution instead of deadlocking on the shared queue.
//  * Exceptions thrown by loop bodies are captured, the loop drains, and
//    the exception of the lowest failing index is rethrown on the caller
//    (indices above a recorded failure are not started).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace csecg::parallel {

/// Strictly parses a CSECG_THREADS-style value: decimal, whole-string,
/// ≥ 1.  Throws std::invalid_argument on anything else ("garbage", "0",
/// "4x", overflow) so a benchmark run can never silently fall back to the
/// wrong thread count.
std::size_t parse_thread_count(const char* text);

/// Number of threads a default-constructed pool uses: the CSECG_THREADS
/// environment variable when set (parsed strictly — malformed values
/// throw), otherwise std::thread::hardware_concurrency() (at least 1).
std::size_t default_thread_count();

/// Fixed-size worker pool with fork-join data-parallel loops.
class ThreadPool {
 public:
  /// Creates a pool of `threads` participating threads (the caller counts
  /// as one, so `threads - 1` workers are spawned).  0 means
  /// default_thread_count().
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Participating thread count (workers + caller), always ≥ 1.
  std::size_t threads() const noexcept { return thread_count_; }

  /// Invokes fn(i) for every i in [begin, end) on up to threads()
  /// participants (the caller is one), each claiming the next unclaimed
  /// index.  After the loop drains, rethrows the exception of the lowest
  /// failing index; indices above a recorded failure may not run.  Safe to
  /// call concurrently from several threads and (as a serial fallback)
  /// from inside another parallel_for body.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& fn);

  /// Maps fn over [0, count) into a pre-sized vector: out[i] = fn(i).
  /// T must be default-constructible; slot writes keep the result order
  /// (and, with a deterministic fn, the values) identical to a serial map.
  template <typename T, typename Fn>
  std::vector<T> parallel_map(std::size_t count, Fn&& fn) {
    std::vector<T> out(count);
    parallel_for(0, count,
                 [&out, &fn](std::size_t i) { out[i] = fn(i); });
    return out;
  }

 private:
  void worker_loop();

  std::size_t thread_count_ = 1;
  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable wake_;
  std::deque<std::function<void()>> queue_;
  bool stopping_ = false;
};

/// Process-wide shared pool, sized once from default_thread_count() on
/// first use.  The experiment runner fans out on this pool unless handed
/// an explicit one.
ThreadPool& global_pool();

}  // namespace csecg::parallel
