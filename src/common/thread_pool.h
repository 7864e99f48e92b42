#ifndef MGJOIN_COMMON_THREAD_POOL_H_
#define MGJOIN_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace mgjoin {

/// \brief Minimal fixed-size thread pool for the functional layer.
///
/// The simulated GPUs process real tuples; ParallelFor spreads that work
/// over host threads so large functional runs stay tractable. Simulation
/// *timing* never depends on the pool — the discrete-event clock is
/// single-threaded and deterministic — and every parallel producer in
/// the repository writes thread-private output merged in canonical
/// order, so functional results are byte-identical at any thread count
/// (the determinism contract, DESIGN.md Sec 11).
class ThreadPool {
 public:
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Schedules `fn` and returns immediately.
  void Submit(std::function<void()> fn);

  /// Blocks until every submitted task has finished. If any task threw,
  /// rethrows the first exception (in submission-completion order); the
  /// remaining tasks still run to completion first — no task is lost.
  void Wait();

  std::size_t num_threads() const { return threads_.size(); }

  /// Returns a process-wide pool. Sized by ResolveThreadCount(0):
  /// `MGJ_THREADS` when set, hardware concurrency otherwise.
  static ThreadPool* Default();

  /// \brief Re-creates the default pool with `n` threads (0 = re-resolve
  /// from MGJ_THREADS / hardware concurrency).
  ///
  /// Used by the `--threads` / MgJoinOptions::host_threads plumbing and
  /// by the determinism suite to sweep thread counts in-process. Must
  /// not be called while parallel work is in flight.
  static void SetDefaultThreads(std::size_t n);

  /// \brief Thread-count resolution policy.
  ///
  /// `requested` <= 0 falls back to MGJ_THREADS, then to the hardware
  /// concurrency. Explicit requests are clamped to max(hardware, 8): the
  /// floor lets the determinism suite exercise real interleavings on
  /// small CI boxes, the cap keeps MGJ_THREADS=10000 from spawning
  /// 10000 threads (nested parallel sections never fan out at all — see
  /// InWorker()).
  static std::size_t ResolveThreadCount(long requested);

  /// True on a pool worker thread. ParallelFor uses this to run nested
  /// parallel sections inline: a worker that blocked in Wait() on the
  /// pool it runs on would deadlock, and re-submitting would fan tasks
  /// out quadratically.
  static bool InWorker();

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_task_;
  std::condition_variable cv_done_;
  std::queue<std::function<void()>> tasks_;
  std::size_t in_flight_ = 0;
  bool shutdown_ = false;
  std::exception_ptr first_error_;
  std::vector<std::thread> threads_;
};

/// \brief Runs fn(i) for every i in [begin, end) on the default pool,
/// blocking until all iterations complete.
///
/// The n = end - begin indices are split into B = min(n, 4 x pool
/// threads) contiguous blocks; block b covers
/// [begin + n*b/B, begin + n*(b+1)/B) and is one pool task that runs its
/// indices in ascending order. One task per block instead of one per
/// index keeps ranges of thousands of tiny items (one co-partition each
/// in the local join) from paying a queue push, a heap-allocated closure
/// and a condvar wake-up per item; the factor 4 leaves the pool some
/// slack to balance uneven blocks. Block edges depend on the thread
/// count, so callers write per-index output and merge it in index order
/// (DESIGN.md Sec 11).
///
/// Runs inline, in index order, when the range has fewer than 2
/// indices, when the default pool has one thread, and when called from
/// a pool worker (a nested section must not block on its own pool).
///
/// Exceptions thrown by `fn` propagate to the caller. With blocks, the
/// first exception to reach the pool is rethrown after every block has
/// finished; the indices after the throwing one in the same block may
/// be skipped, while every other block runs all of its indices. Inline,
/// the loop stops at the first throw.
void ParallelFor(std::size_t begin, std::size_t end,
                 const std::function<void(std::size_t)>& fn);

/// Morsel-granular variant: splits [begin, end) into fixed chunks of
/// `grain` indices and runs fn(chunk_begin, chunk_end) per chunk, with
/// the chunk indices spread by ParallelFor. Chunk boundaries depend only
/// on `grain`, never on the thread count, so per-chunk outputs merged in
/// chunk order (and chunk-local floating-point sums) are thread-count
/// invariant.
void ParallelForChunked(
    std::size_t begin, std::size_t end, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& fn);

}  // namespace mgjoin

#endif  // MGJOIN_COMMON_THREAD_POOL_H_
