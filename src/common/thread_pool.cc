#include "common/thread_pool.h"

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <utility>

namespace mgjoin {

namespace {

thread_local bool tls_in_worker = false;

std::size_t HardwareThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

std::mutex& DefaultPoolMutex() {
  static std::mutex mu;
  return mu;
}

std::unique_ptr<ThreadPool>& DefaultPoolSlot() {
  static std::unique_ptr<ThreadPool> pool;
  return pool;
}

}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads) {
  num_threads = std::max<std::size_t>(1, num_threads);
  threads_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_task_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::Submit(std::function<void()> fn) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    tasks_.push(std::move(fn));
    ++in_flight_;
  }
  cv_task_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_done_.wait(lock, [this] { return in_flight_ == 0; });
  if (first_error_ != nullptr) {
    std::exception_ptr err = std::exchange(first_error_, nullptr);
    lock.unlock();
    std::rethrow_exception(err);
  }
}

void ThreadPool::WorkerLoop() {
  tls_in_worker = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_task_.wait(lock, [this] { return shutdown_ || !tasks_.empty(); });
      if (tasks_.empty()) {
        if (shutdown_) return;
        continue;
      }
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    std::exception_ptr err;
    try {
      task();
    } catch (...) {
      err = std::current_exception();
    }
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (err != nullptr && first_error_ == nullptr) first_error_ = err;
      if (--in_flight_ == 0) cv_done_.notify_all();
    }
  }
}

std::size_t ThreadPool::ResolveThreadCount(long requested) {
  if (requested <= 0) {
    const char* e = std::getenv("MGJ_THREADS");
    if (e != nullptr && *e != '\0') requested = std::atol(e);
  }
  const std::size_t hw = HardwareThreads();
  if (requested <= 0) return hw;
  return std::min<std::size_t>(static_cast<std::size_t>(requested),
                               std::max<std::size_t>(hw, 8));
}

bool ThreadPool::InWorker() { return tls_in_worker; }

ThreadPool* ThreadPool::Default() {
  std::lock_guard<std::mutex> lock(DefaultPoolMutex());
  auto& pool = DefaultPoolSlot();
  if (pool == nullptr) {
    pool = std::make_unique<ThreadPool>(ResolveThreadCount(0));
  }
  return pool.get();
}

void ThreadPool::SetDefaultThreads(std::size_t n) {
  std::lock_guard<std::mutex> lock(DefaultPoolMutex());
  auto& pool = DefaultPoolSlot();
  const std::size_t want = ResolveThreadCount(static_cast<long>(n));
  if (pool != nullptr && pool->num_threads() == want) return;
  pool.reset();  // joins the old workers before the new pool spins up
  pool = std::make_unique<ThreadPool>(want);
}

void ParallelFor(std::size_t begin, std::size_t end,
                 const std::function<void(std::size_t)>& fn) {
  if (end <= begin) return;
  const std::size_t n = end - begin;
  // Inline for a nested section as well as a tiny range or a one-thread
  // pool: a worker blocking in Wait() would deadlock the pool, and
  // re-submitting would fan out N^2 tasks.
  ThreadPool* pool = ThreadPool::InWorker() ? nullptr : ThreadPool::Default();
  if (pool == nullptr || n < 2 || pool->num_threads() < 2) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
    return;
  }
  constexpr std::size_t kBlocksPerThread = 4;
  const std::size_t blocks =
      std::min(n, kBlocksPerThread * pool->num_threads());
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t lo = begin + n * b / blocks;
    const std::size_t hi = begin + n * (b + 1) / blocks;
    pool->Submit([lo, hi, &fn] {
      for (std::size_t i = lo; i < hi; ++i) fn(i);
    });
  }
  pool->Wait();
}

void ParallelForChunked(
    std::size_t begin, std::size_t end, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  if (end <= begin) return;
  grain = std::max<std::size_t>(1, grain);
  const std::size_t chunks = (end - begin + grain - 1) / grain;
  ParallelFor(0, chunks, [&](std::size_t c) {
    const std::size_t lo = begin + c * grain;
    fn(lo, std::min(end, lo + grain));
  });
}

}  // namespace mgjoin
