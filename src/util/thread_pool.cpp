#include "util/thread_pool.hpp"

#include <pthread.h>

#include <algorithm>
#include <new>

namespace vsstat::util {

namespace {

/// Set while a thread is executing inside a parallelFor sweep (as caller or
/// worker); nested calls from such a thread run serially inline.
thread_local bool tlsInSweep = false;

/// Hard cap on persistent workers; far above any sane request, it only
/// bounds pathological thread counts.
constexpr unsigned kMaxWorkers = 256;

}  // namespace

unsigned effectiveThreadCount(unsigned requested) noexcept {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

ThreadPool& ThreadPool::instance() {
  static ThreadPool pool;
  return pool;
}

ThreadPool::ThreadPool() {
  ::pthread_atfork(&ThreadPool::prepareFork, &ThreadPool::parentAfterFork,
                   &ThreadPool::childAfterFork);
}

// A forking thread inside a sweep (a pool worker, or a caller running its
// share) skips jobMutex_: the sweep's caller already holds it.  Every other
// forking thread waits for the running sweep to drain, so the child never
// inherits a half-published job.
void ThreadPool::prepareFork() noexcept {
  ThreadPool& pool = instance();
  if (!tlsInSweep) pool.jobMutex_.lock();
  pool.stateMutex_.lock();
  pool.errorMutex_.lock();
}

void ThreadPool::parentAfterFork() noexcept {
  ThreadPool& pool = instance();
  pool.errorMutex_.unlock();
  pool.stateMutex_.unlock();
  if (!tlsInSweep) pool.jobMutex_.unlock();
}

void ThreadPool::childAfterFork() noexcept {
  ThreadPool& pool = instance();
  // Only the forking thread survives.  The parent's worker handles can be
  // neither joined nor destroyed while joinable, so they are leaked.  The
  // condition variables still count the dead workers as waiters and would
  // swallow wakeups meant for new ones, so they are constructed afresh
  // (never destroyed: destroying a condvar with waiters blocks).
  static_cast<void>(new std::vector<std::thread>(std::move(pool.workers_)));
  pool.workers_.clear();
  new (&pool.workCv_) std::condition_variable;
  new (&pool.doneCv_) std::condition_variable;
  pool.helpersWanted_ = 0;
  pool.helpersJoined_ = 0;
  pool.active_ = 0;
  pool.errorMutex_.unlock();
  pool.stateMutex_.unlock();
  if (!tlsInSweep) pool.jobMutex_.unlock();
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(stateMutex_);
    stop_ = true;
  }
  workCv_.notify_all();
  for (auto& t : workers_) t.join();
}

unsigned ThreadPool::workerCount() const {
  std::lock_guard<std::mutex> lock(stateMutex_);
  return static_cast<unsigned>(workers_.size());
}

void ThreadPool::ensureWorkers(unsigned needed) {
  std::lock_guard<std::mutex> lock(stateMutex_);
  const unsigned target = std::min(needed, kMaxWorkers);
  while (workers_.size() < target) {
    workers_.emplace_back([this] { workerMain(); });
  }
}

void ThreadPool::runSweep(const std::function<void(std::size_t)>& body,
                          std::size_t count) noexcept {
  for (;;) {
    const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= count) return;
    try {
      body(i);
    } catch (...) {
      {
        std::lock_guard<std::mutex> lock(errorMutex_);
        if (!firstError_) firstError_ = std::current_exception();
      }
      // Drain the remaining indices so every participant retires promptly.
      next_.store(count, std::memory_order_relaxed);
      return;
    }
  }
}

void ThreadPool::workerMain() {
  tlsInSweep = true;  // workers never recurse into the pool
  std::uint64_t lastJob = 0;
  std::unique_lock<std::mutex> lock(stateMutex_);
  for (;;) {
    workCv_.wait(lock, [&] { return stop_ || jobId_ != lastJob; });
    if (stop_) return;
    lastJob = jobId_;
    if (helpersJoined_ >= helpersWanted_) continue;  // job fully staffed
    ++helpersJoined_;
    ++active_;
    const std::function<void(std::size_t)>* body = body_;
    const std::size_t count = count_;
    lock.unlock();
    runSweep(*body, count);
    lock.lock();
    if (--active_ == 0) doneCv_.notify_all();
  }
}

void ThreadPool::parallelFor(std::size_t count,
                             const std::function<void(std::size_t)>& body,
                             unsigned threads) {
  if (count == 0) return;
  const unsigned total = static_cast<unsigned>(
      std::min<std::size_t>(effectiveThreadCount(threads), count));

  if (total <= 1 || tlsInSweep) {
    // Serial path: strictly in index order on the calling thread.
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }

  std::lock_guard<std::mutex> jobLock(jobMutex_);
  ensureWorkers(total - 1);  // the calling thread is the remaining lane

  {
    std::lock_guard<std::mutex> lock(stateMutex_);
    count_ = count;
    body_ = &body;
    helpersWanted_ = total - 1;
    helpersJoined_ = 0;
    next_.store(0, std::memory_order_relaxed);
    firstError_ = nullptr;
    ++jobId_;
  }
  workCv_.notify_all();

  tlsInSweep = true;
  runSweep(body, count);
  tlsInSweep = false;

  std::unique_lock<std::mutex> lock(stateMutex_);
  doneCv_.wait(lock, [&] { return active_ == 0; });
  body_ = nullptr;
  helpersWanted_ = 0;

  if (firstError_) {
    std::exception_ptr err = firstError_;
    firstError_ = nullptr;
    std::rethrow_exception(err);
  }
}

void parallelFor(std::size_t count,
                 const std::function<void(std::size_t)>& body,
                 unsigned threads) {
  ThreadPool::instance().parallelFor(count, body, threads);
}

}  // namespace vsstat::util
