// Persistent thread pool behind the library's parallel-for primitive.
//
// Monte Carlo campaigns call parallelFor once per campaign with tens of
// thousands of samples; spawning and joining raw std::threads on every call
// costs more than many of the samples themselves.  The pool keeps its
// workers alive across calls (lazy singleton, task-queue handshake), growing
// on demand up to the largest concurrency ever requested.  Work items are
// index-addressed (parallel-for style) because MC samples are embarrassingly
// parallel and identified by their sample index.
//
// The pool is fork-safe (util::runIsolated forks campaign workloads): a
// pthread_atfork handler holds the pool's locks across fork(), and the
// child forgets the parent's workers -- which do not exist in the child --
// so its first parallel call grows fresh ones.
#ifndef VSSTAT_UTIL_THREAD_POOL_HPP
#define VSSTAT_UTIL_THREAD_POOL_HPP

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace vsstat::util {

/// Lazily-started persistent worker pool.  One index-sweep job runs at a
/// time (concurrent callers queue); nested calls from inside a job degrade
/// to serial execution on the calling thread, so they can never deadlock.
class ThreadPool {
 public:
  /// The process-wide pool.  Workers are only spawned on first parallel use.
  [[nodiscard]] static ThreadPool& instance();

  /// Runs body(i) for i in [0, count) across up to `threads` threads
  /// (calling thread included).  `threads == 0` selects hardware
  /// concurrency.  Every index is executed exactly once; exceptions thrown
  /// by any invocation are captured and the first one is rethrown on the
  /// calling thread after the sweep drains.  With an effective thread count
  /// of one the body runs inline in index order.
  void parallelFor(std::size_t count,
                   const std::function<void(std::size_t)>& body,
                   unsigned threads = 0);

  /// Number of persistent workers currently alive (telemetry/tests).
  [[nodiscard]] unsigned workerCount() const;

  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

 private:
  ThreadPool();

  // pthread_atfork handlers for the process-wide instance.
  static void prepareFork() noexcept;
  static void parentAfterFork() noexcept;
  static void childAfterFork() noexcept;

  void ensureWorkers(unsigned needed);
  void workerMain();
  /// Claims indices until the sweep drains; never throws (errors are
  /// captured into firstError_ and the remaining indices are drained).
  void runSweep(const std::function<void(std::size_t)>& body,
                std::size_t count) noexcept;

  mutable std::mutex stateMutex_;
  std::condition_variable workCv_;
  std::condition_variable doneCv_;
  std::vector<std::thread> workers_;
  bool stop_ = false;

  // One job at a time; guarded by jobMutex_ across whole sweeps and by
  // stateMutex_ for the publication handshake with workers.
  std::mutex jobMutex_;
  std::uint64_t jobId_ = 0;
  std::size_t count_ = 0;
  const std::function<void(std::size_t)>* body_ = nullptr;
  unsigned helpersWanted_ = 0;  ///< workers allowed to join the current job
  unsigned helpersJoined_ = 0;
  unsigned active_ = 0;  ///< workers currently executing the job
  std::atomic<std::size_t> next_{0};

  std::mutex errorMutex_;
  std::exception_ptr firstError_;
};

/// Runs body(i) for i in [0, count) across `threads` worker threads on the
/// shared persistent pool.  `threads == 0` selects
/// std::thread::hardware_concurrency().  Exceptions thrown by any invocation
/// are captured; the first one is rethrown on the calling thread after the
/// sweep completes.
void parallelFor(std::size_t count, const std::function<void(std::size_t)>& body,
                 unsigned threads = 0);

/// Number of workers parallelFor would use for `requested` threads.
[[nodiscard]] unsigned effectiveThreadCount(unsigned requested) noexcept;

}  // namespace vsstat::util

#endif  // VSSTAT_UTIL_THREAD_POOL_HPP
