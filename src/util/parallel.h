// Parallel execution substrate: a lazily-started global thread pool and the
// ParallelFor primitive that evaluates extension-family grid cells
// (ExtensionFamily::Values), the one loop in the library wide and costly
// enough to pay for a pool dispatch. No randomized work runs on the pool:
// noise is drawn on the request thread.
//
// Determinism contract. The pool is *schedule-independent*: for fixed
// inputs, results are bit-identical at 1 thread and at N threads. Two rules
// make that possible:
//
//   1. Work items communicate only through their own index-addressed slot;
//      items never touch shared state except under a lock whose effects are
//      order-independent.
//   2. Any cross-item reduction happens after the join, in index order.
//
// Thread count. The global pool starts lazily on first use with
// NODEDP_THREADS workers (env var; unset or invalid means the hardware
// concurrency — an invalid value additionally warns once on stderr).
// NODEDP_THREADS=1 disables the pool entirely: ParallelFor degrades to a
// plain sequential loop on the calling thread. Tests and benchmarks that
// need a specific width construct their own ThreadPool and install it with
// ScopedThreadPool.
//
// Scheduling. Dispatch is dynamic — an atomic claim counter, not static
// partitioning — so item-cost imbalance is absorbed at any width. Items are
// claimed in index order.
//
// Nesting. A ParallelFor issued from inside a pool worker runs inline on
// that worker (no new tasks are enqueued), so nested parallel code cannot
// deadlock the pool and the outer loop keeps the width.
//
// Exceptions thrown by work items are captured and the one with the lowest
// index is rethrown on the calling thread after all items settle (again
// schedule-independent). CHECK failures abort as usual.

#ifndef NODEDP_UTIL_PARALLEL_H_
#define NODEDP_UTIL_PARALLEL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace nodedp {

// A fixed-width pool of worker threads executing indexed loops. Work is
// distributed by an atomic claim counter, so load imbalance between items
// (e.g. LP solves of very different sizes) is absorbed without any static
// partitioning choices that could differ between widths.
class ThreadPool {
 public:
  // Starts `num_threads - 1` workers (the calling thread participates in
  // every loop, so a pool of width 1 has no workers at all and runs inline).
  // Clamps to >= 1.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return num_threads_; }

  // Runs fn(i) for every i in [0, n). Blocks until all items settle; if any
  // item threw, rethrows the exception from the lowest-index failing item.
  void For(std::int64_t n, const std::function<void(std::int64_t)>& fn);

  // The process-wide pool, started lazily with ThreadCountFromEnv() workers.
  static ThreadPool& Global();

 private:
  struct Job;

  void WorkerLoop();
  // Claims and runs items of `job` until the claim counter is exhausted.
  void RunItems(Job& job);

  const int num_threads_;
  std::mutex mu_;
  std::condition_variable wake_;
  Job* job_ = nullptr;  // guarded by mu_; non-null while a loop is active
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

// Width the global pool starts with: NODEDP_THREADS if set to a positive
// integer <= 4096, else std::thread::hardware_concurrency() (min 1). A set
// but invalid NODEDP_THREADS warns once on stderr, naming the rejected
// value, before falling back — a silent fallback turned width typos into
// mystery perf regressions.
int ThreadCountFromEnv();

// The parsing core of ThreadCountFromEnv, exposed for tests: interprets
// `value` as NODEDP_THREADS would be (nullptr = unset). When the value is
// rejected, `*warning` (if non-null) receives the exact one-line message
// the env path prints to stderr; otherwise it is cleared.
int ThreadCountFromEnv(const char* value, std::string* warning);

// Installs `pool` as the pool ParallelFor uses on this
// thread for the scope's lifetime (nullptr restores the global pool).
class ScopedThreadPool {
 public:
  explicit ScopedThreadPool(ThreadPool* pool);
  ~ScopedThreadPool();

  ScopedThreadPool(const ScopedThreadPool&) = delete;
  ScopedThreadPool& operator=(const ScopedThreadPool&) = delete;

 private:
  ThreadPool* previous_;
};

// The pool ParallelFor dispatches to: the innermost
// ScopedThreadPool override on this thread, else the global pool.
ThreadPool& CurrentThreadPool();

// Number of threads ParallelFor would use right now.
int ParallelThreadCount();

// fn(i) for every i in [0, n), on the current pool.
inline void ParallelFor(std::int64_t n,
                        const std::function<void(std::int64_t)>& fn) {
  CurrentThreadPool().For(n, fn);
}

}  // namespace nodedp

#endif  // NODEDP_UTIL_PARALLEL_H_
