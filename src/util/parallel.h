// Parallel execution substrate: a lazily-started global thread pool and the
// ParallelFor / ParallelMap primitives the rest of the library builds on.
//
// Determinism contract. Every parallel construct in this library is
// *schedule-independent*: for a fixed seed and fixed inputs, results are
// bit-identical at 1 thread and at N threads. The primitives enforce the
// three rules that make that possible:
//
//   1. Work items communicate only through their own index-addressed slot
//      (ParallelMap writes results[i]; items never touch shared state).
//   2. Randomized items draw from a child Rng split from the parent
//      *sequentially, before dispatch* (ParallelForSeeded), so the stream a
//      work item sees depends only on its index, never on the schedule.
//   3. Any cross-item reduction happens after the join, in index order.
//
// Thread count. The global pool starts lazily on first use with
// NODEDP_THREADS workers (env var; unset or invalid means the hardware
// concurrency — an invalid value additionally warns once on stderr).
// NODEDP_THREADS=1 disables the pool entirely: every primitive degrades to a
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
// deadlock the pool and outer-level parallelism wins — the right choice for
// this library, where the outer loops (grid cells, batch queries) are the
// wide ones.
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
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "util/random.h"

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

// Installs `pool` as the pool used by ParallelFor/ParallelMap/... on this
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

// The pool the free-function primitives below dispatch to: the innermost
// ScopedThreadPool override on this thread, else the global pool.
ThreadPool& CurrentThreadPool();

// Number of threads the free-function primitives would use right now.
int ParallelThreadCount();

// fn(i) for every i in [0, n), on the current pool.
inline void ParallelFor(std::int64_t n,
                        const std::function<void(std::int64_t)>& fn) {
  CurrentThreadPool().For(n, fn);
}

// Maps fn over [0, n), returning the results in index order. T needs only a
// move constructor.
template <typename Fn>
auto ParallelMap(std::int64_t n, Fn&& fn)
    -> std::vector<decltype(fn(std::int64_t{0}))> {
  using T = decltype(fn(std::int64_t{0}));
  std::vector<std::optional<T>> slots(static_cast<std::size_t>(n));
  ParallelFor(n, [&](std::int64_t i) {
    slots[static_cast<std::size_t>(i)].emplace(fn(i));
  });
  std::vector<T> results;
  results.reserve(static_cast<std::size_t>(n));
  for (std::optional<T>& slot : slots) results.push_back(std::move(*slot));
  return results;
}

// fn(i, child_rng) for every i in [0, n). The n child streams are split from
// `parent` sequentially before dispatch, so the stream item i sees depends
// only on i and the parent state — never on the schedule — and `parent`
// advances exactly n splits regardless of thread count.
template <typename Fn>
void ParallelForSeeded(Rng& parent, std::int64_t n, Fn&& fn) {
  std::vector<Rng> children;
  children.reserve(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) children.push_back(parent.Split());
  ParallelFor(n, [&](std::int64_t i) {
    fn(i, children[static_cast<std::size_t>(i)]);
  });
}

// Seeded map: fn(i, child_rng) -> T, results in index order.
template <typename Fn>
auto ParallelMapSeeded(Rng& parent, std::int64_t n, Fn&& fn)
    -> std::vector<decltype(fn(std::int64_t{0}, std::declval<Rng&>()))> {
  using T = decltype(fn(std::int64_t{0}, std::declval<Rng&>()));
  std::vector<Rng> children;
  children.reserve(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) children.push_back(parent.Split());
  std::vector<std::optional<T>> slots(static_cast<std::size_t>(n));
  ParallelFor(n, [&](std::int64_t i) {
    slots[static_cast<std::size_t>(i)].emplace(
        fn(i, children[static_cast<std::size_t>(i)]));
  });
  std::vector<T> results;
  results.reserve(static_cast<std::size_t>(n));
  for (std::optional<T>& slot : slots) results.push_back(std::move(*slot));
  return results;
}

}  // namespace nodedp

#endif  // NODEDP_UTIL_PARALLEL_H_
