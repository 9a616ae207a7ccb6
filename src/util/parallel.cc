#include "util/parallel.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "obs/metrics.h"

namespace nodedp {

namespace {

// Set while this thread is executing loop items (worker or participating
// caller). Nested parallel constructs on such a thread run inline.
thread_local bool tls_running_items = false;

// Innermost ScopedThreadPool override on this thread.
thread_local ThreadPool* tls_pool_override = nullptr;

// Wall-ns between a loop being posted and each participating thread's first
// claim (docs/OBSERVABILITY.md). One observation per thread per loop — the
// caller contributes the ~0 floor, workers contribute their wake-up
// latency — so the hot claim loop itself stays clock-free.
Histogram* QueueWaitNsHistogram() {
  static Histogram* h = MetricsRegistry::Default().GetHistogram(
      "nodedp_pool_queue_wait_ns",
      "Wall-ns from loop post to each participating thread's first claim",
      MetricsRegistry::LatencyBucketsNs());
  return h;
}

}  // namespace

// One indexed loop in flight. Items are claimed by `next`; `completed`
// counts items that finished executing (every item runs exactly once, even
// after another item threw — exceptions are rare abort paths here, and never
// cancelling keeps completion tracking trivial).
struct ThreadPool::Job {
  std::int64_t n = 0;
  const std::function<void(std::int64_t)>* fn = nullptr;
  // When the loop was posted; each thread's first claim observes the gap
  // into nodedp_pool_queue_wait_ns.
  std::chrono::steady_clock::time_point posted;
  std::atomic<std::int64_t> next{0};
  std::atomic<std::int64_t> completed{0};
  // Workers currently inside RunItems for this job; guarded by the pool's
  // mu_. The caller retires the job only once this drops to zero, so a
  // worker can never touch a Job that has left the caller's stack.
  int runners = 0;
  std::mutex error_mu;
  std::int64_t first_error_index = std::numeric_limits<std::int64_t>::max();
  std::exception_ptr error;
};

int ThreadCountFromEnv(const char* value, std::string* warning) {
  if (warning != nullptr) warning->clear();
  const unsigned hardware = std::thread::hardware_concurrency();
  const int fallback = hardware > 0 ? static_cast<int>(hardware) : 1;
  if (value == nullptr) return fallback;
  char* end = nullptr;
  const long parsed = std::strtol(value, &end, 10);
  if (end != value && *end == '\0' && parsed > 0 && parsed <= 4096) {
    return static_cast<int>(parsed);
  }
  if (warning != nullptr) {
    *warning = std::string("nodedp: ignoring invalid NODEDP_THREADS=\"") +
               value + "\" (want an integer in [1, 4096]); using " +
               std::to_string(fallback) + " thread(s)";
  }
  return fallback;
}

int ThreadCountFromEnv() {
  std::string warning;
  const int count =
      ThreadCountFromEnv(std::getenv("NODEDP_THREADS"), &warning);
  if (!warning.empty()) {
    // Once per process, not per pool: the global pool reads this lazily,
    // but tests and benches may probe it repeatedly.
    static std::once_flag warned;
    std::call_once(warned, [&warning] {
      std::fprintf(stderr, "%s\n", warning.c_str());
    });
  }
  return count;
}

ThreadPool::ThreadPool(int num_threads)
    : num_threads_(num_threads < 1 ? 1 : num_threads) {
  workers_.reserve(static_cast<std::size_t>(num_threads_ - 1));
  for (int t = 1; t < num_threads_; ++t) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  wake_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

ThreadPool& ThreadPool::Global() {
  // Leaked deliberately: workers must outlive every static object that might
  // run a parallel loop during program teardown. The pointer stays reachable
  // from static storage, so leak checkers do not flag it.
  static ThreadPool* const global = new ThreadPool(ThreadCountFromEnv());
  return *global;
}

void ThreadPool::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    // Sleep until shutdown or a job with unclaimed items; re-checking
    // `next < n` here (not just job_ != nullptr) keeps drained workers from
    // spinning on a job whose last items are still executing elsewhere.
    wake_.wait(lock, [this] {
      return stopping_ ||
             (job_ != nullptr && job_->next.load(std::memory_order_relaxed) <
                                     job_->n);
    });
    if (stopping_) return;
    Job& job = *job_;
    ++job.runners;
    lock.unlock();
    RunItems(job);
    lock.lock();
    --job.runners;
    if (job.runners == 0) wake_.notify_all();
  }
}

void ThreadPool::RunItems(Job& job) {
  const bool was_running = tls_running_items;
  tls_running_items = true;
  bool observed_wait = false;
  for (;;) {
    const std::int64_t i = job.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= job.n) break;
    if (!observed_wait) {
      // First claim on this thread: how long the posted loop waited for us.
      observed_wait = true;
      if (MetricsEnabled()) {
        QueueWaitNsHistogram()->Observe(static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - job.posted)
                .count()));
      }
    }
    try {
      (*job.fn)(i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(job.error_mu);
      if (i < job.first_error_index) {
        job.first_error_index = i;
        job.error = std::current_exception();
      }
    }
    if (job.completed.fetch_add(1, std::memory_order_acq_rel) + 1 == job.n) {
      // Last item: wake the caller blocked in For(). Locking mu_ orders the
      // notification after the caller's predicate check.
      std::lock_guard<std::mutex> lock(mu_);
      wake_.notify_all();
    }
  }
  tls_running_items = was_running;
}

namespace {

// Sequential execution with the nested-call guard set, so fn's own parallel
// loops also stay inline. Matches the pool path's exception contract: every
// item runs even after one throws, and the lowest-index exception is
// rethrown at the end — so side effects are identical at any width.
void RunInline(std::int64_t n, const std::function<void(std::int64_t)>& fn) {
  const bool was_running = tls_running_items;
  tls_running_items = true;
  std::exception_ptr error;
  for (std::int64_t i = 0; i < n; ++i) {
    try {
      fn(i);
    } catch (...) {
      if (!error) error = std::current_exception();
    }
  }
  tls_running_items = was_running;
  if (error) std::rethrow_exception(error);
}

}  // namespace

void ThreadPool::For(std::int64_t n,
                     const std::function<void(std::int64_t)>& fn) {
  if (n <= 0) return;
  if (num_threads_ == 1 || n == 1 || tls_running_items) {
    // Width-1 pool, trivial loop, or nested call from inside an item.
    RunInline(n, fn);
    return;
  }

  Job job;
  job.n = n;
  job.fn = &fn;
  job.posted = std::chrono::steady_clock::now();
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (job_ != nullptr) {
      // Another thread is already driving this pool. Run inline rather than
      // queueing: every loop in this library is correct at any width, and a
      // second caller is rare enough that simplicity wins over sharing.
      lock.unlock();
      RunInline(n, fn);
      return;
    }
    job_ = &job;
  }
  wake_.notify_all();
  RunItems(job);  // the caller participates
  {
    std::unique_lock<std::mutex> lock(mu_);
    wake_.wait(lock, [&job] {
      return job.completed.load(std::memory_order_acquire) == job.n &&
             job.runners == 0;
    });
    job_ = nullptr;
  }
  if (job.error) std::rethrow_exception(job.error);
}

ScopedThreadPool::ScopedThreadPool(ThreadPool* pool)
    : previous_(tls_pool_override) {
  tls_pool_override = pool;
}

ScopedThreadPool::~ScopedThreadPool() { tls_pool_override = previous_; }

ThreadPool& CurrentThreadPool() {
  return tls_pool_override != nullptr ? *tls_pool_override
                                      : ThreadPool::Global();
}

int ParallelThreadCount() { return CurrentThreadPool().num_threads(); }

}  // namespace nodedp
