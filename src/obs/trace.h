// Per-query trace spans and the structured slow-query log.
//
// A QueryTrace is one request's worth of context: the protocol layer
// constructs it at dispatch (one per request line), deeper layers attach
// ScopedSpans to it without any plumbing — the active trace rides a
// thread_local, which is correct here because a request is handled
// start-to-finish on one thread (stdin loop or per-connection socket
// thread), and ExtensionFamily's internal worker pool does not need
// per-cell spans (cell totals are histogrammed directly).
//
// On destruction, if the query's wall time crossed the slow-query
// threshold (env NODEDP_SLOW_QUERY_NS, or SetSlowQueryThresholdNs), the
// trace emits one structured line with its span breakdown:
//
//   slow_query verb=release_cc target=g1 total_ns=52000123
//       spans=admit:1200,family:48000000,mechanism:3900000
//
// (one line on the wire; wrapped here for readability)
//
// Span accounting is by stage *name*: two ScopedSpans with the same name
// accumulate into one entry, so per-cell repetitions fold naturally.
// Stage names must be string literals (the trace stores the pointer).
//
// Cost model matches src/obs/metrics.h: when no trace is active (e.g.
// ExtensionFamily used as a library, or benches that bypass the
// protocol), ScopedSpan is two branch instructions — no clock call, no
// allocation. QueryTrace itself lives on the dispatcher's stack.

#ifndef NODEDP_OBS_TRACE_H_
#define NODEDP_OBS_TRACE_H_

#include <chrono>
#include <cstddef>
#include <string>
#include <string_view>

namespace nodedp {

// Queries whose total wall-ns meet or exceed the threshold log one
// slow_query line at trace destruction. <= 0 disables (the default when
// NODEDP_SLOW_QUERY_NS is unset). The env variable is read once, at
// first use; SetSlowQueryThresholdNs overrides it afterwards.
long long SlowQueryThresholdNs();
void SetSlowQueryThresholdNs(long long threshold_ns);

// Where slow_query lines go: stderr by default; tests capture them by
// installing a sink (nullptr restores stderr). The sink must be
// callable from any request thread.
using SlowQueryLogSink = void (*)(const std::string& line);
void SetSlowQueryLogSink(SlowQueryLogSink sink);

class QueryTrace {
 public:
  // `verb` must outlive the trace (protocol dispatch passes literals).
  explicit QueryTrace(const char* verb);
  ~QueryTrace();

  QueryTrace(const QueryTrace&) = delete;
  QueryTrace& operator=(const QueryTrace&) = delete;

  // The trace attached to the calling thread, if any.
  static QueryTrace* Current();

  // Names the object the query touched (graph name). Stored by value;
  // safe to pass a transient string_view's contents.
  void set_target(std::string_view target) { target_.assign(target); }

  // Adds `ns` to the stage's accumulated time. Same-name spans merge;
  // beyond kMaxStages distinct names, further stages are counted in an
  // "other" overflow entry rather than dropped silently.
  void AddSpan(const char* stage, long long ns);

  // Wall-ns since construction.
  long long TotalNs() const;

  // The slow_query line (without trailing newline); exposed for tests.
  std::string Describe() const;

 private:
  static constexpr std::size_t kMaxStages = 16;

  struct Stage {
    const char* name = nullptr;
    long long ns = 0;
  };

  const char* verb_;
  std::string target_;
  std::chrono::steady_clock::time_point start_;
  Stage stages_[kMaxStages];
  std::size_t num_stages_ = 0;
  long long overflow_ns_ = 0;
  QueryTrace* previous_;  // restored on destruction (traces may nest)
};

// Times a named stage of the current thread's QueryTrace. Inactive (and
// clock-free) when no trace is installed.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* stage);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  QueryTrace* trace_;  // nullptr when inactive
  const char* stage_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace nodedp

#endif  // NODEDP_OBS_TRACE_H_
