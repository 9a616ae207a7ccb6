#include "core/sublinear_cc.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <vector>

#include "dp/laplace.h"
#include "obs/trace.h"
#include "util/check.h"

namespace nodedp {

namespace {

// Size of v's component, or -1 if it exceeds `cutoff` vertices. Adds the
// number of vertices the BFS expanded to *work.
//
// `memo` is the graph's ComponentSizeMemo at this cutoff, or null. The
// answer depends only on |C(v)|, and every vertex a BFS touches lies in
// C(v), so a BFS writes its answer into all of them (|C| when it finished,
// kOverCutoff when it was cut off) and a later sample on a filled vertex
// is one load with no BFS and no work. Concurrent readers write the same
// values, so relaxed stores suffice.
int TruncatedComponentSize(const Graph& g, int v, int cutoff,
                           std::atomic<std::uint8_t>* memo,
                           std::int64_t* work) {
  if (memo != nullptr) {
    const int code = memo[v].load(std::memory_order_relaxed);
    if (code != 0) return code == Graph::kOverCutoff ? -1 : code;
  }
  // The visited bitmap is grown once per thread and then kept all-false
  // between calls by clearing only the entries a sample touched: per-sample
  // cost stays O(cutoff) no matter how large the graph is, which is the
  // whole point of the sublinear estimator. `touched` is also the BFS
  // queue (vertices enter it in visit order and `head` walks it), and it
  // too is kept per thread, so a sample allocates nothing once warm.
  static thread_local std::vector<bool> visited;
  static thread_local std::vector<int> touched;
  if (static_cast<int>(visited.size()) < g.NumVertices()) {
    visited.resize(g.NumVertices(), false);
  }
  touched.clear();
  touched.push_back(v);
  visited[v] = true;
  bool truncated = false;
  for (std::size_t head = 0; head < touched.size() && !truncated;) {
    const int u = touched[head++];
    ++*work;
    for (int w : g.Neighbors(u)) {
      if (visited[w]) continue;
      visited[w] = true;
      touched.push_back(w);
      if (static_cast<int>(touched.size()) > cutoff) {
        truncated = true;
        break;
      }
    }
  }
  const int size = truncated ? -1 : static_cast<int>(touched.size());
  const auto code = static_cast<std::uint8_t>(truncated ? Graph::kOverCutoff
                                                        : size);
  for (int w : touched) {
    visited[w] = false;
    if (memo != nullptr) memo[w].store(code, std::memory_order_relaxed);
  }
  return size;
}

}  // namespace

SublinearCcEstimate SublinearConnectedComponents(
    const Graph& g, Rng& rng, const SublinearCcOptions& options) {
  NODEDP_CHECK_GE(options.num_samples, 1);
  NODEDP_CHECK_GE(options.bfs_cutoff, 1);
  SublinearCcEstimate result;
  const int n = g.NumVertices();
  if (n == 0) return result;
  std::atomic<std::uint8_t>* memo = g.ComponentSizeMemo(options.bfs_cutoff);
  double total = 0.0;
  for (int s = 0; s < options.num_samples; ++s) {
    const int v = static_cast<int>(rng.NextUint64(n));
    const int size = TruncatedComponentSize(g, v, options.bfs_cutoff, memo,
                                            &result.vertices_visited);
    if (size > 0) total += 1.0 / size;
  }
  result.estimate = total * n / options.num_samples;
  return result;
}

namespace {

// Exact F_T: the number of connected components of size at most `cutoff`,
// by one untruncated BFS sweep — O(n + m), no sampling error.
double ExactTruncatedComponentCount(const Graph& g, int cutoff,
                                    std::int64_t* work) {
  const int n = g.NumVertices();
  std::vector<bool> visited(n, false);
  std::vector<int> queue;
  double count = 0.0;
  for (int root = 0; root < n; ++root) {
    if (visited[root]) continue;
    queue.clear();
    queue.push_back(root);
    visited[root] = true;
    std::size_t head = 0;
    while (head < queue.size()) {
      const int u = queue[head++];
      ++*work;
      for (int w : g.Neighbors(u)) {
        if (visited[w]) continue;
        visited[w] = true;
        queue.push_back(w);
      }
    }
    if (static_cast<int>(queue.size()) <= cutoff) count += 1.0;
  }
  return count;
}

// Draws `count` distinct vertices of [0, n) uniformly, into a per-thread
// buffer valid until the thread's next call. Only called with count < n/2,
// so rejection sampling terminates quickly (expected < 2 draws per
// sample). The `chosen` bitmap is kept all-false between calls by clearing
// only the sampled entries, like TruncatedComponentSize's.
const std::vector<int>& SampleDistinctVertices(int n, int count, Rng& rng) {
  static thread_local std::vector<bool> chosen;
  static thread_local std::vector<int> samples;
  if (static_cast<int>(chosen.size()) < n) chosen.resize(n, false);
  samples.clear();
  while (static_cast<int>(samples.size()) < count) {
    const int v = static_cast<int>(rng.NextUint64(n));
    if (chosen[v]) continue;
    chosen[v] = true;
    samples.push_back(v);
  }
  for (int v : samples) chosen[v] = false;
  return samples;
}

}  // namespace

Result<SublinearCcRelease> PrivateSublinearCc(
    const Graph& g, double epsilon, Rng& rng,
    const PrivateSublinearCcOptions& options) {
  if (!(epsilon > 0)) {
    return Status::InvalidArgument("PrivateSublinearCc: epsilon must be > 0");
  }
  if (options.bfs_cutoff < 1) {
    return Status::InvalidArgument(
        "PrivateSublinearCc: bfs_cutoff must be >= 1");
  }
  if (options.num_samples < 0) {
    return Status::InvalidArgument(
        "PrivateSublinearCc: num_samples must be >= 0 (0 = auto)");
  }
  SublinearCcRelease release;
  release.bfs_cutoff = options.bfs_cutoff;
  const int n = g.NumVertices();
  if (n == 0) {
    release.delta_max = 0;
    release.num_samples = 0;
    release.exact_ft = true;
    release.sensitivity = 1.0;
    release.laplace_scale = 1.0 / epsilon;
    release.estimate = LaplaceMechanism(0.0, 1.0, epsilon, rng);
    return release;
  }
  // Effective public degree promise; no promise means D = n (any degree is
  // possible), which keeps the release unconditionally private at the cost
  // of much larger noise — same semantics as the exact tier's delta_max.
  const int degree_cap =
      options.delta_max > 0 ? std::min(options.delta_max, n) : n;
  release.delta_max = degree_cap;

  // Auto sample count: s = T * (D + 2) equates the Laplace scale
  // (1 + (n/s)(D+2)) / eps with the truncation bias bound n/T (up to the
  // +1), so neither error source dominates pointlessly.
  std::int64_t samples = options.num_samples > 0
                             ? options.num_samples
                             : static_cast<std::int64_t>(options.bfs_cutoff) *
                                   (static_cast<std::int64_t>(degree_cap) + 2);
  samples = std::max<std::int64_t>(1, std::min<std::int64_t>(samples, n));

  // Past half the vertex set, sampling without replacement saves nothing:
  // compute F_T exactly (s = n in the sensitivity bound, zero sampling
  // error).
  const bool exact = samples >= (n + 1) / 2;
  if (exact) samples = n;
  release.num_samples = static_cast<int>(samples);
  release.exact_ft = exact;

  if (exact) {
    release.raw_estimate = ExactTruncatedComponentCount(
        g, options.bfs_cutoff, &release.vertices_visited);
    release.sampling_error_bound = 0.0;
  } else {
    ScopedSpan sampler_span("sampler");
    const std::vector<int>& sampled =
        SampleDistinctVertices(n, static_cast<int>(samples), rng);
    std::atomic<std::uint8_t>* memo = g.ComponentSizeMemo(options.bfs_cutoff);
    double total = 0.0;
    for (int v : sampled) {
      const int size = TruncatedComponentSize(g, v, options.bfs_cutoff, memo,
                                              &release.vertices_visited);
      if (size > 0) total += 1.0 / size;
    }
    release.raw_estimate = total * n / static_cast<double>(samples);
    release.sampling_error_bound =
        static_cast<double>(n) / std::sqrt(static_cast<double>(samples));
  }

  release.sensitivity =
      1.0 + static_cast<double>(n) / static_cast<double>(samples) *
                (static_cast<double>(degree_cap) + 2.0);
  release.laplace_scale = release.sensitivity / epsilon;
  release.truncation_bias_bound =
      static_cast<double>(n) / static_cast<double>(options.bfs_cutoff);
  release.estimate =
      LaplaceMechanism(release.raw_estimate, release.sensitivity, epsilon, rng);
  return release;
}

}  // namespace nodedp
