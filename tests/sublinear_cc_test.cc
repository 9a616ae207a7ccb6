// Tests for the sublinear (non-private) component-count estimator.

#include "core/sublinear_cc.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "eval/stats.h"
#include "graph/connectivity.h"
#include "graph/generators.h"
#include "obs/trace.h"
#include "util/random.h"

namespace nodedp {
namespace {

TEST(SublinearCcTest, ExactOnSmallComponentsWithFullSampling) {
  // With cutoff above every component size the estimator is unbiased; with
  // many samples it concentrates near the truth.
  Rng rng(1600);
  const Graph g = gen::CliqueUnion({3, 3, 3, 2, 1});
  const double truth = CountConnectedComponents(g);
  SublinearCcOptions options;
  options.num_samples = 20000;
  options.bfs_cutoff = 10;
  const auto estimate = SublinearConnectedComponents(g, rng, options);
  EXPECT_NEAR(estimate.estimate, truth, truth * 0.1);
}

TEST(SublinearCcTest, EmptyAndEdgelessGraphs) {
  Rng rng(1601);
  EXPECT_EQ(SublinearConnectedComponents(Graph(), rng).estimate, 0.0);
  // Edgeless: every component has size 1 -> exact regardless of sampling.
  const auto estimate = SublinearConnectedComponents(gen::Empty(50), rng);
  EXPECT_NEAR(estimate.estimate, 50.0, 1e-9);
}

TEST(SublinearCcTest, TruncationBiasIsDownwardAndBounded) {
  // One giant component + many singletons: truncation drops the giant's
  // contribution (bias at most ~n/cutoff), never overestimates on average.
  Rng rng(1602);
  const Graph g = gen::DisjointUnion({gen::Path(200), gen::Empty(100)});
  const double truth = CountConnectedComponents(g);  // 101
  SublinearCcOptions options;
  options.num_samples = 5000;
  options.bfs_cutoff = 16;
  const auto estimate = SublinearConnectedComponents(g, rng, options);
  EXPECT_LE(estimate.estimate, truth + 8.0);
  EXPECT_GE(estimate.estimate, truth - 300.0 / options.bfs_cutoff - 8.0);
}

TEST(SublinearCcTest, ErrorShrinksWithSamples) {
  Rng rng(1603);
  const Graph g = gen::RandomEntityGraph(150, 4, rng);
  const double truth = CountConnectedComponents(g);
  auto mean_abs = [&](int samples) {
    SublinearCcOptions options;
    options.num_samples = samples;
    options.bfs_cutoff = 8;
    std::vector<double> errors;
    for (int t = 0; t < 40; ++t) {
      errors.push_back(
          SublinearConnectedComponents(g, rng, options).estimate - truth);
    }
    return SummarizeErrors(errors).mean_abs;
  };
  EXPECT_LT(mean_abs(2048), mean_abs(32));
}

TEST(SublinearCcTest, ReportsWorkDone) {
  Rng rng(1604);
  const Graph g = gen::Path(100);
  SublinearCcOptions options;
  options.num_samples = 10;
  options.bfs_cutoff = 5;
  const auto estimate = SublinearConnectedComponents(g, rng, options);
  EXPECT_GT(estimate.vertices_visited, 0);
  // Truncation caps per-sample BFS work near the cutoff.
  EXPECT_LE(estimate.vertices_visited, options.num_samples *
                                           (options.bfs_cutoff + 1));
}

TEST(SublinearCcDeathTest, InvalidOptions) {
  Rng rng(1);
  SublinearCcOptions bad;
  bad.num_samples = 0;
  EXPECT_DEATH(SublinearConnectedComponents(gen::Path(3), rng, bad),
               "CHECK failed");
}

// --- the private approx tier (PrivateSublinearCc) --------------------------

TEST(PrivateSublinearCcTest, RejectsBadArguments) {
  Rng rng(1700);
  const Graph g = gen::Path(10);
  EXPECT_FALSE(PrivateSublinearCc(g, 0.0, rng).ok());
  EXPECT_FALSE(PrivateSublinearCc(g, -1.0, rng).ok());
  PrivateSublinearCcOptions bad;
  bad.bfs_cutoff = 0;
  EXPECT_FALSE(PrivateSublinearCc(g, 1.0, rng, bad).ok());
  bad = {};
  bad.num_samples = -1;
  EXPECT_FALSE(PrivateSublinearCc(g, 1.0, rng, bad).ok());
}

TEST(PrivateSublinearCcTest, EmptyGraph) {
  Rng rng(1701);
  const auto release = PrivateSublinearCc(Graph(), 1.0, rng);
  ASSERT_TRUE(release.ok()) << release.status().ToString();
  EXPECT_EQ(release->raw_estimate, 0.0);
}

TEST(PrivateSublinearCcTest, ExactPassWhenSampleBudgetCoversGraph) {
  // Small n and a public degree cap: the auto sample budget s = T(Δ*+2)
  // exceeds n/2, so the implementation takes the exact F_T pass — zero
  // sampling error and a deterministic raw estimate equal to the number of
  // components of size <= T (here: all of them).
  Rng rng(1702);
  const Graph g = gen::CliqueUnion({3, 3, 3, 2, 1});
  const double truth = CountConnectedComponents(g);
  PrivateSublinearCcOptions options;
  options.delta_max = 4;
  options.bfs_cutoff = 16;
  const auto release = PrivateSublinearCc(g, 1.0, rng, options);
  ASSERT_TRUE(release.ok()) << release.status().ToString();
  EXPECT_TRUE(release->exact_ft);
  EXPECT_DOUBLE_EQ(release->raw_estimate, truth);
  EXPECT_EQ(release->sampling_error_bound, 0.0);
  // Exact pass: s = n in the sensitivity formula 1 + (n/s)(Δ* + 2).
  EXPECT_DOUBLE_EQ(release->sensitivity, 1.0 + (4.0 + 2.0));
  EXPECT_DOUBLE_EQ(release->laplace_scale, release->sensitivity / 1.0);
}

TEST(PrivateSublinearCcTest, SensitivityFormulaUnderSampling) {
  // Large n, tight cutoff and degree cap: the sampling path. The Laplace
  // scale must be exactly (1 + (n/s)(Δ* + 2)) / ε — the without-replacement
  // sensitivity bound the docs derive.
  Rng rng(1703);
  const Graph g = gen::Path(2000);
  PrivateSublinearCcOptions options;
  options.delta_max = 2;
  options.bfs_cutoff = 4;
  const double eps = 0.5;
  const auto release = PrivateSublinearCc(g, eps, rng, options);
  ASSERT_TRUE(release.ok()) << release.status().ToString();
  EXPECT_FALSE(release->exact_ft);
  const double n = 2000.0;
  const double s = release->num_samples;
  EXPECT_GT(s, 0.0);
  EXPECT_LT(s, (n + 1) / 2);
  EXPECT_DOUBLE_EQ(release->sensitivity, 1.0 + (n / s) * (2.0 + 2.0));
  EXPECT_DOUBLE_EQ(release->laplace_scale, release->sensitivity / eps);
  EXPECT_DOUBLE_EQ(release->truncation_bias_bound, n / 4.0);
}

TEST(PrivateSublinearCcTest, EmpiricalErrorWithinCalibratedScale) {
  // Empirical audit of the calibration: on the exact path the error is pure
  // Laplace noise at the reported scale, so the median absolute error over
  // many trials concentrates near scale * ln 2.
  Rng rng(1704);
  const Graph g = gen::CliqueUnion({4, 4, 4, 4, 3, 3, 2, 1});
  const double truth = CountConnectedComponents(g);
  PrivateSublinearCcOptions options;
  options.delta_max = 4;
  options.bfs_cutoff = 8;
  std::vector<double> errors;
  double scale = 0.0;
  for (int t = 0; t < 200; ++t) {
    const auto release = PrivateSublinearCc(g, 1.0, rng, options);
    ASSERT_TRUE(release.ok());
    ASSERT_TRUE(release->exact_ft);
    scale = release->laplace_scale;
    errors.push_back(release->estimate - truth);
  }
  const double median_abs = SummarizeErrors(errors).median_abs;
  EXPECT_GT(median_abs, 0.0);
  EXPECT_LT(median_abs, 4.0 * scale);
}

TEST(PrivateSublinearCcTest, RawEstimateRespectsTruncationBiasBound) {
  // Giant component beyond the cutoff: F_T undercounts by at most n/T.
  Rng rng(1705);
  const Graph g = gen::DisjointUnion({gen::Path(300), gen::Empty(50)});
  const double truth = CountConnectedComponents(g);  // 51
  PrivateSublinearCcOptions options;
  options.delta_max = 2;
  options.bfs_cutoff = 16;
  options.num_samples = 400;  // >= (n+1)/2 -> exact pass
  const auto release = PrivateSublinearCc(g, 1.0, rng, options);
  ASSERT_TRUE(release.ok());
  ASSERT_TRUE(release->exact_ft);
  EXPECT_LE(release->raw_estimate, truth);
  EXPECT_GE(release->raw_estimate,
            truth - release->truncation_bias_bound);
}

TEST(PrivateSublinearCcTest, SeededReleaseIsPinned) {
  // The sampler's seeded output, bit for bit: which vertices are drawn, the
  // order each truncated BFS visits, and the noise all feed these numbers.
  // Components sit below (cliques, singletons) and above (path, grid, star)
  // the cutoff T = 8, so truncation happens on both release paths. The
  // three calls share g's component-size memo, so the work counts are of
  // BFSs actually run: the sampled release fills the memo as it goes, the
  // exact pass does not use it, and the plain estimator mostly hits it.
  const Graph g = gen::DisjointUnion(
      {gen::Path(60), gen::Grid(4, 4), gen::CliqueUnion({3, 4, 5, 6, 2, 2}),
       gen::Star(11), gen::Empty(40)});
  ASSERT_EQ(g.NumVertices(), 150);
  PrivateSublinearCcOptions options;
  options.delta_max = 2;
  options.bfs_cutoff = 8;

  // Sampling path: s = T(D + 2) = 32 < n/2.
  Rng sampled_rng(1706);
  const auto sampled = PrivateSublinearCc(g, 1.0, sampled_rng, options);
  ASSERT_TRUE(sampled.ok());
  ASSERT_FALSE(sampled->exact_ft);
  EXPECT_EQ(sampled->num_samples, 32);
  EXPECT_EQ(sampled->raw_estimate, 35.078125000000007);
  EXPECT_EQ(sampled->vertices_visited, 82);
  EXPECT_EQ(sampled->estimate, 25.808336256707008);

  // Exact-F_T path: s >= n/2.
  options.num_samples = 100;
  Rng exact_rng(1707);
  const auto exact = PrivateSublinearCc(g, 1.0, exact_rng, options);
  ASSERT_TRUE(exact.ok());
  ASSERT_TRUE(exact->exact_ft);
  EXPECT_EQ(exact->raw_estimate, 46.0);
  EXPECT_EQ(exact->vertices_visited, 150);
  EXPECT_EQ(exact->estimate, 42.935245406449816);

  // The non-private estimator (sampling with replacement).
  SublinearCcOptions plain;
  plain.num_samples = 50;
  plain.bfs_cutoff = 8;
  Rng plain_rng(1708);
  const auto estimate = SublinearConnectedComponents(g, plain_rng, plain);
  EXPECT_EQ(estimate.estimate, 48.600000000000001);
  EXPECT_EQ(estimate.vertices_visited, 18);
}

TEST(PrivateSublinearCcTest, SamplerSpanTimesTheSamplingPathOnly) {
  // The approx read's `sampler` span (nested inside the server's
  // `mechanism`) covers the draws and lookups; the exact F_T pass has none.
  const Graph g = gen::DisjointUnion({gen::Path(100), gen::Empty(100)});
  PrivateSublinearCcOptions options;
  options.delta_max = 2;
  options.bfs_cutoff = 8;  // s = 32 < n/2
  {
    QueryTrace trace("release_cc");
    Rng rng(1);
    const auto release = PrivateSublinearCc(g, 1.0, rng, options);
    ASSERT_TRUE(release.ok());
    ASSERT_FALSE(release->exact_ft);
    EXPECT_NE(trace.Describe().find("sampler:"), std::string::npos);
  }
  options.num_samples = 150;  // >= n/2: the exact pass
  QueryTrace trace("release_cc");
  Rng rng(2);
  const auto release = PrivateSublinearCc(g, 1.0, rng, options);
  ASSERT_TRUE(release.ok());
  ASSERT_TRUE(release->exact_ft);
  EXPECT_EQ(trace.Describe().find("sampler:"), std::string::npos);
}

// --- the component-size memo (Graph::ComponentSizeMemo) --------------------

// Components on both sides of `cutoff`: singletons, small cliques, a sparse
// random part, and a path and a random tree that are longer than the
// cutoff.
Graph MixedComponentGraph(int cutoff, Rng& rng) {
  const int extra = static_cast<int>(rng.NextUint64(40));
  return gen::DisjointUnion(
      {gen::Empty(60 + extra), gen::CliqueUnion({2, 3, 5, 2, 4}),
       gen::ErdosRenyi(200, 1.2 / 200, rng), gen::Path(cutoff + 1 + extra),
       gen::RandomTreeLike(cutoff + 30, 3, 0.05, rng)});
}

// A copy of `g` whose memo is installed under a cutoff other than
// `cutoff`, so reads at `cutoff` run every BFS: the memo-free reference.
Graph WithoutMemoAt(const Graph& g, int cutoff) {
  Graph copy = g;
  Rng rng(1);
  SublinearCcOptions other;
  other.num_samples = 1;
  other.bfs_cutoff = cutoff == 1 ? 2 : 1;
  SublinearConnectedComponents(copy, rng, other);
  EXPECT_EQ(copy.ComponentSizeMemo(cutoff), nullptr);
  return copy;
}

// Every filled byte of g's memo at `cutoff` is the truncated size of its
// vertex's component.
void ExpectMemoMatchesComponents(const Graph& g, int cutoff) {
  const std::atomic<std::uint8_t>* memo = g.ComponentSizeMemo(cutoff);
  if (memo == nullptr) return;
  const std::vector<int> labels = ComponentLabels(g);
  std::vector<int> sizes(g.NumVertices(), 0);
  for (int label : labels) ++sizes[label];
  int filled = 0;
  for (int v = 0; v < g.NumVertices(); ++v) {
    const int code = memo[v].load();
    if (code == 0) continue;
    ++filled;
    const int size = sizes[labels[v]];
    ASSERT_EQ(code, size > cutoff ? Graph::kOverCutoff : size) << "v=" << v;
  }
  EXPECT_GT(filled, 0);
}

void ExpectSameRelease(const SublinearCcRelease& a,
                       const SublinearCcRelease& b) {
  EXPECT_EQ(a.raw_estimate, b.raw_estimate);
  EXPECT_EQ(a.estimate, b.estimate);
  EXPECT_EQ(a.num_samples, b.num_samples);
  EXPECT_EQ(a.sensitivity, b.sensitivity);
}

TEST(ComponentSizeMemoTest, ReleasesMatchAMemoFreeReference) {
  for (int cutoff : {1, 8, 64, 254, 300}) {
    for (int seed = 0; seed < 10; ++seed) {
      SCOPED_TRACE("T=" + std::to_string(cutoff) +
                   " seed=" + std::to_string(seed));
      Rng graph_rng(2100 + seed);
      const Graph g = MixedComponentGraph(cutoff, graph_rng);
      const Graph reference = WithoutMemoAt(g, cutoff);
      PrivateSublinearCcOptions options;
      options.bfs_cutoff = cutoff;
      options.delta_max = 3;
      options.num_samples = 48;  // < n/2: the sampling path
      SublinearCcOptions plain;
      plain.bfs_cutoff = cutoff;
      plain.num_samples = 48;
      // Repeated reads on one object (the memo fills, then mostly hits)
      // and reads on fresh copies (each starts empty) against the
      // memo-free reference, on identically seeded streams.
      for (int read = 0; read < 3; ++read) {
        const std::uint64_t stream = 7000 + 10 * seed + read;
        Rng ref_rng(stream), same_rng(stream), copy_rng(stream);
        const auto expected = PrivateSublinearCc(reference, 0.5, ref_rng,
                                                 options);
        const auto same = PrivateSublinearCc(g, 0.5, same_rng, options);
        const Graph fresh = g;
        const auto copied = PrivateSublinearCc(fresh, 0.5, copy_rng, options);
        ASSERT_TRUE(expected.ok() && same.ok() && copied.ok());
        ASSERT_FALSE(expected->exact_ft);
        ExpectSameRelease(*same, *expected);
        ExpectSameRelease(*copied, *expected);
        EXPECT_LE(same->vertices_visited, expected->vertices_visited);

        Rng plain_ref(stream), plain_same(stream);
        const auto plain_expected =
            SublinearConnectedComponents(reference, plain_ref, plain);
        const auto plain_got = SublinearConnectedComponents(g, plain_same,
                                                            plain);
        EXPECT_EQ(plain_got.estimate, plain_expected.estimate);
      }
      ExpectMemoMatchesComponents(g, cutoff);
      // A second cutoff on the filled memo skips it and still agrees.
      const int second = cutoff == 8 ? 16 : 8;
      options.bfs_cutoff = second;
      Rng second_ref(99), second_same(99);
      const auto expected =
          PrivateSublinearCc(WithoutMemoAt(g, second), 0.5, second_ref,
                             options);
      const auto got = PrivateSublinearCc(g, 0.5, second_same, options);
      ASSERT_TRUE(expected.ok() && got.ok());
      ExpectSameRelease(*got, *expected);
      if (cutoff < Graph::kOverCutoff) {
        EXPECT_EQ(g.ComponentSizeMemo(second), nullptr);
        EXPECT_EQ(got->vertices_visited, expected->vertices_visited);
      }
    }
  }
}

TEST(ComponentSizeMemoTest, UpdatedGraphStartsWithAnEmptyMemo) {
  // Fill the parent's memo, then merge components with ApplyEdgeDelta:
  // the child must answer from its own edges, never the parent's sizes.
  for (int seed = 0; seed < 8; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng graph_rng(2200 + seed);
    const int cutoff = 8;
    const Graph parent = MixedComponentGraph(cutoff, graph_rng);
    PrivateSublinearCcOptions options;
    options.bfs_cutoff = cutoff;
    options.num_samples = parent.NumVertices() / 3;
    Rng fill_rng(1);
    ASSERT_TRUE(PrivateSublinearCc(parent, 0.5, fill_rng, options).ok());
    // Join singletons 0..9 into a path, and singleton 10 to the long
    // path's last vertex (the tree after it has cutoff + 30 vertices):
    // sizes move from below T to above it.
    std::vector<std::pair<int, int>> inserts;
    for (int v = 0; v + 1 < 10; ++v) inserts.emplace_back(v, v + 1);
    const int path_end = parent.NumVertices() - (cutoff + 30) - 1;
    ASSERT_EQ(parent.Degree(path_end), 1);
    inserts.emplace_back(10, path_end);
    auto delta = parent.ApplyEdgeDelta(inserts);
    ASSERT_TRUE(delta.ok());
    const Graph& child = delta->graph;
    EXPECT_EQ(child.MemoryBytes(), Graph(child).MemoryBytes());
    const Graph reference = WithoutMemoAt(child, cutoff);
    for (int read = 0; read < 3; ++read) {
      Rng ref_rng(300 + read), got_rng(300 + read);
      const auto expected = PrivateSublinearCc(reference, 0.5, ref_rng,
                                               options);
      const auto got = PrivateSublinearCc(child, 0.5, got_rng, options);
      ASSERT_TRUE(expected.ok() && got.ok());
      ExpectSameRelease(*got, *expected);
    }
    ExpectMemoMatchesComponents(child, cutoff);
    ExpectMemoMatchesComponents(parent, cutoff);
  }
}

TEST(ComponentSizeMemoTest, AllocatedOnFirstReadAndNeverCopied) {
  const Graph g = gen::DisjointUnion({gen::Path(500), gen::Empty(500)});
  const std::size_t arrays = g.MemoryBytes();
  ASSERT_NE(g.ComponentSizeMemo(64), nullptr);
  EXPECT_EQ(g.MemoryBytes(), arrays + 1000);
  EXPECT_EQ(g.ComponentSizeMemo(64), g.ComponentSizeMemo(64));
  EXPECT_EQ(g.ComponentSizeMemo(63), nullptr);  // installed under T = 64
  Graph copy = g;
  EXPECT_EQ(copy.MemoryBytes(), arrays);
  EXPECT_NE(copy.ComponentSizeMemo(63), nullptr);
  const Graph moved = std::move(copy);
  EXPECT_EQ(moved.MemoryBytes(), arrays);
  Graph assigned = gen::Path(3);
  ASSERT_NE(assigned.ComponentSizeMemo(8), nullptr);
  assigned = g;  // a memo of the old edges must not survive
  EXPECT_EQ(assigned.MemoryBytes(), arrays);
  EXPECT_NE(assigned.ComponentSizeMemo(8), nullptr);
  // Cutoffs the byte codes cannot hold, and the empty graph, get no memo.
  const Graph other = gen::Path(10);
  EXPECT_EQ(other.ComponentSizeMemo(Graph::kOverCutoff), nullptr);
  EXPECT_EQ(other.ComponentSizeMemo(0), nullptr);
  EXPECT_EQ(Graph().ComponentSizeMemo(8), nullptr);
  EXPECT_NE(other.ComponentSizeMemo(Graph::kOverCutoff - 1), nullptr);
}

}  // namespace
}  // namespace nodedp
