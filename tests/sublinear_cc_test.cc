// Tests for the sublinear (non-private) component-count estimator.

#include "core/sublinear_cc.h"

#include <gtest/gtest.h>

#include <vector>

#include "eval/stats.h"
#include "graph/connectivity.h"
#include "graph/generators.h"
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
  // the cutoff T = 8, so truncation happens on both release paths.
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
  EXPECT_EQ(sampled->vertices_visited, 151);
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
  EXPECT_EQ(estimate.vertices_visited, 219);
}

}  // namespace
}  // namespace nodedp
