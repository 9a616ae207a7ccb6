// Tests for the parallel execution substrate — and for its central promise:
// algorithm results are bit-identical at 1 thread and at N threads.

#include "util/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/extension_family.h"
#include "core/private_cc.h"
#include "dp/gem.h"
#include "graph/generators.h"
#include "util/random.h"

namespace nodedp {
namespace {

TEST(ThreadPoolTest, StartShutdownRepeatedly) {
  // Pools must come up and go down cleanly, including degenerate widths.
  for (int width : {1, 2, 4, 7}) {
    ThreadPool pool(width);
    EXPECT_EQ(pool.num_threads(), width >= 1 ? width : 1);
    std::atomic<int> touched{0};
    pool.For(100, [&](std::int64_t) { ++touched; });
    EXPECT_EQ(touched.load(), 100);
  }
  // Destruction with no work ever submitted.
  { ThreadPool idle(4); }
  // Width is clamped to >= 1.
  ThreadPool clamped(0);
  EXPECT_EQ(clamped.num_threads(), 1);
}

TEST(ThreadPoolTest, EveryIndexRunsExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> counts(1000);
  pool.For(1000, [&](std::int64_t i) { ++counts[i]; });
  for (const auto& count : counts) EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPoolTest, ExceptionPropagatesLowestIndex) {
  ThreadPool pool(4);
  for (int trial = 0; trial < 20; ++trial) {
    try {
      pool.For(64, [](std::int64_t i) {
        if (i == 7 || i == 50) {
          throw std::runtime_error("boom " + std::to_string(i));
        }
      });
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
      // Deterministic choice among concurrent failures: the lowest index.
      EXPECT_STREQ(e.what(), "boom 7");
    }
  }
}

TEST(ThreadPoolTest, ExceptionPropagatesFromInlinePath) {
  ThreadPool pool(1);
  EXPECT_THROW(pool.For(8, [](std::int64_t i) {
    if (i == 3) throw std::logic_error("inline");
  }),
               std::logic_error);
}

TEST(ThreadPoolTest, NestedParallelForRunsInline) {
  ThreadPool pool(4);
  ScopedThreadPool scope(&pool);
  std::atomic<int> total{0};
  // Each outer item issues its own ParallelFor; nested loops must complete
  // (inline on the worker) without deadlocking the pool.
  ParallelFor(8, [&](std::int64_t) {
    ParallelFor(8, [&](std::int64_t) { ++total; });
  });
  EXPECT_EQ(total.load(), 64);
}

// Saves NODEDP_THREADS on construction and restores it (rather than
// unsetting) on destruction, so env tests cannot leak state into tests that
// run after them — e.g. CI's NODEDP_THREADS=1 ctest re-run.
class ScopedThreadsEnv {
 public:
  ScopedThreadsEnv() {
    const char* current = std::getenv("NODEDP_THREADS");
    had_value_ = current != nullptr;
    if (had_value_) saved_ = current;
  }
  ~ScopedThreadsEnv() {
    if (had_value_) {
      setenv("NODEDP_THREADS", saved_.c_str(), 1);
    } else {
      unsetenv("NODEDP_THREADS");
    }
  }

 private:
  bool had_value_ = false;
  std::string saved_;
};

TEST(ThreadPoolTest, EnvThreadsOneMeansSequentialFallback) {
  ScopedThreadsEnv restore;
  // NODEDP_THREADS=1 must yield width-1 (inline) execution.
  ASSERT_EQ(setenv("NODEDP_THREADS", "1", /*overwrite=*/1), 0);
  EXPECT_EQ(ThreadCountFromEnv(), 1);
  ThreadPool pool(ThreadCountFromEnv());
  EXPECT_EQ(pool.num_threads(), 1);
}

TEST(ThreadPoolTest, EnvParsingRejectsGarbage) {
  ScopedThreadsEnv restore;
  for (const char* bad : {"", "0", "-3", "abc", "4x"}) {
    ASSERT_EQ(setenv("NODEDP_THREADS", bad, 1), 0);
    EXPECT_GE(ThreadCountFromEnv(), 1) << "env=" << bad;
  }
  ASSERT_EQ(setenv("NODEDP_THREADS", "3", 1), 0);
  EXPECT_EQ(ThreadCountFromEnv(), 3);
}

TEST(ThreadPoolTest, EnvParsingWarnsNamingTheRejectedValue) {
  // A rejected NODEDP_THREADS must not be silent: the parsing core hands
  // back the one-line warning the env path prints (once) to stderr, and
  // the message names the exact rejected value so the typo is findable.
  std::string warning;
  for (const char* bad : {"", "0", "-3", "abc", "4x", "9999999"}) {
    const int count = ThreadCountFromEnv(bad, &warning);
    EXPECT_GE(count, 1) << "value=" << bad;
    ASSERT_FALSE(warning.empty()) << "value=" << bad;
    EXPECT_NE(warning.find("NODEDP_THREADS"), std::string::npos);
    EXPECT_NE(warning.find(std::string("\"") + bad + "\""),
              std::string::npos)
        << "warning must name the rejected value: " << warning;
  }
  // Valid values and an unset variable stay warning-free.
  EXPECT_EQ(ThreadCountFromEnv("3", &warning), 3);
  EXPECT_TRUE(warning.empty());
  EXPECT_GE(ThreadCountFromEnv(nullptr, &warning), 1);
  EXPECT_TRUE(warning.empty());
}

TEST(ThreadPoolTest, ScopedOverrideAndRestore) {
  ThreadPool pool(3);
  const int default_width = ParallelThreadCount();
  {
    ScopedThreadPool scope(&pool);
    EXPECT_EQ(ParallelThreadCount(), 3);
  }
  EXPECT_EQ(ParallelThreadCount(), default_width);
}

// ---------------------------------------------------------------------------
// The determinism contract on the real algorithms.
// ---------------------------------------------------------------------------

TEST(ParallelDeterminismTest, ExtensionFamilyGridBitIdentical) {
  Rng wrng(77);
  const Graph g = gen::ErdosRenyi(40, 3.0 / 40, wrng);
  const std::vector<int> grid = PowersOfTwoGrid(40);
  const std::vector<double> deltas(grid.begin(), grid.end());

  auto sweep = [&](int width) {
    ThreadPool pool(width);
    ScopedThreadPool scope(&pool);
    ExtensionFamily family(g);
    Result<std::vector<double>> values = family.Values(deltas);
    EXPECT_TRUE(values.ok());
    return *values;
  };
  const std::vector<double> at_one = sweep(1);
  const std::vector<double> at_four = sweep(4);
  ASSERT_EQ(at_one.size(), at_four.size());
  for (std::size_t i = 0; i < at_one.size(); ++i) {
    // Bitwise equality, not tolerance: the schedule must not leak in.
    EXPECT_EQ(at_one[i], at_four[i]) << "delta=" << deltas[i];
  }
}

TEST(ParallelDeterminismTest, ValuesMatchesSequentialValueQueries) {
  Rng wrng(78);
  const Graph g = gen::ErdosRenyi(30, 0.15, wrng);
  const std::vector<double> deltas = {1.0, 2.0, 4.0, 8.0, 16.0};
  ThreadPool pool(4);
  ScopedThreadPool scope(&pool);
  ExtensionFamily batched(g);
  ExtensionFamily sequential(g);
  Result<std::vector<double>> values = batched.Values(deltas);
  ASSERT_TRUE(values.ok());
  for (std::size_t i = 0; i < deltas.size(); ++i) {
    EXPECT_NEAR((*values)[i], sequential.Value(deltas[i]).value(), 1e-6);
  }
  // And the batch must land in the caches: re-querying pays nothing.
  const auto before = batched.stats();
  for (double delta : deltas) ASSERT_TRUE(batched.Value(delta).ok());
  EXPECT_EQ(batched.stats().lp_evaluations, before.lp_evaluations);
}

TEST(ParallelDeterminismTest, PrivateSpanningForestSizeBitIdentical) {
  Rng wrng(79);
  const Graph g = gen::ErdosRenyi(36, 2.5 / 36, wrng);
  auto release = [&](int width) {
    ThreadPool pool(width);
    ScopedThreadPool scope(&pool);
    Rng rng(123);
    Result<SpanningForestRelease> result =
        PrivateSpanningForestSize(g, 1.0, rng);
    EXPECT_TRUE(result.ok());
    return *result;
  };
  const SpanningForestRelease at_one = release(1);
  const SpanningForestRelease at_four = release(4);
  EXPECT_EQ(at_one.estimate, at_four.estimate);
  EXPECT_EQ(at_one.selected_delta, at_four.selected_delta);
  EXPECT_EQ(at_one.extension_value, at_four.extension_value);
  EXPECT_EQ(at_one.laplace_scale, at_four.laplace_scale);
}

}  // namespace
}  // namespace nodedp
