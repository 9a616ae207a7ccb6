// Tests for the serve/ subsystem: budget ledger refusal semantics, the
// per-graph warmed families, and the ReleaseServer registry + query
// surface.

#include "serve/release_server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "graph/generators.h"
#include "graph/graph_io.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/budget_ledger.h"
#include "serve/ledger_wal.h"
#include "serve/protocol.h"
#include "util/parallel.h"
#include "util/random.h"

namespace nodedp {
namespace {

Graph TestGraph(int n = 200, double avg_deg = 1.5, uint64_t seed = 31) {
  Rng rng(seed);
  return gen::ErdosRenyi(n, avg_deg / n, rng);
}

ServeGraphConfig SmallConfig(double total_epsilon) {
  ServeGraphConfig config;
  config.total_epsilon = total_epsilon;
  config.release.delta_max = 8;  // keeps the warm grid small in Debug
  return config;
}

// ---------------------------------------------------------------------------
// BudgetLedger
// ---------------------------------------------------------------------------

TEST(BudgetLedgerTest, ChargesAccumulate) {
  BudgetLedger ledger(2.0);
  EXPECT_TRUE(ledger.TryCharge(0.5, "a").ok());
  EXPECT_TRUE(ledger.TryCharge(1.0, "b").ok());
  EXPECT_EQ(ledger.spent(), 0.5 + 1.0);
  EXPECT_DOUBLE_EQ(ledger.remaining(), 0.5);
  EXPECT_EQ(ledger.num_charges(), 2);
}

TEST(BudgetLedgerTest, RestoreAdoptsTheStoredSumOrRefusesCorruptState) {
  BudgetLedger ledger(1.0);
  // The stored double itself, not a re-summation.
  const double spent = 0.1 + 0.1 + 0.1;
  ASSERT_TRUE(ledger.Restore(spent, 3, 5000000000LL).ok());
  EXPECT_EQ(ledger.spent(), spent);
  EXPECT_EQ(ledger.num_charges(), 3);
  EXPECT_EQ(ledger.num_refusals(), 5000000000LL);
  EXPECT_TRUE(ledger.TryCharge(0.5, "after").ok());
  EXPECT_EQ(ledger.spent(), spent + 0.5);
  EXPECT_EQ(ledger.num_charges(), 4);

  for (const double bad : {double{NAN}, double{INFINITY}, -0.25, 1.5}) {
    BudgetLedger fresh(1.0);
    const Status refused = fresh.Restore(bad, 1, 0);
    EXPECT_EQ(refused.code(), StatusCode::kInternal) << bad;
    EXPECT_EQ(fresh.spent(), 0.0) << bad;
    EXPECT_EQ(fresh.num_charges(), 0) << bad;
  }
  BudgetLedger negative(1.0);
  EXPECT_EQ(negative.Restore(0.5, 1, -1).code(), StatusCode::kInternal);
  EXPECT_EQ(negative.spent(), 0.0);
}

TEST(BudgetLedgerTest, RefusesOverspendAndLeavesLedgerUntouched) {
  BudgetLedger ledger(1.0);
  EXPECT_TRUE(ledger.TryCharge(0.6, "first").ok());
  const Status refused = ledger.TryCharge(0.6, "second");
  EXPECT_EQ(refused.code(), StatusCode::kResourceExhausted);
  // The refused charge must not change any accounting.
  EXPECT_DOUBLE_EQ(ledger.spent(), 0.6);
  EXPECT_EQ(ledger.num_charges(), 1);
  EXPECT_EQ(ledger.num_refusals(), 1);
  // A fitting charge is still admitted afterwards.
  EXPECT_TRUE(ledger.TryCharge(0.4, "third").ok());
  EXPECT_DOUBLE_EQ(ledger.spent(), 1.0);
  // And now the budget is exactly exhausted.
  EXPECT_EQ(ledger.TryCharge(1e-6, "fourth").code(),
            StatusCode::kResourceExhausted);
}

TEST(BudgetLedgerTest, ExactTotalIsAdmitted) {
  BudgetLedger ledger(1.0);
  EXPECT_TRUE(ledger.TryCharge(1.0, "all").ok());
  EXPECT_DOUBLE_EQ(ledger.remaining(), 0.0);
}

TEST(BudgetLedgerTest, NonPositiveChargeIsInvalid) {
  BudgetLedger ledger(1.0);
  EXPECT_EQ(ledger.TryCharge(0.0, "zero").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ledger.TryCharge(-1.0, "negative").code(),
            StatusCode::kInvalidArgument);
  // Non-finite charges are invalid too, not budget refusals.
  EXPECT_EQ(ledger.TryCharge(INFINITY, "inf").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ledger.TryCharge(NAN, "nan").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ledger.num_charges(), 0);
  EXPECT_EQ(ledger.num_refusals(), 0);
}

// ---------------------------------------------------------------------------
// ReleaseServer: registry
// ---------------------------------------------------------------------------

TEST(ReleaseServerTest, LoadQueryEvictLifecycle) {
  ReleaseServer server(11);
  ASSERT_TRUE(server.Load("g", TestGraph(), SmallConfig(5.0)).ok());
  EXPECT_EQ(server.GraphNames(), std::vector<std::string>{"g"});

  const auto release = server.ReleaseCc("g", 0.5);
  ASSERT_TRUE(release.ok()) << release.status().ToString();
  EXPECT_TRUE(std::isfinite(release->estimate));

  ASSERT_TRUE(server.Evict("g").ok());
  EXPECT_TRUE(server.GraphNames().empty());
  EXPECT_EQ(server.ReleaseCc("g", 0.5).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(server.Evict("g").code(), StatusCode::kNotFound);
}

TEST(ReleaseServerTest, DuplicateAndInvalidLoadsRejected) {
  ReleaseServer server(11);
  ASSERT_TRUE(server.Load("g", TestGraph(), SmallConfig(5.0)).ok());
  EXPECT_EQ(server.Load("g", TestGraph(), SmallConfig(5.0)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(server.Load("", TestGraph(), SmallConfig(5.0)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(server.Load("h", TestGraph(), SmallConfig(0.0)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(server.Load("h", TestGraph(), SmallConfig(INFINITY)).code(),
            StatusCode::kInvalidArgument);
  // A name freed by eviction is reusable.
  ASSERT_TRUE(server.Evict("g").ok());
  EXPECT_TRUE(server.Load("g", TestGraph(80), SmallConfig(5.0)).ok());
}

TEST(ReleaseServerTest, NonFiniteBudgetAndEpsilonLinesAreRefused) {
  // An infinite budget would admit an infinite ε (inf + inf <= inf), whose
  // split ε − ε/2 is NaN and CHECK-fails inside the mechanism. Both lines
  // must be refused, and the server keeps serving.
  ReleaseServer server(11);
  auto reply = [&server](const char* line) {
    return HandleRequestLine(server, line).response;
  };
  EXPECT_EQ(reply("gen gi gnp 50 1.5 3 inf 8").substr(0, 3), "err");
  EXPECT_EQ(reply("release_cc gi inf").substr(0, 3), "err");
  ASSERT_EQ(reply("gen g gnp 50 1.5 3 2 8").substr(0, 2), "ok");
  EXPECT_EQ(reply("release_cc g inf").substr(0, 3), "err");
  // The smallest subnormal halves to 0 in the mechanism's budget split.
  EXPECT_EQ(reply("release_cc g 5e-324").substr(0, 3), "err");
  EXPECT_EQ(reply("release_cc g 0.5").substr(0, 2), "ok");
}

TEST(ReleaseServerTest, PrewarmBuildsFamilyAtLoad) {
  ReleaseServer server(11);
  ASSERT_TRUE(server.Load("g", TestGraph(), SmallConfig(5.0)).ok());
  const auto stats = server.Stats("g");
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->family_warmed);
  EXPECT_GT(stats->num_vertices, 0);
  EXPECT_GT(stats->graph_memory_bytes, 0u);

  ServeGraphConfig lazy = SmallConfig(5.0);
  lazy.prewarm = false;
  ASSERT_TRUE(server.Load("h", TestGraph(), lazy).ok());
  EXPECT_FALSE(server.Stats("h")->family_warmed);
  ASSERT_TRUE(server.ReleaseCc("h", 0.5).ok());
  EXPECT_TRUE(server.Stats("h")->family_warmed);
}

// ---------------------------------------------------------------------------
// ReleaseServer: budget enforcement (the acceptance-criterion test)
// ---------------------------------------------------------------------------

TEST(ReleaseServerTest, LedgerRefusesQueryExceedingTotal) {
  ReleaseServer server(11);
  ASSERT_TRUE(server.Load("g", TestGraph(), SmallConfig(1.0)).ok());

  ASSERT_TRUE(server.ReleaseCc("g", 0.6).ok());
  // 0.6 spent of 1.0: a 0.6 query must be refused, not served.
  const auto refused = server.ReleaseCc("g", 0.6);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted);

  // The refusal did not burn budget: 0.4 still fits.
  auto budget = server.Budget("g");
  ASSERT_TRUE(budget.ok());
  EXPECT_DOUBLE_EQ(budget->spent, 0.6);
  EXPECT_EQ(budget->num_refusals, 1);
  ASSERT_TRUE(server.ReleaseCc("g", 0.4).ok());

  // Budget is now exactly exhausted: everything is refused.
  EXPECT_EQ(server.ReleaseCc("g", 0.01).status().code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(server.ReleaseSf("g", 0.01).status().code(),
            StatusCode::kResourceExhausted);
  budget = server.Budget("g");
  EXPECT_DOUBLE_EQ(budget->spent, 1.0);
  EXPECT_EQ(budget->num_charges, 2);
}

TEST(ReleaseServerTest, SweepAdmissionIsAllOrNothing) {
  ReleaseServer server(11);
  ASSERT_TRUE(server.Load("g", TestGraph(), SmallConfig(1.0)).ok());

  // Sum 1.2 > 1.0: the whole sweep is refused and nothing is charged.
  const auto refused = server.SweepCc("g", {0.4, 0.4, 0.4});
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted);
  EXPECT_DOUBLE_EQ(server.Budget("g")->spent, 0.0);

  // Sum 0.9 fits: 3 releases come back, 0.9 is charged as one entry.
  const auto sweep = server.SweepCc("g", {0.3, 0.3, 0.3});
  ASSERT_TRUE(sweep.ok()) << sweep.status().ToString();
  EXPECT_EQ(sweep->size(), 3u);
  const auto budget = server.Budget("g");
  EXPECT_DOUBLE_EQ(budget->spent, 0.9);
  EXPECT_EQ(budget->num_charges, 1);

  EXPECT_EQ(server.SweepCc("g", {}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(server.SweepCc("g", {0.05, -1.0}).status().code(),
            StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// ReleaseServer: warmed-family amortization and determinism
// ---------------------------------------------------------------------------

TEST(ReleaseServerTest, WarmQueriesDoNoNewLpWork) {
  ReleaseServer server(11);
  ASSERT_TRUE(server.Load("g", TestGraph(), SmallConfig(100.0)).ok());
  const auto warmed = server.Stats("g");
  ASSERT_TRUE(warmed.ok());
  const int lp_after_warm = warmed->family.lp_evaluations;
  const int fast_after_warm = warmed->family.fast_certificates;

  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(server.ReleaseCc("g", 0.5).ok());
  }
  const auto after = server.Stats("g");
  // Every post-warm query hits the value cache: no LP evaluations, no new
  // certificates — only noise sampling.
  EXPECT_EQ(after->family.lp_evaluations, lp_after_warm);
  EXPECT_EQ(after->family.fast_certificates, fast_after_warm);
  EXPECT_GT(after->family.cache_hits, 0);
  EXPECT_EQ(after->queries_answered, 5);
}

TEST(ReleaseServerTest, SameSeedSameCommandsSameReleases) {
  auto run = [](std::uint64_t seed) {
    ReleaseServer server(seed);
    EXPECT_TRUE(server.Load("g", TestGraph(), SmallConfig(100.0)).ok());
    std::vector<double> estimates;
    estimates.push_back(server.ReleaseCc("g", 0.5)->estimate);
    estimates.push_back(server.ReleaseSf("g", 1.0)->estimate);
    const auto sweep = server.SweepCc("g", {0.25, 0.5, 1.0, 2.0});
    for (const auto& r : *sweep) estimates.push_back(r.estimate);
    return estimates;
  };
  const std::vector<double> a = run(77);
  const std::vector<double> b = run(77);
  const std::vector<double> c = run(78);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(ReleaseServerTest, SweepMatchesManualSweepOnSharedFamily) {
  // The server's sweep must be the library SweepConnectedComponents on the
  // warmed family with a child stream split from the server Rng — verify
  // the values line up with a hand-driven replay of the same seed.
  const Graph g = TestGraph();
  ReleaseServer server(5);
  ASSERT_TRUE(server.Load("g", g, SmallConfig(100.0)).ok());
  const std::vector<double> epsilons = {0.5, 1.0, 2.0};
  const auto via_server = server.SweepCc("g", epsilons);
  ASSERT_TRUE(via_server.ok());

  Rng parent(5);
  Rng child = parent.Split();
  ExtensionFamily family(g, {});
  PrivateCcOptions options;
  options.delta_max = 8;
  const auto manual = SweepConnectedComponents(family, epsilons, child,
                                               options);
  ASSERT_EQ(manual.size(), via_server->size());
  for (std::size_t i = 0; i < manual.size(); ++i) {
    ASSERT_TRUE(manual[i].ok());
    EXPECT_DOUBLE_EQ(manual[i]->estimate, (*via_server)[i].estimate);
  }
}

TEST(ReleaseServerTest, ConcurrentQueriesAndStatsAreSafe) {
  // Hammers one warmed graph from several threads — releases, sweeps,
  // budget reads, and stats snapshots interleaved — so TSan actually sees
  // the server's lock discipline (including ExtensionFamily::stats()
  // during in-flight queries). Budget is sized so nothing is refused.
  ReleaseServer server(13);
  ASSERT_TRUE(server.Load("g", TestGraph(), SmallConfig(1e6)).ok());
  constexpr int kThreads = 4;
  constexpr int kIterations = 8;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&server, t]() {
      for (int i = 0; i < kIterations; ++i) {
        if (t % 2 == 0) {
          EXPECT_TRUE(server.ReleaseCc("g", 0.5).ok());
        } else {
          EXPECT_TRUE(server.SweepCc("g", {0.25, 0.5}).ok());
        }
        EXPECT_TRUE(server.Stats("g").ok());
        EXPECT_TRUE(server.Budget("g").ok());
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const auto stats = server.Stats("g");
  // 2 threads x 8 single releases + 2 threads x 8 two-epsilon sweeps.
  EXPECT_EQ(stats->queries_answered, 2 * 8 + 2 * 8 * 2);
  EXPECT_EQ(stats->queries_failed, 0);
  EXPECT_EQ(stats->budget.num_refusals, 0);
}

TEST(ReleaseServerTest, QueriesDuringPrewarmAreServed) {
  // The graph is registered before the load-time warm runs, so queries
  // racing the load must be either NotFound (not yet registered) or served
  // by the warming family — never wedged behind the whole warm and never
  // wrong. Run under TSan in CI, this is the concurrent
  // load-while-querying proof at the server level.
  ReleaseServer server(21);
  const Graph g = TestGraph(2000, 1.5, 33);
  std::atomic<bool> load_finished{false};
  std::atomic<bool> load_ok{false};
  std::thread loader([&server, &g, &load_finished, &load_ok] {
    load_ok.store(server.Load("g", g, SmallConfig(1e6)).ok());
    load_finished.store(true);
  });

  // Spin until the load settles and (if it succeeded) at least one query
  // was answered; a failed load exits the loop instead of spinning forever.
  long long answered = 0;
  while (!load_finished.load() || (load_ok.load() && answered == 0)) {
    const auto release = server.ReleaseCc("g", 0.25);
    if (release.ok()) {
      ++answered;
      EXPECT_TRUE(std::isfinite(release->estimate));
    } else {
      EXPECT_EQ(release.status().code(), StatusCode::kNotFound);
      std::this_thread::yield();
    }
  }
  loader.join();
  ASSERT_TRUE(load_ok.load());

  const auto stats = server.Stats("g");
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->family_warmed);
  EXPECT_EQ(stats->queries_answered, answered);
  EXPECT_EQ(stats->queries_failed, 0);
  EXPECT_DOUBLE_EQ(stats->budget.spent, 0.25 * answered);
}

TEST(ReleaseServerTest, FailedPrewarmRollsBackRegistration) {
  // A warm that dies on LP resource exhaustion must surface the error and
  // (when no query spent budget mid-warm) leave nothing registered, so a
  // corrected reload starts clean.
  ReleaseServer server(11);
  ServeGraphConfig broken = SmallConfig(5.0);
  broken.release.extension.use_repair_fast_path = false;
  broken.release.extension.polytope.max_cut_rounds = 0;  // LP always fails
  const Status loaded = server.Load("g", TestGraph(), broken);
  EXPECT_EQ(loaded.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(server.GraphNames().empty());
  EXPECT_EQ(server.ReleaseCc("g", 0.5).status().code(),
            StatusCode::kNotFound);
  // The name is free for a working reload.
  EXPECT_TRUE(server.Load("g", TestGraph(), SmallConfig(5.0)).ok());
  EXPECT_TRUE(server.ReleaseCc("g", 0.5).ok());
}

// The process-wide count of family lookups with outcome `event` (`hit`,
// `warm_wait` or `miss`; 0 before the first such lookup registers it).
long long FamilyEvents(const std::string& event) {
  const std::string name =
      "nodedp_family_cache_events_total{event=\"" + event + "\"}";
  for (const MetricsRegistry::Sample& sample :
       MetricsRegistry::Default().Samples()) {
    if (sample.name == name) return static_cast<long long>(sample.value);
  }
  return 0;
}

TEST(ReleaseServerTest, FamilyLookupsCountHitsAndMisses) {
  // A load's prewarm builds its graph's family (a miss); every exact read
  // after it finds that family resident (a hit), and the family stays on
  // its entry until the graph is evicted.
  ReleaseServer server(11);
  const long long hits = FamilyEvents("hit");
  const long long misses = FamilyEvents("miss");
  ASSERT_TRUE(server.Load("g1", TestGraph(200, 1.5, 1),
                          SmallConfig(100.0)).ok());
  ASSERT_TRUE(server.Load("g2", TestGraph(200, 1.5, 2),
                          SmallConfig(100.0)).ok());
  EXPECT_EQ(FamilyEvents("miss"), misses + 2);
  EXPECT_EQ(FamilyEvents("hit"), hits);

  ASSERT_TRUE(server.ReleaseCc("g1", 0.5).ok());
  ASSERT_TRUE(server.ReleaseCc("g1", 0.5).ok());
  ASSERT_TRUE(server.ReleaseSf("g2", 0.5).ok());
  ASSERT_TRUE(server.SweepCc("g2", {0.25, 0.5}).ok());
  // The approx tier never looks a family up.
  ASSERT_TRUE(server.ReleaseCcApprox("g2", 0.5).ok());
  EXPECT_EQ(FamilyEvents("hit"), hits + 4);
  EXPECT_EQ(FamilyEvents("miss"), misses + 2);

  // The summary's family bytes are the resident families' own.
  const std::size_t g1_bytes = server.Stats("g1")->family_memory_bytes;
  const std::size_t g2_bytes = server.Stats("g2")->family_memory_bytes;
  EXPECT_GT(g1_bytes, 0u);
  EXPECT_GT(g2_bytes, 0u);
  EXPECT_EQ(server.GetSummary().family_bytes, g1_bytes + g2_bytes);

  // Evicting g2 ends its family with it and leaves g1's resident.
  ASSERT_TRUE(server.Evict("g2").ok());
  const ReleaseServer::Summary summary = server.GetSummary();
  EXPECT_EQ(summary.graphs, 1u);
  EXPECT_EQ(summary.family_bytes, g1_bytes);
  EXPECT_TRUE(server.Stats("g1")->family_warmed);

  // Without a prewarm the first exact read builds (a miss) and the next
  // finds what it built (a hit).
  ServeGraphConfig lazy = SmallConfig(100.0);
  lazy.prewarm = false;
  ASSERT_TRUE(server.Load("h", TestGraph(200, 1.5, 3), lazy).ok());
  EXPECT_EQ(FamilyEvents("miss"), misses + 2);
  ASSERT_TRUE(server.ReleaseCc("h", 0.5).ok());
  EXPECT_EQ(FamilyEvents("miss"), misses + 3);
  ASSERT_TRUE(server.ReleaseCc("h", 0.5).ok());
  EXPECT_EQ(FamilyEvents("hit"), hits + 5);
  EXPECT_EQ(FamilyEvents("miss"), misses + 3);
}

TEST(ReleaseServerTest, EvictedFamilyServesItsInFlightQuery) {
  // The first query builds the family; the graph is evicted while that
  // build is in flight. The query keeps its own reference and is answered
  // (ASan in CI catches a family freed from under it), and the retired
  // entry publishes nothing.
  ServeGraphConfig config = SmallConfig(1e6);
  config.prewarm = false;
  ReleaseServer server(19);
  ASSERT_TRUE(server.Load("g", TestGraph(2000, 1.5, 33), config).ok());
  const long long misses = FamilyEvents("miss");
  std::atomic<bool> done{false};
  Result<ConnectedComponentsRelease> release =
      Status::Internal("not answered");
  std::thread reader([&] {
    release = server.ReleaseCc("g", 0.5);
    done.store(true);
  });
  while (FamilyEvents("miss") == misses && !done.load()) {
    std::this_thread::yield();
  }
  ASSERT_TRUE(server.Evict("g").ok());
  reader.join();
  ASSERT_TRUE(release.ok()) << release.status().ToString();
  EXPECT_TRUE(std::isfinite(release->estimate));
  const ReleaseServer::Summary summary = server.GetSummary();
  EXPECT_EQ(summary.graphs, 0u);
  EXPECT_EQ(summary.family_bytes, 0u);
}

// ---------------------------------------------------------------------------
// ReleaseServer: durable ledgers
// ---------------------------------------------------------------------------

TEST(ReleaseServerTest, StaleAdmissionsNeverChargeAReloadedLedger) {
  // Readers race an Evict + Load cycle on one name. An admission that
  // found the evicted entry must be refused, not record its charge into
  // the reloaded name's fresh durable ledger: the durable spent sum has to
  // stay bitwise equal to the live one, or a restart would restore a
  // ledger that overspends its own total.
  char templ[] = "/tmp/nodedp_serve_evict_XXXXXX";
  ASSERT_NE(::mkdtemp(templ), nullptr);
  const std::string dir = templ;
  ServeGraphConfig config = SmallConfig(1e6);
  config.prewarm = false;
  const Graph g = TestGraph(60, 1.5, 4);
  double live_spent = 0.0;
  {
    ReleaseServer server(5);
    ASSERT_TRUE(server.EnableDurableLedgers(dir).ok());
    ASSERT_TRUE(server.Load("g", g, config).ok());
    std::atomic<bool> stop{false};
    std::vector<std::thread> readers;
    for (int t = 0; t < 3; ++t) {
      readers.emplace_back([&server, &stop] {
        while (!stop.load()) {
          const auto release = server.ReleaseCc("g", 0.125);
          if (!release.ok()) {
            EXPECT_EQ(release.status().code(), StatusCode::kNotFound)
                << release.status().ToString();
          }
        }
      });
    }
    for (int cycle = 0; cycle < 40; ++cycle) {
      ASSERT_TRUE(server.Evict("g").ok());
      ASSERT_TRUE(server.Load("g", g, config).ok());
      std::this_thread::yield();
    }
    stop.store(true);
    for (std::thread& reader : readers) reader.join();
    live_spent = server.Budget("g")->spent;
  }
  {
    auto wal = LedgerWal::Open(dir);
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    const std::optional<PersistedLedger> restored = (*wal)->Restored("g");
    ASSERT_TRUE(restored.has_value());
    EXPECT_EQ(restored->spent, live_spent);
  }
  ReleaseServer restarted(5);
  ASSERT_TRUE(restarted.EnableDurableLedgers(dir).ok());
  const Status reloaded = restarted.Load("g", g, config);
  ASSERT_TRUE(reloaded.ok()) << reloaded.ToString();
  EXPECT_EQ(restarted.Budget("g")->spent, live_spent);
  const std::string cleanup = "rm -rf '" + dir + "'";
  (void)!std::system(cleanup.c_str());
}

TEST(ReleaseServerTest, EvictRacingARetryingLoadLeavesTheReloadServable) {
  // A loader retries Load the moment Evict frees the name. The reload
  // must start a fresh durable ledger: had it adopted the old one just
  // before the evict record ended it, its every charge would fail with
  // Internal ("charge ... precedes its load record").
  char templ[] = "/tmp/nodedp_serve_evict_load_XXXXXX";
  ASSERT_NE(::mkdtemp(templ), nullptr);
  const std::string dir = templ;
  ServeGraphConfig config = SmallConfig(1e6);
  config.prewarm = false;
  const Graph g = TestGraph(60, 1.5, 4);
  ReleaseServer server(5);
  ASSERT_TRUE(server.EnableDurableLedgers(dir).ok());
  ASSERT_TRUE(server.Load("g", g, config).ok());
  for (int cycle = 0; cycle < 300; ++cycle) {
    std::atomic<bool> retrying{false};
    std::thread loader([&] {
      for (;;) {
        const Status loaded = server.Load("g", g, config);
        if (loaded.ok()) return;
        EXPECT_EQ(loaded.code(), StatusCode::kInvalidArgument)
            << loaded.ToString();
        retrying.store(true);
      }
    });
    while (!retrying.load()) std::this_thread::yield();
    ASSERT_TRUE(server.Evict("g").ok());
    loader.join();
    const auto release = server.ReleaseCc("g", 0.125);
    ASSERT_TRUE(release.ok())
        << "cycle " << cycle << ": " << release.status().ToString();
  }
  const std::string cleanup = "rm -rf '" + dir + "'";
  (void)!std::system(cleanup.c_str());
}

// ---------------------------------------------------------------------------
// ReleaseServer through the protocol
// ---------------------------------------------------------------------------

TEST(ReleaseServerTest, BareStatsLineKeepsItsRetiredCacheFields) {
  // The no-name `stats` line only ever appends fields. The family byte cap
  // is gone, so `cache_cap` and `cache_evictions` keep their old position
  // as fixed zeros.
  const std::string path = testing::TempDir() + "/nodedp_serve_stats.ndpg";
  ASSERT_TRUE(WriteGraphV2File(TestGraph(60, 1.5, 5), path).ok());
  ReleaseServer server(1);
  EXPECT_EQ(HandleRequestLine(server, "stats").response,
            "ok graphs=0 memory_bytes=0 mapped_bytes=0 cache_bytes=0 "
            "cache_cap=0 cache_evictions=0 refusals=0");
  ASSERT_EQ(HandleRequestLine(server, "load g " + path + " 2 8")
                .response.substr(0, 9),
            "ok loaded");
  const ReleaseServer::Summary summary = server.GetSummary();
  EXPECT_GT(summary.family_bytes, 0u);
  EXPECT_EQ(HandleRequestLine(server, "stats").response,
            "ok graphs=1 memory_bytes=" +
                std::to_string(summary.memory_bytes) +
                " mapped_bytes=0 cache_bytes=" +
                std::to_string(summary.family_bytes) +
                " cache_cap=0 cache_evictions=0 refusals=0");
  std::remove(path.c_str());
}

TEST(ReleaseServerTest, EvictRacingAProtocolLoadRepliesErr) {
  // Another client's evict can land after a load registered its graph
  // (during the load's prewarm, say) and before the load reads the
  // graph's stats for its reply. That load is answered `err`, and the
  // server keeps serving.
  const std::string path = testing::TempDir() + "/nodedp_serve_race.ndpg";
  ASSERT_TRUE(WriteGraphV2File(TestGraph(400, 1.5, 7), path).ok());
  ReleaseServer server(5);
  std::atomic<bool> done{false};
  std::thread evictor([&] {
    while (!done.load()) (void)HandleRequestLine(server, "evict g");
  });
  const std::string lines[] = {"load g " + path + " 100 8",
                               "load_mmap g " + path + " 100 8"};
  for (int i = 0; i < 40; ++i) {
    for (const std::string& line : lines) {
      const std::string reply = HandleRequestLine(server, line).response;
      EXPECT_TRUE(reply.rfind("ok ", 0) == 0 || reply.rfind("err ", 0) == 0)
          << line << " -> " << reply;
    }
  }
  done.store(true);
  evictor.join();
  EXPECT_EQ(HandleRequestLine(server, "gen h gnp 50 1.5 3 10 8")
                .response.substr(0, 2),
            "ok");
  EXPECT_EQ(HandleRequestLine(server, "release_cc h 0.5").response.substr(0, 2),
            "ok");
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// ReleaseServer: file round trips
// ---------------------------------------------------------------------------

TEST(ReleaseServerTest, SaveAndLoadFromFileRoundTrip) {
  const std::string v2_path = testing::TempDir() + "/nodedp_serve_test.ndpg";
  const std::string text_path = testing::TempDir() + "/nodedp_serve_test.txt";
  const Graph g = TestGraph(120);

  ReleaseServer server(11);
  ASSERT_TRUE(server.Load("g", g, SmallConfig(5.0)).ok());
  ASSERT_TRUE(server.Save("g", v2_path).ok());  // v2 is the default
  ASSERT_TRUE(server.Save("g", text_path, GraphFileFormat::kText).ok());

  // Both formats load back through the auto-detecting path.
  ASSERT_TRUE(server.LoadFromFile("from_v2", v2_path, SmallConfig(5.0)).ok());
  ASSERT_TRUE(server.LoadFromFile("from_text", text_path,
                                  SmallConfig(5.0)).ok());
  EXPECT_EQ(server.Stats("from_v2")->num_edges, g.NumEdges());
  EXPECT_EQ(server.Stats("from_text")->num_edges, g.NumEdges());

  // The v2 file is also mmap-servable.
  ASSERT_TRUE(server.LoadMmap("mapped", v2_path, SmallConfig(5.0)).ok());
  EXPECT_EQ(server.Stats("mapped")->num_edges, g.NumEdges());

  EXPECT_EQ(server.Save("missing", v2_path).code(), StatusCode::kNotFound);
  EXPECT_EQ(server.LoadFromFile("x", "/nonexistent/g.ndpg",
                                SmallConfig(5.0)).code(),
            StatusCode::kIoError);
}

// ---------------------------------------------------------------------------
// Streaming updates (UpdateGraph)
// ---------------------------------------------------------------------------

TEST(ReleaseServerTest, UpdateGraphMatchesFreshLoadOfPatchedGraph) {
  // The incremental path must be invisible in the released values: a server
  // that loads g and applies a delta answers exactly like a same-seed
  // server that loads the patched graph directly (bit-identical family,
  // same Rng split sequence).
  const Graph g = TestGraph(300, 1.2, 9);
  const std::vector<std::pair<int, int>> batch = {
      {0, 1}, {10, 250}, {3, 299}, {42, 43}};
  const Result<Graph::EdgeDelta> delta = g.ApplyEdgeDelta(batch);
  ASSERT_TRUE(delta.ok());

  ReleaseServer updated(77);
  ASSERT_TRUE(updated.Load("g", g, SmallConfig(100.0)).ok());
  const auto report = updated.UpdateGraph("g", batch);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->edges_added, static_cast<int>(delta->added.size()));
  EXPECT_EQ(report->num_edges, delta->graph.NumEdges());
  EXPECT_TRUE(report->family_rewarmed);
  EXPECT_GT(report->components_invalidated, 0);

  ReleaseServer fresh(77);
  ASSERT_TRUE(fresh.Load("g", delta->graph, SmallConfig(100.0)).ok());

  for (double epsilon : {0.5, 1.0, 2.0}) {
    const auto a = updated.ReleaseCc("g", epsilon);
    const auto b = fresh.ReleaseCc("g", epsilon);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_DOUBLE_EQ(a->estimate, b->estimate);
    EXPECT_EQ(a->forest.selected_delta, b->forest.selected_delta);
  }
}

TEST(ReleaseServerTest, UpdateGraphChargesNoBudget) {
  ReleaseServer server(3);
  ASSERT_TRUE(server.Load("g", TestGraph(), SmallConfig(10.0)).ok());
  ASSERT_TRUE(server.ReleaseCc("g", 1.0).ok());
  const auto before = server.Budget("g");
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(server.UpdateGraph("g", {{0, 1}, {5, 7}}).ok());
  const auto after = server.Budget("g");
  ASSERT_TRUE(after.ok());
  // A data operation, not a release: spent/charges are untouched.
  EXPECT_DOUBLE_EQ(after->spent, before->spent);
  EXPECT_EQ(after->num_charges, before->num_charges);
}

TEST(ReleaseServerTest, UpdateGraphRefusesBadBatchAtomically) {
  ReleaseServer server(3);
  ASSERT_TRUE(server.Load("g", TestGraph(50, 1.0, 4), SmallConfig(10.0)).ok());
  const auto stats_before = server.Stats("g");
  ASSERT_TRUE(stats_before.ok());
  // Self-loop and out-of-range endpoints refuse the whole batch.
  EXPECT_EQ(server.UpdateGraph("g", {{0, 1}, {7, 7}}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(server.UpdateGraph("g", {{0, 50}}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(server.UpdateGraph("x", {{0, 1}}).status().code(),
            StatusCode::kNotFound);
  const auto stats_after = server.Stats("g");
  ASSERT_TRUE(stats_after.ok());
  EXPECT_EQ(stats_after->num_edges, stats_before->num_edges);
  EXPECT_TRUE(server.ReleaseCc("g", 0.5).ok());
}

TEST(ReleaseServerTest, UpdateGraphPureDuplicatesKeepFamily) {
  const Graph g = TestGraph(80, 1.5, 6);
  ASSERT_GT(g.NumEdges(), 0);
  ReleaseServer server(3);
  ASSERT_TRUE(server.Load("g", g, SmallConfig(10.0)).ok());
  const Edge e = g.EdgeAt(0);
  const auto report = server.UpdateGraph("g", {{e.v, e.u}, {e.u, e.v}});
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->edges_added, 0);
  EXPECT_EQ(report->duplicates, 2);
  EXPECT_FALSE(report->family_rewarmed);  // nothing changed, nothing rebuilt
  EXPECT_EQ(report->num_edges, g.NumEdges());
}

TEST(ReleaseServerTest, UpdateGraphWithoutResidentFamilySwapsGraphOnly) {
  ServeGraphConfig config = SmallConfig(10.0);
  config.prewarm = false;
  ReleaseServer server(3);
  ASSERT_TRUE(server.Load("g", TestGraph(60, 1.0, 8), config).ok());
  const auto report = server.UpdateGraph("g", {{0, 1}, {2, 3}});
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->family_rewarmed);
  EXPECT_EQ(report->components_adopted, 0);
  EXPECT_EQ(report->components_invalidated, 0);
  // The next query builds cold from the patched graph.
  EXPECT_TRUE(server.ReleaseCc("g", 0.5).ok());
  const auto stats = server.Stats("g");
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->family_warmed);
}

TEST(ReleaseServerTest, UpdateGraphAdoptsUntouchedComponents) {
  // Many well-separated components, a delta confined to two of them: the
  // incremental family must adopt the rest (and say so in the report).
  std::vector<Graph> parts;
  Rng rng(11);
  for (int i = 0; i < 8; ++i) parts.push_back(gen::ErdosRenyi(40, 0.06, rng));
  const Graph g = gen::DisjointUnion(parts);
  ReleaseServer server(3);
  ASSERT_TRUE(server.Load("g", g, SmallConfig(10.0)).ok());
  // An edge inside block 0 and one merging blocks 1 and 2.
  const auto report = server.UpdateGraph("g", {{0, 1}, {45, 90}});
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->family_rewarmed);
  EXPECT_GT(report->components_adopted, 0);
  EXPECT_GT(report->components_invalidated, 0);
  EXPECT_TRUE(server.ReleaseCc("g", 0.5).ok());
}

// Observations so far in the update-stage histogram `stage` (0 before
// the first update registers it).
long long UpdateStageSamples(const std::string& stage) {
  const std::string name = "nodedp_update_" + stage + "_ns_count";
  for (const MetricsRegistry::Sample& sample :
       MetricsRegistry::Default().Samples()) {
    if (sample.name == name) return static_cast<long long>(sample.value);
  }
  return 0;
}

TEST(ReleaseServerTest, UpdateGraphTimesTheLockWaitAndTheRelease) {
  ReleaseServer server(3);
  ASSERT_TRUE(server.Load("g", TestGraph(60, 1.0, 8), SmallConfig(10.0)).ok());
  const long long waits = UpdateStageSamples("wait");
  const long long releases = UpdateStageSamples("release");
  ASSERT_TRUE(server.UpdateGraph("g", {{0, 1}, {2, 3}}).ok());
  EXPECT_EQ(UpdateStageSamples("wait"), waits + 1);
  EXPECT_EQ(UpdateStageSamples("release"), releases + 1);
  // A pure-duplicate batch waits for the lock but releases nothing.
  ASSERT_TRUE(server.UpdateGraph("g", {{1, 0}}).ok());
  EXPECT_EQ(UpdateStageSamples("wait"), waits + 2);
  EXPECT_EQ(UpdateStageSamples("release"), releases + 1);
}

std::mutex g_slow_lines_mu;
std::vector<std::string> g_slow_lines;

void CaptureSlowLine(const std::string& line) {
  std::lock_guard<std::mutex> lock(g_slow_lines_mu);
  g_slow_lines.push_back(line);
}

TEST(ReleaseServerTest, AddEdgesReportsItsStagesToTheSlowQueryLog) {
  // Each update stage is timed once, into both its histogram and the
  // request's slow_query line.
  ReleaseServer server(3);
  ASSERT_EQ(HandleRequestLine(server, "gen g gnp 60 1.2 5 10 8")
                .response.substr(0, 2),
            "ok");
  const std::string stages[] = {"graph", "apply", "rewarm", "publish"};
  std::vector<long long> before;
  for (const std::string& stage : stages) {
    before.push_back(UpdateStageSamples(stage));
  }
  g_slow_lines.clear();
  SetSlowQueryLogSink(&CaptureSlowLine);
  SetSlowQueryThresholdNs(1);  // every request is slow
  const std::string reply =
      HandleRequestLine(server, "add_edges g 0 59 1 58").response;
  SetSlowQueryThresholdNs(0);
  SetSlowQueryLogSink(nullptr);
  ASSERT_NE(reply.find("rewarmed=1"), std::string::npos) << reply;
  ASSERT_EQ(g_slow_lines.size(), 1u);
  const std::string& line = g_slow_lines[0];
  EXPECT_EQ(line.rfind("slow_query verb=add_edges target=g ", 0), 0u) << line;
  for (std::size_t i = 0; i < std::size(stages); ++i) {
    EXPECT_NE(line.find("update_" + stages[i] + ":"), std::string::npos)
        << stages[i] << " in " << line;
    EXPECT_EQ(UpdateStageSamples(stages[i]), before[i] + 1) << stages[i];
  }
}

TEST(ReleaseServerTest, ApproxReadsRaceUpdatesSafely) {
  // Approx readers fill the resident graph's component-size memo while a
  // writer swaps in patched graphs, each with a memo of its own. Run under
  // TSan in CI, this is the proof that the memo's install and its byte
  // writes race neither each other nor the graph swap.
  ServeGraphConfig config = SmallConfig(1e6);
  config.prewarm = false;  // approx reads need no family
  ReleaseServer server(17);
  // n = 2000 > 2s = 1280, so every read takes the sampling path.
  ASSERT_TRUE(server.Load("g", TestGraph(2000, 1.0, 5), config).ok());
  constexpr int kReaders = 3;
  constexpr int kReads = 20;
  constexpr int kUpdates = 10;
  std::vector<std::thread> threads;
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&server]() {
      for (int i = 0; i < kReads; ++i) {
        const auto release = server.ReleaseCcApprox("g", 0.5);
        ASSERT_TRUE(release.ok()) << release.status().ToString();
        EXPECT_FALSE(release->exact_ft);
        EXPECT_TRUE(std::isfinite(release->estimate));
      }
    });
  }
  threads.emplace_back([&server]() {
    Rng rng(23);
    for (int i = 0; i < kUpdates; ++i) {
      const int u = static_cast<int>(rng.NextUint64(1000));
      const int v = 1000 + static_cast<int>(rng.NextUint64(1000));
      EXPECT_TRUE(server.UpdateGraph("g", {{u, v}}).ok());
    }
  });
  for (std::thread& thread : threads) thread.join();
  const auto stats = server.Stats("g");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->queries_answered, kReaders * kReads);
  EXPECT_EQ(stats->queries_failed, 0);
}

TEST(ReleaseServerTest, ExactReadsRaceUpdatesSafely) {
  // Exact readers race a writer whose every update merges components, so
  // each re-warm solves new LP cells. Reads answer from whichever
  // (graph, family) pair is published: every one succeeds, no reader ever
  // sees the edge count go back, and no read builds a family (the update
  // warms its family before publishing it). Run under TSan in CI, this is
  // the proof that the family swap races neither admissions nor stats.
  ReleaseServer server(29);
  ASSERT_TRUE(
      server.Load("g", TestGraph(1000, 1.5, 9), SmallConfig(1e6)).ok());
  const long long misses_after_load = FamilyEvents("miss");
  constexpr int kReaders = 3;
  constexpr int kReads = 20;
  constexpr int kUpdates = 20;
  std::vector<std::thread> threads;
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&server, t]() {
      int last_edges = 0;
      for (int i = 0; i < kReads; ++i) {
        if ((t + i) % 2 == 0) {
          const auto release = server.ReleaseCc("g", 0.5);
          ASSERT_TRUE(release.ok()) << release.status().ToString();
          EXPECT_TRUE(std::isfinite(release->estimate));
        } else {
          const auto sweep = server.SweepCc("g", {0.25, 0.5});
          ASSERT_TRUE(sweep.ok()) << sweep.status().ToString();
        }
        const auto stats = server.Stats("g");
        ASSERT_TRUE(stats.ok());
        EXPECT_GE(stats->num_edges, last_edges);
        last_edges = stats->num_edges;
      }
    });
  }
  threads.emplace_back([&server]() {
    // Random edges of a sparse G(n, 1.5/n) with endpoints in its two
    // halves: most join two components, so the re-warm runs the LP on the
    // merged one.
    Rng rng(31);
    for (int i = 0; i < kUpdates; ++i) {
      const int u = static_cast<int>(rng.NextUint64(500));
      const int v = 500 + static_cast<int>(rng.NextUint64(500));
      const auto report = server.UpdateGraph("g", {{u, v}});
      ASSERT_TRUE(report.ok()) << report.status().ToString();
    }
  });
  for (std::thread& thread : threads) thread.join();
  const auto stats = server.Stats("g");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->queries_failed, 0);
  EXPECT_TRUE(stats->family_warmed);
  EXPECT_EQ(FamilyEvents("miss"), misses_after_load);
}

// ---------------------------------------------------------------------------
// Library-level sweep entry points
// ---------------------------------------------------------------------------

TEST(SweepTest, SweepIsDeterministicAtAnyWidthAndValidatesEpsilon) {
  const Graph g = TestGraph();
  PrivateCcOptions options;
  options.delta_max = 8;
  const std::vector<double> epsilons = {0.5, -1.0, 1.0};

  for (int width : {1, 4}) {
    ThreadPool pool(width);
    ScopedThreadPool scope(&pool);
    ExtensionFamily family(g, {});
    Rng rng(3);
    const auto sweep =
        SweepConnectedComponents(family, epsilons, rng, options);
    ASSERT_EQ(sweep.size(), epsilons.size());
    EXPECT_EQ(sweep[1].status().code(), StatusCode::kInvalidArgument);

    // The stream contract: one child per ε, split in ε order (the invalid ε
    // uses up its split too), so slot k is exactly a single release on
    // child k, and the parent ends up advanced by exactly |ε| splits.
    Rng manual(3);
    for (std::size_t k = 0; k < epsilons.size(); ++k) {
      Rng child = manual.Split();
      if (!(epsilons[k] > 0.0)) continue;
      ASSERT_TRUE(sweep[k].ok()) << "width=" << width << " k=" << k;
      const auto expected =
          PrivateConnectedComponents(family, epsilons[k], child, options);
      ASSERT_TRUE(expected.ok());
      EXPECT_EQ(sweep[k]->estimate, expected->estimate) << "width=" << width;
      EXPECT_EQ(sweep[k]->node_count_estimate, expected->node_count_estimate);
      EXPECT_EQ(sweep[k]->forest.estimate, expected->forest.estimate);
      EXPECT_EQ(sweep[k]->forest.selected_delta,
                expected->forest.selected_delta);
    }
    EXPECT_EQ(rng.NextUint64(), manual.NextUint64()) << "width=" << width;
  }

  ExtensionFamily family_c(g, {});
  Rng rng_c(3);
  const auto c = SweepSpanningForest(family_c, {0.5, 1.0}, rng_c, options);
  ASSERT_EQ(c.size(), 2u);
  EXPECT_TRUE(c[0].ok());
  EXPECT_TRUE(c[1].ok());
}

}  // namespace
}  // namespace nodedp
