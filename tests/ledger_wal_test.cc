// Tests for serve/ledger_wal.h — durable privacy-budget ledgers.
//
// The property under test is the serving-layer soundness promise: a charge
// recorded before a crash is still charged after replay, with the exact
// same floating-point sum, and corrupt or half-written files fail closed
// (refuse to serve) rather than open (serve with a smaller ledger). The
// durable state is four numbers per graph, so it must not grow with the
// number of charges.

#include "serve/ledger_wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "graph/generators.h"
#include "gtest/gtest.h"
#include "serve/protocol.h"
#include "serve/release_server.h"
#include "util/random.h"
#include "util/status.h"

namespace nodedp {
namespace {

// A fresh scratch directory per test, removed on destruction.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag) {
    char templ[] = "/tmp/nodedp_wal_XXXXXX";
    const char* made = ::mkdtemp(templ);
    EXPECT_NE(made, nullptr) << tag;
    path_ = made != nullptr ? made : "/tmp/nodedp_wal_fallback";
  }
  ~ScratchDir() {
    const std::string cleanup = "rm -rf '" + path_ + "'";
    (void)!std::system(cleanup.c_str());
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
  ASSERT_TRUE(out.good()) << path;
}

TEST(LedgerWalTest, RoundTripRestoresChargesInOrder) {
  // The charges fold into (spent, count) in log order.
  ScratchDir dir("round_trip");
  {
    auto wal = LedgerWal::Open(dir.path());
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    ASSERT_TRUE((*wal)->RecordLoad("g", 2.0).ok());
    ASSERT_TRUE((*wal)->RecordCharge("g", 0.5, "release_cc").ok());
    ASSERT_TRUE((*wal)->RecordCharge("g", 0.25, "sweep eps=0.25").ok());
    ASSERT_TRUE((*wal)->RecordRefusal("g").ok());
    EXPECT_EQ((*wal)->records_appended(), 4);
  }
  auto wal = LedgerWal::Open(dir.path());
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  const auto restored = (*wal)->Restored("g");
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->total_epsilon, 2.0);
  EXPECT_EQ(restored->num_refusals, 1);
  EXPECT_EQ(restored->spent, 0.5 + 0.25);
  EXPECT_EQ(restored->num_charges, 2);
}

TEST(LedgerWalTest, RestoredSumIsBitIdentical) {
  // 0.1 is not representable in binary; the %.17g round trip must still
  // reproduce the exact same doubles, so the sum replayed from the WAL and
  // the sum stored in a snapshot are both bit-identical to the live one.
  ScratchDir dir("bit_identical");
  double spent = 0.0;
  {
    auto wal = LedgerWal::Open(dir.path());
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->RecordLoad("g", 1.0).ok());
    for (int i = 0; i < 7; ++i) {
      ASSERT_TRUE((*wal)->RecordCharge("g", 0.1, "q").ok());
      spent += 0.1;
    }
  }
  {
    auto wal = LedgerWal::Open(dir.path());
    ASSERT_TRUE(wal.ok());
    const auto restored = (*wal)->Restored("g");
    ASSERT_TRUE(restored.has_value());
    EXPECT_EQ(restored->spent, spent);  // exact equality, not near
    EXPECT_EQ(restored->num_charges, 7);
    ASSERT_TRUE((*wal)->Snapshot().ok());
  }
  auto wal = LedgerWal::Open(dir.path());
  ASSERT_TRUE(wal.ok());
  const auto restored = (*wal)->Restored("g");
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->spent, spent);
  EXPECT_EQ(restored->num_charges, 7);
}

TEST(LedgerWalTest, EvictEndsTheLedgerLifetime) {
  ScratchDir dir("evict");
  {
    auto wal = LedgerWal::Open(dir.path());
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->RecordLoad("g", 1.0).ok());
    ASSERT_TRUE((*wal)->RecordCharge("g", 0.5, "q").ok());
    ASSERT_TRUE((*wal)->RecordEvict("g").ok());
    // A later load of the same name starts a fresh budget.
    ASSERT_TRUE((*wal)->RecordLoad("g", 3.0).ok());
  }
  auto wal = LedgerWal::Open(dir.path());
  ASSERT_TRUE(wal.ok());
  const auto restored = (*wal)->Restored("g");
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->total_epsilon, 3.0);
  EXPECT_EQ(restored->spent, 0.0);
  EXPECT_EQ(restored->num_charges, 0);
}

TEST(LedgerWalTest, ReloadNeverResetsCharges) {
  ScratchDir dir("reload");
  auto wal = LedgerWal::Open(dir.path());
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE((*wal)->RecordLoad("g", 1.0).ok());
  ASSERT_TRUE((*wal)->RecordCharge("g", 0.75, "q").ok());
  // Restored ledger wins: a second load is a durable no-op.
  ASSERT_TRUE((*wal)->RecordLoad("g", 99.0).ok());
  const auto state = (*wal)->Restored("g");
  ASSERT_TRUE(state.has_value());
  EXPECT_EQ(state->total_epsilon, 1.0);
  EXPECT_EQ(state->spent, 0.75);
  EXPECT_EQ(state->num_charges, 1);
}

TEST(LedgerWalTest, SnapshotCompactionPreservesState) {
  // More than 2 * kSnapshotEvery appends, so the automatic compaction runs
  // at least twice.
  constexpr int kCharges = 2 * LedgerWal::kSnapshotEvery + 10;
  ScratchDir dir("snapshot");
  double spent = 0.0;
  {
    auto wal = LedgerWal::Open(dir.path());
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->RecordLoad("a", 1000.0).ok());
    ASSERT_TRUE((*wal)->RecordLoad("b", 2.0).ok());
    for (int i = 0; i < kCharges; ++i) {
      ASSERT_TRUE((*wal)->RecordCharge("a", 0.5, "q" + std::to_string(i)).ok());
      spent += 0.5;
    }
    ASSERT_TRUE((*wal)->RecordRefusal("b").ok());
  }
  // The WAL was compacted, so it holds only the tail of the history.
  const std::string wal_text = ReadFile(dir.path() + "/ledger.wal");
  const auto wal_lines = std::count(wal_text.begin(), wal_text.end(), '\n');
  EXPECT_LE(wal_lines, LedgerWal::kSnapshotEvery) << wal_text;
  EXPECT_NE(ReadFile(dir.path() + "/ledger.snap").find("ndpw-snap v2"),
            std::string::npos);

  auto wal = LedgerWal::Open(dir.path());
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  const auto a = (*wal)->Restored("a");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->spent, spent);
  EXPECT_EQ(a->num_charges, kCharges);
  const auto b = (*wal)->Restored("b");
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->num_refusals, 1);
  EXPECT_EQ(b->num_charges, 0);
}

TEST(LedgerWalTest, SnapshotSizeIndependentOfChargeCount) {
  ScratchDir dir("snapshot_size");
  const std::string snap_path = dir.path() + "/ledger.snap";
  double spent = 0.0;
  std::size_t small_size = 0;
  std::size_t large_size = 0;
  {
    auto wal = LedgerWal::Open(dir.path());
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->RecordLoad("g", 1000.0).ok());
    int charges = 0;
    for (; charges < 10; ++charges) {
      ASSERT_TRUE((*wal)->RecordCharge("g", 0.1, "release_cc eps=0.1").ok());
      spent += 0.1;
    }
    ASSERT_TRUE((*wal)->Snapshot().ok());
    small_size = ReadFile(snap_path).size();
    for (; charges < 1000; ++charges) {
      ASSERT_TRUE((*wal)->RecordCharge("g", 0.1, "release_cc eps=0.1").ok());
      spent += 0.1;
    }
    ASSERT_TRUE((*wal)->Snapshot().ok());
    large_size = ReadFile(snap_path).size();
  }
  // Only the printed numbers (sequence, spent, count) can get wider.
  ASSERT_GE(large_size, small_size);
  EXPECT_LT(large_size - small_size, 16u);

  auto wal = LedgerWal::Open(dir.path());
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  const auto restored = (*wal)->Restored("g");
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(std::memcmp(&restored->spent, &spent, sizeof(spent)), 0);
  EXPECT_EQ(restored->num_charges, 1000);
}

TEST(LedgerWalTest, TornFinalLineIsDropped) {
  ScratchDir dir("torn");
  {
    auto wal = LedgerWal::Open(dir.path());
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->RecordLoad("g", 1.0).ok());
    ASSERT_TRUE((*wal)->RecordCharge("g", 0.5, "q").ok());
  }
  // Simulate a crash mid-append: a final record with no trailing newline.
  std::string wal_text = ReadFile(dir.path() + "/ledger.wal");
  wal_text += "charge g 0.25 half-writ";  // no '\n'
  WriteFile(dir.path() + "/ledger.wal", wal_text);

  auto wal = LedgerWal::Open(dir.path());
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  const auto restored = (*wal)->Restored("g");
  ASSERT_TRUE(restored.has_value());
  // The torn charge never ran its mechanism; dropping it is sound.
  EXPECT_EQ(restored->num_charges, 1);
  EXPECT_EQ(restored->spent, 0.5);
}

TEST(LedgerWalTest, MidFileCorruptionFailsClosed) {
  ScratchDir dir("corrupt");
  {
    auto wal = LedgerWal::Open(dir.path());
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->RecordLoad("g", 1.0).ok());
    ASSERT_TRUE((*wal)->RecordCharge("g", 0.5, "q").ok());
    ASSERT_TRUE((*wal)->RecordCharge("g", 0.25, "r").ok());
  }
  // Corrupt a *middle* line: this cannot be a torn tail, so replay must
  // refuse to serve rather than proceed with a partial ledger.
  std::string wal_text = ReadFile(dir.path() + "/ledger.wal");
  const std::size_t at = wal_text.find("charge g 0.5");
  ASSERT_NE(at, std::string::npos);
  wal_text.replace(at, 6, "chargX");
  WriteFile(dir.path() + "/ledger.wal", wal_text);

  auto wal = LedgerWal::Open(dir.path());
  ASSERT_FALSE(wal.ok());
  EXPECT_EQ(wal.status().code(), StatusCode::kIoError);
}

TEST(LedgerWalTest, StaleWalAfterSnapshotIsIgnored) {
  // Crash window between snapshot rename and WAL truncate: the WAL's
  // `since` predates the snapshot's sequence, so every record in it is
  // already inside the snapshot and replaying it would double-charge.
  ScratchDir dir("stale");
  WriteFile(dir.path() + "/ledger.snap",
            "ndpw-snap v2 3\n"
            "graph g 1 0.5 1 0\n"
            "end\n");
  WriteFile(dir.path() + "/ledger.wal",
            "ndpw-wal v1 0\n"
            "load g 1\n"
            "charge g 0.5 q\n");
  auto wal = LedgerWal::Open(dir.path());
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  const auto restored = (*wal)->Restored("g");
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->num_charges, 1);  // not doubled
  EXPECT_EQ(restored->spent, 0.5);
}

TEST(LedgerWalTest, WalGapAfterSnapshotFailsClosed) {
  // A WAL that starts *after* the snapshot's sequence means records were
  // lost between them; serving would under-count spent budget.
  ScratchDir dir("gap");
  WriteFile(dir.path() + "/ledger.snap",
            "ndpw-snap v2 2\n"
            "graph g 1 0 0 0\n"
            "end\n");
  WriteFile(dir.path() + "/ledger.wal", "ndpw-wal v1 7\n");
  auto wal = LedgerWal::Open(dir.path());
  ASSERT_FALSE(wal.ok());
  EXPECT_EQ(wal.status().code(), StatusCode::kIoError);
}

TEST(LedgerWalTest, TornSnapshotFailsClosed) {
  ScratchDir dir("torn_snap");
  WriteFile(dir.path() + "/ledger.snap",
            "ndpw-snap v2 2\n"
            "graph g 1 0.5 1 0\n");  // no "end"
  auto wal = LedgerWal::Open(dir.path());
  ASSERT_FALSE(wal.ok());
  EXPECT_EQ(wal.status().code(), StatusCode::kIoError);
}

TEST(LedgerWalTest, V1SnapshotFailsClosed) {
  // The v1 format listed every charge; it is refused, not half-read.
  ScratchDir dir("v1_snap");
  WriteFile(dir.path() + "/ledger.snap",
            "ndpw-snap v1 3\n"
            "graph g 1 0 1\n"
            "charge 0.5 q\n"
            "end\n");
  auto wal = LedgerWal::Open(dir.path());
  ASSERT_FALSE(wal.ok());
  EXPECT_EQ(wal.status().code(), StatusCode::kIoError);
  EXPECT_NE(wal.status().message().find("format v1"), std::string::npos)
      << wal.status().ToString();
}

TEST(LedgerWalTest, BadGraphRecordFailsClosed) {
  // `fields` follow the name: total, spent, charges, refusals.
  auto expect_refused = [](const std::string& fields) {
    ScratchDir dir("bad_graph_record");
    const std::string snap = "ndpw-snap v2 2\ngraph g " + fields + "\nend\n";
    WriteFile(dir.path() + "/ledger.snap", snap);
    auto wal = LedgerWal::Open(dir.path());
    ASSERT_FALSE(wal.ok()) << fields;
    EXPECT_EQ(wal.status().code(), StatusCode::kIoError) << fields;
  };
  expect_refused("1 nan 1 0");
  expect_refused("1 -nan 1 0");
  expect_refused("1 inf 1 0");
  expect_refused("1 -0.5 1 0");
  // A ledger with no budget cannot be served.
  expect_refused("0 0 0 0");
  expect_refused("-1 0 0 0");
  // Counting on from LLONG_MAX would be signed overflow.
  expect_refused("1 0.5 9223372036854775807 0");
  expect_refused("1 0.5 0 9223372036854775807");
  expect_refused("1 0.5 99999999999999999999 0");
}

TEST(LedgerWalTest, EmptyDirectoryOpensEmpty) {
  ScratchDir dir("empty");
  auto wal = LedgerWal::Open(dir.path());
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  EXPECT_FALSE((*wal)->Restored("anything").has_value());
}

// --- ReleaseServer integration: restart adopts the restored ledger. ---

ServeGraphConfig SmallConfig(double budget) {
  ServeGraphConfig config;
  config.total_epsilon = budget;
  config.release.delta_max = 4;
  config.prewarm = false;
  return config;
}

Graph TestGnp(std::uint64_t seed) {
  Rng rng(seed);
  return gen::ErdosRenyi(60, 3.0 / 60.0, rng);
}

TEST(LedgerWalServerTest, RestartAdoptsRestoredTotalAndSpend) {
  ScratchDir dir("server_restart");
  ScratchDir graph_dir("server_graph");
  const std::string graph_path = graph_dir.path() + "/g.ndpg";

  {
    ReleaseServer server(7);
    ASSERT_TRUE(server.EnableDurableLedgers(dir.path()).ok());
    ASSERT_TRUE(server.Load("g", TestGnp(11), SmallConfig(1.0)).ok());
    ASSERT_TRUE(server.Save("g", graph_path).ok());
    ASSERT_TRUE(server.ReleaseCc("g", 0.5).ok());
    ASSERT_TRUE(server.ReleaseCc("g", 0.25).ok());
    const auto budget = server.Budget("g");
    ASSERT_TRUE(budget.ok());
    EXPECT_EQ(budget->spent, 0.75);
  }

  // "Restart": a fresh server over the same state dir. The config passed to
  // Load asks for budget 99, but the durable ledger wins — a reload cannot
  // mint budget.
  ReleaseServer server(8);
  ASSERT_TRUE(server.EnableDurableLedgers(dir.path()).ok());
  ASSERT_TRUE(server.LoadFromFile("g", graph_path, SmallConfig(99.0)).ok());
  const auto budget = server.Budget("g");
  ASSERT_TRUE(budget.ok());
  EXPECT_EQ(budget->total, 1.0);
  EXPECT_EQ(budget->spent, 0.75);
  EXPECT_EQ(budget->num_charges, 2);
  // 0.5 over the remaining 0.25 must still be refused.
  const auto refused = server.ReleaseCc("g", 0.5);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted);
  // ...and the remaining 0.25 is still admissible.
  EXPECT_TRUE(server.ReleaseCc("g", 0.25).ok());
}

TEST(LedgerWalServerTest, OverspentSnapshotRefusesTheLoad) {
  // A restored spent that does not fit its own total is corrupt state: the
  // graph is not served under it.
  ScratchDir dir("server_overspent");
  WriteFile(dir.path() + "/ledger.snap",
            "ndpw-snap v2 2\n"
            "graph g 1 1.5 3 0\n"
            "end\n");
  ReleaseServer server(9);
  ASSERT_TRUE(server.EnableDurableLedgers(dir.path()).ok());
  const Status loaded = server.Load("g", TestGnp(11), SmallConfig(1.0));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.code(), StatusCode::kInternal);
  EXPECT_FALSE(server.Budget("g").ok());
}

TEST(LedgerWalServerTest, CountersPast32BitsRestoreExactly) {
  ScratchDir dir("server_wide_counts");
  WriteFile(dir.path() + "/ledger.snap",
            "ndpw-snap v2 2\n"
            "graph g 1 0.5 3000000000 4294967297\n"
            "end\n");
  {
    auto wal = LedgerWal::Open(dir.path());
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    const auto restored = (*wal)->Restored("g");
    ASSERT_TRUE(restored.has_value());
    EXPECT_EQ(restored->num_charges, 3000000000LL);
    EXPECT_EQ(restored->num_refusals, 4294967297LL);
  }
  ReleaseServer server(10);
  ASSERT_TRUE(server.EnableDurableLedgers(dir.path()).ok());
  ASSERT_TRUE(server.Load("g", TestGnp(11), SmallConfig(99.0)).ok());
  const auto budget = server.Budget("g");
  ASSERT_TRUE(budget.ok());
  EXPECT_EQ(budget->total, 1.0);
  EXPECT_EQ(budget->spent, 0.5);
  EXPECT_EQ(budget->num_charges, 3000000000LL);
  EXPECT_EQ(budget->num_refusals, 4294967297LL);
  EXPECT_EQ(HandleRequestLine(server, "budget g").response,
            "ok total=1 spent=0.5 remaining=0.5 charges=3000000000 "
            "refusals=4294967297");
}

}  // namespace
}  // namespace nodedp
