// The socket-serving test battery: crash/restart durability, concurrent
// clients, and protocol robustness over a real TCP transport.
//
// This binary has its own main(): the kill-and-restart test re-execs
// /proc/self/exe with --serve-child to get a genuinely separate server
// process (fork+exec keeps sanitizer runtimes sound where a bare fork of
// a threaded process would not), points it at a durable state directory,
// SIGKILLs it mid-service, and restarts it to prove the privacy-budget
// promise survives: what was refused over-budget before the crash is
// refused after it, bit for bit.

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "graph/generators.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "serve/protocol.h"
#include "serve/release_server.h"
#include "serve/socket_client.h"
#include "serve/socket_server.h"
#include "util/random.h"
#include "util/status.h"

namespace nodedp {
namespace {

constexpr int kClientTimeoutMs = 30000;  // generous: sanitizer builds are slow

class ScratchDir {
 public:
  ScratchDir() {
    char templ[] = "/tmp/nodedp_sock_XXXXXX";
    const char* made = ::mkdtemp(templ);
    EXPECT_NE(made, nullptr);
    path_ = made != nullptr ? made : "/tmp/nodedp_sock_fallback";
  }
  ~ScratchDir() {
    const std::string cleanup = "rm -rf '" + path_ + "'";
    (void)!std::system(cleanup.c_str());
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// --- serve-child process management (kill-and-restart test) ---

pid_t SpawnServeChild(const std::string& state_dir,
                      const std::string& port_file) {
  ::unlink(port_file.c_str());
  const pid_t pid = ::fork();
  if (pid == 0) {
    // Child: exec ourselves immediately — no test-framework or sanitizer
    // state crosses the fork beyond what exec wipes.
    ::execl("/proc/self/exe", "socket_serve_test", "--serve-child",
            state_dir.c_str(), port_file.c_str(),
            static_cast<char*>(nullptr));
    _exit(127);
  }
  return pid;
}

// Waits for the child to publish its listening port (written atomically via
// rename, so a non-empty read is a complete read).
int AwaitPort(const std::string& port_file) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (std::chrono::steady_clock::now() < deadline) {
    std::ifstream in(port_file);
    int port = 0;
    if (in >> port && port > 0) return port;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return -1;
}

void KillAndReap(pid_t pid) {
  ASSERT_EQ(::kill(pid, SIGKILL), 0);
  int wstatus = 0;
  ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(wstatus));
  ASSERT_EQ(WTERMSIG(wstatus), SIGKILL);
}

std::string MustRequest(SocketClient& client, const std::string& line) {
  const Result<std::string> response = client.Request(line);
  EXPECT_TRUE(response.ok()) << line << ": " << response.status().ToString();
  return response.ok() ? *response : std::string();
}

TEST(SocketServeDurabilityTest, RefusalSurvivesSigkillAndRestart) {
  ScratchDir state;
  const std::string port_file = state.path() + "/port";

  // --- Life 1: spend the budget down to refusal. ---
  const pid_t first = SpawnServeChild(state.path(), port_file);
  ASSERT_GT(first, 0);
  const int port1 = AwaitPort(port_file);
  ASSERT_GT(port1, 0) << "server child never published its port";
  auto client1 = SocketClient::Connect("127.0.0.1", port1, kClientTimeoutMs);
  ASSERT_TRUE(client1.ok()) << client1.status().ToString();

  // Budget 1.0 on a small generated graph.
  const std::string gen_cmd = "gen g gnp 80 3 11 1.0 4";
  EXPECT_EQ(MustRequest(*client1, gen_cmd).substr(0, 2), "ok");
  EXPECT_EQ(MustRequest(*client1, "release_cc g 0.4").substr(0, 2), "ok");
  EXPECT_EQ(MustRequest(*client1, "release_cc g 0.4").substr(0, 2), "ok");
  // 0.8 spent: the third 0.4 does not fit the remaining ~0.2.
  const std::string refusal = MustRequest(*client1, "release_cc g 0.4");
  EXPECT_NE(refusal.find("err"), std::string::npos) << refusal;
  EXPECT_NE(refusal.find("ResourceExhausted"), std::string::npos) << refusal;
  const std::string budget_before = MustRequest(*client1, "budget g");
  EXPECT_EQ(budget_before.substr(0, 2), "ok") << budget_before;
  EXPECT_NE(budget_before.find("charges=2"), std::string::npos)
      << budget_before;
  EXPECT_NE(budget_before.find("refusals=1"), std::string::npos)
      << budget_before;

  // --- Crash: SIGKILL, no shutdown hooks, no flush courtesy. ---
  client1->Close();
  KillAndReap(first);

  // --- Life 2: restart over the same state directory. ---
  const pid_t second = SpawnServeChild(state.path(), port_file);
  ASSERT_GT(second, 0);
  const int port2 = AwaitPort(port_file);
  ASSERT_GT(port2, 0) << "restarted child never published its port";
  auto client2 = SocketClient::Connect("127.0.0.1", port2, kClientTimeoutMs);
  ASSERT_TRUE(client2.ok()) << client2.status().ToString();

  // Reload the same graph asking for budget 99 — the restored ledger wins,
  // and the reply reports the adopted total (1), not the requested 99.
  const std::string regen = MustRequest(*client2, "gen g gnp 80 3 11 99 4");
  EXPECT_EQ(regen.substr(0, 2), "ok") << regen;
  EXPECT_NE(regen.find("budget=1"), std::string::npos) << regen;

  // The ledger is exactly what it was at the moment of the kill: same
  // total, same spent sum (bit-identical doubles → identical %.6g text),
  // same charge and refusal counts.
  const std::string budget_after = MustRequest(*client2, "budget g");
  EXPECT_EQ(budget_after, budget_before);

  // What was refused stays refused...
  const std::string still_refused = MustRequest(*client2, "release_cc g 0.4");
  EXPECT_NE(still_refused.find("ResourceExhausted"), std::string::npos)
      << still_refused;
  // ...and the genuinely remaining budget is still spendable.
  EXPECT_EQ(MustRequest(*client2, "release_cc g 0.15").substr(0, 2), "ok");

  client2->Close();
  KillAndReap(second);
}

// --- In-process fixture for the hammer and robustness tests. ---

ServeGraphConfig HammerConfig(double budget) {
  ServeGraphConfig config;
  config.total_epsilon = budget;
  config.release.delta_max = 8;
  config.prewarm = true;
  return config;
}

Graph HammerGraph() {
  Rng rng(17);
  return gen::ErdosRenyi(200, 3.0 / 200.0, rng);
}

TEST(SocketServeHammerTest, ConcurrentMixedClientsMidWarm) {
  ReleaseServer server(5);
  SocketServer socket_server(&server);
  ASSERT_TRUE(socket_server.Start().ok());

  // Load in the background so the first wave of queries lands mid-warm
  // (the server registers the graph before the family warm finishes).
  std::thread loader([&server] {
    const Status loaded = server.Load("g", HammerGraph(), HammerConfig(64.0));
    EXPECT_TRUE(loaded.ok()) << loaded.ToString();
  });
  while (server.GraphNames().empty()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // 8 clients × 4 rounds of mixed queries. Epsilons are powers of two so
  // the final spent sum is exact regardless of admission interleaving:
  // per round 0.25 + 0.5 + (0.25 + 0.25) = 1.25, grand total 40 of 64.
  constexpr int kClients = 8;
  constexpr int kRounds = 4;
  std::atomic<int> malformed{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&socket_server, &malformed] {
      auto client = SocketClient::Connect("127.0.0.1", socket_server.port(),
                                          kClientTimeoutMs);
      ASSERT_TRUE(client.ok()) << client.status().ToString();
      const std::vector<std::string> round = {
          "release_cc g 0.25", "release_sf g 0.5", "sweep g 0.25 0.25",
          "budget g",          "stats g",
      };
      for (int r = 0; r < kRounds; ++r) {
        for (const std::string& request : round) {
          const Result<std::string> response = client->Request(request);
          ASSERT_TRUE(response.ok())
              << request << ": " << response.status().ToString();
          if (response->rfind("ok ", 0) != 0) {
            ++malformed;
            ADD_FAILURE() << request << " -> " << *response;
          }
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  loader.join();
  EXPECT_EQ(malformed.load(), 0);

  // Every admission succeeded (budget 64 > 40), so the concurrent spend
  // must equal the serial sum exactly — powers of two make float addition
  // order-independent here.
  const auto budget = server.Budget("g");
  ASSERT_TRUE(budget.ok());
  EXPECT_EQ(budget->spent, kClients * kRounds * 1.25);
  EXPECT_EQ(budget->num_charges, kClients * kRounds * 3);
  EXPECT_EQ(budget->num_refusals, 0);

  const auto stats = socket_server.stats();
  EXPECT_EQ(stats.accepted, kClients);
  EXPECT_EQ(stats.lines, kClients * kRounds * 5);
  socket_server.Stop();
}

// --- Protocol robustness: garbage costs its own connection, nothing else.

class SocketRobustnessTest : public ::testing::Test {
 protected:
  void SetUp() override {
    server_ = std::make_unique<ReleaseServer>(3);
    ASSERT_TRUE(server_->Load("g", HammerGraph(), HammerConfig(8.0)).ok());
    SocketServerOptions options;
    options.max_line_bytes = 1024;
    socket_server_ = std::make_unique<SocketServer>(server_.get(), options);
    ASSERT_TRUE(socket_server_->Start().ok());
  }

  void TearDown() override {
    // Whatever the abuse, the server must end exactly where it started:
    // one graph, nothing spent, nothing charged.
    const auto budget = server_->Budget("g");
    ASSERT_TRUE(budget.ok());
    EXPECT_EQ(budget->spent, 0.0);
    EXPECT_EQ(budget->num_charges, 0);
    EXPECT_EQ(server_->GraphNames(), std::vector<std::string>{"g"});
    socket_server_->Stop();
  }

  Result<SocketClient> Connect() {
    return SocketClient::Connect("127.0.0.1", socket_server_->port(),
                                 kClientTimeoutMs);
  }

  std::unique_ptr<ReleaseServer> server_;
  std::unique_ptr<SocketServer> socket_server_;
};

TEST_F(SocketRobustnessTest, OversizedLineDropsOnlyThatConnection) {
  auto victim = Connect();
  ASSERT_TRUE(victim.ok());
  const std::string huge(4096, 'a');
  ASSERT_TRUE(victim->SendRaw(huge.data(), huge.size()).ok());
  ASSERT_TRUE(victim->SendRaw("\n", 1).ok());
  const auto reply = victim->ReadLine();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(*reply, "err line too long");
  // The connection is gone...
  EXPECT_FALSE(victim->ReadLine().ok());
  // ...but a well-behaved neighbor is untouched.
  auto neighbor = Connect();
  ASSERT_TRUE(neighbor.ok());
  EXPECT_EQ(MustRequest(*neighbor, "budget g").substr(0, 2), "ok");
}

TEST_F(SocketRobustnessTest, NewlineFreeFloodIsBounded) {
  auto client = Connect();
  ASSERT_TRUE(client.ok());
  // More than max_line_bytes with no newline at all: the server must not
  // buffer without bound waiting for one.
  const std::string flood(8192, 'x');
  ASSERT_TRUE(client->SendRaw(flood.data(), flood.size()).ok());
  const auto reply = client->ReadLine();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(*reply, "err line too long");
  EXPECT_FALSE(client->ReadLine().ok());
}

TEST_F(SocketRobustnessTest, BinaryGarbageGetsErrAndKeepsConnection) {
  auto client = Connect();
  ASSERT_TRUE(client.ok());
  const char garbage[] = "\x01\xff\x7f\x00garbage\x02\n";
  ASSERT_TRUE(client->SendRaw(garbage, sizeof(garbage) - 1).ok());
  const auto reply = client->ReadLine();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->rfind("err ", 0), 0u) << *reply;
  // Parse isolation: the same connection still serves valid requests.
  EXPECT_EQ(MustRequest(*client, "stats g").substr(0, 2), "ok");
}

TEST_F(SocketRobustnessTest, TruncatedCommandThenDisconnectChargesNothing) {
  auto client = Connect();
  ASSERT_TRUE(client.ok());
  // A partial request with no newline, then a vanishing client: the
  // fragment must be abandoned, not dispatched.
  const std::string partial = "release_cc g 0.2";
  ASSERT_TRUE(client->SendRaw(partial.data(), partial.size()).ok());
  client->Close();
  // Give the server a beat to observe the disconnect.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  // TearDown asserts spent == 0.
}

TEST_F(SocketRobustnessTest, InterleavedPartialWritesReassemble) {
  auto slow = Connect();
  auto fast = Connect();
  ASSERT_TRUE(slow.ok());
  ASSERT_TRUE(fast.ok());
  // One request dribbled across three writes, with another client's
  // complete requests interleaved between the fragments.
  ASSERT_TRUE(slow->SendRaw("bud", 3).ok());
  EXPECT_EQ(MustRequest(*fast, "stats g").substr(0, 2), "ok");
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_TRUE(slow->SendRaw("get ", 4).ok());
  EXPECT_EQ(MustRequest(*fast, "budget g").substr(0, 2), "ok");
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_TRUE(slow->SendRaw("g\n", 2).ok());
  const auto reply = slow->ReadLine();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->rfind("ok total=", 0), 0u) << *reply;
}

TEST_F(SocketRobustnessTest, NonPositiveEpsilonIsRefusedWithoutCharge) {
  auto client = Connect();
  ASSERT_TRUE(client.ok());
  EXPECT_EQ(MustRequest(*client, "release_cc g 0.0").substr(0, 3), "err");
  EXPECT_EQ(MustRequest(*client, "release_cc g -1").substr(0, 3), "err");
  EXPECT_EQ(MustRequest(*client, "release_cc g banana").substr(0, 3), "err");
  EXPECT_EQ(MustRequest(*client, "sweep g 0.25 nope").substr(0, 3), "err");
}

// --- HandleRequestLine unit coverage (no socket in the way). ---

TEST(ProtocolTest, BlankAndCommentLinesProduceNoResponse) {
  ReleaseServer server(1);
  EXPECT_TRUE(HandleRequestLine(server, "").response.empty());
  EXPECT_TRUE(HandleRequestLine(server, "   \t  ").response.empty());
  EXPECT_TRUE(HandleRequestLine(server, "# a comment").response.empty());
}

TEST(ProtocolTest, UnknownCommandIsErr) {
  ReleaseServer server(1);
  const ProtocolReply reply = HandleRequestLine(server, "frobnicate g");
  EXPECT_EQ(reply.response, "err unknown command 'frobnicate'");
  EXPECT_FALSE(reply.quit);
}

TEST(ProtocolTest, AddEdgesParsesAppliesAndRefuses) {
  ReleaseServer server(1);
  ASSERT_EQ(HandleRequestLine(server, "gen g gnp 60 1.2 5 10 8")
                .response.substr(0, 2),
            "ok");
  // Usage errors: missing pair, odd operand count, garbage endpoints.
  EXPECT_EQ(HandleRequestLine(server, "add_edges g").response.substr(0, 3),
            "err");
  EXPECT_EQ(HandleRequestLine(server, "add_edges g 1").response.substr(0, 3),
            "err");
  EXPECT_EQ(HandleRequestLine(server, "add_edges g 1 2 3").response
                .substr(0, 3),
            "err");
  EXPECT_EQ(HandleRequestLine(server, "add_edges g one 2").response
                .substr(0, 3),
            "err");
  // A bad batch (self-loop) is refused server-side with nothing applied.
  EXPECT_EQ(HandleRequestLine(server, "add_edges g 4 4").response.substr(0, 3),
            "err");
  // A valid batch applies, reports the delta, and charges no budget.
  const std::string before =
      HandleRequestLine(server, "budget g").response;
  const ProtocolReply applied =
      HandleRequestLine(server, "add_edges g 0 1 0 1 58 59");
  EXPECT_EQ(applied.response.substr(0, 2), "ok");
  EXPECT_NE(applied.response.find("rewarmed=1"), std::string::npos);
  EXPECT_EQ(HandleRequestLine(server, "budget g").response, before);
  // The update is visible to stats and later releases.
  EXPECT_EQ(HandleRequestLine(server, "release_cc g 0.5").response
                .substr(0, 2),
            "ok");
}

TEST(ProtocolTest, SaveWritesTextOrV2AndRefusesOtherFormats) {
  ReleaseServer server(1);
  ScratchDir dir;
  ASSERT_EQ(HandleRequestLine(server, "gen g gnp 60 1.2 5 10 8")
                .response.substr(0, 2),
            "ok");
  const std::string v2 = dir.path() + "/g.ndpg";
  const std::string text = dir.path() + "/g.txt";
  EXPECT_EQ(HandleRequestLine(server, "save g " + v2).response,
            "ok saved g v2");
  EXPECT_EQ(HandleRequestLine(server, "save g " + text + " text").response,
            "ok saved g text");
  EXPECT_EQ(HandleRequestLine(server, "save g " + v2 + " binary").response,
            "err usage: save <name> <path> [text|v2]");
  EXPECT_EQ(HandleRequestLine(server, "load_mmap m " + v2)
                .response.substr(0, 9),
            "ok mapped");
  EXPECT_EQ(HandleRequestLine(server, "load t " + text).response.substr(0, 9),
            "ok loaded");
}

TEST(ProtocolTest, QuitSetsTheQuitFlag) {
  ReleaseServer server(1);
  const ProtocolReply reply = HandleRequestLine(server, "quit");
  EXPECT_EQ(reply.response, "ok bye");
  EXPECT_TRUE(reply.quit);
}

TEST(ProtocolTest, CarriageReturnIsTolerated) {
  ReleaseServer server(1);
  const ProtocolReply reply = HandleRequestLine(server, "quit\r");
  EXPECT_EQ(reply.response, "ok bye");
}

// --- Observability: metrics verb, stats summary, counter movement. ---
//
// The metrics registry is process-global, so every assertion on counter
// or histogram movement is delta-based: snapshot, act, snapshot again.
// Absolute values would couple these tests to whatever ran before them
// in this binary.

double CounterValue(const std::string& name,
                    const MetricsRegistry::Labels& labels) {
  return MetricsRegistry::Default().GetCounter(name, labels, "")->Value();
}

long long RequestCount(const char* verb) {
  return MetricsRegistry::Default()
      .GetHistogram("nodedp_request_ns", {{"verb", verb}}, "",
                    MetricsRegistry::LatencyBucketsNs())
      ->TakeSnapshot()
      .count;
}

TEST(ObservabilityTest, MetricsVerbReturnsPrometheusPayload) {
  ReleaseServer server(1);
  ASSERT_EQ(HandleRequestLine(server, "gen g gnp 60 1.5 5 2.0 8")
                .response.substr(0, 2),
            "ok");
  ASSERT_EQ(HandleRequestLine(server, "release_cc g 0.5").response
                .substr(0, 2),
            "ok");
  ASSERT_EQ(HandleRequestLine(server, "release_cc g 0.5 tier=approx")
                .response.substr(0, 2),
            "ok");

  const ProtocolReply reply = HandleRequestLine(server, "metrics");
  long long announced = 0;
  ASSERT_EQ(std::sscanf(reply.response.c_str(), "ok metrics lines=%lld",
                        &announced),
            1);
  ASSERT_FALSE(reply.payload.empty());
  EXPECT_EQ(reply.payload.back(), '\n');
  // The announced line count is the framing contract: clients drain
  // exactly that many payload lines after the response line.
  long long lines = 0;
  for (const char c : reply.payload) {
    if (c == '\n') ++lines;
  }
  EXPECT_EQ(lines, announced);
  // Payload lines can never be mistaken for response lines.
  std::istringstream body(reply.payload);
  std::string line;
  while (std::getline(body, line)) {
    EXPECT_NE(line.substr(0, 3), "ok ") << line;
    EXPECT_NE(line.substr(0, 4), "err ") << line;
  }
  EXPECT_NE(reply.payload.find("# TYPE nodedp_request_ns histogram"),
            std::string::npos);
  EXPECT_NE(reply.payload.find("# TYPE nodedp_requests_total counter"),
            std::string::npos);
  EXPECT_NE(
      reply.payload.find("nodedp_ledger_admissions_total{tier=\"approx\"}"),
      std::string::npos);
}

TEST(ObservabilityTest, MetricsVerbRejectsOperands) {
  ReleaseServer server(1);
  EXPECT_EQ(HandleRequestLine(server, "metrics verbose").response,
            "err usage: metrics");
}

TEST(ObservabilityTest, ReleaseCcMovesHistogramAndTierCounters) {
  ReleaseServer server(1);
  ASSERT_EQ(HandleRequestLine(server, "gen g gnp 60 1.5 5 4.0 8")
                .response.substr(0, 2),
            "ok");

  const long long requests_before = RequestCount("release_cc");
  const double exact_before =
      CounterValue("nodedp_ledger_admissions_total", {{"tier", "exact"}});
  const double approx_before =
      CounterValue("nodedp_ledger_admissions_total", {{"tier", "approx"}});
  const double epsilon_before =
      CounterValue("nodedp_epsilon_spent_total", {{"tier", "exact"}});

  ASSERT_EQ(HandleRequestLine(server, "release_cc g 0.5").response
                .substr(0, 2),
            "ok");
  ASSERT_EQ(HandleRequestLine(server, "release_cc g 0.25 tier=approx")
                .response.substr(0, 2),
            "ok");

  EXPECT_EQ(RequestCount("release_cc"), requests_before + 2);
  EXPECT_DOUBLE_EQ(
      CounterValue("nodedp_ledger_admissions_total", {{"tier", "exact"}}),
      exact_before + 1.0);
  EXPECT_DOUBLE_EQ(
      CounterValue("nodedp_ledger_admissions_total", {{"tier", "approx"}}),
      approx_before + 1.0);
  EXPECT_DOUBLE_EQ(
      CounterValue("nodedp_epsilon_spent_total", {{"tier", "exact"}}),
      epsilon_before + 0.5);
}

TEST(ObservabilityTest, RefusalMovesTheRefusalCounter) {
  ReleaseServer server(1);
  ASSERT_EQ(HandleRequestLine(server, "gen g gnp 60 1.5 5 1.0 8")
                .response.substr(0, 2),
            "ok");
  const double refusals_before =
      CounterValue("nodedp_ledger_refusals_total", {});
  const double errors_before = CounterValue("nodedp_request_errors_total",
                                            {{"verb", "release_cc"}});
  // Budget is 1.0: the second 0.75 query must be refused.
  ASSERT_EQ(HandleRequestLine(server, "release_cc g 0.75").response
                .substr(0, 2),
            "ok");
  const std::string refused =
      HandleRequestLine(server, "release_cc g 0.75").response;
  ASSERT_EQ(refused.substr(0, 3), "err");
  EXPECT_DOUBLE_EQ(CounterValue("nodedp_ledger_refusals_total", {}),
                   refusals_before + 1.0);
  EXPECT_DOUBLE_EQ(CounterValue("nodedp_request_errors_total",
                                {{"verb", "release_cc"}}),
                   errors_before + 1.0);
}

TEST(ObservabilityTest, BareStatsPrintsRegistrySummary) {
  ReleaseServer server(1);
  ASSERT_EQ(HandleRequestLine(server, "gen a gnp 60 1.5 5 2.0 8")
                .response.substr(0, 2),
            "ok");
  ASSERT_EQ(HandleRequestLine(server, "gen b gnp 40 1.5 6 2.0 8")
                .response.substr(0, 2),
            "ok");
  const std::string summary = HandleRequestLine(server, "stats").response;
  // One stable line: docs/SERVING.md documents this exact shape.
  EXPECT_TRUE(std::regex_match(
      summary,
      std::regex("ok graphs=2 memory_bytes=[0-9]+ mapped_bytes=[0-9]+ "
                 "cache_bytes=[0-9]+ cache_cap=[0-9]+ cache_evictions=[0-9]+ "
                 "refusals=0")))
      << summary;
}

TEST(ObservabilityTest, MetricsPayloadStreamsOverTheSocket) {
  ReleaseServer server(1);
  SocketServer socket_server(&server);
  ASSERT_TRUE(socket_server.Start().ok());
  auto client = SocketClient::Connect("127.0.0.1", socket_server.port(),
                                      kClientTimeoutMs);
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  ASSERT_EQ(MustRequest(*client, "gen g gnp 60 1.5 5 2.0 8").substr(0, 2),
            "ok");
  ASSERT_EQ(MustRequest(*client, "release_cc g 0.5").substr(0, 2), "ok");
  const std::string response = MustRequest(*client, "metrics");
  long long announced = 0;
  ASSERT_EQ(
      std::sscanf(response.c_str(), "ok metrics lines=%lld", &announced), 1);
  ASSERT_GT(announced, 0);
  bool saw_request_histogram = false;
  for (long long i = 0; i < announced; ++i) {
    const Result<std::string> line = client->ReadLine();
    ASSERT_TRUE(line.ok()) << line.status().ToString();
    if (line->find("# TYPE nodedp_request_ns histogram") !=
        std::string::npos) {
      saw_request_histogram = true;
    }
  }
  EXPECT_TRUE(saw_request_histogram);
  // The connection is still usable: framing consumed exactly the payload.
  EXPECT_EQ(MustRequest(*client, "budget g").substr(0, 2), "ok");
  socket_server.Stop();
}

// --- Lifecycle. ---

TEST(SocketServerLifecycleTest, StartStopIsCleanAndIdempotent) {
  ReleaseServer server(1);
  SocketServer socket_server(&server);
  ASSERT_TRUE(socket_server.Start().ok());
  EXPECT_GT(socket_server.port(), 0);  // ephemeral port was assigned
  EXPECT_FALSE(socket_server.Start().ok());  // double start refused
  socket_server.Stop();
  socket_server.Stop();  // idempotent
}

TEST(SocketServerLifecycleTest, StopWithLiveClientsDoesNotHang) {
  ReleaseServer server(1);
  SocketServer socket_server(&server);
  ASSERT_TRUE(socket_server.Start().ok());
  auto client = SocketClient::Connect("127.0.0.1", socket_server.port(),
                                      kClientTimeoutMs);
  ASSERT_TRUE(client.ok());
  // The client is idle (its handler blocked in recv); Stop must shut the
  // connection down and join, not wait for the client to speak.
  socket_server.Stop();
  EXPECT_FALSE(client->ReadLine().ok());
}

// --- The serve child re-exec'd by the durability test. ---

int RunServeChild(const char* state_dir, const char* port_file) {
  ReleaseServer server(7);
  const Status durable = server.EnableDurableLedgers(state_dir);
  if (!durable.ok()) {
    std::fprintf(stderr, "serve-child: %s\n", durable.ToString().c_str());
    return 1;
  }
  SocketServer socket_server(&server);
  const Status started = socket_server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "serve-child: %s\n", started.ToString().c_str());
    return 1;
  }
  // Publish the port atomically so the parent never reads a partial write.
  const std::string tmp = std::string(port_file) + ".tmp";
  std::ofstream out(tmp, std::ios::trunc);
  out << socket_server.port() << "\n";
  out.close();
  if (!out.good() || std::rename(tmp.c_str(), port_file) != 0) {
    std::fprintf(stderr, "serve-child: cannot publish port file\n");
    return 1;
  }
  // Serve until killed (the test SIGKILLs us — that is the point).
  for (;;) ::pause();
}

}  // namespace
}  // namespace nodedp

int main(int argc, char** argv) {
  if (argc >= 4 && std::strcmp(argv[1], "--serve-child") == 0) {
    return nodedp::RunServeChild(argv[2], argv[3]);
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
