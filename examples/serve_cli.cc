// serve_cli: front end to serve/ReleaseServer speaking the docs/SERVING.md
// line protocol — one request per line, one `ok ...` or `err ...` response
// per request, all dispatch through serve/protocol.h so every mode speaks
// exactly the same protocol.
//
// Modes:
//   serve_cli [--seed S] [--state DIR]
//       stdin/stdout loop (the original mode): requests on stdin, one
//       response line each on stdout; EOF or `quit` exits 0.
//   serve_cli --listen PORT [--seed S] [--state DIR]
//       TCP server (serve/socket_server.h): concurrent clients, per-
//       connection parse isolation, bounded accept queue. PORT 0 picks an
//       ephemeral port. Prints `ok listening port=<p> pid=<p>` on stdout
//       when ready, then runs until SIGINT/SIGTERM.
//   serve_cli --connect HOST:PORT
//       client: pumps stdin request lines to a listening serve_cli and
//       prints each response — the scripting shim for CI and operators
//       (blank/# lines are skipped client-side, as the protocol ignores
//       them server-side).
//
// --state DIR makes privacy-budget ledgers durable (serve/ledger_wal.h):
// every admission is write-ahead logged under DIR before the mechanism
// runs, and a restart with the same DIR restores every graph's ledger —
// spend-to-refusal survives crash and restart. Without --state, ledgers
// are process-lifetime only (suitable for exploration, not deployment).
//
// Requests (see docs/SERVING.md for the full table):
//   load <name> <path> [budget] [delta_max]     register a graph file
//   load_mmap <name> <path> [budget] [delta_max] zero-copy NDPG v2 mmap
//   gen <name> gnp <n> <avg_deg> <seed> [budget] [delta_max]
//   save <name> <path> [text|v2]
//   release_cc <name> <epsilon> [tier=approx|tier=exact]
//   release_sf <name> <epsilon>
//   sweep <name> <eps1> <eps2> ...              Σ εᵢ charged all-or-nothing
//   add_edges <name> <u1> <v1> [<u2> <v2> ...]  insert edges (no ε charge)
//   budget <name>   stats [<name>]   evict <name>   quit
//
// Memory: a registered graph keeps its warmed family until it is
// evicted; `evict <name>` reclaims both.

#include <pthread.h>
#include <unistd.h>

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "serve/protocol.h"
#include "serve/release_server.h"
#include "serve/socket_client.h"
#include "serve/socket_server.h"

namespace {

using namespace nodedp;

int RunStdinLoop(ReleaseServer& server) {
  std::string line;
  while (std::getline(std::cin, line)) {
    const ProtocolReply reply = HandleRequestLine(server, line);
    if (!reply.response.empty()) {
      std::printf("%s\n", reply.response.c_str());
      // Multi-line body (`metrics` exposition text), already
      // newline-terminated.
      if (!reply.payload.empty()) std::fputs(reply.payload.c_str(), stdout);
      std::fflush(stdout);
    }
    if (reply.quit) return 0;
  }
  return 0;
}

int RunListen(ReleaseServer& server, int port) {
  // Block the shutdown signals first so they are delivered to sigwait
  // below, not to the default handler, no matter when they arrive.
  sigset_t signals;
  sigemptyset(&signals);
  sigaddset(&signals, SIGINT);
  sigaddset(&signals, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &signals, nullptr);

  SocketServerOptions options;
  options.port = port;
  SocketServer socket_server(&server, options);
  const Status started = socket_server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "err %s\n", started.ToString().c_str());
    return 1;
  }
  std::printf("ok listening port=%d pid=%d\n", socket_server.port(),
              static_cast<int>(getpid()));
  std::fflush(stdout);

  int signal_number = 0;
  sigwait(&signals, &signal_number);
  std::printf("ok shutting down (signal %d)\n", signal_number);
  socket_server.Stop();
  return 0;
}

int RunConnect(const std::string& target) {
  const std::size_t colon = target.rfind(':');
  if (colon == std::string::npos) {
    std::fprintf(stderr, "err --connect needs HOST:PORT\n");
    return 2;
  }
  const std::string host = target.substr(0, colon);
  const int port = std::atoi(target.c_str() + colon + 1);
  Result<SocketClient> client = SocketClient::Connect(host, port);
  if (!client.ok()) {
    std::fprintf(stderr, "err %s\n", client.status().ToString().c_str());
    return 1;
  }
  std::string line;
  while (std::getline(std::cin, line)) {
    // Mirror the protocol's no-response lines client-side, or we would
    // wait forever for replies that never come.
    std::size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    const Result<std::string> response = client->Request(line);
    if (!response.ok()) {
      std::fprintf(stderr, "err %s\n", response.status().ToString().c_str());
      return 1;
    }
    std::printf("%s\n", response->c_str());
    // `ok metrics lines=N` announces an N-line body after the response
    // line; drain exactly N lines so the next request/response pair stays
    // aligned.
    long long body_lines = 0;
    if (std::sscanf(response->c_str(), "ok metrics lines=%lld",
                    &body_lines) == 1) {
      for (long long i = 0; i < body_lines; ++i) {
        const Result<std::string> body = client->ReadLine();
        if (!body.ok()) {
          std::fprintf(stderr, "err %s\n", body.status().ToString().c_str());
          return 1;
        }
        std::printf("%s\n", body->c_str());
      }
    }
    std::fflush(stdout);
    if (*response == "ok bye") return 0;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t seed = 1;
  int listen_port = -1;
  std::string state_dir;
  std::string connect_target;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--seed" && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (flag == "--listen" && i + 1 < argc) {
      listen_port = std::atoi(argv[++i]);
    } else if (flag == "--state" && i + 1 < argc) {
      state_dir = argv[++i];
    } else if (flag == "--connect" && i + 1 < argc) {
      connect_target = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--seed S] [--state DIR] [--listen PORT]\n"
                   "       %s --connect HOST:PORT\n",
                   argv[0], argv[0]);
      return 2;
    }
  }

  if (!connect_target.empty()) return RunConnect(connect_target);

  ReleaseServer server(seed);
  if (!state_dir.empty()) {
    const Status durable = server.EnableDurableLedgers(state_dir);
    if (!durable.ok()) {
      std::fprintf(stderr, "err %s\n", durable.ToString().c_str());
      return 1;
    }
  }
  if (listen_port >= 0) return RunListen(server, listen_port);
  return RunStdinLoop(server);
}
