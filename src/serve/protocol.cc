#include "serve/protocol.h"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "graph/generators.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/random.h"

namespace nodedp {

namespace {

// Canonical verb names for metric labels and trace contexts. Unknown
// commands fold into "other" so a client typo cannot mint unbounded
// label values (Prometheus cardinality hygiene).
constexpr const char* kVerbs[] = {
    "quit", "load", "load_mmap", "gen", "save", "release_cc", "release_sf",
    "sweep", "add_edges", "budget", "stats", "evict", "metrics"};

const char* CanonicalVerb(const std::string& command) {
  for (const char* verb : kVerbs) {
    if (command == verb) return verb;
  }
  return "other";
}

// Per-verb request accounting. The table is built once, on first
// dispatch, so the hot path is one read-only map lookup plus lock-free
// increments/observes.
struct VerbMetrics {
  Counter* requests;
  Counter* errors;
  Histogram* latency;
};

const VerbMetrics& MetricsForVerb(const char* verb) {
  static const std::map<std::string, VerbMetrics>* table = [] {
    auto* t = new std::map<std::string, VerbMetrics>();
    MetricsRegistry& registry = MetricsRegistry::Default();
    std::vector<const char*> verbs(std::begin(kVerbs), std::end(kVerbs));
    verbs.push_back("other");
    for (const char* verb : verbs) {
      VerbMetrics metrics;
      metrics.requests = registry.GetCounter(
          "nodedp_requests_total", {{"verb", verb}},
          "Requests dispatched through the line protocol");
      metrics.errors = registry.GetCounter(
          "nodedp_request_errors_total", {{"verb", verb}},
          "Requests answered with an err response");
      metrics.latency = registry.GetHistogram(
          "nodedp_request_ns", {{"verb", verb}},
          "End-to-end request latency (parse to response) in wall-ns",
          MetricsRegistry::LatencyBucketsNs());
      t->emplace(verb, metrics);
    }
    return t;
  }();
  return table->at(verb);
}

// printf-style append; responses are built in memory so every transport
// (stdout, socket) sends exactly one write per reply.
void Appendf(std::string* out, const char* format, ...)
    __attribute__((format(printf, 2, 3)));

void Appendf(std::string* out, const char* format, ...) {
  char buffer[256];
  va_list args;
  va_start(args, format);
  const int n = std::vsnprintf(buffer, sizeof(buffer), format, args);
  va_end(args);
  if (n <= 0) return;
  if (static_cast<std::size_t>(n) < sizeof(buffer)) {
    out->append(buffer, static_cast<std::size_t>(n));
    return;
  }
  std::vector<char> big(static_cast<std::size_t>(n) + 1);
  va_start(args, format);
  std::vsnprintf(big.data(), big.size(), format, args);
  va_end(args);
  out->append(big.data(), static_cast<std::size_t>(n));
}

// Parses a strictly positive finite double, returning false on garbage.
// Subnormals are refused too: halving one for a mechanism's budget split
// can round to 0, which the accountant CHECK-fails on.
bool ParsePositiveDouble(const std::string& token, double* out) {
  char* end = nullptr;
  const double value = std::strtod(token.c_str(), &end);
  if (end == token.c_str() || *end != '\0' || !(value > 0.0) ||
      !std::isnormal(value)) {
    return false;
  }
  *out = value;
  return true;
}

bool ParseNonNegativeInt(const std::string& token, long long* out) {
  char* end = nullptr;
  const long long value = std::strtoll(token.c_str(), &end, 10);
  if (end == token.c_str() || *end != '\0' || value < 0) return false;
  *out = value;
  return true;
}

// `load`/`gen` share the trailing [budget] [delta_max] arguments.
bool ParseConfigTail(const std::vector<std::string>& args, std::size_t from,
                     ServeGraphConfig* config, std::string* error) {
  if (args.size() > from) {
    if (!ParsePositiveDouble(args[from], &config->total_epsilon)) {
      *error = "budget must be a finite positive number";
      return false;
    }
  }
  if (args.size() > from + 1) {
    long long delta_max = 0;
    if (!ParseNonNegativeInt(args[from + 1], &delta_max) || delta_max <= 0 ||
        delta_max > 2147483647LL) {
      *error = "delta_max must be a positive int";
      return false;
    }
    config->release.delta_max = static_cast<int>(delta_max);
  }
  return true;
}

std::string BudgetResponse(const BudgetReport& budget) {
  std::string out;
  Appendf(&out,
          "ok total=%.6g spent=%.6g remaining=%.6g charges=%lld refusals=%lld",
          budget.total, budget.spent, budget.remaining, budget.num_charges,
          budget.num_refusals);
  return out;
}

// Executes one parsed request. `args` is non-empty; args[0] is the
// command word.
ProtocolReply DispatchCommand(ReleaseServer& server,
                              const std::vector<std::string>& args) {
  ProtocolReply reply;
  const std::string& command = args[0];
  std::string& out = reply.response;

  if (command == "quit") {
    out = "ok bye";
    reply.quit = true;
    return reply;
  }

  if (command == "load") {
    if (args.size() < 3 || args.size() > 5) {
      out = "err usage: load <name> <path> [budget] [delta_max]";
      return reply;
    }
    ServeGraphConfig config;
    std::string error;
    if (!ParseConfigTail(args, 3, &config, &error)) {
      out = "err " + error;
      return reply;
    }
    const Status loaded = server.LoadFromFile(args[1], args[2], config);
    if (!loaded.ok()) {
      out = "err " + loaded.ToString();
      return reply;
    }
    const auto stats = server.Stats(args[1]);
    Appendf(&out, "ok loaded %s n=%d m=%d budget=%.6g warmed=%d",
            args[1].c_str(), stats->num_vertices, stats->num_edges,
            stats->budget.total, stats->family_warmed ? 1 : 0);
  } else if (command == "load_mmap") {
    // Zero-copy registration of an NDPG v2 file: one validation pass, no
    // heap copy. No prewarm — the point is that the graph is servable
    // right after the open (approx tier touches only the pages it walks);
    // the first exact-tier query pays the family build instead.
    if (args.size() < 3 || args.size() > 5) {
      out = "err usage: load_mmap <name> <path> [budget] [delta_max]";
      return reply;
    }
    ServeGraphConfig config;
    config.prewarm = false;
    std::string error;
    if (!ParseConfigTail(args, 3, &config, &error)) {
      out = "err " + error;
      return reply;
    }
    const Status loaded = server.LoadMmap(args[1], args[2], config);
    if (!loaded.ok()) {
      out = "err " + loaded.ToString();
      return reply;
    }
    const auto stats = server.Stats(args[1]);
    Appendf(&out, "ok mapped %s n=%d m=%d budget=%.6g mapped_bytes=%zu",
            args[1].c_str(), stats->num_vertices, stats->num_edges,
            stats->budget.total, stats->graph_mapped_bytes);
  } else if (command == "gen") {
    if (args.size() < 6 || args.size() > 8 || args[2] != "gnp") {
      out =
          "err usage: gen <name> gnp <n> <avg_deg> <seed> [budget] "
          "[delta_max]";
      return reply;
    }
    long long n = 0;
    double avg_deg = 0.0;
    long long gen_seed = 0;
    if (!ParseNonNegativeInt(args[3], &n) || n <= 0 || n > 2147483647LL ||
        !ParsePositiveDouble(args[4], &avg_deg) ||
        !ParseNonNegativeInt(args[5], &gen_seed)) {
      out = "err gen: bad n / avg_deg / seed";
      return reply;
    }
    ServeGraphConfig config;
    std::string error;
    if (!ParseConfigTail(args, 6, &config, &error)) {
      out = "err " + error;
      return reply;
    }
    Rng rng(static_cast<std::uint64_t>(gen_seed));
    Graph g = gen::ErdosRenyi(static_cast<int>(n),
                              avg_deg / static_cast<double>(n), rng);
    const int num_vertices = g.NumVertices();
    const int num_edges = g.NumEdges();
    const Status loaded = server.Load(args[1], std::move(g), config);
    if (!loaded.ok()) {
      out = "err " + loaded.ToString();
      return reply;
    }
    // Report the budget the server actually adopted: with durable ledgers
    // a reload inherits the restored total, not the config's.
    const auto budget = server.Budget(args[1]);
    Appendf(&out, "ok generated %s n=%d m=%d budget=%.6g", args[1].c_str(),
            num_vertices, num_edges,
            budget.ok() ? budget->total : config.total_epsilon);
  } else if (command == "save") {
    const std::string format = args.size() == 4 ? args[3] : "v2";
    if (args.size() < 3 || args.size() > 4 ||
        (format != "text" && format != "v2")) {
      out = "err usage: save <name> <path> [text|v2]";
      return reply;
    }
    const Status saved =
        server.Save(args[1], args[2],
                    format == "text" ? GraphFileFormat::kText
                                     : GraphFileFormat::kV2);
    if (!saved.ok()) {
      out = "err " + saved.ToString();
      return reply;
    }
    Appendf(&out, "ok saved %s %s", args[1].c_str(), format.c_str());
  } else if (command == "release_cc" || command == "release_sf") {
    // release_cc takes an optional serving tier: `tier=exact` (default)
    // answers from the warmed Algorithm 1 family; `tier=approx` answers
    // from the sampled sublinear estimator — no family; O(s * cutoff)
    // BFS work on a graph's first approx read, then mostly O(s) lookups
    // in its component-size memo; its own (larger) noise, reported with
    // public error bounds.
    const bool is_cc = command == "release_cc";
    std::string tier = "exact";
    if (is_cc && args.size() == 4) {
      if (args[3] == "tier=approx" || args[3] == "tier=exact") {
        tier = args[3].substr(5);
      } else {
        out = "err release_cc: tier must be tier=approx or tier=exact";
        return reply;
      }
    } else if (args.size() != 3) {
      out = is_cc ? "err usage: release_cc <name> <epsilon> "
                    "[tier=approx|tier=exact]"
                  : "err usage: release_sf <name> <epsilon>";
      return reply;
    }
    double epsilon = 0.0;
    if (!ParsePositiveDouble(args[2], &epsilon)) {
      out = "err epsilon must be a finite positive number";
      return reply;
    }
    if (is_cc && tier == "approx") {
      const auto release = server.ReleaseCcApprox(args[1], epsilon);
      if (!release.ok()) {
        out = "err " + release.status().ToString();
        return reply;
      }
      Appendf(&out,
              "ok cc=%.3f eps=%.6g tier=approx samples=%d cutoff=%d "
              "noise=%.6g bias_le=%.6g",
              release->estimate, epsilon, release->num_samples,
              release->bfs_cutoff, release->laplace_scale,
              release->truncation_bias_bound);
    } else if (is_cc) {
      const auto release = server.ReleaseCc(args[1], epsilon);
      if (!release.ok()) {
        out = "err " + release.status().ToString();
        return reply;
      }
      Appendf(&out, "ok cc=%.3f eps=%.6g delta=%d", release->estimate,
              epsilon, release->forest.selected_delta);
    } else {
      const auto release = server.ReleaseSf(args[1], epsilon);
      if (!release.ok()) {
        out = "err " + release.status().ToString();
        return reply;
      }
      Appendf(&out, "ok sf=%.3f eps=%.6g delta=%d", release->estimate,
              epsilon, release->selected_delta);
    }
  } else if (command == "sweep") {
    if (args.size() < 3) {
      out = "err usage: sweep <name> <eps1> <eps2> ...";
      return reply;
    }
    std::vector<double> epsilons;
    for (std::size_t i = 2; i < args.size(); ++i) {
      double epsilon = 0.0;
      if (!ParsePositiveDouble(args[i], &epsilon)) {
        out = "err sweep: every epsilon must be a finite positive number";
        return reply;
      }
      epsilons.push_back(epsilon);
    }
    const auto releases = server.SweepCc(args[1], epsilons);
    if (!releases.ok()) {
      out = "err " + releases.status().ToString();
      return reply;
    }
    Appendf(&out, "ok sweep k=%zu", releases->size());
    for (std::size_t i = 0; i < releases->size(); ++i) {
      Appendf(&out, " %.6g:%.3f", epsilons[i], (*releases)[i].estimate);
    }
  } else if (command == "add_edges") {
    // Data operation, not a release: charges no budget. The server applies
    // the batch atomically and incrementally re-warms only the components
    // the batch touched (see ReleaseServer::UpdateGraph).
    if (args.size() < 4 || args.size() % 2 != 0) {
      out = "err usage: add_edges <name> <u1> <v1> [<u2> <v2> ...]";
      return reply;
    }
    std::vector<std::pair<int, int>> inserts;
    inserts.reserve((args.size() - 2) / 2);
    for (std::size_t i = 2; i + 1 < args.size(); i += 2) {
      long long u = 0;
      long long v = 0;
      if (!ParseNonNegativeInt(args[i], &u) ||
          !ParseNonNegativeInt(args[i + 1], &v) || u > 2147483647LL ||
          v > 2147483647LL) {
        out = "err add_edges: endpoints must be non-negative ints";
        return reply;
      }
      inserts.emplace_back(static_cast<int>(u), static_cast<int>(v));
    }
    const auto updated = server.UpdateGraph(args[1], inserts);
    if (!updated.ok()) {
      out = "err " + updated.status().ToString();
      return reply;
    }
    Appendf(&out,
            "ok added=%d dup=%d m=%d invalidated=%d adopted=%d rewarmed=%d",
            updated->edges_added, updated->duplicates, updated->num_edges,
            updated->components_invalidated, updated->components_adopted,
            updated->family_rewarmed ? 1 : 0);
  } else if (command == "budget") {
    if (args.size() != 2) {
      out = "err usage: budget <name>";
      return reply;
    }
    const auto budget = server.Budget(args[1]);
    if (!budget.ok()) {
      out = "err " + budget.status().ToString();
      return reply;
    }
    out = BudgetResponse(*budget);
  } else if (command == "stats") {
    if (args.size() == 1) {
      // Registry-wide summary: totals only, independent of map order, so
      // the line is stable as graphs come and go. Format documented in
      // docs/SERVING.md; per-verb/latency telemetry lives under the
      // `metrics` verb, not here.
      const ReleaseServer::Summary summary = server.GetSummary();
      Appendf(&out,
              "ok graphs=%zu memory_bytes=%zu mapped_bytes=%zu "
              "cache_bytes=%zu cache_cap=%zu cache_evictions=%lld "
              "refusals=%lld",
              summary.graphs, summary.memory_bytes, summary.mapped_bytes,
              summary.cache.bytes, summary.cache.byte_cap,
              summary.cache.evictions, summary.refusals);
    } else if (args.size() == 2) {
      const auto stats = server.Stats(args[1]);
      if (!stats.ok()) {
        out = "err " + stats.status().ToString();
        return reply;
      }
      Appendf(&out,
              "ok n=%d m=%d memory_bytes=%zu warmed=%d family_bytes=%zu "
              "answered=%lld failed=%lld spent=%.6g remaining=%.6g "
              "lp_evals=%lld fast_certs=%lld cache_hits=%lld mapped_bytes=%zu",
              stats->num_vertices, stats->num_edges,
              stats->graph_memory_bytes, stats->family_warmed ? 1 : 0,
              stats->family_memory_bytes, stats->queries_answered,
              stats->queries_failed, stats->budget.spent,
              stats->budget.remaining, stats->family.lp_evaluations,
              stats->family.fast_certificates, stats->family.cache_hits,
              stats->graph_mapped_bytes);
    } else {
      out = "err usage: stats [<name>]";
    }
  } else if (command == "evict") {
    if (args.size() != 2) {
      out = "err usage: evict <name>";
      return reply;
    }
    const Status evicted = server.Evict(args[1]);
    if (!evicted.ok()) {
      out = "err " + evicted.ToString();
      return reply;
    }
    Appendf(&out, "ok evicted %s", args[1].c_str());
  } else if (command == "metrics") {
    // Prometheus text exposition of the process-wide registry
    // (docs/OBSERVABILITY.md). The body rides ProtocolReply::payload; the
    // response line announces its exact line count so request/response
    // clients know how many lines to drain before the next request.
    if (args.size() != 1) {
      out = "err usage: metrics";
      return reply;
    }
    reply.payload = MetricsRegistry::Default().PrometheusText();
    const std::size_t lines = static_cast<std::size_t>(
        std::count(reply.payload.begin(), reply.payload.end(), '\n'));
    Appendf(&out, "ok metrics lines=%zu", lines);
  } else {
    out = "err unknown command '" + command + "'";
  }
  return reply;
}

}  // namespace

ProtocolReply HandleRequestLine(ReleaseServer& server, std::string_view line) {
  // Tolerate CRLF transports.
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  std::istringstream stream{std::string(line)};
  std::vector<std::string> args;
  std::string token;
  while (stream >> token) args.push_back(token);
  if (args.empty() || args[0][0] == '#') return {};

  // Every dispatched request runs under a QueryTrace: deeper layers
  // (admission, family resolution, mechanisms, updates) attach spans to
  // it, and crossing NODEDP_SLOW_QUERY_NS logs the breakdown on the way
  // out. The latency histogram is observed before the trace destructs so
  // its verb label and the slow-query log describe the same request.
  const char* verb = CanonicalVerb(args[0]);
  const VerbMetrics& metrics = MetricsForVerb(verb);
  QueryTrace trace(verb);
  if (args.size() >= 2) trace.set_target(args[1]);
  ProtocolReply reply = DispatchCommand(server, args);
  metrics.latency->Observe(static_cast<double>(trace.TotalNs()));
  metrics.requests->Increment();
  if (reply.response.compare(0, 4, "err ") == 0) metrics.errors->Increment();
  return reply;
}

}  // namespace nodedp
