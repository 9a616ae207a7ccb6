#include "serve/protocol.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <string>
#include <vector>

#include "graph/generators.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/random.h"

namespace nodedp {

namespace {

// The verbs, indexing kVerbs. Unknown commands fold into kOther so a
// client typo cannot mint unbounded label values (Prometheus cardinality
// hygiene).
enum Verb : std::size_t {
  kQuit,
  kLoad,
  kLoadMmap,
  kGen,
  kSave,
  kReleaseCc,
  kReleaseSf,
  kSweep,
  kAddEdges,
  kBudget,
  kStats,
  kEvict,
  kMetrics,
  kOther
};

// Canonical verb names for metric labels and trace contexts.
constexpr const char* kVerbs[] = {
    "quit", "load", "load_mmap", "gen", "save", "release_cc", "release_sf",
    "sweep", "add_edges", "budget", "stats", "evict", "metrics", "other"};
static_assert(std::size(kVerbs) == kOther + 1);

Verb CanonicalVerb(std::string_view command) {
  for (std::size_t verb = 0; verb < kOther; ++verb) {
    if (command == kVerbs[verb]) return static_cast<Verb>(verb);
  }
  return kOther;
}

// Per-verb request accounting. The table is built once, on first
// dispatch, so the hot path is one array index plus lock-free
// increments/observes.
struct VerbMetrics {
  Counter* requests;
  Counter* errors;
  Histogram* latency;
};

const VerbMetrics& MetricsForVerb(Verb verb) {
  static const std::array<VerbMetrics, std::size(kVerbs)> table = [] {
    std::array<VerbMetrics, std::size(kVerbs)> t;
    MetricsRegistry& registry = MetricsRegistry::Default();
    for (std::size_t i = 0; i < t.size(); ++i) {
      const char* verb = kVerbs[i];
      VerbMetrics& metrics = t[i];
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
    }
    return t;
  }();
  return table[verb];
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

// The read verbs' numbers go through std::to_chars, which gives exactly
// printf's bytes for the same conversion — `fixed, 3` is %.3f, `general, 6`
// is %.6g, the integer overload is %d/%lld/%zu — without interpreting a
// format string.
template <typename T, typename... Format>
void AppendNumber(std::string* out, T value, Format... format) {
  // %.3f of the largest double is 314 characters.
  char buffer[320];
  const std::to_chars_result result =
      std::to_chars(buffer, buffer + sizeof(buffer), value, format...);
  out->append(buffer, result.ptr);
}

void AppendFixed3(std::string* out, double value) {
  AppendNumber(out, value, std::chars_format::fixed, 3);
}

void AppendGeneral6(std::string* out, double value) {
  AppendNumber(out, value, std::chars_format::general, 6);
}

// Room for any read reply but one carrying an enormous %.3f estimate,
// which grows the string once more.
constexpr std::size_t kReadReplyBytes = 128;

// strtod and strtoll read a NUL-terminated string, and a token is a view
// into the request line. Copies the token into `buffer` when it fits (any
// ordinary number does) and into `heap` otherwise; returns the copy. An
// embedded NUL ends the copy's C string, exactly as it ended the old
// std::string token's c_str().
const char* TerminatedCopy(std::string_view token, char (&buffer)[64],
                           std::string* heap) {
  if (token.size() < sizeof(buffer)) {
    std::memcpy(buffer, token.data(), token.size());
    buffer[token.size()] = '\0';
    return buffer;
  }
  heap->assign(token);
  return heap->c_str();
}

// Parses a strictly positive finite double, returning false on garbage.
// Subnormals are refused too: halving one for a mechanism's budget split
// can round to 0, which the accountant CHECK-fails on. strtod, not
// from_chars: it also accepts a leading '+' and hex floats.
bool ParsePositiveDouble(std::string_view token, double* out) {
  char buffer[64];
  std::string heap;
  const char* text = TerminatedCopy(token, buffer, &heap);
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0' || !(value > 0.0) || !std::isnormal(value)) {
    return false;
  }
  *out = value;
  return true;
}

bool ParseNonNegativeInt(std::string_view token, long long* out) {
  char buffer[64];
  std::string heap;
  const char* text = TerminatedCopy(token, buffer, &heap);
  char* end = nullptr;
  const long long value = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || value < 0) return false;
  *out = value;
  return true;
}

// `load`/`gen` share the trailing [budget] [delta_max] arguments.
bool ParseConfigTail(const std::vector<std::string_view>& args,
                     std::size_t from, ServeGraphConfig* config,
                     std::string* error) {
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

// Executes one parsed request. `args` is non-empty; args[0] is the
// command word, `verb` its index.
ProtocolReply DispatchCommand(ReleaseServer& server, Verb verb,
                              const std::vector<std::string_view>& args) {
  ProtocolReply reply;
  std::string& out = reply.response;

  if (verb == kQuit) {
    out = "ok bye";
    reply.quit = true;
    return reply;
  }

  if (verb == kLoad) {
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
    const std::string name(args[1]);
    const Status loaded =
        server.LoadFromFile(name, std::string(args[2]), config);
    if (!loaded.ok()) {
      out = "err " + loaded.ToString();
      return reply;
    }
    // Another client's evict may land between the load and this read.
    const auto stats = server.Stats(name);
    if (!stats.ok()) {
      out = "err " + stats.status().ToString();
      return reply;
    }
    Appendf(&out, "ok loaded %s n=%d m=%d budget=%.6g warmed=%d",
            name.c_str(), stats->num_vertices, stats->num_edges,
            stats->budget.total, stats->family_warmed ? 1 : 0);
  } else if (verb == kLoadMmap) {
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
    const std::string name(args[1]);
    const Status loaded = server.LoadMmap(name, std::string(args[2]), config);
    if (!loaded.ok()) {
      out = "err " + loaded.ToString();
      return reply;
    }
    const auto stats = server.Stats(name);
    if (!stats.ok()) {
      out = "err " + stats.status().ToString();
      return reply;
    }
    Appendf(&out, "ok mapped %s n=%d m=%d budget=%.6g mapped_bytes=%zu",
            name.c_str(), stats->num_vertices, stats->num_edges,
            stats->budget.total, stats->graph_mapped_bytes);
  } else if (verb == kGen) {
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
    const std::string name(args[1]);
    const Status loaded = server.Load(name, std::move(g), config);
    if (!loaded.ok()) {
      out = "err " + loaded.ToString();
      return reply;
    }
    // Report the budget the server actually adopted: with durable ledgers
    // a reload inherits the restored total, not the config's.
    const auto budget = server.Budget(name);
    Appendf(&out, "ok generated %s n=%d m=%d budget=%.6g", name.c_str(),
            num_vertices, num_edges,
            budget.ok() ? budget->total : config.total_epsilon);
  } else if (verb == kSave) {
    const std::string_view format = args.size() == 4 ? args[3] : "v2";
    if (args.size() < 3 || args.size() > 4 ||
        (format != "text" && format != "v2")) {
      out = "err usage: save <name> <path> [text|v2]";
      return reply;
    }
    const std::string name(args[1]);
    const Status saved =
        server.Save(name, std::string(args[2]),
                    format == "text" ? GraphFileFormat::kText
                                     : GraphFileFormat::kV2);
    if (!saved.ok()) {
      out = "err " + saved.ToString();
      return reply;
    }
    Appendf(&out, "ok saved %s %s", name.c_str(), std::string(format).c_str());
  } else if (verb == kReleaseCc || verb == kReleaseSf) {
    // release_cc takes an optional serving tier: `tier=exact` (default)
    // answers from the warmed Algorithm 1 family; `tier=approx` answers
    // from the sampled sublinear estimator — no family; O(s * cutoff)
    // BFS work on a graph's first approx read, then mostly O(s) lookups
    // in its component-size memo; its own (larger) noise, reported with
    // public error bounds.
    const bool is_cc = verb == kReleaseCc;
    bool approx = false;
    if (is_cc && args.size() == 4) {
      if (args[3] == "tier=approx" || args[3] == "tier=exact") {
        approx = args[3] == "tier=approx";
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
    if (approx) {
      const auto release = server.ReleaseCcApprox(args[1], epsilon);
      if (!release.ok()) {
        out = "err " + release.status().ToString();
        return reply;
      }
      out = ApproxReleaseReply(*release, epsilon);
    } else if (is_cc) {
      const auto release = server.ReleaseCc(args[1], epsilon);
      if (!release.ok()) {
        out = "err " + release.status().ToString();
        return reply;
      }
      out = ExactReleaseReply("cc", release->estimate, epsilon,
                              release->forest.selected_delta);
    } else {
      const auto release = server.ReleaseSf(args[1], epsilon);
      if (!release.ok()) {
        out = "err " + release.status().ToString();
        return reply;
      }
      out = ExactReleaseReply("sf", release->estimate, epsilon,
                              release->selected_delta);
    }
  } else if (verb == kSweep) {
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
    out = SweepReply(epsilons, *releases);
  } else if (verb == kAddEdges) {
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
    const auto updated = server.UpdateGraph(std::string(args[1]), inserts);
    if (!updated.ok()) {
      out = "err " + updated.status().ToString();
      return reply;
    }
    Appendf(&out,
            "ok added=%d dup=%d m=%d invalidated=%d adopted=%d rewarmed=%d",
            updated->edges_added, updated->duplicates, updated->num_edges,
            updated->components_invalidated, updated->components_adopted,
            updated->family_rewarmed ? 1 : 0);
  } else if (verb == kBudget) {
    if (args.size() != 2) {
      out = "err usage: budget <name>";
      return reply;
    }
    const auto budget = server.Budget(args[1]);
    if (!budget.ok()) {
      out = "err " + budget.status().ToString();
      return reply;
    }
    out = BudgetReply(*budget);
  } else if (verb == kStats) {
    if (args.size() == 1) {
      // Registry-wide summary: totals only, independent of map order, so
      // the line is stable as graphs come and go. Format documented in
      // docs/SERVING.md; per-verb/latency telemetry lives under the
      // `metrics` verb, not here. Fields are only ever appended, so the
      // retired family byte cap keeps its two fields as fixed zeros.
      const ReleaseServer::Summary summary = server.GetSummary();
      Appendf(&out,
              "ok graphs=%zu memory_bytes=%zu mapped_bytes=%zu "
              "cache_bytes=%zu cache_cap=0 cache_evictions=0 refusals=%lld",
              summary.graphs, summary.memory_bytes, summary.mapped_bytes,
              summary.family_bytes, summary.refusals);
    } else if (args.size() == 2) {
      const auto stats = server.Stats(std::string(args[1]));
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
  } else if (verb == kEvict) {
    if (args.size() != 2) {
      out = "err usage: evict <name>";
      return reply;
    }
    const std::string name(args[1]);
    const Status evicted = server.Evict(name);
    if (!evicted.ok()) {
      out = "err " + evicted.ToString();
      return reply;
    }
    Appendf(&out, "ok evicted %s", name.c_str());
  } else if (verb == kMetrics) {
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
    out = "err unknown command '" + std::string(args[0]) + "'";
  }
  return reply;
}

}  // namespace

std::string ExactReleaseReply(const char* value_name, double estimate,
                              double epsilon, int delta) {
  std::string out;
  out.reserve(kReadReplyBytes);
  out += "ok ";
  out += value_name;
  out += '=';
  AppendFixed3(&out, estimate);
  out += " eps=";
  AppendGeneral6(&out, epsilon);
  out += " delta=";
  AppendNumber(&out, delta);
  return out;
}

std::string ApproxReleaseReply(const SublinearCcRelease& release,
                               double epsilon) {
  std::string out;
  out.reserve(kReadReplyBytes);
  out += "ok cc=";
  AppendFixed3(&out, release.estimate);
  out += " eps=";
  AppendGeneral6(&out, epsilon);
  out += " tier=approx samples=";
  AppendNumber(&out, release.num_samples);
  out += " cutoff=";
  AppendNumber(&out, release.bfs_cutoff);
  out += " noise=";
  AppendGeneral6(&out, release.laplace_scale);
  out += " bias_le=";
  AppendGeneral6(&out, release.truncation_bias_bound);
  return out;
}

std::string SweepReply(
    const std::vector<double>& epsilons,
    const std::vector<ConnectedComponentsRelease>& releases) {
  std::string out;
  out.reserve(kReadReplyBytes);
  out += "ok sweep k=";
  AppendNumber(&out, releases.size());
  for (std::size_t i = 0; i < releases.size(); ++i) {
    out += ' ';
    AppendGeneral6(&out, epsilons[i]);
    out += ':';
    AppendFixed3(&out, releases[i].estimate);
  }
  return out;
}

std::string BudgetReply(const BudgetReport& budget) {
  std::string out;
  out.reserve(kReadReplyBytes);
  out += "ok total=";
  AppendGeneral6(&out, budget.total);
  out += " spent=";
  AppendGeneral6(&out, budget.spent);
  out += " remaining=";
  AppendGeneral6(&out, budget.remaining);
  out += " charges=";
  AppendNumber(&out, budget.num_charges);
  out += " refusals=";
  AppendNumber(&out, budget.num_refusals);
  return out;
}

std::vector<std::string_view> SplitRequestTokens(std::string_view line) {
  const auto separator = [](char c) {
    return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
           c == '\r';
  };
  std::vector<std::string_view> tokens;
  tokens.reserve(8);  // one allocation for every read verb's line
  std::size_t at = 0;
  while (at < line.size()) {
    if (separator(line[at])) {
      ++at;
      continue;
    }
    const std::size_t start = at;
    while (at < line.size() && !separator(line[at])) ++at;
    tokens.push_back(line.substr(start, at - start));
  }
  return tokens;
}

ProtocolReply HandleRequestLine(ReleaseServer& server, std::string_view line) {
  // CRLF transports need nothing special: '\r' is a separator.
  const std::vector<std::string_view> args = SplitRequestTokens(line);
  if (args.empty() || args[0].front() == '#') return {};

  // Every dispatched request runs under a QueryTrace: deeper layers
  // (admission, family resolution, mechanisms, updates) attach spans to
  // it, and crossing NODEDP_SLOW_QUERY_NS logs the breakdown on the way
  // out. The latency histogram is observed before the trace destructs so
  // its verb label and the slow-query log describe the same request.
  const Verb verb = CanonicalVerb(args[0]);
  const VerbMetrics& metrics = MetricsForVerb(verb);
  QueryTrace trace(kVerbs[verb]);
  if (args.size() >= 2) trace.set_target(args[1]);
  ProtocolReply reply = DispatchCommand(server, verb, args);
  metrics.latency->Observe(static_cast<double>(trace.TotalNs()));
  metrics.requests->Increment();
  if (reply.response.compare(0, 4, "err ") == 0) metrics.errors->Increment();
  return reply;
}

}  // namespace nodedp
