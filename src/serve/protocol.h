// The serve line protocol (docs/SERVING.md): one request line in, one
// response line out — `ok ...` on success, `err <Status>` on failure.
//
// This is the single dispatcher behind every transport: serve_cli's stdin
// loop and every socket_server connection route their lines through
// HandleRequestLine, so the two modes cannot drift and the parser can be
// tested (and fuzzed) without a socket in sight. The handler itself is
// stateless — all state lives in the ReleaseServer — and therefore safe to
// call concurrently from any number of connection threads.
//
// Parse isolation: a malformed request produces an `err ...` response and
// *nothing else* — no registry change, no ledger charge. Only requests
// that parse completely ever reach ReleaseServer::Admit. Transport-level
// defenses (line length caps, partial-line reassembly, disconnect
// handling) live in the transport; by the time a line reaches this
// function it is exactly one complete request.

#ifndef NODEDP_SERVE_PROTOCOL_H_
#define NODEDP_SERVE_PROTOCOL_H_

#include <string>
#include <string_view>
#include <vector>

#include "serve/release_server.h"

namespace nodedp {

struct ProtocolReply {
  // The response line, without a trailing newline. Empty for blank and
  // comment (#...) request lines, which produce no response at all.
  std::string response;
  // Multi-line body sent verbatim *after* the response line (today only
  // the `metrics` verb uses it, for Prometheus exposition text). Already
  // newline-terminated; the transport writes it as-is. The response line
  // announces the body's line count (`ok metrics lines=N`) so clients on
  // a request/response loop know exactly how many lines to drain; body
  // lines never start with `ok ` or `err `, so line-oriented scripting
  // (and the CI smoke greps) keep counting responses correctly.
  std::string payload;
  // True when the client asked to end the session (`quit`): the transport
  // should send the response and close this session/connection.
  bool quit = false;
};

// Parses and executes one request line against `server`.
ProtocolReply HandleRequestLine(ReleaseServer& server, std::string_view line);

// The read verbs' reply lines. Numbers go through std::to_chars, which
// gives printf's bytes for the same conversion; each line is byte for byte
// the printf format beside it.
//
// release_cc / release_sf, `value_name` "cc" or "sf":
//   "ok <value_name>=%.3f eps=%.6g delta=%d"
std::string ExactReleaseReply(const char* value_name, double estimate,
                              double epsilon, int delta);
// release_cc ... tier=approx: "ok cc=%.3f eps=%.6g tier=approx samples=%d
//   cutoff=%d noise=%.6g bias_le=%.6g" (estimate, ε, num_samples,
//   bfs_cutoff, laplace_scale, truncation_bias_bound)
std::string ApproxReleaseReply(const SublinearCcRelease& release,
                               double epsilon);
// sweep: "ok sweep k=%zu", then " %.6g:%.3f" (ε, estimate) per release.
std::string SweepReply(
    const std::vector<double>& epsilons,
    const std::vector<ConnectedComponentsRelease>& releases);
// budget: "ok total=%.6g spent=%.6g remaining=%.6g charges=%lld
//   refusals=%lld"
std::string BudgetReply(const BudgetReport& budget);

// The request tokenizer: the maximal runs of bytes that are not one of the
// six ASCII whitespace bytes (space, \t, \n, \v, \f, \r) — the C-locale
// isspace set that `operator>>` splits a stream on. Every other byte,
// NUL included, belongs to a token. The views point into `line`.
std::vector<std::string_view> SplitRequestTokens(std::string_view line);

}  // namespace nodedp

#endif  // NODEDP_SERVE_PROTOCOL_H_
