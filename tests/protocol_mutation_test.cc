// Deterministic mutation test for the serve line protocol: from a fixed
// seed, each trial mutates one or two lines of a short serving script on a
// 50-vertex graph and replays the script through HandleRequestLine on a
// fresh ReleaseServer. Whatever the mutation — a dictionary token (inf,
// nan, overflowing and underflowing numbers, 2^31, empty, a 4 KB token), a
// deleted, duplicated or swapped token, or a flipped byte — every reply
// must be empty or start with `ok `/`err `, the process must survive, and
// the server must keep serving afterwards. No fuzzing engine is needed;
// run it under the sanitize preset (ASan+UBSan) to turn any memory error
// or UB on a malformed line into a failure.
//
// Two guards keep every trial small and local: a `gen` whose vertex count
// parses to more than 10^4 (and would be accepted) is skipped, and every
// path argument of `save`/`load`/`load_mmap` is rewritten to a sanitized
// leaf inside the test's scratch directory.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "serve/protocol.h"
#include "serve/release_server.h"
#include "util/random.h"

namespace nodedp {
namespace {

constexpr int kTrials = 400;
constexpr long long kMaxGenVertices = 10000;

const std::vector<std::string> kScript = {
    "gen g gnp 50 1.5 3 10 8",
    "stats g",
    "release_cc g 0.5",
    "release_sf g 0.5",
    "release_cc g 0.5 tier=approx",
    "sweep g 0.25 0.25 0.25",
    "add_edges g 0 1 2 3",
    "budget g",
    "save g g.ndpg v2",
    "load h g.ndpg 1.0 8",
    "load_mmap m g.ndpg 1.0 8",
    "release_cc h 0.5",
    "release_cc m 0.5 tier=approx",
    "save g g.txt text",
    "load t g.txt 1.0 8",
    "evict g",
    "stats",
    "metrics",
    "quit",
};

const std::vector<std::string>& Dictionary() {
  static const std::vector<std::string> dictionary = {
      "inf", "-inf", "nan", "1e999", "1e-400", "0", "-1", "2147483648", "",
      std::string(4096, '9')};
  return dictionary;
}

class ScratchDir {
 public:
  ScratchDir() {
    char templ[] = "/tmp/nodedp_protocol_XXXXXX";
    const char* made = ::mkdtemp(templ);
    EXPECT_NE(made, nullptr);
    path_ = made != nullptr ? made : "/tmp/nodedp_protocol_fallback";
  }
  ~ScratchDir() {
    const std::string cleanup = "rm -rf '" + path_ + "'";
    (void)!std::system(cleanup.c_str());
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// Splits on single spaces, keeping empty tokens, so a token-level mutation
// and the join below round-trip every script line exactly.
std::vector<std::string> SplitTokens(const std::string& line) {
  std::vector<std::string> tokens;
  std::size_t start = 0;
  for (;;) {
    const std::size_t space = line.find(' ', start);
    tokens.push_back(line.substr(start, space - start));
    if (space == std::string::npos) return tokens;
    start = space + 1;
  }
}

std::string JoinTokens(const std::vector<std::string>& tokens) {
  std::string line;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    if (i > 0) line += ' ';
    line += tokens[i];
  }
  return line;
}

enum class Mutation { kDictionary, kDelete, kDuplicate, kSwap, kFlipByte };
constexpr int kNumMutations = 5;

std::string Mutate(const std::string& line, Rng& rng) {
  const Mutation mutation =
      static_cast<Mutation>(rng.NextUint64(kNumMutations));
  std::vector<std::string> tokens = SplitTokens(line);
  const std::size_t at =
      static_cast<std::size_t>(rng.NextUint64(tokens.size()));
  switch (mutation) {
    case Mutation::kDictionary:
      tokens[at] = Dictionary()[static_cast<std::size_t>(
          rng.NextUint64(Dictionary().size()))];
      break;
    case Mutation::kDelete:
      tokens.erase(tokens.begin() + static_cast<std::ptrdiff_t>(at));
      break;
    case Mutation::kDuplicate:
      tokens.insert(tokens.begin() + static_cast<std::ptrdiff_t>(at),
                    tokens[at]);
      break;
    case Mutation::kSwap: {
      const std::size_t other =
          static_cast<std::size_t>(rng.NextUint64(tokens.size()));
      std::swap(tokens[at], tokens[other]);
      break;
    }
    case Mutation::kFlipByte: {
      std::string bytes = line;
      const std::size_t byte =
          static_cast<std::size_t>(rng.NextUint64(bytes.size()));
      bytes[byte] = static_cast<char>(
          bytes[byte] ^ static_cast<char>(1 + rng.NextUint64(255)));
      return bytes;
    }
  }
  return JoinTokens(tokens);
}

// The protocol's own tokenization: whitespace-separated words.
std::vector<std::string> Words(const std::string& line) {
  std::istringstream stream(line);
  std::vector<std::string> words;
  std::string word;
  while (stream >> word) words.push_back(word);
  return words;
}

// Applies the two guards. Returns false for a line the trial must skip.
bool Guard(const std::string& dir, std::string* line) {
  std::vector<std::string> words = Words(*line);
  if (words.empty()) return true;
  if (words[0] == "gen" && words.size() > 3) {
    char* end = nullptr;
    const long long n = std::strtoll(words[3].c_str(), &end, 10);
    if (end != words[3].c_str() && *end == '\0' && n > kMaxGenVertices &&
        n <= 2147483647LL) {
      return false;
    }
  }
  if ((words[0] == "save" || words[0] == "load" || words[0] == "load_mmap") &&
      words.size() > 2) {
    std::string leaf = words[2].substr(0, 64);
    for (char& c : leaf) {
      const bool safe = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '.' || c == '_';
      if (!safe) c = '_';
    }
    words[2] = dir + "/f_" + leaf;
    *line = JoinTokens(words);
  }
  return true;
}

bool WellFormed(const std::string& response) {
  return response.empty() || response.rfind("ok ", 0) == 0 ||
         response.rfind("err ", 0) == 0;
}

// Replays `script` on a fresh server; every reply must be well formed and
// the server must answer a fresh graph afterwards.
void Replay(const std::vector<std::string>& script, const std::string& dir,
            const std::string& what) {
  ReleaseServer server(7);
  for (std::string line : script) {
    if (!Guard(dir, &line)) continue;
    const ProtocolReply reply = HandleRequestLine(server, line);
    ASSERT_TRUE(WellFormed(reply.response))
        << what << "\nline: " << line << "\nreply: " << reply.response;
    if (reply.quit) break;
  }
  EXPECT_EQ(HandleRequestLine(server, "gen after_trial gnp 50 1.5 3 10 8")
                .response.substr(0, 3),
            "ok ")
      << what;
  EXPECT_EQ(HandleRequestLine(server, "release_cc after_trial 0.5")
                .response.substr(0, 3),
            "ok ")
      << what;
}

TEST(ProtocolMutationTest, UnmutatedScriptAnswersOkThroughout) {
  ScratchDir dir;
  ReleaseServer server(7);
  for (std::string line : kScript) {
    ASSERT_TRUE(Guard(dir.path(), &line));
    const ProtocolReply reply = HandleRequestLine(server, line);
    EXPECT_EQ(reply.response.rfind("ok ", 0), 0u)
        << line << " -> " << reply.response;
  }
}

TEST(ProtocolMutationTest, MutatedScriptsAnswerOkOrErrAndKeepServing) {
  ScratchDir dir;
  Rng rng(20261017);
  for (int trial = 0; trial < kTrials; ++trial) {
    std::vector<std::string> script = kScript;
    const int mutated_lines = 1 + static_cast<int>(rng.NextUint64(2));
    std::string what = "trial " + std::to_string(trial);
    for (int k = 0; k < mutated_lines; ++k) {
      const std::size_t at =
          static_cast<std::size_t>(rng.NextUint64(script.size()));
      script[at] = Mutate(script[at], rng);
      what += "\nmutated line " + std::to_string(at) + ": " + script[at];
    }
    Replay(script, dir.path(), what);
    if (testing::Test::HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace nodedp
