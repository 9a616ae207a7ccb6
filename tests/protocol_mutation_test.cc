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

#include <climits>
#include <cstdarg>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <string_view>
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

// A random request line over bytes that stress the tokenizer: all six
// separators, runs of them, '#', NUL, and two high bytes that some
// locales call whitespace (0x85 NEL, 0xA0 NBSP) but the C locale does not.
std::string RandomRequestLine(Rng& rng) {
  static const std::string kBytes =
      std::string(" \t\n\v\f\r#\0\x85\xa0", 10) + "ab09.+-=_";
  std::string line;
  if (rng.NextUint64(8) == 0) line += '#';
  const std::size_t length = static_cast<std::size_t>(rng.NextUint64(40));
  for (std::size_t i = 0; i < length; ++i) {
    const char byte = kBytes[rng.NextUint64(kBytes.size())];
    // Runs: repeat a byte up to three times.
    line.append(1 + static_cast<std::size_t>(rng.NextUint64(3)), byte);
  }
  if (rng.NextUint64(4) == 0) line += '\r';
  return line;
}

TEST(ProtocolMutationTest, TokenizerMatchesStreamExtraction) {
  std::vector<std::string> lines = {"", "\r", "\r\n", "# comment"};
  lines.push_back(" \t#release_cc g 0.5\r");
  lines.push_back("release_cc g 0.5\r");
  lines.push_back("\v\frelease_cc\tg  0.5 \n");
  lines.push_back(std::string("release_cc g\0x 0.5", 18));
  Rng rng(20261020);
  for (int i = 0; i < 5000; ++i) lines.push_back(RandomRequestLine(rng));
  for (const std::string& line : lines) {
    const std::vector<std::string_view> views = SplitRequestTokens(line);
    const std::vector<std::string> tokens(views.begin(), views.end());
    ASSERT_EQ(tokens, Words(line))
        << "line bytes: " << testing::PrintToString(line);
  }
  ReleaseServer server(7);
  EXPECT_TRUE(HandleRequestLine(server, "").response.empty());
  EXPECT_TRUE(HandleRequestLine(server, "\r\n").response.empty());
  EXPECT_TRUE(
      HandleRequestLine(server, " \t#release_cc g 0.5\r").response.empty());
}

// printf into a std::string, for the golden replies below.
std::string Sprintf(const char* format, ...)
    __attribute__((format(printf, 1, 2)));

std::string Sprintf(const char* format, ...) {
  std::vector<char> buffer(1024);
  va_list args;
  va_start(args, format);
  const int n = std::vsnprintf(buffer.data(), buffer.size(), format, args);
  va_end(args);
  EXPECT_GE(n, 0);
  EXPECT_LT(static_cast<std::size_t>(n), buffer.size());
  return std::string(buffer.data(), static_cast<std::size_t>(n));
}

TEST(ProtocolMutationTest, ReadRepliesMatchPrintfBytes) {
  std::vector<double> values = {0.0, -0.0, -3.0005, 1e-7, 0.1, 2.5, 1e12};
  values.insert(values.end(), {1.23456789e8, 1e300, -1e300});
  const std::vector<long long> counts = {0, 3, -1, INT_MAX, LLONG_MAX};
  for (double v : values) {
    for (long long count : counts) {
      const int small = static_cast<int>(count > INT_MAX ? -7 : count);
      EXPECT_EQ(ExactReleaseReply("cc", v, v, small),
                Sprintf("ok cc=%.3f eps=%.6g delta=%d", v, v, small));
      EXPECT_EQ(ExactReleaseReply("sf", v, 0.5, small),
                Sprintf("ok sf=%.3f eps=%.6g delta=%d", v, 0.5, small));

      SublinearCcRelease approx;
      approx.estimate = v;
      approx.num_samples = small;
      approx.bfs_cutoff = 64;
      approx.laplace_scale = v;
      approx.truncation_bias_bound = -v;
      EXPECT_EQ(ApproxReleaseReply(approx, v),
                Sprintf("ok cc=%.3f eps=%.6g tier=approx samples=%d "
                        "cutoff=%d noise=%.6g bias_le=%.6g",
                        v, v, small, 64, v, -v));

      const std::vector<double> epsilons = {v, 0.1, 2.5};
      std::vector<ConnectedComponentsRelease> releases(3);
      releases[0].estimate = v;
      releases[1].estimate = -v;
      releases[2].estimate = 1.23456789e8;
      EXPECT_EQ(SweepReply(epsilons, releases),
                Sprintf("ok sweep k=%zu %.6g:%.3f %.6g:%.3f %.6g:%.3f",
                        releases.size(), v, v, 0.1, -v, 2.5, 1.23456789e8));

      BudgetReport budget;
      budget.total = v;
      budget.spent = -v;
      budget.remaining = 2.5;
      budget.num_charges = count;
      budget.num_refusals = -count;
      EXPECT_EQ(BudgetReply(budget),
                Sprintf("ok total=%.6g spent=%.6g remaining=%.6g "
                        "charges=%lld refusals=%lld",
                        v, -v, 2.5, count, -count));
    }
  }
}

}  // namespace
}  // namespace nodedp
