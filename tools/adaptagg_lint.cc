// adaptagg_lint: mechanical enforcement of the project's conventions.
//
// Registered as a ctest (`ctest -R adaptagg_lint`), so a convention
// violation fails the suite the same way a broken unit test does. Pure
// standard library; usage:
//
//   adaptagg_lint <repo_root>
//
// The linter runs in two passes. Pass 1 loads every source file and
// collects cross-file facts (identifiers declared with unordered
// container types anywhere under src/, so iteration-order rules can see
// through a header/impl split). Pass 2 applies the rules below. Rules
// that are sometimes legitimately violated carry an explicit allowlist
// (kAllowlist) pairing each exemption with its written justification;
// determinism (D) exemptions are capped at kMaxDeterminismExemptions so
// the list cannot silently grow into a bypass.
//
// Rules (see DESIGN.md "Correctness tooling" for the rationale):
//   G1  every header carries an include guard ADAPTAGG_<PATH>_H_ whose
//       #ifndef / #define / trailing "#endif  // <guard>" all agree;
//   G2  file names are lower_snake_case;
//   S1  no `throw` / `try` / `catch` anywhere under src/ — fallible code
//       returns Status / Result<T>;
//   S2  no `using namespace` in src/ or in any header;
//   S3  src/ lines fit in 80 columns; no tabs, trailing blanks, or CRLF;
//   S4  a src/ .cc with a sibling .h includes that .h first; a .cc
//       without one includes at least one header of its own subsystem;
//   S5  common/status.h and common/result.h keep `[[nodiscard]]` on
//       Status / Result<T> (the no-silently-dropped-status rule is then
//       enforced by the compiler on every call site);
//   S6  no std::cout / std::cerr in src/ outside common/logging.cc —
//       diagnostics go through ADAPTAGG_LOG.
//   S7  src/obs headers document every top-level type and free function
//       with a Doxygen /// comment (the observability subsystem is the
//       repo's instrumentation API surface; undocumented knobs rot).
//   S8  no bare `Recv(` call in src/ outside src/net/ — algorithm and
//       cluster code must use the deadline-bounded receives
//       (RecvWithDeadline / TryRecv / AwaitMessage), so a lost message
//       can never hang a run forever.
//   S9  no scalar data-plane call — `AddRecord(` / `AddProjected(` /
//       `AddPartial(` — in src/ outside the batch layer itself and the
//       allowlisted record-at-a-time producers; hot paths route whole
//       batches (AddBatch / AddIndices / Add*Batch) so the per-record
//       scatter loop cannot silently creep back in.
//   S10 locks in src/ are adaptagg::Mutex (common/mutex.h), never raw
//       std::mutex / std::shared_mutex — the raw types carry no
//       capability attributes, so clang thread-safety analysis cannot
//       see them — and every Mutex declaration has at least one sibling
//       annotated ADAPTAGG_GUARDED_BY(that mutex). A mutex guarding a
//       non-member resource (e.g. a C stream) takes an allowlist entry.
//   S11 no raw SIMD intrinsics anywhere in src/ — no <immintrin.h> /
//       <x86intrin.h> / <emmintrin.h> / <arm_neon.h> includes and no
//       _mm_ / _mm256_ / _mm512_ / vld1q / vst1q identifiers. The word
//       kernels in src/common/simd.h are portable C++, the one code
//       path every host and every test runs.
//   S12 no direct Cluster::Run call site in src/, tools/, or examples/
//       outside src/cluster (the definition), src/serve (the layer
//       that wraps it), and the allowlisted Query::Execute — production
//       paths submit through ClusterService (admission control, session
//       isolation, result cache) or the Query API. bench/ and tests/
//       measure and pin the one-shot path deliberately and stay exempt.
//   S13 checkpoint-file I/O is confined to the checkpoint module: no
//       `CheckpointStore` token in src/ outside src/storage/checkpoint.*
//       (the store) and src/cluster/recovery.* (the recovery runtime
//       that owns it). Everything else goes through RecoveryNode, so
//       checkpoint durability invariants (tail CRC, latest-pointer
//       flip ordering, dedicated disks) have exactly one enforcement
//       point.
//   D1  no wall-clock reads in src/ (steady_clock / system_clock /
//       WallSeconds / ...): simulated results must depend only on the
//       CostClock. Wall time is allowlisted exactly where it belongs —
//       receive deadlines, heartbeat/liveness detection, and the obs
//       wall-span source.
//   D2  no ad-hoc randomness in src/ (random_device / mt19937 / rand /
//       ...): all randomness flows through the seeded Prng in
//       src/common/random so runs replay bit-identically.
//   D3  no range-for over a std::unordered_{map,set} in src/: hash
//       iteration order is implementation-defined, so loops that emit,
//       merge, or ship data must sort first (or iterate a deterministic
//       container). Detection is cross-file: containers declared in a
//       header are recognized when iterated in the .cc.
//
// Comment and string-literal contents are ignored by the token rules.
// Fixture trees under a "lint_fixtures" directory are skipped when
// linting the repo (the lint self-test runs the binary *on* them).

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace fs = std::filesystem;

namespace {

struct Finding {
  std::string file;
  int line;
  std::string rule;
  std::string message;
};

std::vector<Finding> g_findings;

void Report(const std::string& file, int line, const std::string& rule,
            const std::string& message) {
  g_findings.push_back({file, line, rule, message});
}

// ---------------------------------------------------------------------
// Allowlist: every entry is one (rule, file) exemption with its written
// justification. Keep the `why` honest — it is the audit trail reviewers
// read instead of the suppressed diagnostic.
// ---------------------------------------------------------------------

struct AllowlistEntry {
  const char* rule;
  const char* file;
  const char* why;
};

constexpr AllowlistEntry kAllowlist[] = {
    {"D1", "src/net/channel.cc",
     "receive deadlines bound real blocking so a lost message cannot "
     "hang the run; they never feed simulated time"},
    {"D1", "src/obs/trace_recorder.h",
     "declares WallSeconds(), the one sanctioned wall-time source for "
     "observability spans"},
    {"D1", "src/obs/trace_recorder.cc",
     "implements WallSeconds() and stamps trace wall timelines; wall "
     "time never feeds simulated results"},
    {"D1", "src/cluster/node_context.cc",
     "heartbeat and peer-liveness deadlines are wall time by design: "
     "failure detection watches the real world, not the model"},
    {"D1", "src/cluster/cluster.cc",
     "measures run wall time and fixes the cluster-wide trace wall "
     "epoch; reported beside, never inside, simulated time"},
    {"D1", "src/cluster/run_assembly.cc",
     "stamps the wall time of a run's first node failure so abort "
     "latency is measurable; reported beside, never inside, simulated "
     "time"},
    {"D1", "src/serve/cluster_service.cc",
     "serving latency (submit-to-complete) and per-session trace "
     "epochs are wall time by definition; modeled per-query time still "
     "comes only off each session's CostClocks"},
    {"D3", "src/agg/reference.cc",
     "the oracle accumulates into an unordered_map and sorts the "
     "result rows immediately after the loop"},
    {"D3", "src/storage/disk.cc",
     "destructor teardown closes and unlinks every open file; order "
     "has no observable effect"},
    {"S10", "src/common/logging.cc",
     "g_emit_mutex serializes writes to the stderr stream itself; "
     "there is no member to carry ADAPTAGG_GUARDED_BY"},
};

/// Hard cap on determinism-rule (D*) exemptions: ISSUE the analyzer was
/// built under allows at most 10 justified entries. Exceeding it is a
/// lint failure in its own right, so the allowlist cannot become the
/// easy way out.
constexpr size_t kMaxDeterminismExemptions = 10;

bool Allowlisted(const char* rule, const std::string& rel) {
  for (const AllowlistEntry& e : kAllowlist) {
    if (rel == e.file && std::string(rule) == e.rule) return true;
  }
  return false;
}

std::string ReadFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Replaces the contents of comments and string/char literals with spaces
/// (newlines preserved) so token rules cannot fire inside them.
std::string StripCommentsAndStrings(const std::string& text) {
  std::string out = text;
  enum class State {
    kCode,
    kLineComment,
    kBlockComment,
    kString,
    kChar,
    kRawString
  };
  State state = State::kCode;
  std::string raw_delim;  // delimiter of the active raw string, ")delim"
  for (size_t i = 0; i < text.size(); ++i) {
    char c = text[i];
    char next = i + 1 < text.size() ? text[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c == 'R' && next == '"' &&
                   (i == 0 || (!std::isalnum(static_cast<unsigned char>(
                                   text[i - 1])) &&
                               text[i - 1] != '_'))) {
          size_t paren = text.find('(', i + 2);
          if (paren != std::string::npos) {
            raw_delim = ")" + text.substr(i + 2, paren - i - 2) + "\"";
            state = State::kRawString;
            i = paren;
          }
        } else if (c == '"') {
          state = State::kString;
        } else if (c == '\'') {
          // A quote directly after an identifier character is a digit
          // separator (100'000) or a literal suffix position, not a
          // char-literal open; treating it as one would swallow real
          // code up to the next quote and hide violations from every
          // token rule.
          if (i == 0 ||
              (!std::isalnum(static_cast<unsigned char>(text[i - 1])) &&
               text[i - 1] != '_')) {
            state = State::kChar;
          }
        }
        break;
      case State::kLineComment:
        if (c == '\n') {
          state = State::kCode;
        } else {
          out[i] = ' ';
        }
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          state = State::kCode;
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kString:
        if (c == '\\') {
          out[i] = ' ';
          if (next != '\n') out[i + 1] = ' ';
          ++i;
        } else if (c == '"') {
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kChar:
        if (c == '\\') {
          out[i] = ' ';
          if (next != '\n') out[i + 1] = ' ';
          ++i;
        } else if (c == '\'') {
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kRawString:
        if (text.compare(i, raw_delim.size(), raw_delim) == 0) {
          for (size_t k = 0; k < raw_delim.size(); ++k) out[i + k] = ' ';
          i += raw_delim.size() - 1;
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
    }
  }
  return out;
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::string cur;
  for (char c : text) {
    if (c == '\n') {
      lines.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  if (!cur.empty()) lines.push_back(cur);
  return lines;
}

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// True when `word` appears in `line` as a whole token.
bool HasToken(const std::string& line, const std::string& word) {
  size_t pos = 0;
  while ((pos = line.find(word, pos)) != std::string::npos) {
    bool left_ok = pos == 0 || !IsIdentChar(line[pos - 1]);
    size_t end = pos + word.size();
    bool right_ok = end >= line.size() || !IsIdentChar(line[end]);
    if (left_ok && right_ok) return true;
    pos = end;
  }
  return false;
}

/// True when `word` appears as a whole token immediately followed
/// (modulo spaces) by '(' — i.e. as a call or declarator, not as part
/// of a longer identifier.
bool HasCallToken(const std::string& line, const std::string& word) {
  size_t pos = 0;
  while ((pos = line.find(word, pos)) != std::string::npos) {
    const bool left_ok = pos == 0 || !IsIdentChar(line[pos - 1]);
    const size_t end = pos + word.size();
    const bool right_ok = end >= line.size() || !IsIdentChar(line[end]);
    size_t after = end;
    while (after < line.size() && line[after] == ' ') ++after;
    if (left_ok && right_ok && after < line.size() && line[after] == '(') {
      return true;
    }
    pos = end;
  }
  return false;
}

int LineOfOffset(const std::string& text, size_t offset) {
  return 1 + static_cast<int>(
                 std::count(text.begin(),
                            text.begin() + static_cast<ptrdiff_t>(offset),
                            '\n'));
}

/// One loaded source file: raw bytes plus the comment/string-stripped
/// view, split both ways. Loaded once in pass 1 so cross-file rules and
/// per-file rules share the parse.
struct FileData {
  std::string rel;
  fs::path path;
  bool in_src = false;
  bool is_header = false;
  std::string raw;
  std::string stripped;
  std::vector<std::string> lines;
  std::vector<std::string> stripped_lines;
};

/// ADAPTAGG_<relpath with / and . as _, uppercased>_ — src/ headers drop
/// the leading "src/" (historic convention), all other trees keep theirs.
std::string ExpectedGuard(const std::string& rel) {
  std::string base = rel;
  if (base.rfind("src/", 0) == 0) base = base.substr(4);
  std::string guard = "ADAPTAGG_";
  for (char c : base) {
    if (c == '/' || c == '.') {
      guard.push_back('_');
    } else {
      guard.push_back(
          static_cast<char>(std::toupper(static_cast<unsigned char>(c))));
    }
  }
  guard.push_back('_');
  return guard;
}

void CheckHeaderGuard(const std::string& rel,
                      const std::vector<std::string>& lines) {
  const std::string guard = ExpectedGuard(rel);
  int ifndef_line = -1;
  for (size_t i = 0; i < lines.size(); ++i) {
    const std::string& l = lines[i];
    if (l.rfind("#ifndef ", 0) == 0) {
      if (l.substr(8) != guard) {
        Report(rel, static_cast<int>(i) + 1, "G1",
               "include guard is '" + l.substr(8) + "', expected '" +
                   guard + "'");
        return;
      }
      ifndef_line = static_cast<int>(i);
      break;
    }
    if (!l.empty() && l.rfind("//", 0) != 0) {
      Report(rel, static_cast<int>(i) + 1, "G1",
             "first non-comment line must be '#ifndef " + guard + "'");
      return;
    }
  }
  if (ifndef_line < 0) {
    Report(rel, 1, "G1", "missing include guard '" + guard + "'");
    return;
  }
  const size_t def = static_cast<size_t>(ifndef_line) + 1;
  if (def >= lines.size() || lines[def] != "#define " + guard) {
    Report(rel, static_cast<int>(def) + 1, "G1",
           "'#ifndef " + guard + "' must be followed by '#define " +
               guard + "'");
  }
  for (auto it = lines.rbegin(); it != lines.rend(); ++it) {
    if (it->empty()) continue;
    if (*it != "#endif  // " + guard) {
      Report(rel, static_cast<int>(lines.size()), "G1",
             "header must end with '#endif  // " + guard + "'");
    }
    return;
  }
}

void CheckFileName(const std::string& rel, const fs::path& path) {
  const std::string name = path.filename().string();
  for (char c : name) {
    if (std::islower(static_cast<unsigned char>(c)) == 0 &&
        std::isdigit(static_cast<unsigned char>(c)) == 0 && c != '_' &&
        c != '.') {
      Report(rel, 1, "G2",
             "file name '" + name + "' is not lower_snake_case");
      return;
    }
  }
}

void CheckSrcTokens(const std::string& rel,
                    const std::vector<std::string>& stripped) {
  for (size_t i = 0; i < stripped.size(); ++i) {
    const std::string& l = stripped[i];
    for (const char* kw : {"throw", "try", "catch"}) {
      if (HasToken(l, kw)) {
        Report(rel, static_cast<int>(i) + 1, "S1",
               std::string("'") + kw +
                   "' is banned in src/ (return Status/Result instead)");
      }
    }
    if (l.find("using namespace") != std::string::npos) {
      Report(rel, static_cast<int>(i) + 1, "S2",
             "'using namespace' is banned in src/ and headers");
    }
  }
}

void CheckWhitespace(const std::string& rel, const std::string& raw,
                     const std::vector<std::string>& lines) {
  if (raw.find('\r') != std::string::npos) {
    Report(rel, 1, "S3", "CRLF line endings");
  }
  for (size_t i = 0; i < lines.size(); ++i) {
    const std::string& l = lines[i];
    if (l.size() > 80) {
      Report(rel, static_cast<int>(i) + 1, "S3",
             "line is " + std::to_string(l.size()) + " columns (max 80)");
    }
    if (l.find('\t') != std::string::npos) {
      Report(rel, static_cast<int>(i) + 1, "S3", "tab character");
    }
    if (!l.empty() && (l.back() == ' ' || l.back() == '\t')) {
      Report(rel, static_cast<int>(i) + 1, "S3", "trailing whitespace");
    }
  }
  if (!raw.empty() && raw.back() != '\n') {
    Report(rel, static_cast<int>(lines.size()), "S3",
           "missing final newline");
  }
}

void CheckCcPairing(const fs::path& root, const std::string& rel,
                    const std::vector<std::string>& lines) {
  // rel is "src/<dir>/<stem>.cc"; project includes are written relative
  // to src/.
  const std::string in_src = rel.substr(4);
  const std::string stem = in_src.substr(0, in_src.size() - 3);
  const size_t slash = in_src.rfind('/');
  const std::string dir = slash == std::string::npos
                              ? std::string()
                              : in_src.substr(0, slash + 1);

  std::string first_include;
  bool includes_same_dir_header = false;
  for (const std::string& l : lines) {
    if (l.rfind("#include \"", 0) != 0) continue;
    const size_t close = l.find('"', 10);
    if (close == std::string::npos) continue;
    const std::string inc = l.substr(10, close - 10);
    if (first_include.empty()) first_include = inc;
    if (!dir.empty() && inc.rfind(dir, 0) == 0 &&
        inc.find('/', dir.size()) == std::string::npos) {
      includes_same_dir_header = true;
    }
  }

  if (fs::exists(root / "src" / (stem + ".h"))) {
    if (first_include != stem + ".h") {
      Report(rel, 1, "S4",
             "first include must be its own header \"" + stem + ".h\"");
    }
  } else if (!includes_same_dir_header) {
    Report(rel, 1, "S4",
           ".cc without a sibling .h must include a header of its own "
           "subsystem (" +
               dir + "*.h)");
  }
}

void CheckNodiscard(const fs::path& root) {
  const struct {
    const char* file;
    const char* token;
  } kRequired[] = {
      {"src/common/status.h", "class [[nodiscard]] Status"},
      {"src/common/result.h", "class [[nodiscard]] Result"},
  };
  for (const auto& req : kRequired) {
    const std::string text = ReadFile(root / req.file);
    if (text.find(req.token) == std::string::npos) {
      Report(req.file, 1, "S5",
             std::string("expected '") + req.token +
                 "' — the dropped-status compiler check depends on it");
    }
  }
}

void CheckNoStdout(const std::string& rel,
                   const std::vector<std::string>& stripped) {
  if (rel == "src/common/logging.cc") return;
  for (size_t i = 0; i < stripped.size(); ++i) {
    if (stripped[i].find("std::cout") != std::string::npos ||
        stripped[i].find("std::cerr") != std::string::npos) {
      Report(rel, static_cast<int>(i) + 1, "S6",
             "direct std::cout/std::cerr in src/ (use ADAPTAGG_LOG)");
    }
  }
}

/// S7: in src/obs headers, every top-level declaration — a class /
/// struct / enum at column 0, or a free-function declaration at column
/// 0 — must be immediately preceded by a Doxygen /// comment line.
/// Indented lines (members, parameters of multi-line declarations) are
/// out of scope; preprocessor lines, namespace braces, and closing
/// braces never need docs.
void CheckObsDoxygen(const std::string& rel,
                     const std::vector<std::string>& lines) {
  auto is_type_decl = [](const std::string& l) {
    return l.rfind("class ", 0) == 0 || l.rfind("struct ", 0) == 0 ||
           l.rfind("enum class ", 0) == 0;
  };
  auto is_function_decl = [](const std::string& l) {
    if (l.empty() || l[0] == ' ' || l[0] == '#' || l[0] == '}') {
      return false;
    }
    if (l.rfind("//", 0) == 0 || l.rfind("namespace", 0) == 0 ||
        l.rfind("using ", 0) == 0 || l.rfind("typedef ", 0) == 0) {
      return false;
    }
    return l.find('(') != std::string::npos;
  };
  std::string prev;
  for (size_t i = 0; i < lines.size(); ++i) {
    const std::string& l = lines[i];
    if (is_type_decl(l) || is_function_decl(l)) {
      if (prev.rfind("///", 0) != 0) {
        Report(rel, static_cast<int>(i) + 1, "S7",
               "src/obs declaration lacks a Doxygen /// comment");
      }
    }
    if (!l.empty()) prev = l;
  }
}

/// S8: an unbounded receive outside the transport layer reintroduces the
/// lost-message hang that failure detection exists to prevent. Matches
/// the whole token `Recv` directly followed by `(`; RecvWithDeadline and
/// TryRecv are distinct tokens and stay legal.
void CheckNoBareRecv(const std::string& rel,
                     const std::vector<std::string>& stripped) {
  for (size_t i = 0; i < stripped.size(); ++i) {
    if (HasCallToken(stripped[i], "Recv")) {
      Report(rel, static_cast<int>(i) + 1, "S8",
             "bare Recv() outside src/net — use RecvWithDeadline / "
             "TryRecv / AwaitMessage");
    }
  }
}

/// S12: direct Cluster::Run call sites. The one-shot entry point stays
/// for benches and tests (which measure and pin it), for src/cluster
/// itself, for the serving layer built on the same assembly helpers,
/// and for Query::Execute; everything else submits through
/// ClusterService or the Query API so no production path bypasses
/// admission control and session isolation. Detection: a `.Run(`,
/// `->Run(`, or `::Run(` whose receiver identifier contains "cluster"
/// (case-insensitive).
bool ClusterRunAllowed(const std::string& rel) {
  return rel.rfind("src/cluster/", 0) == 0 ||
         rel.rfind("src/serve/", 0) == 0 ||
         rel.rfind("bench/", 0) == 0 || rel.rfind("tests/", 0) == 0 ||
         rel == "src/core/query.cc";
}

void CheckNoDirectClusterRun(const std::string& rel,
                             const std::vector<std::string>& stripped) {
  for (size_t i = 0; i < stripped.size(); ++i) {
    const std::string& l = stripped[i];
    size_t pos = 0;
    while ((pos = l.find("Run(", pos)) != std::string::npos) {
      const size_t after = pos + 4;
      size_t r = pos;
      if (r >= 1 && l[r - 1] == '.') {
        r -= 1;
      } else if (r >= 2 && (l.compare(r - 2, 2, "->") == 0 ||
                            l.compare(r - 2, 2, "::") == 0)) {
        r -= 2;
      } else {
        pos = after;
        continue;
      }
      size_t b = r;
      while (b > 0 && IsIdentChar(l[b - 1])) --b;
      std::string receiver = l.substr(b, r - b);
      for (char& c : receiver) {
        c = static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));
      }
      if (receiver.find("cluster") != std::string::npos) {
        Report(rel, static_cast<int>(i) + 1, "S12",
               "direct Cluster::Run call site — submit through "
               "ClusterService (or Query::Execute) so the query gets "
               "admission control and session isolation");
      }
      pos = after;
    }
  }
}

/// S13: checkpoint-file I/O outside the checkpoint module. The store's
/// durability invariants — tail CRC on every page, write-new-then-flip
/// latest ordering, dedicated non-charged disks — hold only when every
/// reader and writer goes through RecoveryNode; a second direct user
/// would have to re-implement them. Detection: the `CheckpointStore`
/// identifier anywhere in src/ outside the store itself and the
/// recovery runtime that owns it.
bool CheckpointIoAllowed(const std::string& rel) {
  return rel.rfind("src/storage/checkpoint.", 0) == 0 ||
         rel.rfind("src/cluster/recovery.", 0) == 0;
}

void CheckNoCheckpointIo(const std::string& rel,
                         const std::vector<std::string>& stripped) {
  constexpr const char* kToken = "CheckpointStore";
  const size_t len = std::string(kToken).size();
  for (size_t i = 0; i < stripped.size(); ++i) {
    const std::string& l = stripped[i];
    size_t pos = 0;
    while ((pos = l.find(kToken, pos)) != std::string::npos) {
      const bool start_ok = pos == 0 || !IsIdentChar(l[pos - 1]);
      const bool end_ok =
          pos + len >= l.size() || !IsIdentChar(l[pos + len]);
      if (start_ok && end_ok) {
        Report(rel, static_cast<int>(i) + 1, "S13",
               "CheckpointStore outside the checkpoint module — go "
               "through RecoveryNode so checkpoint durability "
               "invariants stay in one place");
      }
      pos += len;
    }
  }
}

/// S9: scalar data-plane calls outside the batch layer. The tokens are
/// exact — AddBatch / AddIndices / AddProjectedBatch / AddPartialBatch
/// are distinct identifiers and stay legal everywhere. The allowlist is
/// the batch layer itself plus the record-at-a-time producers whose
/// sources are not batches (Finish-callback drains, sampling key sets,
/// spill replay).
bool ScalarDataPlaneAllowed(const std::string& rel) {
  return rel.rfind("src/agg/", 0) == 0 ||
         rel.rfind("src/cluster/exchange", 0) == 0 ||
         rel == "src/core/phases.h" || rel == "src/core/phases.cc" ||
         rel == "src/core/sampling.cc" ||
         rel == "src/core/sort_two_phase.cc";
}

void CheckNoScalarDataPlane(const std::string& rel,
                            const std::vector<std::string>& stripped) {
  for (size_t i = 0; i < stripped.size(); ++i) {
    for (const char* word : {"AddRecord", "AddProjected", "AddPartial"}) {
      if (HasCallToken(stripped[i], word)) {
        Report(rel, static_cast<int>(i) + 1, "S9",
               std::string("scalar ") + word +
                   "() outside the batch layer — route batches "
                   "(AddBatch / AddIndices / Add*Batch)");
      }
    }
  }
}

/// S11: raw SIMD intrinsics anywhere in src/. The kernels are portable
/// C++ (src/common/simd.h); an intrinsic would add a per-ISA code path
/// that only some hosts run and no test compares against the others.
void CheckNoRawIntrinsics(const std::string& rel,
                          const std::vector<std::string>& stripped) {
  for (size_t i = 0; i < stripped.size(); ++i) {
    const std::string& l = stripped[i];
    for (const char* header :
         {"<immintrin.h>", "<x86intrin.h>", "<emmintrin.h>",
          "<arm_neon.h>"}) {
      if (l.find("#include") != std::string::npos &&
          l.find(header) != std::string::npos) {
        Report(rel, static_cast<int>(i) + 1, "S11",
               std::string("raw intrinsics header ") + header +
                   " — src/ is portable C++; write the loop in "
                   "common/simd.h");
      }
    }
    for (const char* prefix :
         {"_mm_", "_mm256_", "_mm512_", "vld1q", "vst1q"}) {
      size_t pos = l.find(prefix);
      while (pos != std::string::npos) {
        if (pos == 0 || !IsIdentChar(l[pos - 1])) {
          Report(rel, static_cast<int>(i) + 1, "S11",
                 std::string("raw intrinsic ") + prefix +
                     "... — src/ is portable C++; write the loop in "
                     "common/simd.h");
          break;  // one finding per line is enough
        }
        pos = l.find(prefix, pos + 1);
      }
    }
  }
}

/// S10: every lock in src/ must be visible to clang thread-safety
/// analysis. Raw std::mutex / std::shared_mutex carry no capability
/// attributes, so declaring (or even naming) one outside the annotated
/// wrapper is a finding; an adaptagg::Mutex declaration must have at
/// least one sibling annotated ADAPTAGG_GUARDED_BY(that mutex) in the
/// same file, or an allowlist entry explaining what it guards instead.
void CheckMutexAnnotations(const FileData& f) {
  if (f.rel == "src/common/mutex.h") return;  // wraps the raw type
  const bool allowlisted = Allowlisted("S10", f.rel);
  for (size_t i = 0; i < f.stripped_lines.size(); ++i) {
    const std::string& l = f.stripped_lines[i];
    for (const char* raw_type : {"std::mutex", "std::shared_mutex"}) {
      if (HasToken(l, raw_type) && !allowlisted) {
        Report(f.rel, static_cast<int>(i) + 1, "S10",
               std::string(raw_type) +
                   " is invisible to thread-safety analysis — use "
                   "adaptagg::Mutex (common/mutex.h)");
      }
    }
    // A declaration `Mutex <name>;` (optionally `mutable`-qualified).
    size_t pos = 0;
    while ((pos = l.find("Mutex", pos)) != std::string::npos) {
      const bool left_ok = pos == 0 || !IsIdentChar(l[pos - 1]);
      size_t j = pos + 5;
      if (!left_ok || j >= l.size() || l[j] != ' ') {
        pos = j;
        continue;
      }
      while (j < l.size() && l[j] == ' ') ++j;
      const size_t name_begin = j;
      while (j < l.size() && IsIdentChar(l[j])) ++j;
      const std::string name = l.substr(name_begin, j - name_begin);
      while (j < l.size() && l[j] == ' ') ++j;
      if (!name.empty() && j < l.size() && l[j] == ';') {
        if (f.stripped.find("ADAPTAGG_GUARDED_BY(" + name + ")") ==
                std::string::npos &&
            !allowlisted) {
          Report(f.rel, static_cast<int>(i) + 1, "S10",
                 "Mutex '" + name +
                     "' has no ADAPTAGG_GUARDED_BY(" + name +
                     ") sibling — annotate what it guards (or "
                     "allowlist with a justification)");
        }
      }
      pos = j;
    }
  }
}

/// D1: wall-clock reads. Everything an algorithm observes must come off
/// the CostClock, so a run replays identically on any host; wall time
/// exists only behind the allowlisted deadline/heartbeat/obs files.
void CheckWallTime(const FileData& f) {
  static const char* kBanned[] = {
      "steady_clock",  "system_clock", "high_resolution_clock",
      "clock_gettime", "gettimeofday", "timespec_get",
      "WallSeconds",
  };
  for (size_t i = 0; i < f.stripped_lines.size(); ++i) {
    const std::string& l = f.stripped_lines[i];
    for (const char* word : kBanned) {
      if (HasToken(l, word)) {
        Report(f.rel, static_cast<int>(i) + 1, "D1",
               std::string("wall-clock source '") + word +
                   "' in src/ — simulated results must depend only on "
                   "the CostClock");
      }
    }
    if (HasCallToken(l, "time")) {
      Report(f.rel, static_cast<int>(i) + 1, "D1",
             "wall-clock source 'time()' in src/ — simulated results "
             "must depend only on the CostClock");
    }
  }
}

/// D2: randomness sources. All randomness flows through the seeded Prng
/// (src/common/random), so a run is a pure function of its seed.
void CheckRandomness(const FileData& f) {
  if (f.rel == "src/common/random.h" || f.rel == "src/common/random.cc") {
    return;  // the sanctioned seeded source
  }
  static const char* kBanned[] = {
      "random_device", "mt19937",  "mt19937_64", "default_random_engine",
      "srand",         "drand48",  "lrand48",
  };
  for (size_t i = 0; i < f.stripped_lines.size(); ++i) {
    const std::string& l = f.stripped_lines[i];
    for (const char* word : kBanned) {
      if (HasToken(l, word)) {
        Report(f.rel, static_cast<int>(i) + 1, "D2",
               std::string("randomness source '") + word +
                   "' in src/ — use the seeded Prng (common/random.h)");
      }
    }
    if (HasCallToken(l, "rand")) {
      Report(f.rel, static_cast<int>(i) + 1, "D2",
             "randomness source 'rand()' in src/ — use the seeded Prng "
             "(common/random.h)");
    }
  }
}

/// Pass-1 fact collector: identifiers declared anywhere in src/ with a
/// std::unordered_{map,set,multimap,multiset} type. The set is global
/// across files so D3 sees a member declared in a header and iterated
/// in the matching .cc. (An identifier that collides with an unrelated
/// deterministic container elsewhere is a tolerated false positive:
/// rename it or allowlist the file.)
void CollectUnorderedDecls(const FileData& f,
                           std::set<std::string>* idents) {
  static const char* kTypes[] = {"unordered_map", "unordered_set",
                                 "unordered_multimap",
                                 "unordered_multiset"};
  const std::string& text = f.stripped;
  for (const char* type : kTypes) {
    const std::string word(type);
    size_t pos = 0;
    while ((pos = text.find(word, pos)) != std::string::npos) {
      const bool left_ok = pos == 0 || !IsIdentChar(text[pos - 1]);
      size_t i = pos + word.size();
      if (!left_ok || i >= text.size() || text[i] != '<') {
        pos = i;
        continue;
      }
      int depth = 0;
      while (i < text.size()) {
        if (text[i] == '<') {
          ++depth;
        } else if (text[i] == '>') {
          --depth;
          if (depth == 0) {
            ++i;
            break;
          }
        }
        ++i;
      }
      while (i < text.size() &&
             (text[i] == ' ' || text[i] == '\n' || text[i] == '&' ||
              text[i] == '*')) {
        ++i;
      }
      const size_t name_begin = i;
      while (i < text.size() && IsIdentChar(text[i])) ++i;
      if (i > name_begin) {
        size_t j = i;
        while (j < text.size() && text[j] == ' ') ++j;
        // An identifier followed by '(' is a function returning the
        // container, not a variable holding one.
        if (j >= text.size() || text[j] != '(') {
          idents->insert(text.substr(name_begin, i - name_begin));
        }
      }
      pos = i;
    }
  }
}

/// D3: range-for over an unordered container. Works on the stripped
/// whole-file text so multi-line for-headers parse; the range
/// expression's trailing identifier is resolved against the cross-file
/// declaration set from pass 1.
void CheckUnorderedIteration(const FileData& f,
                             const std::set<std::string>& idents) {
  const std::string& text = f.stripped;
  size_t pos = 0;
  while ((pos = text.find("for", pos)) != std::string::npos) {
    const bool left_ok = pos == 0 || !IsIdentChar(text[pos - 1]);
    size_t i = pos + 3;
    if (!left_ok || (i < text.size() && IsIdentChar(text[i]))) {
      pos = i;
      continue;
    }
    while (i < text.size() &&
           (text[i] == ' ' || text[i] == '\n')) {
      ++i;
    }
    if (i >= text.size() || text[i] != '(') {
      pos = i;
      continue;
    }
    // Find the matching close paren and the last depth-1 ':' that is
    // not part of a '::'.
    int depth = 0;
    size_t colon = std::string::npos;
    size_t close = std::string::npos;
    for (size_t k = i; k < text.size(); ++k) {
      const char c = text[k];
      if (c == '(') {
        ++depth;
      } else if (c == ')') {
        --depth;
        if (depth == 0) {
          close = k;
          break;
        }
      } else if (c == ':' && depth == 1) {
        const bool dbl = (k + 1 < text.size() && text[k + 1] == ':') ||
                         (k > 0 && text[k - 1] == ':');
        if (!dbl) colon = k;
      }
    }
    if (close == std::string::npos || colon == std::string::npos) {
      pos = i;
      continue;
    }
    std::string range = text.substr(colon + 1, close - colon - 1);
    const int line = LineOfOffset(text, pos);
    if (range.find("unordered_") != std::string::npos) {
      Report(f.rel, line, "D3",
             "range-for over an unordered container — hash iteration "
             "order is implementation-defined; sort first");
    } else {
      size_t e = range.size();
      while (e > 0 && (range[e - 1] == ' ' || range[e - 1] == '\n')) --e;
      size_t b = e;
      while (b > 0 && IsIdentChar(range[b - 1])) --b;
      const std::string ident = range.substr(b, e - b);
      if (!ident.empty() && idents.count(ident) > 0) {
        Report(f.rel, line, "D3",
               "range-for over '" + ident +
                   "', declared as an unordered container — hash "
                   "iteration order is implementation-defined; sort "
                   "first");
      }
    }
    pos = close;
  }
}

bool HasSourceExtension(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".h" || ext == ".cc" || ext == ".cpp";
}

}  // namespace

int main(int argc, char** argv) {
  const fs::path root = argc > 1 ? fs::path(argv[1]) : fs::path(".");
  if (!fs::exists(root / "src")) {
    std::fprintf(stderr, "adaptagg_lint: no src/ under '%s'\n",
                 root.string().c_str());
    return 2;
  }

  size_t d_exemptions = 0;
  for (const AllowlistEntry& e : kAllowlist) {
    if (e.rule[0] == 'D') ++d_exemptions;
  }
  if (d_exemptions > kMaxDeterminismExemptions) {
    std::fprintf(stderr,
                 "adaptagg_lint: %zu determinism exemptions exceed the "
                 "cap of %zu — fix code instead of growing the "
                 "allowlist\n",
                 d_exemptions, kMaxDeterminismExemptions);
    return 2;
  }

  // Pass 1: load every file. Fixture trees for the lint self-test are
  // deliberate rule violations; skip them here (the self-test points
  // the binary directly at them).
  std::vector<FileData> files;
  for (const char* tree : {"src", "tests", "tools", "bench", "examples"}) {
    if (!fs::exists(root / tree)) continue;
    for (const auto& entry :
         fs::recursive_directory_iterator(root / tree)) {
      if (!entry.is_regular_file() || !HasSourceExtension(entry.path())) {
        continue;
      }
      const std::string rel =
          fs::relative(entry.path(), root).generic_string();
      if (rel.find("lint_fixtures") != std::string::npos) continue;
      FileData f;
      f.rel = rel;
      f.path = entry.path();
      f.in_src = rel.rfind("src/", 0) == 0;
      f.is_header = entry.path().extension() == ".h";
      f.raw = ReadFile(entry.path());
      f.stripped = StripCommentsAndStrings(f.raw);
      f.lines = SplitLines(f.raw);
      f.stripped_lines = SplitLines(f.stripped);
      files.push_back(std::move(f));
    }
  }
  std::sort(files.begin(), files.end(),
            [](const FileData& a, const FileData& b) {
              return a.rel < b.rel;
            });

  // Cross-file facts for the determinism rules.
  std::set<std::string> unordered_idents;
  for (const FileData& f : files) {
    if (f.in_src) CollectUnorderedDecls(f, &unordered_idents);
  }

  // Pass 2: rules.
  for (const FileData& f : files) {
    CheckFileName(f.rel, f.path);
    if (f.is_header) {
      CheckHeaderGuard(f.rel, f.lines);
      // src/ headers get the same check via CheckSrcTokens below.
      if (!f.in_src) {
        for (size_t i = 0; i < f.stripped_lines.size(); ++i) {
          if (f.stripped_lines[i].find("using namespace") !=
              std::string::npos) {
            Report(f.rel, static_cast<int>(i) + 1, "S2",
                   "'using namespace' is banned in headers");
          }
        }
      }
    }
    if (!ClusterRunAllowed(f.rel)) {
      CheckNoDirectClusterRun(f.rel, f.stripped_lines);
    }
    if (f.in_src) {
      CheckSrcTokens(f.rel, f.stripped_lines);
      CheckWhitespace(f.rel, f.raw, f.lines);
      CheckNoStdout(f.rel, f.stripped_lines);
      if (f.rel.rfind("src/net/", 0) != 0) {
        CheckNoBareRecv(f.rel, f.stripped_lines);
      }
      if (!ScalarDataPlaneAllowed(f.rel)) {
        CheckNoScalarDataPlane(f.rel, f.stripped_lines);
      }
      if (!CheckpointIoAllowed(f.rel)) {
        CheckNoCheckpointIo(f.rel, f.stripped_lines);
      }
      CheckNoRawIntrinsics(f.rel, f.stripped_lines);
      if (f.path.extension() == ".cc") {
        CheckCcPairing(root, f.rel, f.lines);
      }
      if (f.is_header && f.rel.rfind("src/obs/", 0) == 0) {
        CheckObsDoxygen(f.rel, f.lines);
      }
      CheckMutexAnnotations(f);
      if (!Allowlisted("D1", f.rel)) CheckWallTime(f);
      if (!Allowlisted("D2", f.rel)) CheckRandomness(f);
      if (!Allowlisted("D3", f.rel)) {
        CheckUnorderedIteration(f, unordered_idents);
      }
    }
  }
  CheckNodiscard(root);

  for (const Finding& f : g_findings) {
    std::fprintf(stderr, "%s:%d: [%s] %s\n", f.file.c_str(), f.line,
                 f.rule.c_str(), f.message.c_str());
  }
  if (!g_findings.empty()) {
    std::fprintf(stderr, "adaptagg_lint: %zu finding(s) in %zu files\n",
                 g_findings.size(), files.size());
    return 1;
  }
  std::printf("adaptagg_lint: %zu files clean\n", files.size());
  return 0;
}
