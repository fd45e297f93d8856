#include "lint.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "lexer.h"

namespace llmp::lint {
namespace {

// ---------------------------------------------------------------------------
// Token-stream helpers.
// ---------------------------------------------------------------------------

/// Index of the token matching the opener at `open` ('(' / '[' / '{'),
/// or tokens.size()-1 (the kEnd token) when unbalanced.
std::size_t match_close(const std::vector<Token>& toks, std::size_t open) {
  const std::string& o = toks[open].text;
  const char* close = o == "(" ? ")" : o == "[" ? "]" : "}";
  int depth = 0;
  for (std::size_t i = open; i < toks.size(); ++i) {
    if (toks[i].kind != Tok::kPunct) continue;
    if (toks[i].text == "(" || toks[i].text == "[" || toks[i].text == "{")
      ++depth;
    else if (toks[i].text == ")" || toks[i].text == "]" ||
             toks[i].text == "}") {
      --depth;
      if (depth == 0 && toks[i].text == close) return i;
    }
  }
  return toks.size() - 1;
}

/// Greedy parse of a member path `ident(.ident)*` starting at `i`; returns
/// the dotted path and leaves `*next` one past its last token. Returns ""
/// when toks[i] is not an identifier.
std::string parse_path(const std::vector<Token>& toks, std::size_t i,
                       std::size_t* next) {
  if (!toks[i].ident()) {
    *next = i + 1;
    return "";
  }
  std::string path = toks[i].text;
  std::size_t j = i + 1;
  while (j + 1 < toks.size() && toks[j].is(".") && toks[j + 1].ident()) {
    path += '.';
    path += toks[j + 1].text;
    j += 2;
  }
  *next = j;
  return path;
}

std::string root_of(const std::string& path) {
  const std::size_t dot = path.find('.');
  return dot == std::string::npos ? path : path.substr(0, dot);
}

bool is_control_keyword(const std::string& t) {
  return t == "if" || t == "for" || t == "while" || t == "switch" ||
         t == "catch" || t == "return" || t == "sizeof" || t == "do" ||
         t == "else";
}

// ---------------------------------------------------------------------------
// Step-lambda extraction.
// ---------------------------------------------------------------------------

struct StepBody {
  std::size_t begin = 0, end = 0;  // token range of the body, exclusive
  std::string accessor;            // name of the lambda's 2nd parameter
  int line = 0;                    // line of the lambda
  std::vector<std::pair<std::string, int>> ref_captures;  // (name, line)
};

/// Split the token range [begin, end) by top-level commas.
std::vector<std::pair<std::size_t, std::size_t>> split_commas(
    const std::vector<Token>& toks, std::size_t begin, std::size_t end) {
  std::vector<std::pair<std::size_t, std::size_t>> parts;
  int depth = 0;
  std::size_t start = begin;
  for (std::size_t i = begin; i < end; ++i) {
    if (toks[i].kind != Tok::kPunct) continue;
    const std::string& t = toks[i].text;
    if (t == "(" || t == "[" || t == "{" || t == "<") ++depth;
    if (t == ")" || t == "]" || t == "}" || t == ">") --depth;
    if (t == "," && depth == 0) {
      parts.emplace_back(start, i);
      start = i + 1;
    }
  }
  if (start < end) parts.emplace_back(start, end);
  return parts;
}

/// Find every `*.step(...)` call and extract its lambda body, accessor
/// parameter name, and explicit by-reference captures.
std::vector<StepBody> find_step_bodies(const std::vector<Token>& toks) {
  std::vector<StepBody> bodies;
  for (std::size_t i = 0; i + 3 < toks.size(); ++i) {
    if (!(toks[i].is(".") && toks[i + 1].text == "step" &&
          toks[i + 2].is("(")))
      continue;
    const std::size_t call_end = match_close(toks, i + 2);
    // Locate the lambda introducer: a '[' directly after '(' or ','.
    std::size_t lb = toks.size();
    for (std::size_t j = i + 3; j < call_end; ++j) {
      if (toks[j].is("[") &&
          (toks[j - 1].is("(") || toks[j - 1].is(","))) {
        lb = j;
        break;
      }
    }
    if (lb == toks.size()) continue;
    StepBody body;
    body.line = toks[lb].line;
    const std::size_t cap_end = match_close(toks, lb);
    for (const auto& [cb, ce] : split_commas(toks, lb + 1, cap_end)) {
      if (ce - cb >= 2 && toks[cb].is("&") && toks[cb + 1].ident())
        body.ref_captures.emplace_back(toks[cb + 1].text,
                                       toks[cb + 1].line);
    }
    if (!toks[cap_end + 1].is("(")) continue;  // capture-only lambda
    const std::size_t par_end = match_close(toks, cap_end + 1);
    const auto params = split_commas(toks, cap_end + 2, par_end);
    if (params.size() >= 2) {
      // The accessor is the 2nd parameter's name: its last identifier
      // (`auto&& m`); an unnamed parameter leaves the accessor empty.
      const auto& [pb, pe] = params[1];
      for (std::size_t j = pe; j-- > pb;) {
        if (toks[j].ident() && toks[j].text != "auto") {
          body.accessor = toks[j].text;
          break;
        }
        if (toks[j].ident()) break;  // `auto` directly: unnamed
      }
    }
    // Skip qualifiers (mutable, noexcept, -> T) up to the body brace.
    std::size_t brace = par_end + 1;
    while (brace < call_end && !toks[brace].is("{")) ++brace;
    if (brace >= call_end) continue;
    body.begin = brace + 1;
    body.end = match_close(toks, brace);
    bodies.push_back(std::move(body));
    i = brace;  // resume inside; nested step calls would still be found
  }
  return bodies;
}

// ---------------------------------------------------------------------------
// Step-body rules.
// ---------------------------------------------------------------------------

struct AccessorEvent {
  bool is_write = false;
  std::string path;       // first-argument buffer path, e.g. "lay.cell_node"
  std::size_t start = 0;  // token index of the accessor identifier
  std::size_t end = 0;    // token index of the call's closing ')'
  int line = 0;
};

std::vector<AccessorEvent> collect_events(const std::vector<Token>& toks,
                                          const StepBody& body) {
  std::vector<AccessorEvent> events;
  if (body.accessor.empty()) return events;
  for (std::size_t i = body.begin; i + 3 < body.end; ++i) {
    if (!(toks[i].ident() && toks[i].text == body.accessor)) continue;
    if (i > 0 && toks[i - 1].is(".")) continue;  // member named like it
    if (!toks[i + 1].is(".")) continue;
    const std::string& fn = toks[i + 2].text;
    if (fn != "rd" && fn != "wr") continue;
    if (!toks[i + 3].is("(")) continue;
    AccessorEvent e;
    e.is_write = fn == "wr";
    e.start = i;
    e.end = match_close(toks, i + 3);
    e.line = toks[i].line;
    std::size_t next = 0;
    e.path = parse_path(toks, i + 4, &next);
    events.push_back(std::move(e));
  }
  return events;
}

void check_step_rules(const std::string& path, const std::vector<Token>& toks,
                      std::vector<Finding>& findings) {
  for (const StepBody& body : find_step_bodies(toks)) {
    const std::vector<AccessorEvent> events = collect_events(toks, body);
    std::set<std::string> shared, shared_roots;
    for (const AccessorEvent& e : events) {
      if (e.path.empty()) continue;
      shared.insert(e.path);
      shared_roots.insert(root_of(e.path));
    }

    // step-ref-capture: explicit mutable reference capture of a buffer the
    // body accesses through the accessor.
    for (const auto& [name, line] : body.ref_captures) {
      if (shared_roots.count(name)) {
        findings.push_back(
            {path, line, "step-ref-capture",
             "step lambda captures shared array '" + name +
                 "' by mutable reference; route accesses through the Mem "
                 "accessor instead"});
      }
    }

    // step-raw-index: direct subscript of a buffer that this body also
    // accesses through the accessor.
    for (std::size_t i = body.begin; i < body.end; ++i) {
      if (!toks[i].ident()) continue;
      if (i > 0 && toks[i - 1].is(".")) continue;  // inside a longer path
      std::size_t next = 0;
      const std::string p = parse_path(toks, i, &next);
      if (next < body.end && toks[next].is("[") && shared.count(p)) {
        findings.push_back(
            {path, toks[next].line, "step-raw-index",
             "raw subscript of shared array '" + p +
                 "' inside a step body; use " + body.accessor + ".rd/" +
                 body.accessor + ".wr so the access is tracked"});
      }
      i = next - 1;
    }

    // step-read-after-write: a read of a buffer textually after a
    // completed write to the same buffer within one step body.
    std::set<std::string> reported;
    for (const AccessorEvent& r : events) {
      if (r.is_write || r.path.empty()) continue;
      for (const AccessorEvent& w : events) {
        if (!w.is_write || w.path != r.path) continue;
        if (w.end < r.start) {
          const std::string key = r.path + ":" + std::to_string(r.line);
          if (reported.insert(key).second) {
            findings.push_back(
                {path, r.line, "step-read-after-write",
                 "read of '" + r.path +
                     "' after a same-step write (write on line " +
                     std::to_string(w.line) +
                     "); step reads and writes must target distinct "
                     "buffers (double-buffer discipline)"});
          }
          break;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Header rules (line-based pass).
// ---------------------------------------------------------------------------

struct IncludeInfo {
  int line = 0;
  bool angled = false;
  std::string target;
};

struct DirectiveScan {
  bool has_pragma_once = false;
  int pragma_line = 0;
  std::vector<IncludeInfo> includes;
};

DirectiveScan scan_directives(const std::string& text) {
  DirectiveScan scan;
  std::istringstream in(text);
  std::string raw;
  int line = 0;
  while (std::getline(in, raw)) {
    ++line;
    std::size_t p = raw.find_first_not_of(" \t");
    if (p == std::string::npos || raw[p] != '#') continue;
    ++p;
    p = raw.find_first_not_of(" \t", p);
    if (p == std::string::npos) continue;
    if (raw.compare(p, 6, "pragma") == 0 &&
        raw.find("once", p) != std::string::npos) {
      if (!scan.has_pragma_once) {
        scan.has_pragma_once = true;
        scan.pragma_line = line;
      }
      continue;
    }
    if (raw.compare(p, 7, "include") != 0) continue;
    p = raw.find_first_not_of(" \t", p + 7);
    if (p == std::string::npos) continue;
    const char open = raw[p];
    if (open != '<' && open != '"') continue;
    const char close = open == '<' ? '>' : '"';
    const std::size_t e = raw.find(close, p + 1);
    if (e == std::string::npos) continue;
    scan.includes.push_back(
        {line, open == '<', raw.substr(p + 1, e - p - 1)});
  }
  return scan;
}

bool is_header(const std::string& path) {
  return path.size() > 2 && path.compare(path.size() - 2, 2, ".h") == 0;
}

/// Check that `incs` forms an <angled> block then a "quoted" block, each
/// alphabetically sorted.
void check_include_blocks(const std::string& path,
                          const std::vector<IncludeInfo>& incs,
                          std::vector<Finding>& findings) {
  bool seen_quoted = false;
  const IncludeInfo* prev = nullptr;
  for (const IncludeInfo& inc : incs) {
    if (!inc.angled) seen_quoted = true;
    if (inc.angled && seen_quoted) {
      findings.push_back({path, inc.line, "include-order",
                          "system include <" + inc.target +
                              "> after a project include; list all "
                              "<system> headers first"});
      prev = &inc;
      continue;
    }
    if (prev && prev->angled == inc.angled && inc.target < prev->target) {
      findings.push_back({path, inc.line, "include-order",
                          "include \"" + inc.target +
                              "\" out of alphabetical order (after \"" +
                              prev->target + "\")"});
    }
    prev = &inc;
  }
}

void check_header_rules(const std::string& path, const std::string& text,
                        std::vector<Finding>& findings) {
  const DirectiveScan scan = scan_directives(text);
  if (is_header(path)) {
    if (!scan.has_pragma_once) {
      findings.push_back({path, 1, "header-pragma-once",
                          "header is missing #pragma once"});
    } else if (!scan.includes.empty() &&
               scan.includes.front().line < scan.pragma_line) {
      findings.push_back({path, scan.pragma_line, "header-pragma-once",
                          "#pragma once must precede every #include"});
    }
    check_include_blocks(path, scan.includes, findings);
    return;
  }
  // .cpp: an optional leading quoted "primary" include (the file's own
  // header), then the header ordering.
  std::vector<IncludeInfo> incs = scan.includes;
  if (!incs.empty() && !incs.front().angled)
    incs.erase(incs.begin());
  check_include_blocks(path, incs, findings);
}

// ---------------------------------------------------------------------------
// unchecked-index: LLMP_CHECK/LLMP_DCHECK must guard indexing helpers.
// ---------------------------------------------------------------------------

bool is_check_ident(const std::string& t) {
  return t == "LLMP_CHECK" || t == "LLMP_DCHECK" || t == "LLMP_CHECK_MSG";
}

/// Names of std::vector-typed parameters in the param-list range.
std::vector<std::string> vector_params(const std::vector<Token>& toks,
                                       std::size_t begin, std::size_t end) {
  std::vector<std::string> names;
  for (std::size_t i = begin; i + 1 < end; ++i) {
    if (!(toks[i].ident() && toks[i].text == "vector" &&
          toks[i + 1].is("<")))
      continue;
    // Balance the template argument list ('<' ... '>').
    int depth = 0;
    std::size_t j = i + 1;
    for (; j < end; ++j) {
      if (toks[j].is("<")) ++depth;
      if (toks[j].is(">")) {
        --depth;
        if (depth == 0) break;
      }
    }
    // Skip ref/pointer qualifiers, take the parameter name.
    std::size_t k = j + 1;
    while (k < end && (toks[k].is("&") || toks[k].is("*"))) ++k;
    if (k < end && toks[k].ident()) names.push_back(toks[k].text);
    i = j;
  }
  return names;
}

void check_guard_rules(const std::string& path,
                       const std::vector<Token>& toks,
                       std::vector<Finding>& findings) {
  for (std::size_t b = 1; b < toks.size(); ++b) {
    if (!toks[b].is("{")) continue;
    // Accept ') {', ') const {', ') noexcept {', ') const noexcept {'.
    std::size_t r = b;
    while (r > 0 && (toks[r - 1].text == "const" ||
                     toks[r - 1].text == "noexcept"))
      --r;
    if (r == 0 || !toks[r - 1].is(")")) continue;
    // Walk back to the matching '('.
    int depth = 0;
    std::size_t open = r - 1;
    for (;; --open) {
      if (toks[open].is(")")) ++depth;
      if (toks[open].is("(")) {
        --depth;
        if (depth == 0) break;
      }
      if (open == 0) break;
    }
    if (open == 0 || depth != 0) continue;
    const Token& before = toks[open - 1];
    if (!before.ident() || is_control_keyword(before.text)) continue;
    const std::vector<std::string> params =
        vector_params(toks, open + 1, r - 1);
    if (params.empty()) continue;
    const std::size_t body_end = match_close(toks, b);
    bool has_check = false;
    const Token* first_subscript = nullptr;
    std::string subscripted;
    for (std::size_t i = b + 1; i < body_end; ++i) {
      if (!toks[i].ident()) continue;
      if (is_check_ident(toks[i].text)) has_check = true;
      if (!first_subscript && toks[i + 1].is("[") &&
          (i == 0 || !toks[i - 1].is(".")) &&
          std::find(params.begin(), params.end(), toks[i].text) !=
              params.end()) {
        first_subscript = &toks[i];
        subscripted = toks[i].text;
      }
    }
    if (first_subscript && !has_check) {
      findings.push_back(
          {path, first_subscript->line, "unchecked-index",
           "function '" + before.text + "' indexes std::vector parameter '" +
               subscripted +
               "' without an LLMP_CHECK/LLMP_DCHECK guard"});
    }
    b = body_end;
  }
}

// ---------------------------------------------------------------------------
// failpoint-name: LLMP_FAILPOINT sites must follow the naming convention.
// ---------------------------------------------------------------------------

struct FailpointSite {
  std::string name;
  int line = 0;
};

bool is_failpoint_macro(const std::string& t) {
  return t == "LLMP_FAILPOINT" || t == "LLMP_FAILPOINT_STATUS";
}

/// Every `LLMP_FAILPOINT[_STATUS]("name")` call site in the token stream.
/// (The macro definitions themselves live on preprocessor lines, which
/// the lexer strips.)
std::vector<FailpointSite> collect_failpoint_sites(
    const std::vector<Token>& toks) {
  std::vector<FailpointSite> sites;
  for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
    if (!toks[i].ident() || !is_failpoint_macro(toks[i].text)) continue;
    if (!toks[i + 1].is("(")) continue;
    if (toks[i + 2].kind != Tok::kString) continue;
    sites.push_back({toks[i + 2].text, toks[i + 2].line});
  }
  return sites;
}

/// `file.scope.event`: exactly three non-empty segments of [a-z0-9_].
bool valid_failpoint_name(const std::string& name) {
  int segments = 1;
  char prev = '.';
  for (char c : name) {
    if (c == '.') {
      if (prev == '.') return false;  // empty segment
      ++segments;
    } else if (!((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                 c == '_')) {
      return false;
    }
    prev = c;
  }
  return segments == 3 && prev != '.';
}

void check_failpoint_rules(const std::string& path,
                           const std::vector<Token>& toks,
                           std::vector<Finding>& findings) {
  for (const FailpointSite& site : collect_failpoint_sites(toks)) {
    if (!valid_failpoint_name(site.name)) {
      findings.push_back(
          {path, site.line, "failpoint-name",
           "failpoint name '" + site.name +
               "' must be file.scope.event — exactly three lowercase "
               "[a-z0-9_] segments"});
    }
  }
}

// ---------------------------------------------------------------------------
// storage-access: successor/predecessor arrays are a storage policy.
// ---------------------------------------------------------------------------

/// The identifiers whose raw subscript bakes the flat layout into a call
/// site. Exact-name match only: `succ_of[v]` or `arc_next[v]` are fine.
bool is_storage_array_name(const std::string& t) {
  return t == "next" || t == "pred" || t == "succ" || t == "suc";
}

void check_storage_rules(const std::string& path,
                         const std::vector<Token>& toks,
                         std::vector<Finding>& findings) {
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (!toks[i].ident() || !is_storage_array_name(toks[i].text)) continue;
    if (!toks[i + 1].is("[")) continue;
    findings.push_back(
        {path, toks[i].line, "storage-access",
         "raw subscript of storage array '" + toks[i].text +
             "' outside src/list//src/engine/; go through the "
             "list::LinkedList accessors (next(v), predecessors()) or "
             "rename the local — storage layout is a policy"});
  }
}

// ---------------------------------------------------------------------------
// raw-intrinsic: prefetch and SIMD are wrapped in src/pram/.
// ---------------------------------------------------------------------------

bool starts_with(const std::string& s, const char* prefix) {
  return s.compare(0, std::string::traits_type::length(prefix), prefix) == 0;
}

/// Identifiers that reach hardware intrinsics directly. `_mm_malloc` and
/// friends all share the `_mm` prefixes, which is intended: aligned
/// allocation for vector code is part of the same policy surface.
bool is_intrinsic_name(const std::string& t) {
  return t == "__builtin_prefetch" || starts_with(t, "_mm_") ||
         starts_with(t, "_mm256_") || starts_with(t, "_mm512_") ||
         starts_with(t, "__m128") || starts_with(t, "__m256") ||
         starts_with(t, "__m512");
}

/// Vendor intrinsic headers: immintrin.h, emmintrin.h, x86intrin.h, ...
/// plus arm_neon.h for completeness.
bool is_intrinsic_header(const std::string& target) {
  const std::string suffix = "intrin.h";
  return target == "arm_neon.h" ||
         (target.size() >= suffix.size() &&
          target.compare(target.size() - suffix.size(), suffix.size(),
                         suffix) == 0);
}

void check_intrinsic_rules(const std::string& path, const std::string& text,
                           const std::vector<Token>& toks,
                           std::vector<Finding>& findings) {
  for (const IncludeInfo& inc : scan_directives(text).includes) {
    if (!is_intrinsic_header(inc.target)) continue;
    findings.push_back(
        {path, inc.line, "raw-intrinsic",
         "intrinsic header <" + inc.target +
             "> outside src/pram/; prefetch and SIMD are wrapped there — "
             "use pram/prefetch.h / pram/simd.h"});
  }
  for (const Token& t : toks) {
    if (!t.ident() || !is_intrinsic_name(t.text)) continue;
    findings.push_back(
        {path, t.line, "raw-intrinsic",
         "raw intrinsic '" + t.text +
             "' outside src/pram/; call the pram::prefetch_ro / pram::simd "
             "wrappers (simd.h keeps a scalar body beside its vector one, "
             "and simd_test checks each)"});
  }
}

// ---------------------------------------------------------------------------
// serve-raw-sync: serve code must go through the sync-policy vocabulary.
// ---------------------------------------------------------------------------

/// std:: names that bypass the Sync policy. lock_guard / unique_lock are
/// deliberately absent: they are templated over the policy's mutex type
/// and work unchanged under the mc:: shims.
bool is_raw_sync_name(const std::string& t) {
  return t == "atomic" || t == "atomic_flag" || t == "mutex" ||
         t == "recursive_mutex" || t == "timed_mutex" ||
         t == "shared_mutex" || t == "condition_variable" ||
         t == "condition_variable_any" || t == "thread" || t == "jthread" ||
         t == "this_thread";
}

void check_serve_sync_rules(const std::string& path,
                            const std::vector<Token>& toks,
                            std::vector<Finding>& findings) {
  for (std::size_t i = 0; i + 3 < toks.size(); ++i) {
    if (!(toks[i].ident() && toks[i].text == "std")) continue;
    if (!(toks[i + 1].is(":") && toks[i + 2].is(":"))) continue;
    const Token& name = toks[i + 3];
    if (!name.ident() || !is_raw_sync_name(name.text)) continue;
    findings.push_back(
        {path, name.line, "serve-raw-sync",
         "raw std::" + name.text +
             " in serve code; spell synchronisation through a Sync policy "
             "(serve/sync_policy.h) so the source stays model-checkable "
             "under the mc:: shims"});
    i += 3;
  }
}

// ---------------------------------------------------------------------------
// Driver.
// ---------------------------------------------------------------------------

bool under_src(const std::string& path) {
  return path.find("src/") == 0 || path.find("/src/") != std::string::npos;
}

// src/serve/ is the one subsystem allowed to use real host threads: its
// queue and worker loop are ordinary mutex/atomic concurrency, not PRAM
// step bodies, so the step-discipline rules (written for exec.step
// lambdas and rd/wr accessors) do not apply there. Header hygiene and
// guard rules still do. src/core/ and src/pram/ algorithm code remains
// fully checked.
bool under_serve(const std::string& path) {
  return path.find("src/serve/") == 0 ||
         path.find("/src/serve/") != std::string::npos;
}

// src/list/ owns the flat layout and src/engine/ the blocked one; inside
// those two subsystems subscripting the storage arrays IS the job. All
// other src/ code must stay storage-agnostic.
bool owns_storage(const std::string& path) {
  return path.find("src/list/") == 0 ||
         path.find("/src/list/") != std::string::npos ||
         path.find("src/engine/") == 0 ||
         path.find("/src/engine/") != std::string::npos;
}

// src/pram/ is the single sanctioned home of raw prefetch/SIMD
// intrinsics: prefetch.h wraps the prefetch builtin, and simd.h wraps the
// byte kernel, with a scalar body beside its AVX2 one.
// Everywhere else a fast path must be spelled through those wrappers.
bool under_pram(const std::string& path) {
  return path.find("src/pram/") == 0 ||
         path.find("/src/pram/") != std::string::npos;
}

// serve/sync_policy.h is the single sanctioned home of the raw std::
// primitives: it wraps them into the policy vocabulary everything else
// in src/serve/ must use.
bool is_sync_policy_header(const std::string& path) {
  const std::string suffix = "sync_policy.h";
  return path.size() >= suffix.size() &&
         path.compare(path.size() - suffix.size(), suffix.size(), suffix) ==
             0;
}

void apply_suppressions(const LexOutput& lx, std::vector<Finding>& findings) {
  findings.erase(
      std::remove_if(findings.begin(), findings.end(),
                     [&](const Finding& f) {
                       auto it = lx.allow.find(f.line);
                       if (it == lx.allow.end()) return false;
                       return it->second.count("*") != 0 ||
                              it->second.count(f.rule) != 0;
                     }),
      findings.end());
}

}  // namespace

const std::vector<std::string>& all_rule_ids() {
  static const std::vector<std::string> ids = {
      "step-raw-index",  "step-ref-capture", "step-read-after-write",
      "header-pragma-once", "include-order", "unchecked-index",
      "failpoint-name", "serve-raw-sync", "storage-access",
      "raw-intrinsic"};
  return ids;
}

std::vector<Finding> lint_source(const std::string& path,
                                 const std::string& text,
                                 const Options& opt) {
  std::vector<Finding> findings;
  const LexOutput lx = lex(text);
  if (opt.check_steps && !under_serve(path))
    check_step_rules(path, lx.tokens, findings);
  if (opt.check_headers) check_header_rules(path, text, findings);
  if (opt.check_guards && under_src(path))
    check_guard_rules(path, lx.tokens, findings);
  if (opt.check_failpoints) check_failpoint_rules(path, lx.tokens, findings);
  if (opt.check_storage && under_src(path) && !owns_storage(path))
    check_storage_rules(path, lx.tokens, findings);
  if (opt.check_intrinsics && !under_pram(path))
    check_intrinsic_rules(path, text, lx.tokens, findings);
  if (opt.check_serve_sync && under_serve(path) &&
      !is_sync_policy_header(path))
    check_serve_sync_rules(path, lx.tokens, findings);
  apply_suppressions(lx, findings);
  std::sort(findings.begin(), findings.end());
  return findings;
}

std::vector<Finding> lint_file(const std::string& path, const Options& opt) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {{path, 0, "io", "cannot read file"}};
  std::ostringstream buf;
  buf << in.rdbuf();
  return lint_source(path, buf.str(), opt);
}

std::vector<Finding> lint_tree(const std::vector<std::string>& roots,
                               const Options& opt) {
  namespace fs = std::filesystem;
  std::vector<std::string> files;
  for (const std::string& root : roots) {
    std::error_code ec;
    if (fs::is_directory(root, ec)) {
      for (auto it = fs::recursive_directory_iterator(root, ec);
           !ec && it != fs::recursive_directory_iterator(); ++it) {
        if (!it->is_regular_file()) continue;
        const std::string ext = it->path().extension().string();
        if (ext == ".h" || ext == ".cpp" || ext == ".cc")
          files.push_back(it->path().string());
      }
    } else {
      files.push_back(root);
    }
  }
  std::sort(files.begin(), files.end());
  std::vector<Finding> findings;
  for (const std::string& f : files) {
    std::vector<Finding> fs_ = lint_file(f, opt);
    findings.insert(findings.end(), fs_.begin(), fs_.end());
  }

  // failpoint-name uniqueness is a cross-file property: names key a
  // process-wide registry, so a second site with the same name would make
  // arm()/counts() ambiguous. Flag every site after the first (files are
  // sorted, so "first" is deterministic).
  if (opt.check_failpoints) {
    std::map<std::string, std::pair<std::string, int>> first_site;
    for (const std::string& file : files) {
      std::ifstream in(file, std::ios::binary);
      if (!in) continue;  // already reported as an io finding above
      std::ostringstream buf;
      buf << in.rdbuf();
      const LexOutput lx = lex(buf.str());
      std::vector<Finding> dups;
      for (const FailpointSite& site : collect_failpoint_sites(lx.tokens)) {
        auto [it, inserted] =
            first_site.try_emplace(site.name, file, site.line);
        if (inserted) continue;
        dups.push_back({file, site.line, "failpoint-name",
                        "failpoint name '" + site.name +
                            "' is already used at " + it->second.first + ":" +
                            std::to_string(it->second.second) +
                            "; names must be unique across the tree"});
      }
      apply_suppressions(lx, dups);
      findings.insert(findings.end(), dups.begin(), dups.end());
    }
    std::sort(findings.begin(), findings.end());
  }
  return findings;
}

std::string format_finding(const Finding& f) {
  std::ostringstream os;
  os << f.file << ':' << f.line << ": [" << f.rule << "] " << f.message;
  return os.str();
}

}  // namespace llmp::lint
