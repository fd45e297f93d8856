// llmp_lint — static checker for the project's PRAM step discipline.
//
// The dynamic verifier (pram::Machine) proves discipline on the concrete
// sizes a test happens to run; this linter enforces the *source-level*
// rules that make those runs representative, over every file in the tree:
//
//   step-raw-index        Inside an `exec.step(...)` lambda body, a shared
//                         vector (one that the body accesses through the
//                         Mem accessor) is also indexed directly
//                         (`vec[i]`), bypassing rd/wr tracking.
//   step-ref-capture      A step lambda explicitly captures a shared
//                         vector by mutable reference (`[&vec]`) — shared
//                         state must flow through the accessor instead.
//   step-read-after-write Within one step body, `m.rd(vec, …)` appears
//                         after `m.wr(vec, …)` on the same buffer: the
//                         double-buffer discipline requires a step's reads
//                         and writes to target distinct buffers (or at
//                         least read-before-write program order; a read
//                         nested inside the write expression is fine).
//   header-pragma-once    A header lacks `#pragma once`, or the pragma
//                         appears after the first #include.
//   include-order         Includes break the project order: headers list
//                         <system> includes then "project" includes, each
//                         block alphabetically sorted; .cpp files may lead
//                         with their primary "own" header.
//   unchecked-index       A function subscripts a std::vector parameter
//                         without any LLMP_CHECK/LLMP_DCHECK guard in its
//                         body (src/ only).
//   serve-raw-sync        A file under src/serve/ names a raw std sync
//                         primitive (std::atomic / std::mutex /
//                         std::condition_variable / std::thread /
//                         std::this_thread, and friends) outside
//                         serve/sync_policy.h. Serve code must spell its
//                         synchronisation through a Sync policy so the
//                         same source compiles against the mc:: shims and
//                         stays model-checkable (docs/MODELCHECK.md).
//   storage-access        A file under src/ outside src/list/ and
//                         src/engine/ subscripts a successor/predecessor
//                         array directly (`next[v]`, `succ[v]`, `pred[v]`,
//                         `suc[v]`). List storage is a policy behind
//                         list::LinkedList and the block engine; raw
//                         subscripts bake the flat layout into call sites
//                         that must stay storage-agnostic. Use the
//                         accessors (list.next(v), predecessors()) or a
//                         differently named local. Passing the array
//                         whole (`m.rd(next, v)`) is fine — only the
//                         subscript is load-bearing.
//   raw-intrinsic         A file outside src/pram/ names a hardware
//                         intrinsic directly: `__builtin_prefetch`, an
//                         `_mm*` / `_mm256*` / `_mm512*` vector intrinsic,
//                         an `__m128`/`__m256`/`__m512` vector type, or an
//                         `*intrin.h` include. Prefetch and SIMD are
//                         wrapped in pram/prefetch.h and pram/simd.h, whose
//                         byte kernel picks its AVX2 or scalar body by the
//                         CPU, and simd_test checks both bodies on every
//                         input; a raw intrinsic at a call site has no
//                         scalar body and no such test, and silently forks
//                         the fast path from the referee'd one.
//   failpoint-name        An LLMP_FAILPOINT / LLMP_FAILPOINT_STATUS site
//                         whose name literal is not `file.scope.event`
//                         (exactly three lowercase [a-z0-9_] segments), or
//                         — across the whole linted tree — a name armed at
//                         more than one site (names key a process-wide
//                         registry; a duplicate makes chaos schedules and
//                         counter reconciliation ambiguous).
//
// Scope: the three step-discipline rules are skipped under src/serve/ —
// the serve layer runs real host threads (mutexes, atomics, futures), not
// PRAM step bodies, so those rules have no subject there; header and
// guard rules still apply. Everything under src/core/ and src/pram/ stays
// fully checked.
//
// A finding on a given line can be suppressed with a trailing
// `// lint:allow(rule-id)` comment (`lint:allow(*)` allows everything).
// Detection is purely lexical: no macro expansion, no template
// instantiation — see docs/ANALYSIS.md for the soundness discussion.
#pragma once

#include <string>
#include <vector>

namespace llmp::lint {

struct Finding {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;

  bool operator<(const Finding& o) const {
    if (file != o.file) return file < o.file;
    if (line != o.line) return line < o.line;
    return rule < o.rule;
  }
};

struct Options {
  bool check_steps = true;    // step-raw-index / step-ref-capture / RAW
  bool check_headers = true;  // header-pragma-once / include-order
  bool check_guards = true;   // unchecked-index (applied under src/ only)
  bool check_failpoints = true;  // failpoint-name (uniqueness needs lint_tree)
  bool check_serve_sync = true;  // serve-raw-sync (applied under src/serve/)
  bool check_storage = true;  // storage-access (src/ minus list/ + engine/)
  bool check_intrinsics = true;  // raw-intrinsic (everywhere but src/pram/)
};

/// Every rule id the linter can emit, in a stable order.
const std::vector<std::string>& all_rule_ids();

/// Lint one translation unit given its contents; `path` feeds diagnostics
/// and selects header-vs-source rule variants.
std::vector<Finding> lint_source(const std::string& path,
                                 const std::string& text,
                                 const Options& opt = {});

/// Lint a file from disk. An unreadable file yields one "io" finding.
std::vector<Finding> lint_file(const std::string& path,
                               const Options& opt = {});

/// Recursively lint every .h/.cpp/.cc under each root (files may also be
/// passed directly). Results are sorted and deterministic.
std::vector<Finding> lint_tree(const std::vector<std::string>& roots,
                               const Options& opt = {});

/// "path:line: [rule] message" — the CLI/CI diagnostic form.
std::string format_finding(const Finding& f);

}  // namespace llmp::lint
