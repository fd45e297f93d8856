// llmp.h — the umbrella header and the library's stable public surface.
//
// Everything an application needs lives behind three names:
//
//   llmp::Context             one execution context: backend + pooled arena
//                             + the algorithm registry, ready to run
//   llmp::run(ctx, name, l)   run a registry algorithm on a list, get a
//                             Result<core::MatchResult> (never aborts on
//                             user input — see support/status.h)
//   llmp::serve::Service      the multi-request batch/serve layer
//                             (serve/service.h)
//
//   #include "llmp.h"
//   llmp::Context ctx;
//   auto list = llmp::list::generators::random_list(1 << 16, 42);
//   auto r = llmp::run(ctx, "match4", list);
//   if (r.ok()) std::cout << r->edges << "\n";
//
// Deep internal headers (core/match4.h, pram/arena.h, …) remain available
// and stable *within* the repo, but out-of-tree code should include only
// this header: the names re-exported here are the compatibility surface
// the serve layer, the CLI and the examples are written against.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "apps/register.h"
#include "core/maximal_matching.h"
#include "core/run.h"
#include "core/verify.h"
#include "list/generators.h"
#include "list/linked_list.h"
#include "pram/context.h"
#include "pram/executor.h"
#include "serve/service.h"
#include "support/status.h"

namespace llmp {

/// Per-run overrides applied on top of the algorithm's canonical options.
/// Zero-initialised fields mean "keep the registry's canonical value".
struct Options {
  int i_parameter = 0;     ///< Match4's i / Match2 rounds / Match3 crunch
  bool table = false;      ///< Match4: Lemma 5 table-accelerated partition
  bool erew = false;       ///< run the EREW variant where one exists
  std::uint64_t seed = 0;  ///< randomized baseline only
  bool verify = true;      ///< audit the result with core::verify
};

/// The one-object setup for sequential use: owns a SeqExec backend and a
/// pram::Context with a pooled ScratchArena, and registers the application
/// algorithms so llmp::run() resolves every public name. Warm runs through
/// one Context allocate nothing. Not thread-safe — use one Context per
/// thread, or serve::Service which does exactly that.
class Context {
 public:
  explicit Context(std::size_t processors = 1024)
      : exec_(processors == 0 ? 1 : processors), ctx_(exec_) {
    apps::register_algorithms();
  }

  /// The underlying pram::Context, for calling algorithm templates or
  /// core entry points directly.
  pram::Context<pram::SeqExec>& pram_context() { return ctx_; }
  std::size_t processors() const { return ctx_.processors(); }
  pram::ScratchArena& arena() { return ctx_.arena(); }
  const pram::PhaseBreakdown& phases() const { return ctx_.phases(); }

 private:
  pram::SeqExec exec_;
  pram::Context<pram::SeqExec> ctx_;
};

/// Fluent, transport-neutral construction of serve requests — the one
/// spelling of "what a request is" shared by in-process callers
/// (serve::Service::submit), the llmp_serve CLI, and the network client
/// (net/client.h), so the wire schema and the public API cannot drift.
///
///   auto req = llmp::RequestBuilder()
///                  .algorithm("match4")
///                  .list(my_list)                    // in-process / inline
///                  .deadline_after(std::chrono::milliseconds(50))
///                  .tenant(7)
///                  .build();
///   auto fut = svc.submit(std::move(req));
///
/// The list can be named two ways:
///   * list(l)          — a borrowed in-memory list. build() uses it
///                        directly; the net client ships its successor
///                        array inline in the request frame.
///   * generated(n, s)  — "the random list with these parameters". The
///                        net client sends just (n, seed) and the server
///                        materialises (and caches) the list; build() has
///                        no storage to point at, so the in-process
///                        Request comes back listless and Service::submit
///                        rejects it kInvalidArgument — generated specs
///                        are a wire-only affordance.
class RequestBuilder {
 public:
  RequestBuilder& algorithm(std::string name) {
    algorithm_ = std::move(name);
    return *this;
  }
  RequestBuilder& list(const list::LinkedList& l) {
    list_ = &l;
    generated_ = false;
    return *this;
  }
  /// Server-side generated list::generators::random_list(n, seed).
  RequestBuilder& generated(std::size_t n, std::uint64_t seed) {
    list_ = nullptr;
    generated_ = true;
    generated_n_ = n;
    generated_seed_ = seed;
    return *this;
  }
  RequestBuilder& deadline(std::chrono::steady_clock::time_point t) {
    deadline_ = t;
    return *this;
  }
  /// Relative form; resolved against now() at build/encode time.
  RequestBuilder& deadline_after(std::chrono::milliseconds d) {
    deadline_ = d.count() > 0 ? std::chrono::steady_clock::now() + d
                              : std::chrono::steady_clock::time_point::max();
    return *this;
  }
  RequestBuilder& memory_budget_bytes(std::size_t bytes) {
    memory_budget_bytes_ = bytes;
    return *this;
  }
  RequestBuilder& tenant(std::uint32_t id) {
    tenant_ = id;
    return *this;
  }
  RequestBuilder& cancel(serve::CancelToken token) {
    cancel_ = std::move(token);
    return *this;
  }
  /// Per-request integrity auditing override (serve::AuditPolicy); unset
  /// means the Service's configured default applies.
  RequestBuilder& audit(serve::AuditPolicy policy) {
    audit_ = policy;
    return *this;
  }

  /// The in-process serve::Request. Requires list(); a generated() spec
  /// (or no list at all) builds a listless Request that Service::submit
  /// refuses kInvalidArgument — never aborts.
  serve::Request build() const {
    serve::Request req;
    req.list = list_;
    req.algorithm = algorithm_;
    req.deadline = deadline_;
    req.cancel = cancel_;
    req.memory_budget_bytes = memory_budget_bytes_;
    req.audit = audit_;
    req.tenant = tenant_;
    return req;
  }

  // Field access for transports (net/client.h encodes from these).
  const std::string& algorithm_name() const { return algorithm_; }
  const list::LinkedList* list_ptr() const { return list_; }
  bool is_generated() const { return generated_; }
  std::size_t generated_n() const { return generated_n_; }
  std::uint64_t generated_seed() const { return generated_seed_; }
  std::chrono::steady_clock::time_point deadline_point() const {
    return deadline_;
  }
  std::size_t budget_bytes() const { return memory_budget_bytes_; }
  std::optional<serve::AuditPolicy> audit_policy() const { return audit_; }
  std::uint32_t tenant_id() const { return tenant_; }

 private:
  std::string algorithm_ = "match4";
  const list::LinkedList* list_ = nullptr;
  bool generated_ = false;
  std::size_t generated_n_ = 0;
  std::uint64_t generated_seed_ = 0;
  std::chrono::steady_clock::time_point deadline_ =
      std::chrono::steady_clock::time_point::max();
  serve::CancelToken cancel_;
  std::size_t memory_budget_bytes_ = 0;
  std::optional<serve::AuditPolicy> audit_;
  std::uint32_t tenant_ = 0;
};

/// Run the registry algorithm `name` ("match4", "match2-erew",
/// "sequential", …) on `list`. User-input problems come back as a Status
/// (kNotFound, kInvalidArgument), verification failures as
/// kFailedVerification; this never aborts on bad input. ctx.phases()
/// afterwards holds this run's phases only.
inline Result<core::MatchResult> run(Context& ctx, std::string_view name,
                                     const list::LinkedList& list,
                                     const Options& options = {}) {
  ctx.pram_context().clear_phases();  // keep the metrics sink bounded
  Result<core::MatchOptions> resolved = core::resolve_algorithm(name);
  if (!resolved.ok()) return resolved.status();
  core::MatchOptions opt = resolved.value();
  if (options.i_parameter != 0) opt.i_parameter = options.i_parameter;
  if (options.table) opt.partition_with_table = true;
  if (options.erew) opt.erew = true;
  if (options.seed != 0) opt.seed = options.seed;

  core::MatchResult out;
  if (Status s = core::run_matching_into(ctx.pram_context(), list, opt, out);
      !s.ok())
    return s;
  if (options.verify) {
    if (Status s = core::verify::status(list, out.in_matching); !s.ok())
      return s;
  }
  return out;
}

}  // namespace llmp
