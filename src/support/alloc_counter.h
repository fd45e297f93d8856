// Scoped steady-state allocation accounting for the serve layer.
//
// The PR-2 guarantee — warm algorithm runs through a pooled pram::Context
// allocate nothing — is asserted in-process by tests/context_test.cpp with
// a counting global allocator. The serve layer wants the same number as a
// *production metric*: ServiceStats reports how many heap allocations the
// worker-side algorithm bodies performed since the last stats reset, which
// must read zero once every worker's arena is warm.
//
// The hook is split so ordinary binaries pay nothing: instrumented
// binaries (tests/serve_test.cpp, tools/llmp_serve.cpp) override global
// operator new to call note_alloc(), and note_alloc() counts only while
// an AllocScope is alive on the calling
// thread — the Service wraps exactly the algorithm execution region in one,
// so per-request envelope traffic (futures, response copies) stays out of
// the steady-state number. In uninstrumented binaries note_alloc() is never
// called and the counter trivially reads zero.
#pragma once

#include <cstdint>

namespace llmp::support {

/// Count one allocation iff an AllocScope is alive on this thread.
/// Safe to call from operator new: allocates nothing, never throws.
void note_alloc() noexcept;

/// Global tally of in-scope allocations since process start.
std::uint64_t scoped_allocs() noexcept;

/// Whether the calling thread is inside an AllocScope.
bool alloc_scope_active() noexcept;

/// RAII region marker; nests (inner scopes keep counting).
class AllocScope {
 public:
  AllocScope() noexcept;
  ~AllocScope();
  AllocScope(const AllocScope&) = delete;
  AllocScope& operator=(const AllocScope&) = delete;

 private:
  bool prev_;
};

}  // namespace llmp::support
