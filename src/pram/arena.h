// Pooled scratch-buffer arena for the execution context (context.h).
//
// Every matching algorithm allocates a family of per-run scratch vectors
// (labels, predecessor arrays, layout tables, inboxes, …). On a cold call
// those come from the heap; at production scale the same algorithm runs
// over and over with the same n, so the arena recycles the backing stores:
// releasing a ScratchVec returns its std::vector to a per-element-type
// pool, and the next take() of a fitting size reuses the capacity with no
// heap traffic. Repeated runs through a warm pram::Context therefore reach
// zero steady-state allocations in the algorithm body (asserted by
// tests/context_test.cpp with a counting global allocator).
//
// Slabs are size-tagged: take(n) picks the pooled vector with the
// smallest capacity >= n (best fit), falling back to the largest one
// (which then grows once). Because a warm run issues the same multiset of
// sizes as the run that populated the pool, best-fit always finds a
// fitting slab at steady state. Pools are keyed by element type, so a
// label_t slab is never reinterpreted as an index_t slab.
//
// The arena is deliberately *not* thread-safe: scratch is taken and
// released on the orchestrating thread, outside step bodies. Step bodies
// running on pool workers only touch the vectors' elements.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <typeindex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "support/check.h"
#include "support/failpoint.h"

namespace llmp::pram {

class ScratchArena;

/// RAII lease of one pooled vector. Move-only; converts implicitly to
/// std::vector<T>& so it can be passed wherever the algorithms expect a
/// plain vector, and the Mem accessors (executor.h, machine.h,
/// symbolic_exec.h) accept it directly in step bodies via .vec().
template <class T>
class ScratchVec {
 public:
  ScratchVec() = default;
  ScratchVec(ScratchArena* arena, std::vector<T>&& v)
      : arena_(arena), v_(std::move(v)) {}
  ScratchVec(ScratchVec&& o) noexcept
      : arena_(o.arena_), v_(std::move(o.v_)) {
    o.arena_ = nullptr;
  }
  ScratchVec& operator=(ScratchVec&& o) noexcept {
    if (this != &o) {
      release();
      arena_ = o.arena_;
      v_ = std::move(o.v_);
      o.arena_ = nullptr;
    }
    return *this;
  }
  ScratchVec(const ScratchVec&) = delete;
  ScratchVec& operator=(const ScratchVec&) = delete;
  ~ScratchVec() { release(); }

  std::vector<T>& vec() { return v_; }
  const std::vector<T>& vec() const { return v_; }
  std::vector<T>& operator*() { return v_; }
  const std::vector<T>& operator*() const { return v_; }
  operator std::vector<T>&() { return v_; }             // NOLINT(runtime/explicit)
  operator const std::vector<T>&() const { return v_; } // NOLINT(runtime/explicit)

  T& operator[](std::size_t i) { return v_[i]; }
  const T& operator[](std::size_t i) const { return v_[i]; }
  std::size_t size() const { return v_.size(); }

 private:
  inline void release();

  ScratchArena* arena_ = nullptr;
  std::vector<T> v_;
};

class ScratchArena {
 public:
  ScratchArena() = default;
  ScratchArena(const ScratchArena&) = delete;
  ScratchArena& operator=(const ScratchArena&) = delete;

  /// Lease a vector of `n` elements, every element set to `fill` —
  /// identical contents to a fresh std::vector<T>(n, fill).
  template <class T>
  ScratchVec<T> take(std::size_t n, T fill = T{}) {
    LLMP_FAILPOINT("pram.arena.take");
    ++takes_;
    std::vector<T> v;
    auto& free_list = pool<T>().free_list;
    const std::size_t pick = best_fit(free_list, n);
    if (pick != free_list.size()) {
      if (free_list[pick].capacity() >= n) ++hits_;
      v = std::move(free_list[pick]);
      free_list[pick] = std::move(free_list.back());
      free_list.pop_back();
    }
    v.assign(n, fill);
    return ScratchVec<T>(this, std::move(v));
  }

  /// Return a slab to its pool (called by ~ScratchVec).
  template <class T>
  void put(std::vector<T>&& v) {
    pool<T>().free_list.push_back(std::move(v));
  }

  /// Lifetime take() count and how many were served from a fitting slab.
  std::uint64_t takes() const { return takes_; }
  std::uint64_t hits() const { return hits_; }

 private:
  struct PoolBase {
    virtual ~PoolBase() = default;
  };
  template <class T>
  struct Pool : PoolBase {
    std::vector<std::vector<T>> free_list;
  };

  template <class T>
  Pool<T>& pool() {
    auto it = pools_.find(std::type_index(typeid(T)));
    if (it == pools_.end()) {
      it = pools_
               .emplace(std::type_index(typeid(T)),
                        std::make_unique<Pool<T>>())
               .first;
    }
    return static_cast<Pool<T>&>(*it->second);
  }

  /// Index of the slab with the smallest capacity >= n; if none fits, the
  /// largest slab (it grows once); free_list.size() when the list is empty.
  template <class T>
  static std::size_t best_fit(const std::vector<std::vector<T>>& free_list,
                              std::size_t n) {
    std::size_t best = free_list.size();
    std::size_t largest = free_list.size();
    for (std::size_t i = 0; i < free_list.size(); ++i) {
      LLMP_DCHECK(i < free_list.size());
      const std::size_t cap = free_list[i].capacity();
      if (largest == free_list.size() ||
          cap > free_list[largest].capacity())
        largest = i;
      if (cap >= n &&
          (best == free_list.size() || cap < free_list[best].capacity()))
        best = i;
    }
    return best != free_list.size() ? best : largest;
  }

  std::unordered_map<std::type_index, std::unique_ptr<PoolBase>> pools_;
  std::uint64_t takes_ = 0;
  std::uint64_t hits_ = 0;
};

template <class T>
void ScratchVec<T>::release() {
  if (arena_ != nullptr) {
    arena_->put(std::move(v_));
    arena_ = nullptr;
  }
  v_.clear();
}

/// Lease scratch from the executor's arena when it has one (pram::Context
/// does), else hand out a plain heap-backed vector — the customization
/// point that lets every algorithm template run unchanged on bare
/// executors and on Context. Contents match std::vector<T>(n, fill).
template <class T, class Exec>
ScratchVec<T> scratch(Exec& exec, std::size_t n, T fill = T{}) {
  if constexpr (requires { exec.arena(); }) {
    return exec.arena().template take<T>(n, fill);
  } else {
    return ScratchVec<T>(nullptr, std::vector<T>(n, fill));
  }
}

/// The executor's arena, or nullptr for bare executors — for host-side
/// helpers that want pooled temporaries without being templates over Exec.
template <class Exec>
ScratchArena* arena_ptr(Exec& exec) {
  if constexpr (requires { exec.arena(); }) {
    return &exec.arena();
  } else {
    return nullptr;
  }
}

}  // namespace llmp::pram
