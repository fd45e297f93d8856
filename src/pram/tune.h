// Process-wide tuning for the fused fast paths.
//
// One mutable singleton holds the runtime switch of the raw-speed layer
// so benches and the differential tests can flip it without rebuilding:
//
//   fused              take the fused raw-array sweeps (vs. the legacy
//                      per-element step bodies)        LLMP_FUSED=off
//
// (The SIMD level has its own switch in simd.h — it additionally depends
// on what the CPU supports.) Every combination of these switches produces
// bit-identical results and bit-identical PRAM cost surfaces; they only
// move wall-clock time. That invariant is what tests/
// fused_backend_test.cpp enforces against the pram::Machine referee.
//
// The struct is read at sweep entry, not per element; toggling it between
// runs is cheap and exact. It is not synchronized: flip it only while no
// sweeps are in flight (benches and tests do so from their main thread).
#pragma once

#include <cstdlib>
#include <cstring>

namespace llmp::pram {

struct SweepTuning {
  /// Fused raw-array sweeps on executors that support them (has_sweep_v).
  bool fused = true;
};

namespace detail {
inline SweepTuning tuning_from_env() {
  SweepTuning t;
  if (const char* e = std::getenv("LLMP_FUSED")) {
    if (std::strcmp(e, "off") == 0 || std::strcmp(e, "0") == 0)
      t.fused = false;
  }
  return t;
}
}  // namespace detail

/// The process-wide tuning block, seeded from the environment once.
inline SweepTuning& tuning() {
  static SweepTuning t = detail::tuning_from_env();
  return t;
}

}  // namespace llmp::pram
