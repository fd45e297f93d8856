// Process-wide tuning for the fused fast paths.
//
// One mutable singleton holds the raw-speed layer's one switch, so
// benches and the differential tests can flip it in-process:
//
//   fused              take the fused raw-array sweeps (vs. the legacy
//                      per-element step bodies)
//
// Both settings produce bit-identical results and bit-identical PRAM cost
// surfaces; they only move wall-clock time. That invariant is what tests/
// fused_backend_test.cpp enforces against the pram::Machine referee.
//
// The struct is read at sweep entry, not per element; toggling it between
// runs is cheap and exact. It is not synchronized: flip it only while no
// sweeps are in flight (benches and tests do so from their main thread).
#pragma once

namespace llmp::pram {

struct SweepTuning {
  /// Fused raw-array sweeps on executors that support them (has_sweep_v).
  bool fused = true;
};

/// The process-wide tuning block.
inline SweepTuning& tuning() {
  static SweepTuning t;
  return t;
}

}  // namespace llmp::pram
