// Behavioural synthesis: resource-constrained list scheduling, lifetime
// analysis and left-edge register allocation — the substrate's equivalent
// of the SystemC Compiler's scheduling/allocation step.
#pragma once

#include <cstdint>
#include <vector>

#include "hls/kernel.hpp"

namespace scflow::hls {

struct ResourceConstraints {
  int multipliers = 1;
  int alus = 1;
  int ram_ports = 1;
  int rom_ports = 2;
  /// Handshake wait states appended after every step that performs a RAM
  /// access — the paper's "handshaking in loops" behavioural scheduling
  /// mode (the superstate-fixed mode sets this to 0).
  int ram_handshake_states = 0;
};

struct Schedule {
  /// Step index of every FU op (kNoValue-width vector; -1 for free ops).
  std::vector<int> step_of;
  /// Number of compute steps (before handshake padding).
  int num_steps = 0;
  /// slot_of_step[s] = FSM slot of compute step s after padding.
  std::vector<int> slot_of_step;
  /// Total FSM slots per iteration (steps + padding).
  int num_slots = 0;

  /// Register allocation: for every FU op needing a carry-over register,
  /// the temp-register index (-1 otherwise).
  std::vector<int> reg_of;
  struct TempReg {
    int width = 0;
    int free_after = -1;  // last use step (for tests)
  };
  std::vector<TempReg> temp_regs;

  /// Per-step FU usage (for constraint verification in tests).
  std::vector<int> mult_use, alu_use, ram_use, rom_use;
};

/// Schedules @p kernel under @p rc.  Throws std::logic_error on malformed
/// kernels (e.g. cyclic dependencies, which SSA construction precludes).
Schedule schedule_kernel(const Kernel& kernel, const ResourceConstraints& rc);

}  // namespace scflow::hls
