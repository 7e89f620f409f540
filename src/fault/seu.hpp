// Transient single-event-upset (SEU) injection: flip one committed flop
// state bit at a seeded cycle, then watch the machine's outputs against a
// golden run of the same stimulus.  Classifies each trial as silent
// (masked), diverged, or diverged-then-recovered, and auto-dumps a VCD of
// the first divergent trial (good vs faulty response of every observe
// port) through minisc::VcdFile for waveform triage.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "netlist/netlist.hpp"

namespace scflow::obs {
struct Session;
}  // namespace scflow::obs

namespace scflow::fault {

struct SeuOptions {
  std::uint64_t seed = 0x5e0bf11c5ull;
  /// Cycles simulated before the injection window opens (state warm-up).
  int warmup_cycles = 8;
  /// Observed cycles after warm-up; injections land inside this window.
  int functional_cycles = 64;
  /// Number of seeded (flop, cycle) upset trials.
  int injections = 32;
  /// A diverged trial counts as recovered when its last `recovery_window`
  /// observed cycles are mismatch-free (the upset washed out of the state).
  int recovery_window = 8;
  bool x_initial_flops = false;
  /// When non-empty, the first divergent trial re-runs with full response
  /// capture and writes `<port>.good` / `<port>.faulty` (plus `.known`
  /// companions) waveforms here.
  std::string vcd_path;
  /// Labels the "seu" ledger entry (any leading "seu." dropped) and its
  /// trace slice; empty = "seu.<netlist name>".
  std::string metric_prefix;
};

struct SeuTrial {
  std::size_t flop = 0;          ///< flattened flop index (scan-chain order)
  std::uint64_t cycle = 0;       ///< injection cycle (absolute program cycle)
  bool injected = false;         ///< flip happened (state was 0/1, not X/Z)
  bool diverged = false;         ///< some hard output mismatch after injection
  bool recovered = false;        ///< diverged, then clean for recovery_window
  std::uint64_t first_divergent_cycle = 0;
  std::uint32_t first_divergent_port = 0;  ///< index into SeuResult::observe_ports
};

struct SeuResult {
  std::string design;
  std::vector<std::string> observe_ports;
  std::vector<SeuTrial> trials;

  std::size_t injected = 0;
  std::size_t skipped_x = 0;   ///< flip refused: target state was X/Z
  std::size_t diverged = 0;
  std::size_t recovered = 0;
  std::size_t silent = 0;      ///< injected but never observable (masked)
  std::string vcd_written;     ///< path of the divergence dump, if any
  std::string first_divergent_net;  ///< output port name of the first diff
};

/// Runs `options.injections` seeded upset trials against @p n.  Fully
/// deterministic: the stimulus and the (flop, cycle) schedule are pure
/// functions of (netlist ports, options.seed).  With @p session, appends
/// one "seu" ledger entry (trial outcome counts, divergence percentage)
/// and emits the campaign's trace slice.
SeuResult run_seu_campaign(const nl::Netlist& n, const SeuOptions& options = {},
                           scflow::obs::Session* session = nullptr);

}  // namespace scflow::fault
