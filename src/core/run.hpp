// Uniform runners: execute any refinement level against an SrcEvent
// schedule and collect the output-sample sequence plus kernel statistics.
// The refinement-equivalence tests, the flow driver and the Fig. 8 bench
// all go through these.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "core/sample_ram.hpp"
#include "dsp/src_params.hpp"
#include "dsp/stimulus.hpp"
#include "kernel/simulation.hpp"

namespace scflow::model {

/// The abstraction levels of the paper's design flow (Fig. 1).
enum class RefinementLevel {
  kAlgorithmicCpp,   ///< initial C++ specification (no kernel)
  kChannelSystemC,   ///< SystemC 2.0 with hierarchical channels
  kBehUnopt,         ///< synthesisable behavioural
  kBehOpt,           ///< optimised behavioural
  kRtlUnopt,         ///< RTL
  kRtlOpt,           ///< optimised RTL
};

[[nodiscard]] const char* level_name(RefinementLevel level);
/// Short machine-readable name ("cpp", "channel", "beh_opt", ...) used as
/// the design name of the level's ledger entry.
[[nodiscard]] const char* level_slug(RefinementLevel level);
[[nodiscard]] bool level_is_clocked(RefinementLevel level);

struct RunOptions {
  bool inject_corner_bug = false;
  bool check_ram = false;
  /// For kAlgorithmicCpp only: use the clock-quantised time base (the
  /// golden model after the paper's Fig. 7 back-propagation).
  bool quantized_time = false;
};

struct RunResult {
  std::vector<dsp::StereoSample> outputs;
  minisc::SimulationStats stats;               ///< zero for the C++ level
  std::uint64_t simulated_cycles = 0;          ///< 25 MHz-equivalent cycles
  SampleRam::Violation ram_violations;         ///< when check_ram was set
  /// Clocked levels: request-to-result latency of each output, in clocks.
  std::vector<std::uint64_t> output_latency_cycles;
  /// Kernel levels: per-process activation counts (full name -> count),
  /// attributing the activation load to individual processes.
  std::vector<std::pair<std::string, std::uint64_t>> process_activations;
};

/// Runs one refinement level over the schedule.
RunResult run_level(RefinementLevel level, dsp::SrcMode mode,
                    const std::vector<dsp::SrcEvent>& events,
                    const RunOptions& options = {});

/// Convenience: full stimulus construction + run for a mode.
RunResult run_level_with_tone(RefinementLevel level, dsp::SrcMode mode,
                              std::size_t samples, const RunOptions& options = {});

}  // namespace scflow::model
