// The refinement-flow driver (paper Fig. 1): runs every abstraction level
// over one stimulus, re-validates each refinement step for bit accuracy
// (the paper's methodology), and reports the per-level results — including
// the continuous->quantised step (Fig. 7) which is the only value-changing
// transition in the chain.
#pragma once

#include <string>
#include <vector>

#include "core/run.hpp"
#include "obs/session.hpp"

namespace scflow::flow {

struct RefinementStep {
  std::string from;
  std::string to;
  bool bit_accurate = false;
  std::size_t outputs_compared = 0;
  std::size_t mismatches = 0;  ///< >0 only for the time-quantisation step
};

struct RefinementReport {
  std::vector<RefinementStep> steps;
  std::vector<std::pair<std::string, model::RunResult>> level_results;
  [[nodiscard]] bool all_steps_verified() const;
};

/// Runs the chain on @p samples of stereo tone stimulus in @p mode.
///
/// With @p session, the flow becomes observable: every level run and every
/// bit-accuracy revalidation is a trace slice on the session's timeline
/// (loadable in chrome://tracing / Perfetto) and a ledger entry.  Each
/// "flow.level" entry carries the level's kernel statistics
/// (process_activations, context_switches, delta_cycles, ...), one
/// "activations.<process>" counter per kernel process and the stimulus
/// size ("samples", "events"); each "flow.verify" entry carries one
/// revalidation outcome.  Dump with session.dump("trace.json",
/// "ledger.jsonl").
RefinementReport run_refinement_flow(dsp::SrcMode mode, std::size_t samples,
                                     obs::Session* session = nullptr);

std::string format_refinement_report(const RefinementReport& report);

}  // namespace scflow::flow
