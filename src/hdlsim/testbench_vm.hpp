// Interpreted-testbench virtual machine — the "native VHDL testbench" of
// the paper's Fig. 9 comparison.  A ModelSim-style simulator executes the
// testbench processes interpretively; this VM models that cost: testbench
// behaviour is bytecode dispatched instruction by instruction, with a
// clock-synchronous monitor process (output capture/compare) and a
// stimulus process that wakes per sample event.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dsp/src_params.hpp"
#include "dsp/stimulus.hpp"
#include "hdlsim/dut.hpp"

namespace scflow::hdlsim {

/// One VM instruction.  Eight general registers r0..r7.
struct TbInstr {
  enum class Op : std::uint8_t {
    kSet,      ///< set DUT input `port` to imm
    kToggle,   ///< toggle DUT input `port` (internal toggle state)
    kWait,     ///< suspend this process for imm cycles
    kSample,   ///< reg_a = DUT output `port`
    kMov,      ///< reg_a = reg_b
    kXor,      ///< reg_a ^= reg_b
    kJeq,      ///< if reg_a == reg_b jump to imm
    kJmp,      ///< jump to imm
    kRecord,   ///< append (reg_a, reg_b) to the captured outputs
    kHalt,
  };
  Op op = Op::kHalt;
  std::string port;
  int reg_a = 0;
  int reg_b = 0;
  std::int64_t imm = 0;
};

using TbProgram = std::vector<TbInstr>;

/// Builds the two SRC testbench processes from an event schedule:
/// a stimulus process (sample writes / output requests at their quantised
/// cycles) and a per-clock monitor process capturing out_valid toggles.
struct SrcTestbenchProgram {
  TbProgram stimulus;
  TbProgram monitor;
  std::uint64_t run_cycles = 0;
};
SrcTestbenchProgram build_src_testbench(const std::vector<dsp::SrcEvent>& events,
                                        dsp::SrcMode mode);

struct VmRunResult {
  std::vector<dsp::StereoSample> outputs;
  std::uint64_t cycles = 0;
  std::uint64_t instructions_executed = 0;  ///< interpreted testbench work
  SimCounters dut_counters;
  /// DUT evaluations, derived from the one SimCounters copy.
  [[nodiscard]] std::uint64_t dut_work_units() const { return dut_counters.evaluations; }
};

/// Runs the interpreted testbench against the DUT: each clock cycle, every
/// process executes until it suspends on kWait, then the DUT steps.
VmRunResult run_testbench_vm(Dut& dut, const SrcTestbenchProgram& program);

}  // namespace scflow::hdlsim
