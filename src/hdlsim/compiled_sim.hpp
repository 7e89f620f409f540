// Bit-parallel compiled gate simulator: executes the straight-line
// bytecode produced by compile_netlist() with 64 independent two-state
// patterns packed per machine word — one fused op per cell, operands
// pre-resolved to dense word slots, flop commit as one flat copy.  The
// Verilated-style answer to GateSim's event-driven interpreter: no dirty
// queue, no levels, just a tight dispatch loop.  It earns its keep only
// where 64 distinct patterns exist — the PPSFP fault screen and batches
// and the CEC random pre-pass; every testbench-driven DUT, campaign
// reference run and event-driven faulty machine runs on GateSim.
//
// Two-state semantics: one word per slot, X-free.  Bit-exact with GateSim
// wherever the stimulus and the power-up state are fully defined (the
// PPSFP screen checks exactly that before trusting a program).
//
// Macro (RAM/ROM) read ports run as per-lane bit-serial interpreted ops
// inside the compiled program.  To match GateSim's event semantics
// (externally driven macro-data values persist until the port
// re-evaluates), a port only re-evaluates when its settled address/enable
// words changed since its last evaluation or the macro was written; with
// per-lane *independent* stimulus that change detection is whole-word
// (any lane re-evaluates all lanes), so netlists whose macro data ports
// are driven externally should use broadcast stimulus.  The checking RAM
// model (GateSim::Options::check_ram) is GateSim-only.
//
// PPSFP fault overlay (set_fault_overlay): each pattern lane carries one
// stuck-at fault.  The fault's slot is clamped after every write — at
// settle start for externally driven slots, right after its driver op
// (the executor splits that op's kind-homogeneous run at the clamp, since
// a reader may share the run), after the flat flop commit for Q slots —
// matching GateSim::inject_stuck's write-side semantics per lane.  With
// an overlay installed the macro change detection above switches to
// per-lane masks (changed/wrote lanes re-evaluate alone), so 64 faulty
// machines diverge independently exactly as 64 event-driven GateSims
// would; the fault campaign's PPSFP engine is the client.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "hdlsim/compile.hpp"
#include "hdlsim/gate_sim.hpp"
#include "netlist/netlist.hpp"

namespace scflow::hdlsim {

class CompiledSim {
 public:
  /// Patterns per machine word — the parallel axis of this backend.
  static constexpr unsigned kLanes = 64;

  /// @p netlist must outlive the simulator (slots bind to its ports).
  explicit CompiledSim(const nl::Netlist& netlist);
  /// Shares a pre-compiled @p program (from compile_netlist(netlist);
  /// must outlive the simulator).  Fan-out users — the PPSFP fault
  /// batches above all — compile once and construct many executors.
  CompiledSim(const nl::Netlist& netlist, const CompiledProgram& program);
  CompiledSim(const CompiledSim&) = delete;
  CompiledSim& operator=(const CompiledSim&) = delete;

  /// One stuck-at clamp of the PPSFP fault overlay: pattern lane
  /// @p lane's bit of @p net's slot is forced to @p stuck_one after every
  /// write to the slot.
  struct LaneFault {
    nl::NetId net = nl::kNoNet;
    bool stuck_one = false;
    unsigned lane = 0;
  };

  /// Installs a per-lane stuck-at overlay (replacing any previous one)
  /// and clamps the current state, like GateSim::inject_stuck.  The PPSFP
  /// campaign screens X-sensitive programs out to the event-driven engine
  /// first.  An empty vector clears the overlay.
  void set_fault_overlay(const std::vector<LaneFault>& faults);

  using PortRef = const nl::PortBits*;
  [[nodiscard]] PortRef input_port(const std::string& name) const;
  [[nodiscard]] PortRef output_port(const std::string& name) const;

  /// Drives all 64 lanes with the same scalar value.
  void set_input(const std::string& name, std::uint64_t value);
  void set_input(PortRef port, std::uint64_t value);
  /// Drives bit @p bit of @p port with one pattern per lane.
  void set_input_word(PortRef port, std::size_t bit, std::uint64_t patterns);

  /// Settles combinational logic: one straight-line pass over the ops.
  void settle();
  /// Full clock cycle: settle, RAM writes, flat flop commit.
  void step();

  /// Lane-0 numeric output.
  [[nodiscard]] std::uint64_t output(const std::string& name);
  [[nodiscard]] std::uint64_t output(PortRef port);
  /// One lane packed in GateSim::PortSample shape (every bit known), so
  /// the PPSFP screen compares against the GateSim reference
  /// type-for-type.
  [[nodiscard]] GateSim::PortSample output_sample(PortRef port, unsigned lane = 0) const;
  /// The raw 64 patterns of one output bit.
  [[nodiscard]] std::uint64_t output_word(PortRef port, std::size_t bit) const;

  /// Bytecode ops executed so far (skipped macro reads excluded).
  [[nodiscard]] std::uint64_t ops_executed() const { return ops_run_; }

 private:
  struct MacroRt {
    std::vector<std::uint32_t> ram;  // [lane * entries + addr]
    // Lanes written since the last settle: force port re-eval (whole word
    // without an overlay, per lane with one).
    std::uint64_t wrote_mask = 0;
  };
  struct PortRt {
    // Settled addr+en words at the last evaluation — the change detector
    // that reproduces GateSim's event-driven port dirtiness.
    std::vector<std::uint64_t> stash;
    bool valid = false;
  };

  // One merged write-site clamp of the fault overlay: lanes in `mask`
  // are forced to the bits of `val` (val is pre-masked).
  struct Clamp {
    std::uint32_t slot = 0;
    std::uint64_t mask = 0;
    std::uint64_t val = 0;
  };
  struct OpClamp {
    std::uint32_t op = 0;  // index into prog_.ops; applied right after that op
    Clamp clamp;
  };

  CompiledSim(const nl::Netlist& netlist, CompiledProgram own, const CompiledProgram* shared);

  void exec();
  bool eval_macro_port(std::uint32_t pi);
  void ram_writes();
  void apply_clamp(const Clamp& c) { vals_[c.slot] = (vals_[c.slot] & ~c.mask) | c.val; }
  /// Lane @p lane of the bus @p slots, bit b from slots[b].
  [[nodiscard]] std::uint64_t gather(const std::vector<std::uint32_t>& slots,
                                     unsigned lane) const;

  [[nodiscard]] std::size_t in_index(PortRef port) const;
  [[nodiscard]] std::size_t out_index(PortRef port) const;

  const nl::Netlist* nl_;
  CompiledProgram prog_own_;     // owned compile when not sharing
  const CompiledProgram& prog_;  // the executed program (own or shared)
  std::vector<std::uint64_t> vals_;
  std::vector<MacroRt> macro_rt_;
  std::vector<PortRt> port_rt_;
  // Per-port data scatter scratch, sized to the widest data bus at
  // construction so the steady state never allocates.
  std::vector<std::uint64_t> scratch_;
  std::unordered_map<std::string, PortRef> in_ports_, out_ports_;

  // Fault overlay, split by write site: externally driven / undriven
  // slots re-clamp at settle start, op-driven slots right after their
  // driver op (ov_op_ sorted by op index — a reader may share the
  // driver's kind-homogeneous run, so end-of-run clamping would be too
  // late), flop Q slots after the flat commit.
  bool overlay_ = false;
  std::vector<Clamp> ov_settle_, ov_commit_;
  std::vector<OpClamp> ov_op_;

  std::uint64_t ops_run_ = 0;
};

}  // namespace scflow::hdlsim
