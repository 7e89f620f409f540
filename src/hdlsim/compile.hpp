// Netlist-to-bytecode compiler for the bit-parallel gate backend: lowers
// a levelized gate netlist into compact straight-line two-state bytecode
// — one fused op per combinational cell, operands pre-resolved to dense
// word slots, flop commits as one flat copy region — executed by
// hdlsim::CompiledSim with 64 independent patterns packed per word.
//
// Slot layout (the property the executor's flat flop commit rests on):
//   [0, F)       flop Q values, in netlist sequential-cell (scan-chain)
//                order — the committed state
//   [F, 2F)      flop next-state values, same order — written by the
//                trailing flop-sample ops each settle
//   [2F, slots)  every remaining net — input ports first, then unit
//                outputs in emission (level, kind) order so each run's
//                stores are contiguous, then any leftover nets
// step() commits all flops with one contiguous copy of [F,2F) onto [0,F).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "netlist/netlist.hpp"

namespace scflow::hdlsim {

/// One fused bytecode op, packed to 16 bytes so one cache line carries
/// four (the executor streams the whole op array every settle).  `kind()`
/// is a nl::CellType for plain cells (the flop-sample ops reuse
/// kBuf/kMux2 with a next-state output slot) or kMacroReadOp with the
/// macro-port index in `in0`.  Output slots take the low 24 bits of
/// `out_kind` — compile_netlist rejects programs with more slots.
struct CompiledOp {
  static constexpr unsigned kKindShift = 24;
  static constexpr std::uint32_t kOutMask = (1u << kKindShift) - 1;

  std::uint32_t in0 = 0;  // value slots (kMux2: {sel, a0, a1})
  std::uint32_t in1 = 0;
  std::uint32_t in2 = 0;
  std::uint32_t out_kind = 0;  // out | kind << kKindShift

  CompiledOp(std::uint8_t kind, std::uint32_t out)
      : out_kind(out | (std::uint32_t{kind} << kKindShift)) {}
  [[nodiscard]] std::uint32_t out() const { return out_kind & kOutMask; }
  [[nodiscard]] std::uint8_t kind() const {
    return static_cast<std::uint8_t>(out_kind >> kKindShift);
  }
};
static_assert(sizeof(CompiledOp) == 16);

constexpr std::uint8_t kMacroReadOp = 0xff;

/// A maximal contiguous span of ops sharing one kind.  The compiler sorts
/// each dependency level by kind, so the executor dispatches once per run
/// and sweeps the span in a tight branch-free loop instead of paying an
/// indirect jump per op.
struct OpRun {
  std::uint8_t kind = 0;
  std::uint32_t begin = 0;
  std::uint32_t end = 0;
};

/// Macro storage metadata with the write side pre-resolved to slots.
struct CompiledMacro {
  nl::MacroInfo::Kind kind = nl::MacroInfo::Kind::kRam;
  std::string name;
  int addr_bits = 0;
  int data_bits = 0;
  std::vector<std::int64_t> rom_contents;                     // ROM only
  std::vector<std::uint32_t> wen_slots, waddr_slots, wdata_slots;  // RAM only
};

/// One macro read port: a kMacroReadOp op gathers the address from
/// `addr_slots` per lane and scatters the data word onto `data_slots`.
/// `en_slots` never affect the read value (the checking RAM model is
/// interpreter-only) but participate in the change detection that decides
/// whether the port re-evaluates — see CompiledSim.
struct CompiledMacroPort {
  std::uint32_t macro = 0;
  std::vector<std::uint32_t> addr_slots, en_slots, data_slots;
};

struct CompiledProgram {
  std::string name;
  std::uint32_t flop_count = 0;  ///< F: Q slots [0,F), next slots [F,2F)
  std::uint32_t slot_count = 0;  ///< = net_count + F
  /// net id -> value slot (flop Q nets map below F, the rest above 2F).
  std::vector<std::uint32_t> slot_of_net;
  /// Combinational ops in dependency order — levelized, each level sorted
  /// by kind (macro read ports at their topological position) — then one
  /// flop-sample op per flop.
  std::vector<CompiledOp> ops;
  std::size_t comb_op_count = 0;  ///< ops[comb_op_count..] are flop samples
  /// Kind-homogeneous spans covering ops[0..ops.size()) in order.
  std::vector<OpRun> runs;
  std::vector<std::uint8_t> flop_init;  ///< reset value per flop
  std::vector<CompiledMacro> macros;
  std::vector<CompiledMacroPort> macro_ports;
  /// Constant-cell output slots, preset once at reset (no hot-loop op).
  std::vector<std::uint32_t> tie0_slots, tie1_slots;
  /// Per-port slot bindings, parallel to Netlist::inputs()/outputs().
  std::vector<std::vector<std::uint32_t>> input_slots, output_slots;
};

/// Compiles @p n into straight-line bytecode.  Validates the netlist and
/// throws std::logic_error on a combinational cycle (including cycles
/// threading through a macro read port), mirroring GateSim's check.
[[nodiscard]] CompiledProgram compile_netlist(const nl::Netlist& n);

}  // namespace scflow::hdlsim
