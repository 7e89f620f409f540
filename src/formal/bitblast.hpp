// Netlist bitblaster: turns a gate-level netlist::Netlist into AIG cones
// over *named* variables, so two netlists blasted into the same Aig with
// the same VarMap share primary-input / flop-boundary literals and can be
// mitered.  An rtl::Design reaches the AIG only through nl::lower_to_gates
// (see check_rtl_vs_netlist), so there is one lowering to trust, and the
// RTL-interpreter vs GateSim differential (FuzzEquivalence) checks it.
//
// Flop boundaries are cut: each flop's Q becomes the pseudo-input
// "state:<key>" and its effective D (for scan flops: se ? si : d) becomes
// the pseudo-output "next:<key>", where <key> is the cell's provenance
// name (lower_to_gates names flop cells "<register>_q<bit>") or a
// positional "#k" fallback.  Macro (RAM/ROM) ports need no special
// handling — their data ports are ordinary input ports (free variables)
// and their address/enable/write ports are ordinary outputs, which the
// CEC compares like any other output.
#pragma once

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "formal/aig.hpp"
#include "netlist/netlist.hpp"

namespace scflow::formal {

/// Named AIG variable vectors (LSB first) shared between the two sides of
/// a miter.  get() creates fresh AIG inputs on first use and type-checks
/// the width on every later use; seed() pre-binds a name, e.g. tying
/// "scan_enable" to constant 0 for scan-modulo comparisons.
class VarMap {
 public:
  explicit VarMap(Aig& aig) : aig_(&aig) {}

  const std::vector<AigLit>& get(const std::string& name, std::size_t width);
  void seed(const std::string& name, std::vector<AigLit> lits);
  [[nodiscard]] const std::map<std::string, std::vector<AigLit>>& entries() const {
    return vars_;
  }

 private:
  Aig* aig_;
  std::map<std::string, std::vector<AigLit>> vars_;
};

/// One bitblasted side: the comparison points (primary outputs, macro
/// address/enable/write ports and "next:<flop>" cones) in deterministic
/// order.
struct BlastedOutputs {
  std::vector<std::pair<std::string, std::vector<AigLit>>> outputs;
};

BlastedOutputs bitblast_netlist(const nl::Netlist& n, Aig& aig, VarMap& vars);

/// Pairing keys for the sequential cells, in flop ordinal order: the
/// cell's provenance name when set, positional "#k" otherwise.
[[nodiscard]] std::vector<std::string> flop_keys(const nl::Netlist& n);

/// Combinational replay view: flops stripped (Q becomes the input port
/// "state:<key>", effective D the output port "next:<key>") and macros
/// dropped (their data/address ports stay as ordinary ports), so a CEC
/// counterexample is a plain input vector an hdlsim::GateSim can replay.
[[nodiscard]] nl::Netlist comb_view(const nl::Netlist& n);

}  // namespace scflow::formal
