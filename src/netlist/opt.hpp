// Gate-level logic optimisation: constant propagation, algebraic gate
// rewrites, structural hashing (dedup) and dead-cell removal — run before
// scan insertion, like Design Compiler's compile step.
#pragma once

#include <cstddef>

#include "netlist/netlist.hpp"

namespace scflow::nl {

struct GateOptStats {
  std::size_t cells_before = 0;
  std::size_t cells_after = 0;
  std::size_t rewrites = 0;
  int iterations = 0;
};

[[nodiscard]] Netlist optimize_gates(const Netlist& input, GateOptStats* stats = nullptr);

}  // namespace scflow::nl
