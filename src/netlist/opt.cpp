#include "netlist/opt.hpp"

#include <map>
#include <string>
#include <vector>

namespace scflow::nl {

namespace {

struct Optimizer {
  const Netlist& in;
  std::vector<Cell> cells;
  std::vector<NetId> repl;        // union-find-ish alias map
  std::vector<int> constv;        // -1 unknown, 0/1 constant
  std::vector<NetId> inv_of;      // known inverter outputs per net
  std::vector<bool> dead;
  NetId tie0 = kNoNet, tie1 = kNoNet;
  std::size_t rewrites = 0;

  explicit Optimizer(const Netlist& n)
      : in(n),
        cells(n.cells()),
        repl(static_cast<std::size_t>(n.net_count()), kNoNet),
        constv(static_cast<std::size_t>(n.net_count()), -1),
        inv_of(static_cast<std::size_t>(n.net_count()), kNoNet),
        dead(n.cells().size(), false) {
    for (std::size_t i = 0; i < repl.size(); ++i) repl[i] = static_cast<NetId>(i);
    // Pre-create the tie cells: const_net() must never reallocate `cells`
    // while simplify_pass holds references into it.
    (void)const_net(0);
    (void)const_net(1);
  }

  NetId find(NetId n) {
    while (repl[static_cast<std::size_t>(n)] != n) {
      repl[static_cast<std::size_t>(n)] =
          repl[static_cast<std::size_t>(repl[static_cast<std::size_t>(n)])];
      n = repl[static_cast<std::size_t>(n)];
    }
    return n;
  }

  void alias(NetId from, NetId to) {
    repl[static_cast<std::size_t>(find(from))] = find(to);
    ++rewrites;
  }

  NetId const_net(int v) {
    NetId& cache = v ? tie1 : tie0;
    if (cache == kNoNet) {
      Cell c;
      c.type = v ? CellType::kTie1 : CellType::kTie0;
      c.output = static_cast<NetId>(repl.size());
      repl.push_back(c.output);
      constv.push_back(v);
      inv_of.push_back(kNoNet);
      cells.push_back(c);
      dead.push_back(false);
      cache = c.output;
    }
    return cache;
  }

  bool simplify_pass() {
    bool changed = false;
    std::map<std::tuple<int, std::vector<NetId>>, NetId> hash;
    for (std::size_t ci = 0; ci < cells.size(); ++ci) {
      if (dead[ci]) continue;
      Cell& c = cells[ci];
      if (c.type == CellType::kTie0) { constv[static_cast<std::size_t>(find(c.output))] = 0; continue; }
      if (c.type == CellType::kTie1) { constv[static_cast<std::size_t>(find(c.output))] = 1; continue; }
      for (NetId& n : c.inputs) n = find(n);
      auto cv = [this](NetId n) { return constv[static_cast<std::size_t>(n)]; };
      auto kill_with_alias = [&](NetId target) {
        // A stale cache entry can point back at this very cell's output;
        // aliasing a net to itself would orphan it, so keep the cell.
        if (find(target) == find(c.output)) return;
        alias(c.output, target);
        dead[ci] = true;
        changed = true;
      };
      auto kill_with_const = [&](int v) { kill_with_alias(const_net(v)); };
      auto become_inv = [&](NetId a) {
        const NetId cached = inv_of[static_cast<std::size_t>(a)];
        if (cached != kNoNet && find(cached) != find(c.output)) {
          kill_with_alias(find(cached));
          return;
        }
        c.type = CellType::kInv;
        c.inputs = {a};
        changed = true;
        ++rewrites;
      };

      switch (c.type) {
        case CellType::kBuf:
          kill_with_alias(c.inputs[0]);
          break;
        case CellType::kInv: {
          const NetId a = c.inputs[0];
          if (cv(a) >= 0) { kill_with_const(1 - cv(a)); break; }
          // INV(INV(x)) = x.
          const NetId cached = inv_of[static_cast<std::size_t>(a)];
          if (cached != kNoNet && find(cached) != find(c.output)) {
            kill_with_alias(find(cached));
            break;
          }
          inv_of[static_cast<std::size_t>(a)] = find(c.output);
          // Record the reverse direction too: x is the inversion of out.
          inv_of[static_cast<std::size_t>(find(c.output))] = a;
          break;
        }
        case CellType::kAnd2: case CellType::kNand2: {
          const bool nand = c.type == CellType::kNand2;
          const NetId a = c.inputs[0], b = c.inputs[1];
          if (cv(a) == 0 || cv(b) == 0) { kill_with_const(nand ? 1 : 0); break; }
          if (cv(a) == 1 && cv(b) == 1) { kill_with_const(nand ? 0 : 1); break; }
          if (cv(a) == 1) { if (nand) become_inv(b); else kill_with_alias(b); break; }
          if (cv(b) == 1) { if (nand) become_inv(a); else kill_with_alias(a); break; }
          if (a == b) { if (nand) become_inv(a); else kill_with_alias(a); }
          break;
        }
        case CellType::kOr2: case CellType::kNor2: {
          const bool nor = c.type == CellType::kNor2;
          const NetId a = c.inputs[0], b = c.inputs[1];
          if (cv(a) == 1 || cv(b) == 1) { kill_with_const(nor ? 0 : 1); break; }
          if (cv(a) == 0 && cv(b) == 0) { kill_with_const(nor ? 1 : 0); break; }
          if (cv(a) == 0) { if (nor) become_inv(b); else kill_with_alias(b); break; }
          if (cv(b) == 0) { if (nor) become_inv(a); else kill_with_alias(a); break; }
          if (a == b) { if (nor) become_inv(a); else kill_with_alias(a); }
          break;
        }
        case CellType::kXor2: case CellType::kXnor2: {
          const bool xnor = c.type == CellType::kXnor2;
          const NetId a = c.inputs[0], b = c.inputs[1];
          if (cv(a) >= 0 && cv(b) >= 0) { kill_with_const((cv(a) ^ cv(b)) ^ (xnor ? 1 : 0)); break; }
          if (a == b) { kill_with_const(xnor ? 1 : 0); break; }
          if (cv(a) == 0) { if (xnor) become_inv(b); else kill_with_alias(b); break; }
          if (cv(b) == 0) { if (xnor) become_inv(a); else kill_with_alias(a); break; }
          if (cv(a) == 1) { if (xnor) kill_with_alias(b); else become_inv(b); break; }
          if (cv(b) == 1) { if (xnor) kill_with_alias(a); else become_inv(a); break; }
          break;
        }
        case CellType::kMux2: {
          const NetId s = c.inputs[0], a0 = c.inputs[1], a1 = c.inputs[2];
          if (cv(s) == 0) { kill_with_alias(a0); break; }
          if (cv(s) == 1) { kill_with_alias(a1); break; }
          if (a0 == a1) { kill_with_alias(a0); break; }
          if (cv(a0) == 0 && cv(a1) == 1) { kill_with_alias(s); break; }
          if (cv(a0) == 1 && cv(a1) == 0) { become_inv(s); break; }
          break;
        }
        default:
          break;  // flops and ties handled elsewhere
      }
      if (dead[ci]) continue;
      // Structural hashing (combinational cells only).
      if (!cell_is_sequential(c.type) && c.type != CellType::kTie0 &&
          c.type != CellType::kTie1) {
        std::vector<NetId> key_inputs = c.inputs;
        // Commutative gates: canonical input order.
        if (c.type != CellType::kMux2 && key_inputs.size() == 2 &&
            key_inputs[0] > key_inputs[1])
          std::swap(key_inputs[0], key_inputs[1]);
        auto key = std::make_tuple(static_cast<int>(c.type), key_inputs);
        const auto [it, inserted] = hash.emplace(key, find(c.output));
        if (!inserted && it->second != find(c.output)) {
          kill_with_alias(it->second);
        }
      }
    }
    return changed;
  }

  Netlist rebuild() {
    // Resolve aliases in flop inputs too, then keep cells reachable from
    // primary outputs (flop D-cones pulled transitively).
    for (Cell& c : cells)
      for (NetId& n : c.inputs) n = find(n);

    std::vector<NetId> driver(repl.size(), kNoNet);  // net -> cell index
    for (std::size_t ci = 0; ci < cells.size(); ++ci) {
      if (dead[ci]) continue;
      driver[static_cast<std::size_t>(find(cells[ci].output))] = static_cast<NetId>(ci);
    }
    std::vector<bool> keep(cells.size(), false);
    std::vector<NetId> work;
    auto mark_net = [&](NetId n) {
      const NetId ci = driver[static_cast<std::size_t>(find(n))];
      if (ci != kNoNet && !keep[static_cast<std::size_t>(ci)]) {
        keep[static_cast<std::size_t>(ci)] = true;
        work.push_back(ci);
      }
    };
    for (const auto& p : in.outputs())
      for (NetId n : p.nets) mark_net(n);
    while (!work.empty()) {
      const NetId ci = work.back();
      work.pop_back();
      for (NetId n : cells[static_cast<std::size_t>(ci)].inputs) mark_net(n);
    }

    Netlist out(in.name());
    out.macros = in.macros;
    // Net renumbering on demand.
    std::vector<NetId> new_net(repl.size(), kNoNet);
    auto map_net = [&out, &new_net, this](NetId n) {
      n = find(n);
      if (new_net[static_cast<std::size_t>(n)] == kNoNet)
        new_net[static_cast<std::size_t>(n)] = out.new_net();
      return new_net[static_cast<std::size_t>(n)];
    };
    for (const auto& p : in.inputs()) {
      std::vector<NetId> nets;
      nets.reserve(p.nets.size());
      for (NetId n : p.nets) nets.push_back(map_net(n));
      out.add_input(p.name, std::move(nets));
    }
    for (std::size_t ci = 0; ci < cells.size(); ++ci) {
      if (!keep[ci]) continue;
      Cell c = cells[ci];
      for (NetId& n : c.inputs) n = map_net(n);
      c.output = map_net(c.output);
      out.cells_mut().push_back(std::move(c));
    }
    for (const auto& p : in.outputs()) {
      std::vector<NetId> nets;
      nets.reserve(p.nets.size());
      for (NetId n : p.nets) nets.push_back(map_net(n));
      out.add_output(p.name, std::move(nets));
    }
    out.validate();
    return out;
  }
};

}  // namespace

Netlist optimize_gates(const Netlist& input, GateOptStats* stats) {
  Optimizer opt(input);
  GateOptStats local;
  local.cells_before = input.cells().size();
  for (int it = 0; it < 16; ++it) {
    ++local.iterations;
    if (!opt.simplify_pass()) break;
  }
  Netlist out = opt.rebuild();
  local.rewrites = opt.rewrites;
  local.cells_after = out.cells().size();
  if (stats != nullptr) *stats = local;
  return out;
}

}  // namespace scflow::nl
