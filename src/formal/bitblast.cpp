#include "formal/bitblast.hpp"

#include <stdexcept>
#include <unordered_set>

namespace scflow::formal {

namespace {
constexpr AigLit kUnsetLit = 0xffffffffu;
}

const std::vector<AigLit>& VarMap::get(const std::string& name, std::size_t width) {
  auto it = vars_.find(name);
  if (it != vars_.end()) {
    if (it->second.size() != width) {
      throw std::invalid_argument("cec: variable '" + name + "' used with width " +
                                  std::to_string(width) + " and width " +
                                  std::to_string(it->second.size()));
    }
    return it->second;
  }
  std::vector<AigLit> lits(width);
  for (auto& l : lits) l = aig_->add_input();
  return vars_.emplace(name, std::move(lits)).first->second;
}

void VarMap::seed(const std::string& name, std::vector<AigLit> lits) {
  vars_.insert_or_assign(name, std::move(lits));
}

std::vector<std::string> flop_keys(const nl::Netlist& n) {
  std::vector<std::string> keys;
  std::size_t k = 0;
  for (const nl::Cell& c : n.cells()) {
    if (!nl::cell_is_sequential(c.type)) continue;
    keys.push_back(c.name.empty() ? "#" + std::to_string(k) : c.name);
    ++k;
  }
  return keys;
}

BlastedOutputs bitblast_netlist(const nl::Netlist& n, Aig& aig, VarMap& vars) {
  std::vector<AigLit> net(static_cast<std::size_t>(n.net_count()), kUnsetLit);
  auto net_lit = [&](nl::NetId id) {
    const AigLit l = net[static_cast<std::size_t>(id)];
    if (l == kUnsetLit) {
      throw std::logic_error("cec: undriven net " + std::to_string(id) + " in '" +
                             n.name() + "'");
    }
    return l;
  };

  for (const nl::PortBits& p : n.inputs()) {
    const auto& lits = vars.get(p.name, p.nets.size());
    for (std::size_t i = 0; i < p.nets.size(); ++i) {
      net[static_cast<std::size_t>(p.nets[i])] = lits[i];
    }
  }

  const std::vector<std::string> keys = flop_keys(n);
  {
    std::unordered_set<std::string> seen;
    for (const auto& k : keys) {
      if (!seen.insert(k).second) {
        throw std::invalid_argument("cec: duplicate flop name '" + k + "' in '" +
                                    n.name() + "'");
      }
    }
  }
  {
    std::size_t k = 0;
    for (const nl::Cell& c : n.cells()) {
      if (!nl::cell_is_sequential(c.type)) continue;
      net[static_cast<std::size_t>(c.output)] = vars.get("state:" + keys[k], 1)[0];
      ++k;
    }
  }

  for (const std::size_t ci : nl::combinational_topo_order(n)) {
    const nl::Cell& c = n.cells()[ci];
    auto in = [&](std::size_t i) { return net_lit(c.inputs[i]); };
    AigLit y = kAigFalse;
    switch (c.type) {
      case nl::CellType::kTie0: y = kAigFalse; break;
      case nl::CellType::kTie1: y = kAigTrue; break;
      case nl::CellType::kBuf: y = in(0); break;
      case nl::CellType::kInv: y = aig_not(in(0)); break;
      case nl::CellType::kAnd2: y = aig.and2(in(0), in(1)); break;
      case nl::CellType::kOr2: y = aig.or2(in(0), in(1)); break;
      case nl::CellType::kNand2: y = aig_not(aig.and2(in(0), in(1))); break;
      case nl::CellType::kNor2: y = aig_not(aig.or2(in(0), in(1))); break;
      case nl::CellType::kXor2: y = aig.xor2(in(0), in(1)); break;
      case nl::CellType::kXnor2: y = aig.xnor2(in(0), in(1)); break;
      case nl::CellType::kMux2: y = aig.ite(in(0), in(2), in(1)); break;
      case nl::CellType::kDff:
      case nl::CellType::kSdff:
        throw std::logic_error("cec: sequential cell in combinational order");
    }
    net[static_cast<std::size_t>(c.output)] = y;
  }

  BlastedOutputs out;
  for (const nl::PortBits& p : n.outputs()) {
    std::vector<AigLit> bits(p.nets.size());
    for (std::size_t i = 0; i < p.nets.size(); ++i) bits[i] = net_lit(p.nets[i]);
    out.outputs.emplace_back(p.name, std::move(bits));
  }
  {
    std::size_t k = 0;
    for (const nl::Cell& c : n.cells()) {
      if (!nl::cell_is_sequential(c.type)) continue;
      AigLit d = net_lit(c.inputs[0]);
      if (c.type == nl::CellType::kSdff) {
        // Effective D of a scan flop: se ? si : d.
        d = aig.ite(net_lit(c.inputs[2]), net_lit(c.inputs[1]), d);
      }
      out.outputs.emplace_back("next:" + keys[k], std::vector<AigLit>{d});
      ++k;
    }
  }
  return out;
}

nl::Netlist comb_view(const nl::Netlist& n) {
  nl::Netlist out(n.name() + ".comb");
  while (out.net_count() < n.net_count()) (void)out.new_net();
  for (const nl::PortBits& p : n.inputs()) out.add_input(p.name, p.nets);
  for (const nl::PortBits& p : n.outputs()) out.add_output(p.name, p.nets);

  const std::vector<std::string> keys = flop_keys(n);
  std::size_t k = 0;
  for (const nl::Cell& c : n.cells()) {
    if (nl::cell_is_sequential(c.type)) {
      out.add_input("state:" + keys[k], {c.output});
      nl::NetId next = c.inputs[0];
      if (c.type == nl::CellType::kSdff) {
        // se ? si : d, matching the pseudo-output cone in the AIG.
        next = out.add_cell(nl::CellType::kMux2,
                            {c.inputs[2], c.inputs[0], c.inputs[1]});
      }
      out.add_output("next:" + keys[k], {next});
      ++k;
    } else {
      (void)out.add_cell(c.type, c.inputs, c.init);
      out.cells_mut().back().output = c.output;
      out.cells_mut().back().name = c.name;
    }
  }
  out.validate();
  return out;
}

}  // namespace scflow::formal
