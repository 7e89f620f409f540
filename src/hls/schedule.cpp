#include "hls/schedule.hpp"

#include <algorithm>
#include <stdexcept>

namespace scflow::hls {

FuClass fu_class(HOp op) {
  switch (op) {
    case HOp::kAdd:
    case HOp::kSub: return FuClass::kAlu;
    case HOp::kMul: return FuClass::kMult;
    case HOp::kRamRead: return FuClass::kRamPort;
    case HOp::kRomRead: return FuClass::kRomPort;
    default: return FuClass::kNone;
  }
}

namespace {

/// Earliest step at which a value is *combinationally* available, given the
/// current (partial) schedule.  Leaves are available from step 0; an FU
/// result becomes register-available one step after its own step.
int availability(const Kernel& k, const std::vector<int>& step_of, ValueId v) {
  const HNode& n = k.at(v);
  if (fu_class(n.op) != FuClass::kNone) {
    if (step_of[static_cast<std::size_t>(v)] < 0) return -1;  // unscheduled
    return step_of[static_cast<std::size_t>(v)] + 1;
  }
  int avail = 0;
  for (ValueId a : n.args) {
    const int aa = availability(k, step_of, a);
    if (aa < 0) return -1;
    avail = std::max(avail, aa);
  }
  return avail;
}

/// Critical-path priority: number of FU ops on the longest downstream
/// chain (including the op itself).  Nodes are in SSA order, so consumers
/// always have larger indices and one reverse sweep suffices.
std::vector<int> compute_priority(const Kernel& k) {
  const auto& nodes = k.nodes();
  auto weight = [&nodes](std::size_t i) {
    return fu_class(nodes[i].op) != FuClass::kNone ? 1 : 0;
  };
  std::vector<int> height(nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) height[i] = weight(i);
  for (std::size_t i = nodes.size(); i-- > 0;) {
    for (ValueId a : nodes[i].args) {
      const auto ai = static_cast<std::size_t>(a);
      height[ai] = std::max(height[ai], weight(ai) + height[i]);
    }
  }
  return height;
}

}  // namespace

Schedule schedule_kernel(const Kernel& kernel, const ResourceConstraints& rc) {
  const auto& nodes = kernel.nodes();
  Schedule s;
  s.step_of.assign(nodes.size(), -1);

  std::vector<ValueId> fu_ops;
  for (std::size_t i = 0; i < nodes.size(); ++i)
    if (fu_class(nodes[i].op) != FuClass::kNone) fu_ops.push_back(static_cast<ValueId>(i));

  const auto priority = compute_priority(kernel);

  std::size_t scheduled = 0;
  int step = 0;
  std::vector<int> mult_use, alu_use, ram_use, rom_use;
  while (scheduled < fu_ops.size()) {
    if (step > 10'000) throw std::logic_error("scheduling did not converge");
    int mult_left = rc.multipliers, alu_left = rc.alus;
    int ram_left = rc.ram_ports, rom_left = rc.rom_ports;
    // Ready ops whose operands are available at this step, best first.
    std::vector<ValueId> ready;
    for (ValueId v : fu_ops) {
      if (s.step_of[static_cast<std::size_t>(v)] >= 0) continue;
      int avail = 0;
      bool ok = true;
      for (ValueId a : kernel.at(v).args) {
        const int aa = availability(kernel, s.step_of, a);
        if (aa < 0) { ok = false; break; }
        avail = std::max(avail, aa);
      }
      if (ok && avail <= step) ready.push_back(v);
    }
    std::stable_sort(ready.begin(), ready.end(), [&priority](ValueId a, ValueId b) {
      return priority[static_cast<std::size_t>(a)] > priority[static_cast<std::size_t>(b)];
    });
    int mult = 0, alu = 0, ram = 0, rom = 0;
    for (ValueId v : ready) {
      int* budget = nullptr;
      int* used = nullptr;
      switch (fu_class(kernel.at(v).op)) {
        case FuClass::kMult: budget = &mult_left; used = &mult; break;
        case FuClass::kAlu: budget = &alu_left; used = &alu; break;
        case FuClass::kRamPort: budget = &ram_left; used = &ram; break;
        case FuClass::kRomPort: budget = &rom_left; used = &rom; break;
        default: continue;
      }
      if (*budget == 0) continue;
      --*budget;
      ++*used;
      s.step_of[static_cast<std::size_t>(v)] = step;
      ++scheduled;
    }
    mult_use.push_back(mult);
    alu_use.push_back(alu);
    ram_use.push_back(ram);
    rom_use.push_back(rom);
    ++step;
  }
  s.num_steps = step;
  s.mult_use = std::move(mult_use);
  s.alu_use = std::move(alu_use);
  s.ram_use = std::move(ram_use);
  s.rom_use = std::move(rom_use);

  // Handshake padding: a wait slot after every step that touched the RAM.
  s.slot_of_step.resize(static_cast<std::size_t>(s.num_steps));
  int slot = 0;
  for (int st = 0; st < s.num_steps; ++st) {
    s.slot_of_step[static_cast<std::size_t>(st)] = slot++;
    if (s.ram_use[static_cast<std::size_t>(st)] > 0) slot += rc.ram_handshake_states;
  }
  s.num_slots = slot;

  // --- lifetime analysis + left-edge register allocation ---
  // A value needs a carry-over register iff some consumer reads it after
  // its producing step (updates/captures commit at the last step).
  std::vector<int> last_use(nodes.size(), -1);
  // Last combinational use step of every value, derived from FU operand
  // positions plus end-of-loop updates/captures.
  std::vector<int> use_step(nodes.size(), -1);
  auto mark_use = [&](ValueId v, int at_step, auto&& self) -> void {
    const HNode& n = kernel.at(v);
    if (fu_class(n.op) != FuClass::kNone) {
      use_step[static_cast<std::size_t>(v)] =
          std::max(use_step[static_cast<std::size_t>(v)], at_step);
      return;  // stop: deeper args were needed at *its* step, handled below
    }
    for (ValueId a : n.args) self(a, at_step, self);
  };
  for (ValueId v : fu_ops) {
    const int st = s.step_of[static_cast<std::size_t>(v)];
    for (ValueId a : kernel.at(v).args) mark_use(a, st, mark_use);
  }
  const int last = s.num_steps - 1;
  for (const auto& u : kernel.updates()) {
    mark_use(u.value, last, mark_use);
    if (u.pred != kNoValue) mark_use(u.pred, last, mark_use);
  }
  for (const auto& c : kernel.captures()) {
    mark_use(c.value, last, mark_use);
    mark_use(c.pred, last, mark_use);
  }
  last_use = use_step;

  s.reg_of.assign(nodes.size(), -1);
  // Left-edge: walk values by definition step; reuse a register of the
  // same width whose previous tenant died before this definition.
  std::vector<ValueId> by_def = fu_ops;
  std::stable_sort(by_def.begin(), by_def.end(), [&s](ValueId a, ValueId b) {
    return s.step_of[static_cast<std::size_t>(a)] < s.step_of[static_cast<std::size_t>(b)];
  });
  for (ValueId v : by_def) {
    const int def = s.step_of[static_cast<std::size_t>(v)];
    const int lu = last_use[static_cast<std::size_t>(v)];
    if (lu <= def) continue;  // consumed combinationally in its own step
    const int w = kernel.width(v);
    int chosen = -1;
    for (std::size_t r = 0; r < s.temp_regs.size(); ++r) {
      if (s.temp_regs[r].width == w && s.temp_regs[r].free_after <= def) {
        chosen = static_cast<int>(r);
        break;
      }
    }
    if (chosen < 0) {
      s.temp_regs.push_back({w, lu});
      chosen = static_cast<int>(s.temp_regs.size() - 1);
    } else {
      s.temp_regs[static_cast<std::size_t>(chosen)].free_after = lu;
    }
    s.reg_of[static_cast<std::size_t>(v)] = chosen;
  }
  return s;
}

}  // namespace scflow::hls
