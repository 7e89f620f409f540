// Shared random-netlist generators for the gate-level fuzz harnesses:
// test_fuzz_equivalence (table vs reference evaluator),
// test_compiled_sim (independent-lane differential) and
// test_ppsfp (PPSFP-vs-event-driven campaign oracle) build their
// structural netlists and four-valued stimulus from the same generators
// so a seed means the same design everywhere.
#pragma once

#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "dtypes/logic.hpp"
#include "fault/campaign.hpp"
#include "fault/fault.hpp"
#include "netlist/netlist.hpp"

namespace scflow {

/// Random structural netlist: input ports, a soup of combinational cells
/// (acyclic by construction: inputs are drawn from already-created nets),
/// and flops whose D/SI/SE are patched afterwards so they can close
/// feedback loops through the whole pool.
inline nl::Netlist random_gate_netlist(std::mt19937_64& rng) {
  auto rnd = [&rng](int lo, int hi) {
    return lo + static_cast<int>(rng() % static_cast<std::uint64_t>(hi - lo + 1));
  };
  nl::Netlist n("gatefuzz");
  std::vector<nl::NetId> pool;

  const int n_inputs = rnd(1, 3);
  for (int i = 0; i < n_inputs; ++i) {
    std::vector<nl::NetId> nets;
    const int w = rnd(1, 8);
    for (int b = 0; b < w; ++b) nets.push_back(n.new_net());
    pool.insert(pool.end(), nets.begin(), nets.end());
    n.add_input("in" + std::to_string(i), std::move(nets));
  }
  pool.push_back(n.const_net(false));
  pool.push_back(n.const_net(true));

  auto pick = [&]() { return pool[static_cast<std::size_t>(rnd(0, static_cast<int>(pool.size()) - 1))]; };

  // Flops first (patched below); their outputs seed the pool so the
  // combinational soup can consume state.
  std::vector<std::size_t> flop_cells;
  const int n_flops = rnd(0, 10);
  for (int f = 0; f < n_flops; ++f) {
    const bool scan = (rng() & 1) != 0;
    flop_cells.push_back(n.cells().size());
    const nl::NetId q = scan ? n.add_cell(nl::CellType::kSdff, {pick(), pick(), pick()},
                                          static_cast<int>(rng() & 1))
                             : n.add_cell(nl::CellType::kDff, {pick()}, static_cast<int>(rng() & 1));
    pool.push_back(q);
  }

  static constexpr nl::CellType kComb[] = {
      nl::CellType::kBuf,   nl::CellType::kInv,  nl::CellType::kAnd2,
      nl::CellType::kOr2,   nl::CellType::kNand2, nl::CellType::kNor2,
      nl::CellType::kXor2,  nl::CellType::kXnor2, nl::CellType::kMux2,
  };
  const int n_cells = rnd(10, 120);
  for (int i = 0; i < n_cells; ++i) {
    const nl::CellType t = kComb[static_cast<std::size_t>(rnd(0, 8))];
    std::vector<nl::NetId> ins;
    for (int k = 0; k < nl::cell_input_count(t); ++k) ins.push_back(pick());
    pool.push_back(n.add_cell(t, std::move(ins)));
  }

  // Close flop feedback through the full pool (including nets created
  // after the flop — sequential edges may point anywhere).
  for (const std::size_t ci : flop_cells)
    for (nl::NetId& in : n.cells_mut()[ci].inputs) in = pick();

  const int n_outs = rnd(1, 3);
  for (int o = 0; o < n_outs; ++o) {
    std::vector<nl::NetId> nets;
    const int w = rnd(1, 8);
    for (int b = 0; b < w; ++b) nets.push_back(pick());
    n.add_output("out" + std::to_string(o), std::move(nets));
  }
  return n;
}

/// Random campaign shape for the engine-differential oracle: every knob
/// that changes WHAT the campaign computes is drawn from ranges small
/// enough to keep a seed fast but wide enough to cross the interesting
/// boundaries (scan on/off, cycle budgets shorter than the program,
/// single-cycle programs).
inline fault::CampaignOptions random_campaign_options(std::mt19937_64& rng) {
  fault::CampaignOptions opt;
  opt.seed = rng();
  opt.scan_patterns = 1 + static_cast<int>(rng() % 2);
  opt.capture_cycles = 1 + static_cast<int>(rng() % 3);
  opt.functional_cycles = 1 + static_cast<int>(rng() % 24);
  opt.use_scan = (rng() & 3) != 0;  // mostly on; off covers the tied path
  if ((rng() & 3) == 0) opt.cycle_budget = 1 + rng() % 8;
  opt.oscillation_threshold = 1 + static_cast<int>(rng() % 4);
  return opt;
}

/// Differential campaign oracle: simulates the same (netlist, fault list,
/// options) under the event-driven engine and under PPSFP, across
/// @p thread_counts, and checks every per-fault classification, detecting
/// pattern index (detect_cycle), observe port and cycle count for
/// bit-identity.  Returns an empty string on agreement, else a message
/// naming the first divergent fault — gtest-free so any harness can wrap
/// it in its own EXPECT.
inline std::string diff_campaign_engines(const nl::Netlist& n,
                                         const fault::CampaignOptions& base,
                                         const std::vector<unsigned>& thread_counts) {
  fault::CampaignOptions ref_opt = base;
  ref_opt.engine = fault::CampaignOptions::Engine::kEventDriven;
  ref_opt.threads = 1;
  const fault::CampaignResult ref = fault::run_campaign(n, ref_opt);
  for (const unsigned threads : thread_counts) {
    for (const bool ppsfp : {false, true}) {
      if (!ppsfp && threads == 1) continue;  // that is the reference itself
      fault::CampaignOptions opt = base;
      opt.engine = ppsfp ? fault::CampaignOptions::Engine::kPpsfp
                         : fault::CampaignOptions::Engine::kEventDriven;
      opt.threads = threads;
      const fault::CampaignResult got = fault::run_campaign(n, opt);
      std::ostringstream why;
      why << (ppsfp ? "ppsfp" : "event-driven") << " threads=" << threads << ": ";
      if (got.faults.size() != ref.faults.size()) {
        why << "simulated " << got.faults.size() << " != " << ref.faults.size();
        return why.str();
      }
      for (std::size_t i = 0; i < ref.faults.size(); ++i) {
        const fault::FaultResult& a = ref.faults[i];
        const fault::FaultResult& b = got.faults[i];
        if (a == b) continue;
        why << "fault " << i << " (" << fault::describe_fault(n, a.fault) << ") "
            << fault::fault_class_name(b.klass) << " cycle=" << b.detect_cycle
            << " port=" << b.detect_port << " cycles=" << b.cycles << " vs reference "
            << fault::fault_class_name(a.klass) << " cycle=" << a.detect_cycle
            << " port=" << a.detect_port << " cycles=" << a.cycles;
        return why.str();
      }
      if (got.detected != ref.detected || got.undetected != ref.undetected ||
          got.oscillating != ref.oscillating ||
          got.undetected_budget != ref.undetected_budget ||
          got.faulty_cycles_total != ref.faulty_cycles_total) {
        why << "aggregate mismatch";
        return why.str();
      }
    }
  }
  return {};
}

inline LogicVector random_logic_vector(std::mt19937_64& rng, std::size_t width,
                                       bool allow_xz) {
  LogicVector v(width);
  for (std::size_t i = 0; i < width; ++i) {
    // Bias towards 0/1 so arithmetic survives; X/Z still exercises every
    // truth-table row over thousands of netlists.
    const auto r = rng() % 8;
    Logic b = logic_from_bool((r & 1) != 0);
    if (allow_xz && r == 6) b = Logic::X;
    if (allow_xz && r == 7) b = Logic::Z;
    v.set(i, b);
  }
  return v;
}

}  // namespace scflow
