// The PPSFP bit-parallel fault engine, proven equivalent to the
// event-driven reference:
//
//  * CompiledSim's per-lane stuck-at overlay against GateSim::inject_stuck,
//    lane by lane on the same stimulus (the write-side clamp semantics);
//  * the campaign-level differential oracle on random netlists x random
//    scan programs x thread counts {1,2,4,8} (netlist_fuzz.hpp) — every
//    per-fault classification, detecting pattern index, observe port and
//    cycle count must be bit-identical;
//  * the fallback regime: x_initial_flops programs fall back whole, while
//    RAM macro bus faults stay bit-parallel (on a hand-built RAM design
//    and on random RAM designs), with the ppsfp_* accounting on the
//    CampaignResult;
//  * run-ledger invariance: the strip-timing ledger projection of a
//    campaign must not depend on the engine, so cross-engine scflow_report
//    diffs stay clean for every non-timing metric.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "dtypes/logic.hpp"
#include "fault/campaign.hpp"
#include "fault/fault.hpp"
#include "hdlsim/compile.hpp"
#include "hdlsim/compiled_sim.hpp"
#include "hdlsim/gate_sim.hpp"
#include "netlist/lower.hpp"
#include "netlist/netlist.hpp"
#include "netlist/opt.hpp"
#include "netlist_fuzz.hpp"
#include "obs/session.hpp"
#include "rtl/builder.hpp"

namespace scflow::fault {
namespace {

using Engine = CampaignOptions::Engine;

// A small scan-inserted sequential design with feedback — the same shape
// the ledger thread-sweep test uses, so results here triangulate with it.
nl::Netlist scan_accumulator() {
  rtl::DesignBuilder b("ppsfp_acc");
  auto x = b.input("x", 8);
  auto y = b.input("y", 8);
  auto acc = b.reg("acc", 8, 3);
  b.assign_always(acc, b.add(acc.q, b.and_(x, y)));
  b.output("sum", b.add(x, y));
  b.output("acc", acc.q);
  nl::Netlist g = nl::optimize_gates(nl::lower_to_gates(b.finalise(), {}));
  nl::insert_scan_chain(g);
  return g;
}

// Accumulator plus a RAM macro whose write bus hangs off primary inputs:
// every fault, bus nets included, runs on the bit-parallel path
// (exercising the per-lane macro read-port change detection and RAM
// writes against GateSim's).
nl::Netlist ram_design() {
  rtl::DesignBuilder b("ppsfp_ram");
  auto addr = b.input("addr", 4);
  auto wdata = b.input("wdata", 8);
  auto wen = b.input("wen", 1);
  const int mem = b.memory("ram", 4, 8);
  b.ram_write(mem, addr, wdata, wen);
  auto acc = b.reg("acc", 8, 0);
  auto rd = b.ram_read(mem, addr);
  b.assign_always(acc, b.add(acc.q, rd));
  b.output("rdata", rd);
  b.output("acc", acc.q);
  return nl::lower_to_gates(b.finalise(), {});
}

// Random design around one RAM: address and data widths drawn per seed,
// and the write address, data and enable and the read address and enable
// all computed by random logic over the inputs and registers, so faults
// on every macro bus net see live, seed-dependent traffic.  The read data
// feeds the registers and the outputs.  With @p rom a ROM whose table is
// shorter than its address space joins the pool, so reads past the table
// occur too.
nl::Netlist random_ram_design(std::mt19937_64& rng, bool rom) {
  const auto rnd = [&rng](int lo, int hi) {
    return lo + static_cast<int>(rng() % static_cast<std::uint64_t>(hi - lo + 1));
  };
  rtl::DesignBuilder b("ppsfp_ramfuzz");
  std::vector<rtl::Sig> pool;
  const int n_inputs = rnd(2, 3);
  for (int i = 0; i < n_inputs; ++i)
    pool.push_back(b.input("in" + std::to_string(i), rnd(1, 8)));
  std::vector<rtl::Reg> regs;
  const int n_regs = rnd(1, 2);
  for (int r = 0; r < n_regs; ++r) {
    regs.push_back(b.reg("r" + std::to_string(r), rnd(2, 8),
                         static_cast<std::int64_t>(rng() & 0xff)));
    pool.push_back(regs.back().q);
  }
  const auto pick = [&](int w) {
    return b.resize_u(pool[static_cast<std::size_t>(rnd(0, static_cast<int>(pool.size()) - 1))], w);
  };
  const auto logic = [&](int w) {
    switch (rnd(0, 3)) {
      case 0: return b.add(pick(w), pick(w));
      case 1: return b.xor_(pick(w), pick(w));
      case 2: return b.and_(pick(w), b.not_(pick(w)));
      default: return b.mux(pick(1), pick(w), pick(w));
    }
  };

  const int addr_bits = rnd(1, 4);
  const int data_bits = rnd(1, 8);
  const int mem = b.memory("ram", addr_bits, data_bits);
  b.ram_write(mem, logic(addr_bits), logic(data_bits), logic(1));
  const rtl::Sig rd = b.ram_read(mem, logic(addr_bits), logic(1));
  pool.push_back(rd);
  if (rom) {
    const int rom_addr_bits = rnd(2, 4);
    std::vector<std::int64_t> table(static_cast<std::size_t>(rnd(1, (1 << rom_addr_bits) - 1)));
    for (std::int64_t& v : table) v = static_cast<std::int64_t>(rng() & 0xff);
    const int ri = b.rom("rom", rom_addr_bits, 8, std::move(table));
    pool.push_back(b.rom_read(ri, logic(rom_addr_bits)));
  }
  for (const rtl::Reg& r : regs) b.assign(r, logic(1), logic(r.q.width));
  b.output("rd", rd);
  b.output("o", logic(rnd(1, 8)));
  return nl::optimize_gates(nl::lower_to_gates(b.finalise(), {}));
}

// --- the overlay itself, lane by lane against inject_stuck --------------

TEST(PpsfpOverlay, MatchesInjectStuckPerLane) {
  const nl::Netlist n = scan_accumulator();
  const hdlsim::CompiledProgram prog = hdlsim::compile_netlist(n);

  std::vector<Fault> faults = enumerate_stuck_faults(n);
  ASSERT_GT(faults.size(), 8u);
  const unsigned lanes =
      static_cast<unsigned>(std::min<std::size_t>(faults.size(), 64));

  hdlsim::CompiledSim cs(n, prog);
  std::vector<hdlsim::CompiledSim::LaneFault> overlay;
  for (unsigned l = 0; l < lanes; ++l)
    overlay.push_back({faults[l].net, faults[l].stuck_one, l});
  cs.set_fault_overlay(overlay);

  // One event-driven faulty machine per lane, injected the same way.
  std::vector<std::unique_ptr<hdlsim::GateSim>> gs;
  for (unsigned l = 0; l < lanes; ++l) {
    gs.push_back(std::make_unique<hdlsim::GateSim>(n));
    gs.back()->inject_stuck(faults[l].net,
                            faults[l].stuck_one ? Logic::L1 : Logic::L0);
  }

  std::mt19937_64 rng(0x9e3779b97f4a7c15ull);
  for (int cycle = 0; cycle < 48; ++cycle) {
    for (const nl::PortBits& in : n.inputs()) {
      const std::uint64_t v = rng();
      cs.set_input(&in, v);
      for (auto& g : gs) g->set_input(&in, v);
    }
    cs.step();
    for (auto& g : gs) g->step();
    for (const nl::PortBits& out : n.outputs()) {
      for (unsigned l = 0; l < lanes; ++l) {
        const hdlsim::GateSim::PortSample s = gs[l]->output_sample(&out);
        for (std::size_t b = 0; b < out.nets.size(); ++b) {
          ASSERT_TRUE((s.known >> b) & 1)
              << "lane " << l << " cycle " << cycle << " X at " << out.name;
          EXPECT_EQ((cs.output_word(&out, b) >> l) & 1, (s.value >> b) & 1)
              << describe_fault(n, faults[l]) << " cycle " << cycle << " port "
              << out.name << " bit " << b;
        }
      }
    }
  }
}

// --- campaign-level differential oracle ---------------------------------

TEST(PpsfpFuzz, MatchesEventDrivenOnRandomNetlists) {
  const std::vector<unsigned> threads = {1, 2, 4, 8};
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    std::mt19937_64 rng(seed * 0x2545f4914f6cdd1dull);
    nl::Netlist n = random_gate_netlist(rng);
    // Half the seeds get a real scan chain so the shift/capture program
    // (scan_out observed every shift cycle) is part of the oracle.
    if ((seed & 1) == 0) nl::insert_scan_chain(n);
    const CampaignOptions opt = random_campaign_options(rng);
    const std::string diff = diff_campaign_engines(n, opt, threads);
    EXPECT_EQ(diff, "") << "seed " << seed;
    if (!diff.empty()) break;
  }
}

TEST(PpsfpFuzz, XInitialFlopsFallsBackWholeAndMatches) {
  const std::vector<unsigned> threads = {1, 4};
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    std::mt19937_64 rng(seed * 0xda942042e4dd58b5ull);
    nl::Netlist n = random_gate_netlist(rng);
    if ((seed & 1) == 0) nl::insert_scan_chain(n);
    CampaignOptions opt = random_campaign_options(rng);
    opt.x_initial_flops = true;  // the 4-valued taxonomy must survive
    EXPECT_EQ(diff_campaign_engines(n, opt, threads), "") << "seed " << seed;

    opt.engine = Engine::kPpsfp;
    opt.threads = 1;
    const CampaignResult r = run_campaign(n, opt);
    EXPECT_EQ(r.ppsfp_fallback, r.faults.size()) << "seed " << seed;
    EXPECT_EQ(r.ppsfp_dropped, 0u) << "seed " << seed;
  }
}

TEST(PpsfpFuzz, MatchesEventDrivenOnRandomRamDesigns) {
  const std::vector<unsigned> threads = {1, 4};
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    std::mt19937_64 rng(seed * 0x9fb21c651e98df25ull);
    nl::Netlist n = random_ram_design(rng, (seed & 2) != 0);
    if ((seed & 1) == 0) nl::insert_scan_chain(n);
    const CampaignOptions opt = random_campaign_options(rng);
    const std::string diff = diff_campaign_engines(n, opt, threads);
    EXPECT_EQ(diff, "") << "seed " << seed;
    if (!diff.empty()) break;

    // The macro bus faults really ran bit-parallel.
    CampaignOptions ppsfp = opt;
    ppsfp.engine = Engine::kPpsfp;
    EXPECT_EQ(run_campaign(n, ppsfp).ppsfp_fallback, 0u) << "seed " << seed;
  }
}

// --- RAM macro bus faults on the bit-parallel path ----------------------

TEST(Ppsfp, RamMacroBusFaultsRunBitParallelAndMatch) {
  const nl::Netlist n = ram_design();
  CampaignOptions opt;
  opt.functional_cycles = 32;
  EXPECT_EQ(diff_campaign_engines(n, opt, {1, 2, 4, 8}), "");

  opt.engine = Engine::kPpsfp;
  const CampaignResult r = run_campaign(n, opt);
  // The write/read bus faults ride the 64-lane batches with the rest of
  // the design: nothing falls back, every detection is a drop.
  EXPECT_EQ(r.ppsfp_fallback, 0u);
  EXPECT_GT(r.detected, 0u);
  EXPECT_EQ(r.ppsfp_dropped, r.detected);
}

TEST(Ppsfp, DroppedAccountingOnScanDesign) {
  const nl::Netlist n = scan_accumulator();
  CampaignOptions opt;
  opt.engine = Engine::kPpsfp;
  const CampaignResult r = run_campaign(n, opt);
  // X-free scan design: nothing falls back, every detection is a drop,
  // and each dropped fault names the observe cycle that killed it.
  EXPECT_EQ(r.ppsfp_fallback, 0u);
  EXPECT_GT(r.detected, 0u);
  EXPECT_EQ(r.ppsfp_dropped, r.detected);
  for (const FaultResult& fr : r.faults) {
    if (fr.klass != FaultClass::kDetected) continue;
    EXPECT_LT(fr.detect_cycle, r.stimulus_cycles);
  }
}

TEST(Ppsfp, CycleBudgetParityIsDeterministic) {
  const nl::Netlist n = scan_accumulator();
  CampaignOptions opt;
  opt.cycle_budget = 3;  // shorter than the stimulus program
  EXPECT_EQ(diff_campaign_engines(n, opt, {1, 2, 4, 8}), "");
  opt.engine = Engine::kPpsfp;
  const CampaignResult r = run_campaign(n, opt);
  EXPECT_GT(r.undetected_budget, 0u);
}

// --- ledger invariance ---------------------------------------------------

TEST(Ppsfp, LedgerStripTimingProjectionIsEngineInvariant) {
  const nl::Netlist n = scan_accumulator();
  std::string reference;
  for (const Engine engine : {Engine::kEventDriven, Engine::kPpsfp}) {
    obs::Session session;
    CampaignOptions opt;
    opt.engine = engine;
    const CampaignResult r = run_campaign(n, opt, &session);
    EXPECT_GT(r.detected, 0u);
    ASSERT_EQ(session.ledger.size(), 1u);
    // Identical fingerprints, counters, coverage and per-fault cycle
    // histogram — the engine may only change the timing fields, so a
    // strip-timing scflow_report diff across engines stays clean.
    const std::string img = session.ledger.entries()[0].to_json(/*strip_timing=*/true);
    if (reference.empty())
      reference = img;
    else
      EXPECT_EQ(img, reference);
  }
}

}  // namespace
}  // namespace scflow::fault
