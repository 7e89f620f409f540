// The compiled bit-parallel gate backend, end to end: bytecode slot
// layout and flop-commit staging, two-state bit-exactness against the
// event-driven interpreter over the fault campaign's stimulus on all five
// Fig. 10 designs (macro read ports included), independent-lane semantics
// on random netlists, and the CEC compiled pre-pass.
#include <gtest/gtest.h>

#include <random>

#include "fault/campaign.hpp"
#include "flow/synthesis_flow.hpp"
#include "formal/cec.hpp"
#include "hdlsim/compile.hpp"
#include "hdlsim/compiled_sim.hpp"
#include "hdlsim/gate_sim.hpp"
#include "hls/src_beh.hpp"
#include "netlist/netlist.hpp"
#include "netlist_fuzz.hpp"
#include "obs/session.hpp"
#include "rtl/src_design.hpp"

namespace scflow::hdlsim {
namespace {

nl::Netlist synthesised_src(const char* which) {
  if (std::string(which) == "beh_opt")
    return flow::synthesize_to_gates(hls::build_beh_src_design(hls::beh_opt_config()));
  if (std::string(which) == "beh_unopt")
    return flow::synthesize_to_gates(hls::build_beh_src_design(hls::beh_unopt_config()));
  if (std::string(which) == "vhdl_ref")
    return flow::synthesize_to_gates(rtl::build_src_design(rtl::vhdl_ref_config()));
  if (std::string(which) == "rtl_unopt")
    return flow::synthesize_to_gates(rtl::build_src_design(rtl::rtl_unopt_config()));
  return flow::synthesize_to_gates(rtl::build_src_design(rtl::rtl_opt_config()));
}

// --- codegen invariants ----------------------------------------------------

TEST(CompiledProgram, SlotLayoutOnSynthesisedNetlist) {
  const nl::Netlist n = synthesised_src("rtl_opt");
  const CompiledProgram prog = compile_netlist(n);

  std::uint32_t flops = 0;
  for (const nl::Cell& c : n.cells())
    if (nl::cell_is_sequential(c.type)) ++flops;
  ASSERT_GT(flops, 0u);
  EXPECT_EQ(prog.flop_count, flops);
  EXPECT_EQ(prog.slot_count, static_cast<std::uint32_t>(n.net_count()) + flops);
  EXPECT_EQ(prog.flop_init.size(), flops);
  EXPECT_EQ(prog.ops.size(), prog.comb_op_count + flops);

  // Flop Q nets occupy [0,F) in sequential-cell order; every other net
  // lives at 2F or above; the mapping is a bijection onto its range.
  std::uint32_t fi = 0;
  std::vector<bool> taken(prog.slot_count, false);
  for (const nl::Cell& c : n.cells()) {
    if (!nl::cell_is_sequential(c.type)) continue;
    EXPECT_EQ(prog.slot_of_net[static_cast<std::size_t>(c.output)], fi) << "flop " << fi;
    ++fi;
  }
  for (std::int32_t net = 0; net < n.net_count(); ++net) {
    const std::uint32_t s = prog.slot_of_net[static_cast<std::size_t>(net)];
    ASSERT_LT(s, prog.slot_count);
    EXPECT_TRUE(s < prog.flop_count || s >= 2 * prog.flop_count) << "net " << net;
    EXPECT_FALSE(taken[s]) << "slot " << s << " double-booked";
    taken[s] = true;
  }

  // Flop-sample ops write exactly the next-state region [F,2F), in order.
  for (std::uint32_t f = 0; f < flops; ++f) {
    const CompiledOp& op = prog.ops[prog.comb_op_count + f];
    EXPECT_EQ(op.out(), prog.flop_count + f);
    EXPECT_TRUE(op.kind() == static_cast<std::uint8_t>(nl::CellType::kBuf) ||
                op.kind() == static_cast<std::uint8_t>(nl::CellType::kMux2));
  }

  // Every combinational op reads only slots that were already written
  // (committed flop state, ties, inputs, or an earlier op) — the
  // straight-line dependency order the executor relies on.
  std::vector<bool> written(prog.slot_count, false);
  for (std::uint32_t f = 0; f < flops; ++f) written[f] = true;
  for (const std::uint32_t s : prog.tie0_slots) written[s] = true;
  for (const std::uint32_t s : prog.tie1_slots) written[s] = true;
  for (const auto& slots : prog.input_slots)
    for (const std::uint32_t s : slots) written[s] = true;
  for (std::size_t i = 0; i < prog.comb_op_count; ++i) {
    const CompiledOp& op = prog.ops[i];
    if (op.kind() == kMacroReadOp) {
      const CompiledMacroPort& mp = prog.macro_ports[op.in0];
      for (const std::uint32_t s : mp.addr_slots) EXPECT_TRUE(written[s]) << "op " << i;
      for (const std::uint32_t s : mp.data_slots) written[s] = true;
      continue;
    }
    const auto t = static_cast<nl::CellType>(op.kind());
    const int n_in = nl::cell_input_count(t);
    if (n_in > 0) {
      EXPECT_TRUE(written[op.in0]) << "op " << i;
    }
    if (n_in > 1) {
      EXPECT_TRUE(written[op.in1]) << "op " << i;
    }
    if (n_in > 2) {
      EXPECT_TRUE(written[op.in2]) << "op " << i;
    }
    written[op.out()] = true;
  }
}

TEST(CompiledProgram, CombinationalCycleThrows) {
  nl::Netlist n("loop");
  const nl::NetId a = n.new_net();
  const nl::NetId b = n.add_cell(nl::CellType::kInv, {a});
  const nl::NetId c = n.add_cell(nl::CellType::kInv, {b});
  n.cells_mut()[0].inputs[0] = c;  // close the loop
  n.add_input("in", {a});          // unused; keeps validate() quiet
  n.add_output("out", {c});
  EXPECT_THROW((void)compile_netlist(n), std::logic_error);
}

// A flop chain q0 -> q1 -> ... -> q7 is the classic in-place-commit trap:
// committing flop i before sampling flop i+1 would let the new value race
// down the chain in one cycle.  The staged [F,2F) region must shift the
// pulse exactly one stage per step.
TEST(CompiledSimTest, FlopChainCommitsAreStaged) {
  nl::Netlist n("chain");
  const nl::NetId d0 = n.new_net();
  n.add_input("d", {d0});
  std::vector<nl::NetId> qs;
  nl::NetId prev = d0;
  for (int i = 0; i < 8; ++i) {
    prev = n.add_cell(nl::CellType::kDff, {prev});
    qs.push_back(prev);
  }
  n.add_output("q", {qs.back()});
  n.add_output("taps", qs);

  CompiledSim sim(n);
  GateSim ref(n);
  sim.set_input("d", 1);
  ref.set_input("d", 1);
  for (int cycle = 0; cycle < 12; ++cycle) {
    sim.step();
    ref.step();
    EXPECT_EQ(sim.output("taps"), ref.output("taps")) << "cycle " << cycle;
    // After k steps of a held-high input, exactly the low k taps are set.
    const std::uint64_t want = (cycle + 1) >= 8 ? 0xffu : ((1u << (cycle + 1)) - 1u);
    EXPECT_EQ(sim.output("taps"), want) << "cycle " << cycle;
    if (cycle == 3) {
      sim.set_input("d", 0);
      ref.set_input("d", 0);
      break;
    }
  }
  for (int cycle = 4; cycle < 14; ++cycle) {
    sim.step();
    ref.step();
    EXPECT_EQ(sim.output("taps"), ref.output("taps")) << "cycle " << cycle;
  }
}

// --- fault-campaign stimulus parity ----------------------------------------

// The PPSFP screen rests on this: over the exact campaign stimulus (scan
// shifts included) and the defined power-up state, the two-state compiled
// engine must reproduce the interpreter's output_sample() bit for bit —
// every sample fully known — on every Fig. 10 design.
TEST(CompiledCampaignParity, AllFigureTenDesigns) {
  for (const char* which : {"vhdl_ref", "beh_unopt", "beh_opt", "rtl_unopt", "rtl_opt"}) {
    const nl::Netlist n = synthesised_src(which);
    fault::CampaignOptions copt;
    copt.max_faults = 1;
    copt.functional_cycles = 24;
    const auto stimulus = fault::build_campaign_stimulus(n, copt);
    ASSERT_FALSE(stimulus.empty()) << which;

    GateSim interp(n);
    CompiledSim comp(n);

    std::vector<GateSim::PortRef> ins, outs;
    for (const nl::PortBits& p : n.inputs()) ins.push_back(&p);
    for (const nl::PortBits& p : n.outputs()) outs.push_back(&p);

    for (std::size_t c = 0; c < stimulus.size(); ++c) {
      for (std::size_t i = 0; i < ins.size(); ++i) {
        interp.set_input(ins[i], stimulus[c][i]);
        comp.set_input(ins[i], stimulus[c][i]);
      }
      interp.step();
      comp.step();
      for (const auto out : outs) {
        const GateSim::PortSample a = interp.output_sample(out);
        const GateSim::PortSample b = comp.output_sample(out);
        ASSERT_EQ(a.known, b.known)
            << which << " cycle " << c << " output " << out->name << " known mask";
        ASSERT_EQ(a.value, b.value) << which << " cycle " << c << " output " << out->name;
      }
    }
  }
}

// --- independent pattern lanes ---------------------------------------------

// 64 genuinely different stimuli per word: each sampled lane must agree
// with a scalar GateSim run driven with that lane's per-cycle values.
TEST(CompiledLanes, IndependentLanesMatchScalarRuns) {
  for (int seed = 0; seed < 20; ++seed) {
    std::mt19937_64 rng(0xC0DE0000u + static_cast<unsigned>(seed));
    const nl::Netlist n = random_gate_netlist(rng);

    CompiledSim comp(n);
    constexpr unsigned kProbeLanes[] = {0, 17, 63};
    std::vector<std::unique_ptr<GateSim>> refs;
    for (unsigned l = 0; l < 3; ++l) refs.push_back(std::make_unique<GateSim>(n));

    for (int cycle = 0; cycle < 8; ++cycle) {
      for (const nl::PortBits& in : n.inputs()) {
        const auto port = comp.input_port(in.name);
        const auto rp = refs[0]->input_port(in.name);
        std::vector<std::uint64_t> words(in.nets.size());
        for (auto& w : words) w = rng();
        for (std::size_t b = 0; b < in.nets.size(); ++b)
          comp.set_input_word(port, b, words[b]);
        for (unsigned l = 0; l < 3; ++l) {
          std::uint64_t v = 0;
          for (std::size_t b = 0; b < in.nets.size() && b < 64; ++b)
            v |= std::uint64_t{(words[b] >> kProbeLanes[l]) & 1u} << b;
          refs[l]->set_input(rp, v);
        }
      }
      comp.step();
      for (auto& r : refs) r->step();
      for (const nl::PortBits& out : n.outputs()) {
        const auto port = comp.output_port(out.name);
        for (unsigned l = 0; l < 3; ++l) {
          const GateSim::PortSample want = refs[l]->output_sample(&out);
          const GateSim::PortSample got = comp.output_sample(port, kProbeLanes[l]);
          ASSERT_EQ(got.known, want.known)
              << "seed " << seed << " cycle " << cycle << " lane " << kProbeLanes[l];
          ASSERT_EQ(got.value, want.value)
              << "seed " << seed << " cycle " << cycle << " lane " << kProbeLanes[l];
        }
      }
    }
  }
}

// --- error paths -----------------------------------------------------------

TEST(CompiledSimTest, ErrorPaths) {
  nl::Netlist n("tiny");
  const nl::NetId a = n.new_net();
  n.add_input("a", {a});
  n.add_output("y", {n.add_cell(nl::CellType::kInv, {a})});
  nl::Netlist other = n;

  CompiledSim sim(n);
  EXPECT_THROW((void)sim.input_port("nope"), std::invalid_argument);
  EXPECT_THROW((void)sim.output_port("a"), std::invalid_argument);

  // Port handles from another netlist are rejected, not misread.
  CompiledSim foreign(other);
  EXPECT_THROW((void)sim.set_input(foreign.input_port("a"), 1), std::invalid_argument);
  EXPECT_THROW((void)sim.output_word(foreign.output_port("y"), 0), std::invalid_argument);
}

// --- CEC pre-pass ----------------------------------------------------------

TEST(CecCompiledPresim, RefutesAndRecordsOnGateOptPair) {
  std::mt19937_64 rng(0x5eed01);
  const nl::Netlist n = random_gate_netlist(rng);
  // Identical flop shapes on both sides: random netlists carry unnamed
  // flops, which CEC pairs positionally only when the counts match.
  const nl::Netlist copy = n;

  // Equivalent pair: the pre-pass runs all rounds, finds nothing, and the
  // usual engine proves equivalence.
  formal::CecOptions opt;
  obs::Session session;
  opt.metric_prefix = "cec.test";
  const formal::CecResult eq = formal::check_equivalence(n, copy, &session, opt);
  EXPECT_TRUE(eq.equivalent());
  EXPECT_EQ(eq.stats.presim_rounds, static_cast<std::size_t>(opt.sim_rounds));
  EXPECT_GT(eq.stats.presim_ops, 0u);
  ASSERT_EQ(session.ledger.size(), 1u);
  const obs::LedgerEntry& e = session.ledger.entries()[0];
  EXPECT_EQ(e.design, "cec.test");
  EXPECT_EQ(e.counter("presim_rounds"), eq.stats.presim_rounds);
  EXPECT_EQ(e.counter("presim_ops"), eq.stats.presim_ops);

  // Broken pair: flip one cell; the pre-pass should refute within its
  // rounds (64 patterns each) and the counterexample must replay.
  nl::Netlist broken = n;
  bool flipped = false;
  for (nl::Cell& c : broken.cells_mut()) {
    if (c.type == nl::CellType::kAnd2) {
      c.type = nl::CellType::kOr2;
      flipped = true;
      break;
    }
    if (c.type == nl::CellType::kInv) {
      c.type = nl::CellType::kBuf;
      flipped = true;
      break;
    }
  }
  ASSERT_TRUE(flipped);
  const formal::CecResult ne = formal::check_equivalence(n, broken, nullptr, opt);
  if (ne.status == formal::CecStatus::kNotEquivalent && ne.stats.presim_rounds > 0 &&
      ne.stats.sat_calls == 0) {
    // Refuted by simulation (pre-pass or AIG): the cex must be concrete
    // and replay-confirmed through GateSim.
    ASSERT_TRUE(ne.cex.has_value());
    EXPECT_TRUE(ne.cex->replayed);
    EXPECT_TRUE(ne.cex->replay_confirmed);
  }
  // Whichever layer caught it, the verdict must not be "equivalent"
  // unless the flip happened to be behaviour-preserving on dead logic.
  if (ne.status == formal::CecStatus::kEquivalent) {
    const formal::CecResult confirm = formal::check_equivalence(n, broken);
    EXPECT_TRUE(confirm.equivalent());
  }

  // With the pre-pass disabled the stats stay zero and results agree.
  formal::CecOptions off = opt;
  off.compiled_presim = false;
  const formal::CecResult eq2 = formal::check_equivalence(n, copy, nullptr, off);
  EXPECT_TRUE(eq2.equivalent());
  EXPECT_EQ(eq2.stats.presim_rounds, 0u);
  EXPECT_EQ(eq2.stats.presim_ops, 0u);
}

}  // namespace
}  // namespace scflow::hdlsim
