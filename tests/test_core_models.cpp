// Refinement-equivalence tests: the paper's methodology ("each refinement
// step was verified for bit accuracy by simulation") as an executable
// test suite, across the whole chain
//   C++ (continuous)  ==  SystemC channels
//   C++ (quantised)   ==  BEH unopt == BEH opt == RTL unopt == RTL opt
// plus the SRC_CTRL mode switch of the C++ and channel levels.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/channel_src.hpp"
#include "core/run.hpp"
#include "core/testbench.hpp"
#include "dsp/golden_src.hpp"
#include "dsp/stimulus.hpp"

namespace scflow::model {
namespace {

using dsp::SrcEvent;
using dsp::SrcMode;
using dsp::StereoSample;
using P = dsp::SrcParams;

std::vector<SrcEvent> tone_schedule(SrcMode mode, std::size_t n, double freq = 1000.0) {
  const double in_rate = 1e12 / static_cast<double>(P::input_period_ps(mode));
  const auto inputs = dsp::make_sine_stimulus(n, freq, in_rate);
  return dsp::make_schedule(inputs, P::input_period_ps(mode), n, P::output_period_ps(mode));
}

std::vector<SrcEvent> noise_schedule(SrcMode mode, std::size_t n, std::uint64_t seed) {
  const auto inputs = dsp::make_noise_stimulus(n, seed);
  return dsp::make_schedule(inputs, P::input_period_ps(mode), n, P::output_period_ps(mode));
}

void expect_same_outputs(const RunResult& a, const RunResult& b, const char* what) {
  ASSERT_EQ(a.outputs.size(), b.outputs.size()) << what;
  for (std::size_t i = 0; i < a.outputs.size(); ++i) {
    ASSERT_EQ(a.outputs[i], b.outputs[i]) << what << " differs at output " << i
        << " (" << a.outputs[i].left << "," << a.outputs[i].right << ") vs ("
        << b.outputs[i].left << "," << b.outputs[i].right << ")";
  }
}

TEST(RefinementChain, ChannelModelMatchesContinuousGolden) {
  const auto ev = tone_schedule(SrcMode::k44_1To48, 1200);
  const auto golden = run_level(RefinementLevel::kAlgorithmicCpp, SrcMode::k44_1To48, ev);
  const auto chan = run_level(RefinementLevel::kChannelSystemC, SrcMode::k44_1To48, ev);
  expect_same_outputs(golden, chan, "C++ vs channel-SystemC");
}

TEST(RefinementChain, BehUnoptMatchesQuantisedGolden) {
  const auto ev = tone_schedule(SrcMode::k44_1To48, 900);
  RunOptions quant;
  quant.quantized_time = true;
  const auto golden = run_level(RefinementLevel::kAlgorithmicCpp, SrcMode::k44_1To48, ev, quant);
  const auto beh = run_level(RefinementLevel::kBehUnopt, SrcMode::k44_1To48, ev);
  expect_same_outputs(golden, beh, "quantised C++ vs BEH-unopt");
}

TEST(RefinementChain, BehOptMatchesBehUnopt) {
  const auto ev = noise_schedule(SrcMode::k44_1To48, 900, 11);
  const auto a = run_level(RefinementLevel::kBehUnopt, SrcMode::k44_1To48, ev);
  const auto b = run_level(RefinementLevel::kBehOpt, SrcMode::k44_1To48, ev);
  expect_same_outputs(a, b, "BEH-unopt vs BEH-opt");
}

TEST(RefinementChain, RtlUnoptMatchesBehOpt) {
  const auto ev = noise_schedule(SrcMode::k44_1To48, 900, 12);
  const auto a = run_level(RefinementLevel::kBehOpt, SrcMode::k44_1To48, ev);
  const auto b = run_level(RefinementLevel::kRtlUnopt, SrcMode::k44_1To48, ev);
  expect_same_outputs(a, b, "BEH-opt vs RTL-unopt");
}

TEST(RefinementChain, RtlOptMatchesRtlUnopt) {
  const auto ev = noise_schedule(SrcMode::k44_1To48, 900, 13);
  const auto a = run_level(RefinementLevel::kRtlUnopt, SrcMode::k44_1To48, ev);
  const auto b = run_level(RefinementLevel::kRtlOpt, SrcMode::k44_1To48, ev);
  expect_same_outputs(a, b, "RTL-unopt vs RTL-opt");
}

// Property sweep: the full clocked chain agrees with the quantised golden
// model across modes and random stimuli.
class ClockedEquivalence
    : public ::testing::TestWithParam<std::tuple<SrcMode, std::uint64_t>> {};

TEST_P(ClockedEquivalence, AllClockedLevelsMatchQuantisedGolden) {
  const auto [mode, seed] = GetParam();
  const auto ev = noise_schedule(mode, 700, seed);
  RunOptions quant;
  quant.quantized_time = true;
  const auto golden = run_level(RefinementLevel::kAlgorithmicCpp, mode, ev, quant);
  for (RefinementLevel level : {RefinementLevel::kBehUnopt, RefinementLevel::kBehOpt,
                                RefinementLevel::kRtlUnopt, RefinementLevel::kRtlOpt}) {
    const auto r = run_level(level, mode, ev);
    expect_same_outputs(golden, r, level_name(level));
  }
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndSeeds, ClockedEquivalence,
    ::testing::Values(std::make_tuple(SrcMode::k44_1To48, 1ull),
                      std::make_tuple(SrcMode::k44_1To48, 2ull),
                      std::make_tuple(SrcMode::k48To44_1, 3ull),
                      std::make_tuple(SrcMode::k48To44_1, 4ull),
                      std::make_tuple(SrcMode::k48To48, 5ull),
                      std::make_tuple(SrcMode::k32To48, 6ull)));

TEST(RefinementChain, QuantisationStepIsVisibleButSmall) {
  // Paper Fig. 7: the only lossy step in the chain is time quantisation.
  const auto ev = tone_schedule(SrcMode::k44_1To48, 2000);
  RunOptions quant;
  quant.quantized_time = true;
  const auto cont = run_level(RefinementLevel::kAlgorithmicCpp, SrcMode::k44_1To48, ev);
  const auto q = run_level(RefinementLevel::kAlgorithmicCpp, SrcMode::k44_1To48, ev, quant);
  ASSERT_EQ(cont.outputs.size(), q.outputs.size());
  std::size_t diffs = 0;
  for (std::size_t i = 0; i < cont.outputs.size(); ++i)
    if (cont.outputs[i] != q.outputs[i]) ++diffs;
  EXPECT_GT(diffs, 0u);
  EXPECT_LT(diffs, cont.outputs.size());  // most samples still agree closely
}

TEST(ClockedModels, OutputCountMatchesRequests) {
  const auto ev = tone_schedule(SrcMode::k44_1To48, 400);
  const auto r = run_level(RefinementLevel::kRtlOpt, SrcMode::k44_1To48, ev);
  std::size_t requests = 0;
  for (const auto& e : ev)
    if (!e.is_input) ++requests;
  EXPECT_EQ(r.outputs.size(), requests);
}

TEST(ClockedModels, SimulatedCyclesAreReported) {
  const auto ev = tone_schedule(SrcMode::k44_1To48, 300);
  const auto r = run_level(RefinementLevel::kBehOpt, SrcMode::k44_1To48, ev);
  // ~300 output periods at ~521 clocks each.
  EXPECT_GT(r.simulated_cycles, 100'000u);
  EXPECT_GT(r.stats.process_activations, r.simulated_cycles);
}

TEST(ClockedModels, CleanDesignHasNoRamViolations) {
  const auto ev = tone_schedule(SrcMode::k48To48, 800);
  RunOptions opt;
  opt.check_ram = true;
  for (RefinementLevel level : {RefinementLevel::kBehOpt, RefinementLevel::kRtlOpt}) {
    const auto r = run_level(level, SrcMode::k48To48, ev, opt);
    EXPECT_EQ(r.ram_violations.count, 0u) << level_name(level);
  }
}

TEST(ClockedModels, CornerBugIsInvisibleWithoutCheckingMemory) {
  // The paper's point: the bug survives ordinary simulation unnoticed —
  // outputs stay plausible (same count, similar magnitude).
  const auto ev = tone_schedule(SrcMode::k48To48, 800);
  RunOptions bug;
  bug.inject_corner_bug = true;
  const auto good = run_level(RefinementLevel::kRtlOpt, SrcMode::k48To48, ev);
  const auto bad = run_level(RefinementLevel::kRtlOpt, SrcMode::k48To48, ev, bug);
  ASSERT_EQ(good.outputs.size(), bad.outputs.size());
  std::size_t diffs = 0;
  for (std::size_t i = 0; i < good.outputs.size(); ++i)
    if (good.outputs[i] != bad.outputs[i]) ++diffs;
  EXPECT_GT(diffs, 0u) << "bug corner should trigger in pass-through mode";
}

TEST(ClockedModels, BuggedModelStillMatchesBuggedGolden) {
  // Function-preserving refinement preserves bugs too (paper §4.7: the
  // golden-model bug was refined down to gate level).
  const auto ev = tone_schedule(SrcMode::k48To48, 800);
  RunOptions bug;
  bug.inject_corner_bug = true;
  RunOptions bug_quant = bug;
  bug_quant.quantized_time = true;
  const auto golden = run_level(RefinementLevel::kAlgorithmicCpp, SrcMode::k48To48, ev, bug_quant);
  const auto rtl = run_level(RefinementLevel::kRtlOpt, SrcMode::k48To48, ev, bug);
  expect_same_outputs(golden, rtl, "bugged golden vs bugged RTL");
}

TEST(ClockedModels, BehUnoptTakesMoreCyclesPerOutputThanOpt) {
  // The handshake-in-loops schedule costs extra clocks (paper §4.4) —
  // visible as longer computation, though I/O behaviour is identical.
  const auto ev = tone_schedule(SrcMode::k44_1To48, 300);
  const auto unopt = run_level(RefinementLevel::kBehUnopt, SrcMode::k44_1To48, ev);
  const auto opt = run_level(RefinementLevel::kBehOpt, SrcMode::k44_1To48, ev);
  ASSERT_FALSE(unopt.output_latency_cycles.empty());
  ASSERT_EQ(unopt.output_latency_cycles.size(), opt.output_latency_cycles.size());
  // Compare a steady-state (post-startup) output's request->result latency:
  // the handshake cycles roughly double the schedule length.
  const std::size_t i = unopt.output_latency_cycles.size() - 1;
  EXPECT_GT(unopt.output_latency_cycles[i], opt.output_latency_cycles[i]);
  EXPECT_GE(unopt.output_latency_cycles[i], 30u);  // 16 MACs + 16 handshakes
  EXPECT_LE(opt.output_latency_cycles[i], 25u);    // fixed cycle scheme
  expect_same_outputs(unopt, opt, "unopt vs opt");
}

// --- SRC_CTRL (paper Fig. 5): mode switch before the first sample -------
//
// A converter built for 44.1->48 kHz and switched to 48->44.1 kHz through
// set_mode() must be indistinguishable from one built for 48->44.1 kHz;
// the unswitched converter must not be (so the switch is what matters).

std::vector<StereoSample> drive_algorithmic(dsp::AlgorithmicSrc& src,
                                            const std::vector<SrcEvent>& events) {
  std::vector<StereoSample> out;
  for (const SrcEvent& e : events) {
    if (e.is_input) src.push_input(e.t_ps, e.sample);
    else out.push_back(src.pull_output(e.t_ps));
  }
  return out;
}

bool any_audio(const std::vector<StereoSample>& out) {
  return std::any_of(out.begin(), out.end(),
                     [](const StereoSample& s) { return s.left != 0 || s.right != 0; });
}

TEST(SrcCtrl, AlgorithmicSetModeMatchesConstructedMode) {
  using TimeBase = dsp::AlgorithmicSrc::TimeBase;
  const auto ev = noise_schedule(SrcMode::k48To44_1, 900, 5);
  for (const TimeBase tb : {TimeBase::kContinuousPs, TimeBase::kQuantizedCycles}) {
    dsp::AlgorithmicSrc switched(SrcMode::k44_1To48, tb);
    switched.set_mode(SrcMode::k48To44_1);
    dsp::AlgorithmicSrc built(SrcMode::k48To44_1, tb);
    dsp::AlgorithmicSrc unswitched(SrcMode::k44_1To48, tb);
    const auto got = drive_algorithmic(switched, ev);
    const auto want = drive_algorithmic(built, ev);
    ASSERT_EQ(got.size(), want.size());
    EXPECT_TRUE(got == want) << "time base " << static_cast<int>(tb);
    EXPECT_TRUE(any_audio(want));
    EXPECT_FALSE(drive_algorithmic(unswitched, ev) == want) << static_cast<int>(tb);
  }
}

TEST(SrcCtrl, ChannelSetModeThroughCtrlInterfaceMatchesConstructedMode) {
  const auto ev = noise_schedule(SrcMode::k48To44_1, 900, 5);
  // Drives the channel the way run_level's channel runner does; with
  // @p switch_to, the mode changes through SRC_CTRL before elaboration.
  const auto run = [&ev](SrcMode built, const SrcMode* switch_to) {
    minisc::Simulation sim;
    ChannelSrc src(sim, "src", built);
    if (switch_to != nullptr) {
      SrcCtrlIF& ctrl = src;
      ctrl.set_mode(*switch_to);
      EXPECT_EQ(ctrl.mode(), *switch_to);
    }
    ChannelProducer producer(sim, src, ev);
    ChannelConsumer consumer(sim, src, ev);
    sim.run();
    return consumer.outputs;
  };
  const SrcMode target = SrcMode::k48To44_1;
  const auto got = run(SrcMode::k44_1To48, &target);
  const auto want = run(SrcMode::k48To44_1, nullptr);
  ASSERT_EQ(got.size(), want.size());
  EXPECT_TRUE(got == want);
  EXPECT_TRUE(any_audio(want));
  EXPECT_FALSE(run(SrcMode::k44_1To48, nullptr) == want);
  // And the constructed channel is the continuous golden, as in the chain.
  EXPECT_TRUE(want == run_level(RefinementLevel::kChannelSystemC, target, ev).outputs);
}

TEST(Levels, NamesAndClockedness) {
  EXPECT_STREQ(level_name(RefinementLevel::kAlgorithmicCpp), "C++ (algorithmic)");
  EXPECT_FALSE(level_is_clocked(RefinementLevel::kAlgorithmicCpp));
  EXPECT_FALSE(level_is_clocked(RefinementLevel::kChannelSystemC));
  EXPECT_TRUE(level_is_clocked(RefinementLevel::kBehUnopt));
  EXPECT_TRUE(level_is_clocked(RefinementLevel::kRtlOpt));
}

TEST(Levels, ToneRunnerProducesAudio) {
  const auto r = run_level_with_tone(RefinementLevel::kChannelSystemC,
                                     SrcMode::k44_1To48, 1500);
  std::vector<std::int16_t> tail;
  for (std::size_t i = 600; i < r.outputs.size(); ++i) tail.push_back(r.outputs[i].left);
  EXPECT_GT(dsp::tone_snr_db(tail, 1000.0, 48000.0), 40.0);
}

}  // namespace
}  // namespace scflow::model
