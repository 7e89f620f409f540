// The refine workload: the paper's simulation-performance experiments on
// one seeded noise stimulus at 44.1 -> 48 kHz.  Each unit runs the four
// Fig. 8 levels (model::run_level: cpp, channel, beh_opt, rtl_opt) and the
// three Fig. 9 DUTs — RtlDut on RTL-opt, GateDut on the BEH-opt and RTL-opt
// netlists — under both testbenches (hdlsim::run_testbench_vm,
// cosim::run_cosim).  Sequential, latency-bound simulation: the minisc
// kernel, the RTL interpreter, event-driven GateSim, the testbench VM and
// the bridge do all the work.
#include <array>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/run.hpp"
#include "cosim/bridge.hpp"
#include "dsp/rational_src.hpp"
#include "dsp/stimulus.hpp"
#include "flow/synthesis_flow.hpp"
#include "harness.hpp"
#include "hdlsim/dut.hpp"
#include "hdlsim/testbench_vm.hpp"
#include "hls/src_beh.hpp"
#include "obs/ledger.hpp"
#include "rtl/src_design.hpp"

namespace perfbench {
namespace {

using namespace scflow;
using model::RefinementLevel;
using P = dsp::SrcParams;

constexpr dsp::SrcMode kMode = dsp::SrcMode::k44_1To48;
// Input samples per unit: a full unit takes about a second, a probe unit
// about a fifth of that.
constexpr std::size_t kFullSamples = 200;
constexpr std::size_t kProbeSamples = 40;
constexpr double kProbeSeconds = 1.6;

struct Level {
  RefinementLevel level;
  const char* slug;
  const char* span;
  bool kernel;   // simulates on the minisc kernel
  bool clocked;  // checked against the clock-quantised golden
};
constexpr std::array<Level, 4> kLevels = {{
    {RefinementLevel::kAlgorithmicCpp, "cpp", "core.run_level.cpp", false, false},
    {RefinementLevel::kChannelSystemC, "channel", "core.run_level.channel", true, false},
    {RefinementLevel::kBehOpt, "beh_opt", "core.run_level.beh_opt", true, true},
    {RefinementLevel::kRtlOpt, "rtl_opt", "core.run_level.rtl_opt", true, true},
}};

struct DutSpec {
  const char* slug;
  const char* span;  // the DUT's summed share of one testbench run
};
constexpr std::array<DutSpec, 3> kDuts = {{
    {"rtl", "hdlsim.RtlDut"},
    {"gate_beh", "hdlsim.GateDut.beh_opt"},
    {"gate_rtl", "hdlsim.GateDut.rtl_opt"},
}};
constexpr std::array<const char*, 2> kBenches = {"native", "cosim"};
constexpr std::size_t kRuns = kDuts.size() * kBenches.size();

struct Setup {
  std::vector<dsp::SrcEvent> events;
  std::vector<dsp::StereoSample> golden_quantised;
  std::vector<dsp::StereoSample> golden_continuous;
  rtl::Design rtl_opt{""};
  nl::Netlist gates_beh{""};
  nl::Netlist gates_rtl{""};
  hdlsim::SrcTestbenchProgram program;
};

// The continuous-time golden from a streaming dsp::RationalSrc, an
// implementation independent of the C++ and channel levels it checks.
// Trailing silence past the last output request lets the converter
// release every requested output; being causal, it cannot change them.
std::vector<dsp::StereoSample> continuous_golden(std::vector<dsp::StereoSample> inputs,
                                                 std::size_t outputs) {
  dsp::RationalSrc src(44'100, 48'000, dsp::RationalSrc::TimeBase::kContinuousPs);
  std::vector<dsp::StereoSample> out;
  std::vector<dsp::StereoSample> chunk(src.plan().max_outputs_per_input());
  inputs.resize(inputs.size() + 64);
  for (const auto& s : inputs) {
    const std::size_t n = src.push(s, chunk.data(), chunk.size());
    out.insert(out.end(), chunk.begin(), chunk.begin() + static_cast<std::ptrdiff_t>(n));
  }
  if (out.size() > outputs) out.resize(outputs);
  return out;
}

Setup make_setup(std::size_t samples, std::uint64_t seed) {
  Setup s;
  const auto inputs = dsp::make_noise_stimulus(samples, seed);
  s.events = dsp::make_schedule(inputs, P::kPeriod44k1Ps, samples, P::kPeriod48kPs);
  model::RunOptions quantised;
  quantised.quantized_time = true;
  s.golden_quantised =
      model::run_level(RefinementLevel::kAlgorithmicCpp, kMode, s.events, quantised).outputs;
  s.golden_continuous = continuous_golden(inputs, samples);
  s.rtl_opt = rtl::build_src_design(rtl::rtl_opt_config());
  s.gates_beh = flow::synthesize_to_gates(hls::build_beh_src_design(hls::beh_opt_config()));
  s.gates_rtl = flow::synthesize_to_gates(s.rtl_opt);
  s.program = hdlsim::build_src_testbench(s.events, kMode);
  return s;
}

std::unique_ptr<hdlsim::Dut> make_dut(std::size_t kind, const Setup& s) {
  if (kind == 0) return std::make_unique<hdlsim::RtlDut>(s.rtl_opt);
  auto dut = std::make_unique<hdlsim::GateDut>(kind == 1 ? s.gates_beh : s.gates_rtl);
  dut->set_input("scan_in", 0);
  dut->set_input("scan_enable", 0);
  return dut;
}

/// Forwarding hdlsim::Dut that times every call into the wrapped DUT: the
/// DUT's share of a testbench run, separated from the testbench's own.
class TimedDut final : public hdlsim::Dut {
 public:
  explicit TimedDut(hdlsim::Dut& inner) : inner_(inner) {}
  void set_input(const std::string& name, std::uint64_t v) override {
    const Timer t(ns_);
    inner_.set_input(name, v);
  }
  void step() override {
    const Timer t(ns_);
    inner_.step();
    ++steps_;
  }
  std::uint64_t output(const std::string& name) override {
    const Timer t(ns_);
    return inner_.output(name);
  }
  int input_handle(const std::string& name) override { return inner_.input_handle(name); }
  int output_handle(const std::string& name) override { return inner_.output_handle(name); }
  void set_input(int handle, std::uint64_t v) override {
    const Timer t(ns_);
    inner_.set_input(handle, v);
  }
  std::uint64_t output(int handle) override {
    const Timer t(ns_);
    return inner_.output(handle);
  }
  std::uint64_t work_units() const override { return inner_.work_units(); }
  hdlsim::SimCounters counters() const override { return inner_.counters(); }
  std::vector<hdlsim::WorkerShardStats> worker_stats() const override {
    return inner_.worker_stats();
  }

  void reset() { ns_ = steps_ = 0; }
  [[nodiscard]] std::uint64_t ns() const { return ns_; }
  [[nodiscard]] std::uint64_t steps() const { return steps_; }

 private:
  struct Timer {
    explicit Timer(std::uint64_t& acc) : acc_(acc) {}
    ~Timer() { acc_ += now_ns() - t0_; }
    std::uint64_t& acc_;
    std::uint64_t t0_ = now_ns();
  };
  hdlsim::Dut& inner_;
  std::uint64_t ns_ = 0;
  std::uint64_t steps_ = 0;
};

struct Unit {
  bool traced = false;
  std::uint64_t total_ns = 0;
  std::array<std::uint64_t, kLevels.size()> level_ns{}, level_cycles{};
  std::uint64_t activations = 0, context_switches = 0, delta_cycles = 0;
  std::array<std::uint64_t, kRuns> run_ns{}, cycles{}, dut_ns{}, dut_steps{}, evals{};
  std::uint64_t tb_instr = 0, syncs = 0, hash = 0;

  // Work counts and outputs: identical in every unit of one seed.
  [[nodiscard]] bool same_work(const Unit& o) const {
    return level_cycles == o.level_cycles && activations == o.activations &&
           context_switches == o.context_switches && delta_cycles == o.delta_cycles &&
           cycles == o.cycles && evals == o.evals && tb_instr == o.tb_instr &&
           syncs == o.syncs && hash == o.hash;
  }
};

Unit run_unit(const Setup& s, Tracer& tracer, Report& rep) {
  Unit u;
  const std::uint64_t unit_t0 = now_ns();
  const Tracer::Scope unit_span(tracer, "refine.unit");
  obs::Fnv1a h;
  const auto expect = [&](const std::vector<dsp::StereoSample>& got, bool clocked,
                          const std::string& what) {
    rep.check(got == (clocked ? s.golden_quantised : s.golden_continuous),
              what + (clocked ? " matches the clock-quantised golden"
                              : " matches the continuous-time golden"));
    h.update_u64(hash_samples(got));
  };

  for (std::size_t l = 0; l < kLevels.size(); ++l) {
    const Level& lv = kLevels[l];
    model::RunResult r;
    const std::uint64_t t0 = now_ns();
    {
      const Tracer::Scope span(tracer, lv.span);
      r = model::run_level(lv.level, kMode, s.events);
    }
    u.level_ns[l] = now_ns() - t0;
    u.level_cycles[l] = r.simulated_cycles;
    if (lv.kernel) {
      u.activations += r.stats.process_activations;
      u.context_switches += r.stats.context_switches;
      u.delta_cycles += r.stats.delta_cycles;
    }
    expect(r.outputs, lv.clocked, std::string("level ") + lv.slug);
  }

  for (std::size_t d = 0; d < kDuts.size(); ++d) {
    for (std::size_t b = 0; b < kBenches.size(); ++b) {
      const std::size_t k = d * kBenches.size() + b;
      const std::unique_ptr<hdlsim::Dut> dut = make_dut(d, s);  // set-up, untimed
      std::optional<TimedDut> timed;
      if (tracer.active()) timed.emplace(*dut);
      hdlsim::Dut& target = timed ? static_cast<hdlsim::Dut&>(*timed) : *dut;
      std::vector<dsp::StereoSample> outputs;
      std::uint64_t t0 = 0;
      std::uint64_t t1 = 0;
      if (b == 0) {
        t0 = now_ns();
        hdlsim::VmRunResult r = hdlsim::run_testbench_vm(target, s.program);
        t1 = now_ns();
        outputs = std::move(r.outputs);
        u.cycles[k] = r.cycles;
        u.evals[k] = r.dut_counters.evaluations;
        u.tb_instr += r.instructions_executed;
      } else {
        // The bridge elaborates the minisc testbench first; time the run.
        cosim::CosimResult r = cosim::run_cosim(target, kMode, s.events, [&] {
          if (timed) timed->reset();
          t0 = now_ns();
        });
        t1 = now_ns();
        outputs = std::move(r.outputs);
        u.cycles[k] = r.cycles;
        u.evals[k] = r.dut_counters.evaluations;
        u.syncs += r.syncs;
      }
      u.run_ns[k] = t1 - t0;
      if (timed) {
        u.dut_ns[k] = timed->ns();
        u.dut_steps[k] = timed->steps();
        const std::uint64_t id =
            tracer.add(b == 0 ? "hdlsim.run_testbench_vm" : "cosim.run_cosim", t0, t1);
        tracer.add(kDuts[d].span, t0, t0 + timed->ns(), id);
      }
      expect(outputs, true, std::string("fig9 ") + kDuts[d].slug + " " + kBenches[b]);
    }
    rep.check(u.evals[2 * d] == u.evals[2 * d + 1],
              std::string("native and cosim runs of ") + kDuts[d].slug +
                  " report identical DUT evaluations");
  }
  u.hash = h.digest();
  u.total_ns = now_ns() - unit_t0;
  return u;
}

template <std::size_t N>
double sum(const std::array<std::uint64_t, N>& a) {
  double s = 0.0;
  for (const std::uint64_t v : a) s += static_cast<double>(v);
  return s;
}

}  // namespace

void run_refine(const RunConfig& cfg, Scale scale, Tracer& tracer, Report& rep) {
  const bool full = scale == Scale::kFull;
  const std::size_t samples = full ? kFullSamples : kProbeSamples;
  const std::uint64_t seed = derive_seed(cfg.seed, 1);
  std::optional<Setup> setup;
  const double setup_s =
      repeated_setup(full ? kSetupReps : 1, setup, [&] { return make_setup(samples, seed); });

  tracer.begin_run("refine");
  std::vector<Unit> units;
  const double window = full ? cfg.seconds : kProbeSeconds;
  const std::uint64_t t0 = now_ns();
  while (units.size() < (cfg.traced ? 2u : 1u) ||
         1e-9 * static_cast<double>(now_ns() - t0) < window) {
    const bool traced = cfg.traced && units.size() % 2 == 1;
    tracer.set_active(traced);
    units.push_back(run_unit(*setup, tracer, rep));
    units.back().traced = traced;
  }
  tracer.set_active(false);
  const double rss = peak_rss_mb();

  const Unit& first = units.front();
  for (const Unit& u : units)
    rep.check(u.same_work(first), "refine work counts and outputs repeat in every unit");
  rep.count("refine.sim_cycles", static_cast<std::uint64_t>(sum(first.level_cycles) +
                                                             sum(first.cycles)));
  rep.count("refine.kernel.activations", first.activations);
  rep.count("refine.kernel.context_switches", first.context_switches);
  rep.count("refine.kernel.delta_cycles", first.delta_cycles);
  for (std::size_t k = 0; k < kRuns; ++k)
    rep.count(std::string("refine.evals.") + kDuts[k / 2].slug + "." + kBenches[k % 2],
              first.evals[k]);
  rep.count("refine.tb_instr", first.tb_instr);
  rep.count("refine.syncs", first.syncs);
  rep.hash("refine.outputs", first.hash);

  if (!cfg.traced) {
    std::vector<double> fig8, fig9;
    for (const Unit& u : units) {
      fig8.push_back(ratio(sum(u.level_cycles), 1e-9 * sum(u.level_ns)));
      fig9.push_back(ratio(sum(u.cycles), 1e-9 * sum(u.run_ns)));
    }
    rep.metric("fig8_cyc_per_s", median(fig8), "cyc/s");
    rep.metric("fig9_cyc_per_s", median(fig9), "cyc/s");
    if (full) {
      rep.metric("setup_s", setup_s, "s");
      rep.metric("peak_rss_mb", rss, "MB");
    }
    return;
  }

  // Per-layer metrics.  Level rates and the Fig. 9 bars come from the
  // untraced units, the DUT / testbench split from the traced ones.
  std::array<double, kLevels.size()> lvl_cycles{}, lvl_ns{};
  double kernel_ns = 0.0, activations = 0.0;
  std::array<double, kRuns> bar_cycles{}, bar_ns{}, dut_ns{}, dut_steps{};
  double native_cycles = 0.0, cosim_cycles = 0.0;
  std::vector<double> untraced_s, traced_s;
  for (const Unit& u : units) {
    for (std::size_t l = 0; l < kLevels.size(); ++l) {
      lvl_cycles[l] += static_cast<double>(u.level_cycles[l]);
      lvl_ns[l] += static_cast<double>(u.level_ns[l]);
      if (kLevels[l].kernel) kernel_ns += static_cast<double>(u.level_ns[l]);
    }
    activations += static_cast<double>(u.activations);
    (u.traced ? traced_s : untraced_s).push_back(1e-9 * static_cast<double>(u.total_ns));
    for (std::size_t k = 0; k < kRuns; ++k) {
      if (u.traced) {
        dut_ns[k] += static_cast<double>(u.dut_ns[k]);
        dut_steps[k] += static_cast<double>(u.dut_steps[k]);
        (k % 2 == 0 ? native_cycles : cosim_cycles) += static_cast<double>(u.cycles[k]);
      } else {
        bar_cycles[k] += static_cast<double>(u.cycles[k]);
        bar_ns[k] += static_cast<double>(u.run_ns[k]);
      }
    }
  }
  const auto spans = tracer.totals();
  const auto self_ns = [&](const char* name) {
    const auto it = spans.find(name);
    return it == spans.end() ? 0.0 : static_cast<double>(it->second.self_ns);
  };
  for (std::size_t l = 0; l < kLevels.size(); ++l)
    rep.metric(std::string("core.") + kLevels[l].slug + ".cyc_per_s",
               ratio(lvl_cycles[l], 1e-9 * lvl_ns[l]), "cyc/s");
  rep.metric("kernel.activations", static_cast<double>(first.activations), "count");
  rep.metric("kernel.context_switches", static_cast<double>(first.context_switches), "count");
  rep.metric("kernel.delta_cycles", static_cast<double>(first.delta_cycles), "count");
  rep.metric("kernel.ns_per_activation", ratio(kernel_ns, activations), "ns");
  for (std::size_t d = 0; d < kDuts.size(); ++d) {
    const std::string p = std::string("hdlsim.") + kDuts[d].slug;
    rep.metric(p + ".step_ns",
               ratio(dut_ns[2 * d] + dut_ns[2 * d + 1], dut_steps[2 * d] + dut_steps[2 * d + 1]),
               "ns");
    rep.metric(p + ".evals", static_cast<double>(first.evals[2 * d] + first.evals[2 * d + 1]),
               "count");
    for (std::size_t b = 0; b < kBenches.size(); ++b) {
      const std::size_t k = 2 * d + b;
      rep.metric(std::string("fig9.") + kDuts[d].slug + "." + kBenches[b] + ".cyc_per_s",
                 ratio(bar_cycles[k], 1e-9 * bar_ns[k]), "cyc/s");
    }
  }
  rep.metric("tbvm.self_ns_per_cycle", ratio(self_ns("hdlsim.run_testbench_vm"), native_cycles),
             "ns");
  rep.metric("tbvm.instr", static_cast<double>(first.tb_instr), "count");
  rep.metric("cosim.self_ns_per_cycle", ratio(self_ns("cosim.run_cosim"), cosim_cycles), "ns");
  rep.metric("cosim.syncs", static_cast<double>(first.syncs), "count");
  if (full) report_overhead(rep, tracer, "refine", untraced_s, traced_s);
}

}  // namespace perfbench
