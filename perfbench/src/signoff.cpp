// The signoff workload: the five Fig. 10 designs through the flow's
// sign-off steps — HLS/RTL build, word passes, lowering, gate optimisation
// and scan insertion with the flow's opt and scan CEC gates on, a CEC proof
// of each hand-written RTL design against its final pre-scan netlist, and
// full collapsed stuck-at campaigns (scan and noscan) on PPSFP.  The batch,
// throughput-bound half: SAT, the netlist passes, CompiledSim 64-fault
// batches, the event-driven fallback and millisecond BatchRunner jobs.
// The HLS designs stay out of the RTL-vs-netlist proof: on beh_opt it does
// not finish within a minute.
#include <array>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "fault/campaign.hpp"
#include "fault/fault.hpp"
#include "fault/ppsfp.hpp"
#include "formal/cec.hpp"
#include "harness.hpp"
#include "hdlsim/compile.hpp"
#include "hdlsim/gate_sim.hpp"
#include "hls/src_beh.hpp"
#include "netlist/lower.hpp"
#include "netlist/opt.hpp"
#include "obs/ledger.hpp"
#include "rtl/passes.hpp"
#include "rtl/src_design.hpp"

namespace perfbench {
namespace {

using namespace scflow;

struct DesignSpec {
  const char* slug;
  bool hls;       // built by behavioural synthesis
  bool hand_rtl;  // proven against its netlist by check_rtl_vs_netlist
  rtl::Design (*build)();
};
const std::array<DesignSpec, 5> kDesigns = {{
    {"vhdl_ref", false, true, [] { return rtl::build_src_design(rtl::vhdl_ref_config()); }},
    {"beh_unopt", true, false, [] { return hls::build_beh_src_design(hls::beh_unopt_config()); }},
    {"beh_opt", true, false, [] { return hls::build_beh_src_design(hls::beh_opt_config()); }},
    {"rtl_unopt", false, true, [] { return rtl::build_src_design(rtl::rtl_unopt_config()); }},
    {"rtl_opt", false, true, [] { return rtl::build_src_design(rtl::rtl_opt_config()); }},
}};
constexpr std::size_t kProbeFaults = 1024;  // per design, evenly strided
constexpr std::size_t kCheckFaults = 6;    // per design, event-driven cross-check
constexpr double kProbeSeconds = 4.0;      // a probe cycle takes about 2 s

struct Reference {
  nl::Netlist pre_scan{""};
  nl::Netlist gates{""};
  std::uint64_t pre_scan_hash = 0;
  std::uint64_t gates_hash = 0;
};

struct Setup {
  std::vector<Reference> designs;
  fault::CampaignOptions campaign;
};

// Set-up synthesises every design once (no proofs): the timed passes must
// reproduce these netlists exactly.  The campaigns keep the flow's default
// stimulus seed, under which scan coverage beats noscan on every design;
// the run seed picks the fault sample of the event-driven cross-check.
Setup make_setup(unsigned lanes) {
  Setup s;
  s.campaign.engine = fault::CampaignOptions::Engine::kPpsfp;
  s.campaign.threads = lanes;
  for (const DesignSpec& spec : kDesigns) {
    Reference r;
    r.pre_scan = nl::optimize_gates(nl::lower_to_gates(rtl::run_passes(spec.build(), {})));
    r.gates = r.pre_scan;
    nl::insert_scan_chain(r.gates);
    r.pre_scan_hash = nl::content_hash(r.pre_scan);
    r.gates_hash = nl::content_hash(r.gates);
    s.designs.push_back(std::move(r));
  }
  return s;
}

template <class F>
auto timed(Tracer& tracer, const char* span, std::uint64_t& acc, F&& f) {
  const Tracer::Scope scope(tracer, span);
  const std::uint64_t t0 = now_ns();
  auto result = f();
  acc += now_ns() - t0;
  return result;
}

struct Layers {
  std::uint64_t hls_build = 0, rtl_build = 0, rtl_passes = 0, lower = 0, opt = 0, scan = 0,
                cec_opt = 0, cec_scan = 0, cec_rtl = 0;
};

/// The single-lane replay of a PPSFP campaign through the fault layer's
/// public steps.
struct Replay {
  std::uint64_t faults = 0, reference_ns = 0, compile_ns = 0, screen_ns = 0, ppsfp_ns = 0,
                fallback_ns = 0;
  std::uint64_t batches = 0, lane_cycles = 0, parallel = 0, dropped = 0, fallback_faults = 0,
                fallback_cycles = 0;
  Dist batch_ns;
  [[nodiscard]] std::uint64_t total_ns() const {
    return reference_ns + compile_ns + screen_ns + ppsfp_ns + fallback_ns;
  }
};

struct Cycle {
  bool traced = false;
  std::uint64_t flow_ns = 0, campaign_ns = 0, faults = 0;
  Layers layers;
  std::uint64_t sat_calls = 0, sat_conflicts = 0, bits_structural = 0, compare_bits = 0;
  std::uint64_t cells = 0, rewrites = 0, dropped = 0, fallback = 0, detected = 0;
  std::uint64_t hash = 0;
  std::vector<std::array<fault::CampaignResult, 2>> campaigns;  // per design: scan, noscan
  std::optional<Replay> replay;
};

std::uint64_t hash_campaign(const fault::CampaignResult& r) {
  obs::Fnv1a h;
  for (const fault::FaultResult& f : r.faults) {
    h.update_u64(static_cast<std::uint64_t>(f.fault.net));
    h.update_u64(f.fault.stuck_one ? 1 : 0);
    h.update_u64(static_cast<std::uint64_t>(f.klass));
    h.update_u64(f.detect_cycle);
    h.update_u64(f.detect_port);
    h.update_u64(f.cycles);
  }
  return h.digest();
}

// Reproduces run_campaign's PPSFP engine on one lane: stimulus, GateSim
// reference run, compile, screen, 64-fault batches, then the event-driven
// campaign over the fallback list.  The classifications must match.
void replay_campaign(Replay& st, const nl::Netlist& n, const std::vector<fault::Fault>& faults,
                     const fault::CampaignOptions& co, const fault::CampaignResult& expect,
                     Tracer& tracer, Report& rep) {
  const Tracer::Scope scope(tracer, "fault.replay");
  st.faults += faults.size();
  const auto stimulus = timed(tracer, "fault.build_campaign_stimulus", st.reference_ns,
                              [&] { return fault::build_campaign_stimulus(n, co); });
  const auto reference = timed(tracer, "hdlsim.GateSim.reference", st.reference_ns, [&] {
    hdlsim::GateSim good(n, hdlsim::GateSim::Options{});
    std::vector<hdlsim::GateSim::PortSample> ref;
    ref.reserve(stimulus.size() * n.outputs().size());
    for (const auto& cycle : stimulus) {
      for (std::size_t i = 0; i < n.inputs().size(); ++i) good.set_input(&n.inputs()[i], cycle[i]);
      good.step();
      for (const nl::PortBits& p : n.outputs()) ref.push_back(good.output_sample(&p));
    }
    return ref;
  });
  std::optional<hdlsim::CompiledProgram> prog;
  try {
    prog.emplace(timed(tracer, "hdlsim.compile_netlist", st.compile_ns,
                       [&] { return hdlsim::compile_netlist(n); }));
  } catch (const std::exception&) {
  }
  fault::PpsfpPlan plan;
  if (prog) {
    plan = timed(tracer, "fault.ppsfp_plan", st.screen_ns, [&] {
      return fault::ppsfp_plan(n, *prog, stimulus, reference, co.x_initial_flops, faults);
    });
  } else {
    for (std::size_t i = 0; i < faults.size(); ++i) plan.fallback.push_back(i);
  }

  std::vector<fault::FaultResult> results(faults.size());
  constexpr std::size_t kB = 64;
  for (std::size_t b = 0; b < plan.parallel.size(); b += kB) {
    const std::size_t count = std::min(kB, plan.parallel.size() - b);
    const std::uint64_t t0 = now_ns();
    {
      const Tracer::Scope span(tracer, "fault.run_ppsfp_batch");
      fault::run_ppsfp_batch(n, *prog, stimulus, reference, faults, plan.parallel.data() + b,
                             count, stimulus.size(), {}, results);
    }
    const std::uint64_t dt = now_ns() - t0;
    st.ppsfp_ns += dt;
    st.batch_ns.record(dt);
    ++st.batches;
    std::uint64_t batch_cycles = 0;
    for (std::size_t i = 0; i < count; ++i) {
      const fault::FaultResult& fr = results[plan.parallel[b + i]];
      batch_cycles = std::max(batch_cycles, fr.cycles);
      if (fr.klass == fault::FaultClass::kDetected) ++st.dropped;
    }
    st.lane_cycles += count * batch_cycles;
  }
  st.parallel += plan.parallel.size();
  if (!plan.fallback.empty()) {
    std::vector<fault::Fault> list;
    for (const std::size_t i : plan.fallback) list.push_back(faults[i]);
    fault::CampaignOptions eco = co;
    eco.engine = fault::CampaignOptions::Engine::kEventDriven;
    eco.threads = 1;
    const fault::CampaignResult r = timed(tracer, "fault.run_campaign.fallback", st.fallback_ns,
                                          [&] { return fault::run_campaign(n, list, eco); });
    for (std::size_t k = 0; k < plan.fallback.size(); ++k) {
      results[plan.fallback[k]] = r.faults[k];
      st.fallback_cycles += r.faults[k].cycles;
    }
    st.fallback_faults += plan.fallback.size();
  }
  rep.check(results == expect.faults,
            "single-lane replay of the " + n.name() + " campaign reproduces run_campaign");
}

Cycle run_cycle(const Setup& s, Scale scale, bool replay, Tracer& tracer, Report& rep) {
  Cycle c;
  const Tracer::Scope cycle_span(tracer, "signoff.cycle");
  obs::Fnv1a h;
  Layers& L = c.layers;
  if (replay) c.replay.emplace();
  for (std::size_t i = 0; i < kDesigns.size(); ++i) {
    const DesignSpec& spec = kDesigns[i];
    const std::string name = spec.slug;
    const std::uint64_t flow_t0 = now_ns();
    const rtl::Design design = timed(tracer, spec.hls ? "hls.build_beh_src_design" : "rtl.build_src_design",
                                     spec.hls ? L.hls_build : L.rtl_build, spec.build);
    const rtl::Design optimised = timed(tracer, "rtl.run_passes", L.rtl_passes,
                                        [&] { return rtl::run_passes(design, {}); });
    const nl::Netlist lowered = timed(tracer, "netlist.lower_to_gates", L.lower,
                                      [&] { return nl::lower_to_gates(optimised); });
    nl::GateOptStats opt_stats;
    const nl::Netlist pre_scan = timed(tracer, "netlist.optimize_gates", L.opt,
                                       [&] { return nl::optimize_gates(lowered, &opt_stats); });
    const nl::Netlist gates = timed(tracer, "netlist.insert_scan_chain", L.scan, [&] {
      nl::Netlist g = pre_scan;
      nl::insert_scan_chain(g);
      g.validate();
      return g;
    });
    const auto prove = [&](const formal::CecResult& r, const char* what) {
      rep.check(r.status == formal::CecStatus::kEquivalent,
                std::string(what) + " of " + name + " proves equivalent");
      c.sat_calls += r.stats.sat_calls;
      c.sat_conflicts += r.stats.sat_conflicts;
      c.bits_structural += r.stats.bits_structural;
      c.compare_bits += r.stats.compare_bits;
    };
    prove(timed(tracer, "formal.check_equivalence.opt", L.cec_opt,
                [&] { return formal::check_equivalence(lowered, pre_scan); }),
          "gate-opt CEC");
    prove(timed(tracer, "formal.check_equivalence.scan", L.cec_scan,
                [&] {
                  return formal::check_equivalence(pre_scan, gates, nullptr,
                                                   formal::CecOptions::scan_modulo());
                }),
          "scan CEC");
    if (spec.hand_rtl) {
      prove(timed(tracer, "formal.check_rtl_vs_netlist", L.cec_rtl,
                  [&] { return formal::check_rtl_vs_netlist(design, pre_scan); }),
            "RTL-vs-netlist CEC");
    }
    c.flow_ns += now_ns() - flow_t0;
    c.cells += gates.cells().size();
    c.rewrites += opt_stats.rewrites;
    const std::uint64_t gates_hash = nl::content_hash(gates);
    rep.check(nl::content_hash(pre_scan) == s.designs[i].pre_scan_hash &&
                  gates_hash == s.designs[i].gates_hash,
              "netlists of " + name + " match the set-up synthesis");
    h.update_u64(gates_hash);

    // One collapsed fault universe per design, enumerated on the pre-scan
    // netlist (scan insertion preserves net ids), run on both variants.
    const std::uint64_t camp_t0 = now_ns();
    std::vector<fault::Fault> faults = fault::enumerate_stuck_faults(pre_scan);
    if (scale == Scale::kProbe) faults = fault::sample_faults(faults, kProbeFaults);
    std::array<fault::CampaignResult, 2> results;
    std::array<fault::CampaignOptions, 2> options{s.campaign, s.campaign};
    options[1].use_scan = false;
    for (std::size_t v = 0; v < 2; ++v) {
      const Tracer::Scope span(tracer, "fault.run_campaign");
      results[v] = fault::run_campaign(v == 0 ? gates : pre_scan, faults, options[v]);
    }
    c.campaign_ns += now_ns() - camp_t0;
    c.faults += 2 * faults.size();
    // The coverage contract holds for the full lists, not for probe samples.
    if (scale == Scale::kFull)
      rep.check(results[0].coverage_pct() >= results[1].coverage_pct(),
                "scan coverage >= noscan coverage on " + name);
    for (const fault::CampaignResult& r : results) {
      c.dropped += r.ppsfp_dropped;
      c.fallback += r.ppsfp_fallback;
      c.detected += r.detected;
      h.update_u64(hash_campaign(r));
    }
    if (replay) {
      for (std::size_t v = 0; v < 2; ++v)
        replay_campaign(*c.replay, v == 0 ? gates : pre_scan, faults, options[v], results[v],
                        tracer, rep);
    }
    c.campaigns.push_back(std::move(results));
  }
  c.hash = h.digest();
  return c;
}

// A small seeded fault sample per design, classified by the event-driven
// engine outside the timed region, must match the PPSFP results.
void cross_check(const Setup& s, Scale scale, const Cycle& first, std::uint64_t seed,
                 unsigned lanes, Report& rep) {
  std::mt19937_64 rng(seed);
  for (std::size_t i = 0; i < kDesigns.size(); ++i) {
    const Reference& ref = s.designs[i];
    std::vector<fault::Fault> faults = fault::enumerate_stuck_faults(ref.pre_scan);
    if (scale == Scale::kProbe) faults = fault::sample_faults(faults, kProbeFaults);
    std::set<std::size_t> picked;
    while (picked.size() < std::min(kCheckFaults, faults.size())) picked.insert(rng() % faults.size());
    std::vector<fault::Fault> sample;
    for (const std::size_t k : picked) sample.push_back(faults[k]);
    for (std::size_t v = 0; v < 2; ++v) {
      fault::CampaignOptions co = s.campaign;
      co.use_scan = v == 0;
      co.engine = fault::CampaignOptions::Engine::kEventDriven;
      co.threads = lanes;
      const fault::CampaignResult r =
          fault::run_campaign(v == 0 ? ref.gates : ref.pre_scan, sample, co);
      std::size_t j = 0;
      for (const std::size_t k : picked) {
        rep.check(r.faults[j] == first.campaigns[i][v].faults[k],
                  std::string("event-driven and PPSFP agree on a sampled fault of ") +
                      kDesigns[i].slug);
        ++j;
      }
    }
  }
}

}  // namespace

void run_signoff(const RunConfig& cfg, Scale scale, Tracer& tracer, Report& rep) {
  const bool full = scale == Scale::kFull;
  std::optional<Setup> setup;
  const double setup_s =
      repeated_setup(full ? kSetupReps : 1, setup, [&] { return make_setup(cfg.lanes); });

  tracer.begin_run("signoff");
  std::vector<Cycle> cycles;
  bool replayed = false;
  const double window = full ? cfg.seconds : kProbeSeconds;
  const std::uint64_t t0 = now_ns();
  while (cycles.size() < (cfg.traced ? 2u : 1u) ||
         1e-9 * static_cast<double>(now_ns() - t0) < window) {
    const bool traced = cfg.traced && cycles.size() % 2 == 1;
    tracer.set_active(traced);
    const bool replay = traced && !replayed;
    cycles.push_back(run_cycle(*setup, scale, replay, tracer, rep));
    cycles.back().traced = traced;
    replayed = replayed || replay;
    if (cycles.size() > 1) cycles.back().campaigns.clear();  // keep only the first's
  }
  tracer.set_active(false);
  const double rss = peak_rss_mb();

  const Cycle& first = cycles.front();
  for (const Cycle& c : cycles)
    rep.check(c.hash == first.hash && c.sat_calls == first.sat_calls &&
                  c.sat_conflicts == first.sat_conflicts,
              "signoff netlists, proofs and campaigns repeat in every cycle");
  cross_check(*setup, scale, first, derive_seed(cfg.seed, 4), cfg.lanes, rep);
  rep.count("signoff.sat_calls", first.sat_calls);
  rep.count("signoff.sat_conflicts", first.sat_conflicts);
  rep.count("signoff.cells", first.cells);
  rep.count("signoff.faults", first.faults);
  rep.count("signoff.detected", first.detected);
  rep.count("signoff.ppsfp_dropped", first.dropped);
  rep.count("signoff.ppsfp_fallback", first.fallback);
  rep.hash("signoff.netlists_and_campaigns", first.hash);

  if (!cfg.traced) {
    std::vector<double> flow, faults;
    for (const Cycle& c : cycles) {
      flow.push_back(1e-9 * static_cast<double>(c.flow_ns));
      faults.push_back(ratio(static_cast<double>(c.faults),
                             1e-9 * static_cast<double>(c.campaign_ns)));
    }
    rep.metric("flow_s", median(flow), "s");
    rep.metric("faults_per_s", median(faults), "faults/s");
    if (full) {
      rep.metric("setup_s", setup_s, "s");
      rep.metric("peak_rss_mb", rss, "MB");
    }
    return;
  }

  // Per-layer metrics: layer times per cycle over every cycle, the fault
  // breakdown from the traced cycle's single-lane replay.
  Layers sum;
  std::vector<double> untraced_s, traced_s;
  const Cycle* traced_cycle = nullptr;
  for (const Cycle& c : cycles) {
    const Layers& l = c.layers;
    sum.hls_build += l.hls_build;
    sum.rtl_build += l.rtl_build;
    sum.rtl_passes += l.rtl_passes;
    sum.lower += l.lower;
    sum.opt += l.opt;
    sum.scan += l.scan;
    sum.cec_opt += l.cec_opt;
    sum.cec_scan += l.cec_scan;
    sum.cec_rtl += l.cec_rtl;
    (c.traced ? traced_s : untraced_s)
        .push_back(1e-9 * static_cast<double>(c.flow_ns + c.campaign_ns));
    if (c.replay) traced_cycle = &c;
  }
  const double n = static_cast<double>(cycles.size());
  const auto per_cycle_s = [&](std::uint64_t ns) { return 1e-9 * static_cast<double>(ns) / n; };
  rep.metric("hls.build_s", per_cycle_s(sum.hls_build), "s");
  rep.metric("rtl.build_s", per_cycle_s(sum.rtl_build), "s");
  rep.metric("rtl.passes_s", per_cycle_s(sum.rtl_passes), "s");
  rep.metric("netlist.lower_s", per_cycle_s(sum.lower), "s");
  rep.metric("netlist.opt_s", per_cycle_s(sum.opt), "s");
  rep.metric("netlist.scan_s", per_cycle_s(sum.scan), "s");
  rep.metric("netlist.cells", static_cast<double>(first.cells), "count");
  rep.metric("netlist.rewrites", static_cast<double>(first.rewrites), "count");
  rep.metric("formal.cec_opt_s", per_cycle_s(sum.cec_opt), "s");
  rep.metric("formal.cec_scan_s", per_cycle_s(sum.cec_scan), "s");
  rep.metric("formal.cec_rtl_s", per_cycle_s(sum.cec_rtl), "s");
  rep.metric("formal.sat_calls", static_cast<double>(first.sat_calls), "count");
  rep.metric("formal.sat_conflicts", static_cast<double>(first.sat_conflicts), "count");
  rep.metric("formal.structural_ratio",
             ratio(static_cast<double>(first.bits_structural),
                   static_cast<double>(first.compare_bits)),
             "ratio");

  const Replay& r = *traced_cycle->replay;
  const auto sec = [](std::uint64_t ns) { return 1e-9 * static_cast<double>(ns); };
  rep.metric("fault.reference_s", sec(r.reference_ns), "s");
  rep.metric("fault.screen_s", sec(r.screen_ns), "s");
  rep.metric("fault.ppsfp_s", sec(r.ppsfp_ns), "s");
  rep.metric("fault.fallback_s", sec(r.fallback_ns), "s");
  rep.metric("fault.ppsfp_batches", static_cast<double>(r.batches), "count");
  rep.metric("fault.ppsfp_lane_cycles", static_cast<double>(r.lane_cycles), "count");
  rep.metric("fault.fallback_faults", static_cast<double>(r.fallback_faults), "count");
  rep.metric("fault.fallback_cycles", static_cast<double>(r.fallback_cycles), "count");
  rep.metric("fault.drop_ratio",
             ratio(static_cast<double>(r.dropped), static_cast<double>(r.parallel)), "ratio");
  rep.metric("fault.ns_per_lane_cycle",
             ratio(static_cast<double>(r.ppsfp_ns), static_cast<double>(r.lane_cycles)), "ns");
  rep.metric("fault.ns_per_fallback_cycle",
             ratio(static_cast<double>(r.fallback_ns), static_cast<double>(r.fallback_cycles)),
             "ns");
  const DistSummary batch = summarize(r.batch_ns);
  rep.dist("fault.batch_ns", batch, "ns");
  rep.metric("fault.batch_ns.p50", batch.p50, "ns");
  rep.metric("fault.batch_ns.tail", batch.tail, "ns");
  rep.metric("hdlsim.compile_s", sec(r.compile_ns), "s");
  const double lanes_rate =
      ratio(static_cast<double>(traced_cycle->faults), sec(traced_cycle->campaign_ns));
  const double single_rate = ratio(static_cast<double>(r.faults), sec(r.total_ns()));
  rep.metric("fault.lane_efficiency", ratio(lanes_rate, cfg.lanes * single_rate), "ratio");
  if (full) report_overhead(rep, tracer, "signoff", untraced_s, traced_s);
}

}  // namespace perfbench
