#include "flow/refinement_flow.hpp"

#include <iomanip>
#include <sstream>

#include "dsp/stimulus.hpp"

namespace scflow::flow {

using model::RefinementLevel;
using model::RunOptions;
using model::RunResult;
using P = dsp::SrcParams;

namespace {

RefinementStep compare(const std::string& from, const std::string& to,
                       const RunResult& a, const RunResult& b) {
  RefinementStep s;
  s.from = from;
  s.to = to;
  s.outputs_compared = std::min(a.outputs.size(), b.outputs.size());
  for (std::size_t i = 0; i < s.outputs_compared; ++i)
    if (a.outputs[i] != b.outputs[i]) ++s.mismatches;
  s.bit_accurate = s.mismatches == 0 && a.outputs.size() == b.outputs.size();
  return s;
}

}  // namespace

bool RefinementReport::all_steps_verified() const {
  for (const auto& s : steps) {
    // The quantisation step is *expected* to differ; every other step must
    // be bit-accurate.
    const bool is_quantisation = s.to == "C++ (quantised time)";
    if (!is_quantisation && !s.bit_accurate) return false;
  }
  return true;
}

RefinementReport run_refinement_flow(dsp::SrcMode mode, std::size_t samples,
                                     obs::Session* session) {
  const double in_rate = 1e12 / static_cast<double>(P::input_period_ps(mode));
  const auto inputs = dsp::make_sine_stimulus(samples, 1000.0, in_rate);
  const auto events = dsp::make_schedule(inputs, P::input_period_ps(mode), samples,
                                         P::output_period_ps(mode));

  RefinementReport rep;
  // Stimulus identity shared by every ledger entry of this flow run.
  obs::Fnv1a stim_h;
  stim_h.update_str("refinement-flow-stimulus-v1");
  stim_h.update_u64(static_cast<std::uint64_t>(mode));
  stim_h.update_u64(samples);
  stim_h.update_u64(events.size());
  const std::uint64_t stimulus_hash = stim_h.digest();
  // Runs one level, timed as a "level:<slug>" trace slice, and records its
  // kernel statistics plus per-process activation attribution as one run
  // ledger entry.
  auto run = [&](RefinementLevel level, const char* tag = nullptr,
                 const RunOptions& opt = {}) {
    const std::string slug = tag != nullptr ? tag : model::level_slug(level);
    const std::uint64_t t0 = session != nullptr ? session->trace.now_ns() : 0;
    auto r = model::run_level(level, mode, events, opt);
    if (session != nullptr) {
      obs::Fnv1a opt_h;
      opt_h.update_str("run-options-v1");
      opt_h.update_u64(opt.inject_corner_bug ? 1 : 0);
      opt_h.update_u64(opt.check_ram ? 1 : 0);
      opt_h.update_u64(opt.quantized_time ? 1 : 0);
      obs::LedgerEntry e;
      e.phase = "flow.level";
      e.design = slug;
      e.input_hash = stimulus_hash;
      e.options_fingerprint = opt_h.digest();
      e.duration_ns = session->end_slice("level:" + slug, t0);
      e.add_counter("samples", samples);
      e.add_counter("events", events.size());
      e.add_counter("simulated_cycles", r.simulated_cycles);
      e.add_counter("outputs", r.outputs.size());
      e.add_counter("delta_cycles", r.stats.delta_cycles);
      e.add_counter("timed_steps", r.stats.timed_steps);
      e.add_counter("process_activations", r.stats.process_activations);
      e.add_counter("context_switches", r.stats.context_switches);
      e.add_counter("method_invocations", r.stats.method_invocations);
      e.add_counter("signal_updates", r.stats.signal_updates);
      e.add_counter("events_notified", r.stats.events_notified);
      e.add_counter("events_fired", r.stats.events_fired);
      for (const auto& [proc, n] : r.process_activations)
        e.add_counter("activations." + proc, n);
      session->ledger.append(std::move(e));
      session->trace.counter_event("activations", session->trace.now_ns(),
                                   static_cast<double>(r.stats.process_activations));
    }
    return r;
  };
  // Revalidates one refinement step, timed as a "verify:..." trace slice.
  auto check = [&](const std::string& from, const std::string& to, const RunResult& a,
                   const RunResult& b) {
    const std::uint64_t t0 = session != nullptr ? session->trace.now_ns() : 0;
    RefinementStep s = compare(from, to, a, b);
    if (session != nullptr) {
      obs::LedgerEntry e;
      e.phase = "flow.verify";
      e.design = from + " -> " + to;
      e.input_hash = stimulus_hash;
      e.duration_ns = session->end_slice("verify:" + e.design, t0);
      e.add_counter("outputs_compared", s.outputs_compared);
      e.add_counter("mismatches", s.mismatches);
      e.add_counter("bit_accurate", s.bit_accurate ? 1 : 0);
      session->ledger.append(std::move(e));
    }
    rep.steps.push_back(std::move(s));
  };
  RunOptions quantised;
  quantised.quantized_time = true;

  const auto cpp = run(RefinementLevel::kAlgorithmicCpp);
  const auto chan = run(RefinementLevel::kChannelSystemC);
  const auto cpp_q = run(RefinementLevel::kAlgorithmicCpp, "cpp_quantised", quantised);
  const auto beh_u = run(RefinementLevel::kBehUnopt);
  const auto beh_o = run(RefinementLevel::kBehOpt);
  const auto rtl_u = run(RefinementLevel::kRtlUnopt);
  const auto rtl_o = run(RefinementLevel::kRtlOpt);

  check("C++ (algorithmic)", "SystemC (channels)", cpp, chan);
  check("C++ (algorithmic)", "C++ (quantised time)", cpp, cpp_q);
  check("C++ (quantised time)", "Behavioural (unopt)", cpp_q, beh_u);
  check("Behavioural (unopt)", "Behavioural (opt)", beh_u, beh_o);
  check("Behavioural (opt)", "RTL (unopt)", beh_o, rtl_u);
  check("RTL (unopt)", "RTL (opt)", rtl_u, rtl_o);

  rep.level_results.emplace_back("C++ (algorithmic)", cpp);
  rep.level_results.emplace_back("SystemC (channels)", chan);
  rep.level_results.emplace_back("Behavioural (unopt)", beh_u);
  rep.level_results.emplace_back("Behavioural (opt)", beh_o);
  rep.level_results.emplace_back("RTL (unopt)", rtl_u);
  rep.level_results.emplace_back("RTL (opt)", rtl_o);
  return rep;
}

std::string format_refinement_report(const RefinementReport& report) {
  std::ostringstream os;
  os << "Refinement chain revalidation (paper Fig. 1 methodology)\n\n";
  for (const auto& s : report.steps) {
    os << "  " << std::left << std::setw(22) << s.from << " -> " << std::setw(22)
       << s.to;
    if (s.bit_accurate) {
      os << " bit-accurate over " << s.outputs_compared << " outputs\n";
    } else {
      os << " " << s.mismatches << "/" << s.outputs_compared
         << " outputs differ (time quantisation, paper Fig. 7)\n";
    }
  }
  os << "\n  chain verified: " << (report.all_steps_verified() ? "yes" : "NO") << "\n";
  return os.str();
}

}  // namespace scflow::flow
