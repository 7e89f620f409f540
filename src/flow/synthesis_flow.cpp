#include "flow/synthesis_flow.hpp"

#include <algorithm>
#include <chrono>
#include <iomanip>
#include <optional>
#include <sstream>

#include "formal/cec.hpp"
#include "hls/src_beh.hpp"
#include "netlist/lower.hpp"
#include "obs/session.hpp"
#include "rtl/passes.hpp"
#include "rtl/src_design.hpp"

namespace scflow::flow {

namespace obs = scflow::obs;

namespace {

std::uint64_t synthesis_fingerprint(const SynthesisOptions& options) {
  obs::Fnv1a h;
  h.update_str("synthesis-options-v1");
  h.update_u64(options.verify_cec ? 1 : 0);
  return h.digest();
}

/// The scheduling/allocation outcome of a behavioural design: steps,
/// slots, temp_regs (left-edge allocation result), scheduled_ops, and the
/// peak functional units bound, i.e. the shared-datapath width.
void add_schedule_counters(obs::LedgerEntry& e, const hls::Schedule& s) {
  e.add_counter("hls.steps", static_cast<std::uint64_t>(s.num_steps));
  e.add_counter("hls.slots", static_cast<std::uint64_t>(s.num_slots));
  e.add_counter("hls.temp_regs", s.temp_regs.size());
  std::uint64_t ops = 0;
  for (const int step : s.step_of) ops += step >= 0 ? 1 : 0;
  e.add_counter("hls.scheduled_ops", ops);
  const auto peak = [](const std::vector<int>& use) {
    int m = 0;
    for (const int u : use) m = std::max(m, u);
    return static_cast<std::uint64_t>(m);
  };
  e.add_counter("hls.fu_mult", peak(s.mult_use));
  e.add_counter("hls.fu_alu", peak(s.alu_use));
  e.add_counter("hls.fu_ram_ports", peak(s.ram_use));
  e.add_counter("hls.fu_rom_ports", peak(s.rom_use));
}

}  // namespace

nl::Netlist synthesize_to_gates(const rtl::Design& design, nl::GateOptStats* gate_stats,
                                obs::Session* session, std::string_view prefix,
                                const SynthesisOptions& options,
                                nl::Netlist* pre_scan_out) {
  const std::string p(prefix);
  const std::uint64_t t0 = session != nullptr ? session->trace.now_ns() : 0;
  obs::LedgerEntry entry;  // filled only with a session
  // Runs one pass; with a session it becomes a trace slice and the
  // entry's "<pass>_ns" counter.
  const auto step = [&](const char* name, auto&& pass) {
    if (session == nullptr) return pass();
    const std::uint64_t s0 = session->trace.now_ns();
    auto out = pass();
    entry.add_counter(std::string(name) + "_ns", session->end_slice(name, s0));
    return out;
  };
  // Snapshots of each refinement step's input, kept only when the formal
  // gate is on or the caller wants the scan-stripped twin (netlists copy
  // cheaply: three vectors of PODs + port names).
  std::optional<nl::Netlist> pre_opt, pre_scan;
  const bool keep_pre_scan = options.verify_cec || pre_scan_out != nullptr;

  nl::GateOptStats local_stats;
  nl::GateOptStats* stats = gate_stats != nullptr ? gate_stats : &local_stats;
  rtl::PassOptions word_opts;  // constant fold + CSE + DCE for every design
  const rtl::Design optimised =
      step("word_passes", [&] { return rtl::run_passes(design, word_opts); });
  nl::Netlist gates = step("lower", [&] { return nl::lower_to_gates(optimised, {}); });
  // Input identity for the run ledger: the freshly lowered (pre-opt)
  // netlist is a deterministic function of the design, so its content
  // hash keys the whole pipeline without an rtl::Design serializer.
  const std::uint64_t lowered_hash = session != nullptr ? nl::content_hash(gates) : 0;
  if (options.verify_cec) pre_opt = gates;
  gates = step("gate_opt", [&] { return nl::optimize_gates(gates, stats); });
  if (keep_pre_scan) pre_scan = gates;
  const std::size_t scan_flops =
      step("scan_insertion", [&] { return nl::insert_scan_chain(gates); });
  gates.validate();

  if (session != nullptr) {
    entry.phase = "synth";
    entry.design = p;
    entry.input_hash = lowered_hash;
    entry.options_fingerprint = synthesis_fingerprint(options);
    entry.duration_ns = session->end_slice(p, t0);
    entry.add_counter("cells_before", stats->cells_before);
    entry.add_counter("cells_after", stats->cells_after);
    entry.add_counter("rewrites", stats->rewrites);
    entry.add_counter("iterations", static_cast<std::uint64_t>(stats->iterations));
    entry.add_counter("scan_flops", scan_flops);
    entry.add_counter("cells", gates.cells().size());
    entry.add_counter("output_hash", nl::content_hash(gates));
    session->ledger.append(std::move(entry));
  }

  if (options.verify_cec) {
    // Formal gate on each refinement step: throws EquivalenceError (with
    // the counterexample dumped as VCD) if a pass changed behaviour.
    const std::string fail_vcd = p + ".cec_fail.vcd";
    formal::CecOptions opt_check;
    opt_check.metric_prefix = p + ".cec.opt";
    formal::assert_equivalent(*pre_opt, *pre_scan, session, opt_check, fail_vcd);
    formal::CecOptions scan_check = formal::CecOptions::scan_modulo();
    scan_check.metric_prefix = p + ".cec.scan";
    formal::assert_equivalent(*pre_scan, gates, session, scan_check, fail_vcd);
  }
  if (pre_scan_out != nullptr) *pre_scan_out = std::move(*pre_scan);
  return gates;
}

std::vector<AreaRow> figure10_area_rows(obs::Session* session,
                                        const SynthesisOptions& options,
                                        const FaultOptions& fault_options) {
  struct Entry {
    std::string label;
    std::string slug;  // ledger-friendly name
    rtl::Design design;
    std::optional<hls::Schedule> schedule;
  };
  std::vector<Entry> entries;
  entries.push_back(
      {"VHDL-Ref", "vhdl_ref", rtl::build_src_design(rtl::vhdl_ref_config()), {}});
  hls::Schedule beh_u_sched, beh_o_sched;
  entries.push_back({"BEH unopt.", "beh_unopt",
                     hls::build_beh_src_design(hls::beh_unopt_config(), &beh_u_sched),
                     beh_u_sched});
  entries.push_back({"BEH opt.", "beh_opt",
                     hls::build_beh_src_design(hls::beh_opt_config(), &beh_o_sched),
                     beh_o_sched});
  entries.push_back(
      {"RTL unopt.", "rtl_unopt", rtl::build_src_design(rtl::rtl_unopt_config()), {}});
  entries.push_back(
      {"RTL opt.", "rtl_opt", rtl::build_src_design(rtl::rtl_opt_config()), {}});

  std::vector<AreaRow> rows;
  for (auto& e : entries) {
    AreaRow row;
    row.name = e.label;
    nl::Netlist pre_scan("");
    const nl::Netlist gates =
        synthesize_to_gates(e.design, nullptr, session, "fig10." + e.slug, options,
                            fault_options.run ? &pre_scan : nullptr);
    row.area = nl::report_area(gates);
    row.flops = row.area.flop_count;
    // The VHDL reference comes first; every row is relative to its total.
    const double ref_total = rows.empty() ? row.area.total() : rows.front().area.total();
    row.combinational_pct = 100.0 * row.area.combinational / ref_total;
    row.sequential_pct = 100.0 * row.area.sequential / ref_total;
    row.total_pct = 100.0 * row.area.total() / ref_total;
    if (session != nullptr) {
      obs::LedgerEntry fig;
      fig.phase = "fig10";
      fig.design = e.slug;
      fig.input_hash = nl::content_hash(gates);
      fig.options_fingerprint = synthesis_fingerprint(options);
      fig.add_gauge("comb_um2", row.area.combinational);
      fig.add_gauge("seq_um2", row.area.sequential);
      fig.add_gauge("total_pct", row.total_pct);
      fig.add_counter("flops", row.flops);
      if (e.schedule) add_schedule_counters(fig, *e.schedule);
      session->ledger.append(std::move(fig));
    }
    if (fault_options.run) {
      // One fault universe per design, enumerated on the pre-scan netlist
      // (scan insertion preserves net ids, so the same list is valid on
      // both variants) — the scan/no-scan coverage delta is then an
      // apples-to-apples testability measurement.
      fault::FaultListStats stats;
      std::vector<fault::Fault> list = fault::enumerate_stuck_faults(pre_scan, &stats);
      const std::size_t population = list.size();
      list = fault::sample_faults(list, fault_options.campaign.max_faults);

      fault::CampaignOptions co = fault_options.campaign;
      const auto fault_t0 = std::chrono::steady_clock::now();
      co.use_scan = true;
      co.metric_prefix = "fault." + e.slug + ".scan";
      const fault::CampaignResult with_scan =
          fault::run_campaign(gates, list, co, session, &stats);
      co.use_scan = false;
      co.metric_prefix = "fault." + e.slug + ".noscan";
      const fault::CampaignResult no_scan =
          fault::run_campaign(pre_scan, list, co, session, &stats);
      row.fault_wall_ns = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - fault_t0)
              .count());
      row.scan_coverage_pct = with_scan.coverage_pct();
      row.noscan_coverage_pct = no_scan.coverage_pct();
      row.fault_population = population;
      row.faults_simulated = list.size();
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

std::string format_area_table(const std::vector<AreaRow>& rows) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(1);
  os << "Figure 10: area relative to the VHDL reference (= 100 %)\n";
  os << "(memories excluded, scan chain included)\n\n";
  os << std::left << std::setw(12) << "design" << std::right << std::setw(12)
     << "comb [um^2]" << std::setw(12) << "seq [um^2]" << std::setw(8) << "flops"
     << std::setw(10) << "comb %" << std::setw(9) << "seq %" << std::setw(10)
     << "total %" << "\n";
  for (const AreaRow& r : rows) {
    os << std::left << std::setw(12) << r.name << std::right << std::setw(12)
       << r.area.combinational << std::setw(12) << r.area.sequential << std::setw(8)
       << r.flops << std::setw(10) << r.combinational_pct << std::setw(9)
       << r.sequential_pct << std::setw(10) << r.total_pct << "\n";
  }
  return os.str();
}

std::string format_fault_table(const std::vector<AreaRow>& rows) {
  bool any = false;
  for (const AreaRow& r : rows) any = any || r.scan_coverage_pct >= 0.0;
  if (!any) return "";
  std::ostringstream os;
  os << std::fixed << std::setprecision(1);
  os << "Stuck-at coverage: scan-inserted endpoint vs pre-scan twin\n";
  os << "(shared collapsed fault list per design; sampled when capped)\n\n";
  os << std::left << std::setw(12) << "design" << std::right << std::setw(12)
     << "population" << std::setw(11) << "simulated" << std::setw(10) << "scan %"
     << std::setw(11) << "noscan %" << std::setw(10) << "delta" << "\n";
  for (const AreaRow& r : rows) {
    if (r.scan_coverage_pct < 0.0) continue;
    os << std::left << std::setw(12) << r.name << std::right << std::setw(12)
       << r.fault_population << std::setw(11) << r.faults_simulated << std::setw(10)
       << r.scan_coverage_pct << std::setw(11) << r.noscan_coverage_pct
       << std::setw(10) << r.scan_coverage_pct - r.noscan_coverage_pct << "\n";
  }
  return os.str();
}

}  // namespace scflow::flow
