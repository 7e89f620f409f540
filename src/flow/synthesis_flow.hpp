// The synthesis flow driver: takes each SRC architecture through
// word-level optimisation, bit-blasting, gate optimisation and scan
// insertion, and produces the Fig. 10 area comparison (relative to the
// VHDL reference = 100 %, memories excluded, scan included).
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "fault/campaign.hpp"
#include "netlist/netlist.hpp"
#include "netlist/opt.hpp"
#include "rtl/ir.hpp"

namespace scflow::obs {
struct Session;
}

namespace scflow::flow {

struct SynthesisOptions {
  /// Formally verify every netlist refinement step: gate optimisation is
  /// CEC'd against its input netlist, scan insertion against the pre-scan
  /// netlist (modulo scan ports).  A failed check throws
  /// formal::EquivalenceError with the counterexample dumped to
  /// "<prefix>.cec_fail.vcd".
  bool verify_cec = false;
};

/// Complete gate-level synthesis of one design (the "SystemC Compiler +
/// Design Compiler" pipeline of the paper).  With @p session, every pass
/// is a trace slice, and one "synth" ledger entry named @p prefix records
/// the per-pass evidence behind the Fig. 10 deltas: cells_before/_after,
/// rewrites, iterations, scan_flops, cells, the output hash, and each
/// pass's wall time as "<pass>_ns" (word_passes, lower, gate_opt,
/// scan_insertion).  With options.verify_cec, the two checks append "cec"
/// entries named "<prefix>.cec.opt" and "<prefix>.cec.scan".  With
/// @p pre_scan_out, the optimised netlist *before* scan insertion is also
/// returned — the scan-stripped twin the testability comparison runs
/// against (scan insertion preserves net ids, so one fault list covers
/// both variants).
nl::Netlist synthesize_to_gates(const rtl::Design& design,
                                nl::GateOptStats* gate_stats = nullptr,
                                scflow::obs::Session* session = nullptr,
                                std::string_view prefix = "synth",
                                const SynthesisOptions& options = {},
                                nl::Netlist* pre_scan_out = nullptr);

/// Per-design stuck-at campaigns riding along with the Fig. 10 synthesis:
/// one shared (collapsed, sampled) fault list per design, simulated once
/// against the scan-inserted endpoint with scan patterns driven and once
/// against the pre-scan twin — the coverage delta is what scan insertion
/// buys in testability.  Their "fault" ledger entries are named
/// "<design>.scan" and "<design>.noscan".
struct FaultOptions {
  bool run = false;  ///< run the campaigns (they cost simulation time)
  fault::CampaignOptions campaign;
  FaultOptions() { campaign.max_faults = 120; }
};

struct AreaRow {
  std::string name;
  nl::AreaReport area;
  double combinational_pct = 0.0;  ///< relative to the reference total
  double sequential_pct = 0.0;
  double total_pct = 0.0;
  std::size_t flops = 0;

  // Filled only when FaultOptions::run was set (-1 = campaign not run).
  double scan_coverage_pct = -1.0;    ///< stuck-at coverage, scan driven
  double noscan_coverage_pct = -1.0;  ///< same fault list, pre-scan netlist
  std::size_t fault_population = 0;   ///< collapsed list size before sampling
  std::size_t faults_simulated = 0;   ///< per campaign (scan and noscan each)
  /// Wall time of the scan+noscan campaign pair — the denominator of
  /// bench_fault's faults_per_s trajectory metric.
  std::uint64_t fault_wall_ns = 0;
};

/// All Fig. 10 designs: the VHDL reference, behavioural unopt/opt (through
/// the hls flow) and RTL unopt/opt — synthesised and normalised to the
/// reference's total area.  With @p session, each design's synthesis
/// appends a "synth" entry named "fig10.<design>", and each design gets
/// one "fig10" ledger entry named "<design>" with the area gauges
/// (comb_um2, seq_um2, total_pct), flops and, for the two behavioural
/// designs, the HLS schedule counters ("hls.steps", "hls.slots", ...).
/// With fault_options.run, each design additionally gets the
/// scan-vs-noscan stuck-at campaign pair, recorded into the same session.
std::vector<AreaRow> figure10_area_rows(scflow::obs::Session* session = nullptr,
                                        const SynthesisOptions& options = {},
                                        const FaultOptions& fault_options = {});

/// Formats the rows as the paper-style table.
std::string format_area_table(const std::vector<AreaRow>& rows);

/// Formats the testability columns (scan vs no-scan stuck-at coverage);
/// empty string when no row carries campaign results.
std::string format_fault_table(const std::vector<AreaRow>& rows);

}  // namespace scflow::flow
