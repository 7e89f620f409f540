// The synthesis side of the evaluation: all five SRC architectures go
// through the full flow (word-level passes, bit-blasting, gate
// optimisation, scan insertion) and the Fig. 10 area table is printed.
// The RTL-optimised design is additionally written out as behavioural RTL
// Verilog and as a structural gate-level Verilog netlist.
//
// With --cec, every netlist refinement step (gate optimisation, scan
// insertion) is formally proven equivalence-preserving; per-design check
// stats are printed from the "fig10.<design>.cec.opt|scan" ledger entries.
//
// With --ledger FILE, one run-ledger entry per design synthesis (and per
// CEC proof under --cec) is *appended* to FILE — the same JSONL a prior
// refinement_flow --ledger run started, so one file describes the whole
// flow; render/diff it with tools/scflow_report.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

#include "flow/synthesis_flow.hpp"
#include "obs/session.hpp"
#include "rtl/src_design.hpp"
#include "verilog/writer.hpp"

int main(int argc, char** argv) {
  using namespace scflow;

  bool verify_cec = false;
  std::string ledger_path;
  std::string out_dir = "build/out";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--cec") == 0) {
      verify_cec = true;
    } else if (std::strcmp(argv[i], "--ledger") == 0 && i + 1 < argc) {
      ledger_path = argv[++i];
    } else if (std::strcmp(argv[i], "--out-dir") == 0 && i + 1 < argc) {
      out_dir = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--cec] [--ledger FILE] [--out-dir DIR]\n",
                   argv[0]);
      return 2;
    }
  }

  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  if (ec) {
    std::fprintf(stderr, "error: cannot create --out-dir %s: %s\n",
                 out_dir.c_str(), ec.message().c_str());
    return 1;
  }

  std::printf("=== Synthesis flow: Fig. 10 area comparison ===\n\n");
  obs::Session session;
  flow::SynthesisOptions opts;
  opts.verify_cec = verify_cec;
  const auto rows = flow::figure10_area_rows(&session, opts);
  std::printf("%s\n", flow::format_area_table(rows).c_str());

  if (verify_cec) {
    // One counter of the "cec" entry a check appended under @p design.
    const auto cec = [&session](const std::string& design, const char* counter) {
      for (const obs::LedgerEntry& e : session.ledger.entries())
        if (e.phase == "cec" && e.design == design) return e.counter(counter);
      return std::uint64_t{0};
    };
    std::printf("formal gates: every opt/scan refinement step proven by CEC\n");
    std::printf("%-12s %14s %14s %10s %10s\n", "design", "opt bits", "scan bits",
                "sat calls", "conflicts");
    for (const char* slug :
         {"vhdl_ref", "beh_unopt", "beh_opt", "rtl_unopt", "rtl_opt"}) {
      const std::string opt = std::string("fig10.") + slug + ".cec.opt";
      const std::string scan = std::string("fig10.") + slug + ".cec.scan";
      std::printf("%-12s %14llu %14llu %10llu %10llu\n", slug,
                  static_cast<unsigned long long>(cec(opt, "compare_bits")),
                  static_cast<unsigned long long>(cec(scan, "compare_bits")),
                  static_cast<unsigned long long>(cec(opt, "sat_calls") +
                                                  cec(scan, "sat_calls")),
                  static_cast<unsigned long long>(cec(opt, "sat_conflicts") +
                                                  cec(scan, "sat_conflicts")));
    }
    std::printf("\n");
  }

  // Emit the Verilog artefacts the paper's flow hands to simulation.
  const rtl::Design design = rtl::build_src_design(rtl::rtl_opt_config());
  const std::string rtl_path = out_dir + "/src_rtl_opt.v";
  const std::string gates_path = out_dir + "/src_rtl_opt_gates.v";
  {
    std::ofstream f(rtl_path);
    f << vlog::write_behavioural(design);
    std::printf("wrote behavioural RTL Verilog      -> %s\n", rtl_path.c_str());
  }
  {
    nl::GateOptStats stats;
    const nl::Netlist gates =
        flow::synthesize_to_gates(design, &stats, &session, "synth", opts);
    std::ofstream f(gates_path);
    f << vlog::write_structural(gates);
    std::printf("wrote gate-level structural Verilog -> %s\n", gates_path.c_str());
    std::printf("  gate optimisation: %zu -> %zu cells (%zu rewrites, %d passes)\n",
                stats.cells_before, stats.cells_after, stats.rewrites,
                stats.iterations);
    const auto area = nl::report_area(gates);
    std::printf("  report_area: comb %.1f um^2, seq %.1f um^2, %zu cells, %zu flops\n",
                area.combinational, area.sequential, area.cell_count, area.flop_count);
  }

  if (!ledger_path.empty()) {
    session.ledger.meta = obs::collect_run_metadata(argv[0]);
    if (!session.ledger.write(ledger_path, /*append=*/true)) {
      std::fprintf(stderr, "error: cannot write %s\n", ledger_path.c_str());
      return 1;
    }
    std::printf("run ledger: %s\n", ledger_path.c_str());
  }
  return 0;
}
