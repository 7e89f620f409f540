// Figure 10: gate-level area of the SRC designs relative to the VHDL
// reference implementation (= 100 %), split into combinational and
// sequential cells.  Memories are excluded (identical macros in every
// implementation); the scan chain is included.  This regenerates the
// paper's bar chart as a table.
//
// Paper values: BEH unopt 127.5 %, the optimised SystemC implementations
// *below* 100 %, even RTL-unopt below the reference, comb(BEH opt) ~
// comb(RTL opt), RTL savings from registers.
// `--ledger FILE` writes the run ledger for scflow_report to render and
// diff: one "synth" entry per design synthesis (input/output netlist
// hashes, pass-by-pass cell deltas, scan flops, per-pass wall times) and
// one "fig10" entry per design (the area gauges that build the table
// below, flops, HLS scheduling stats).
#include <cstdio>
#include <cstring>
#include <string>

#include "flow/synthesis_flow.hpp"
#include "obs/session.hpp"

int main(int argc, char** argv) {
  std::string ledger_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--ledger") == 0 && i + 1 < argc) {
      ledger_path = argv[++i];
    } else if (std::strncmp(argv[i], "--ledger=", 9) == 0) {
      ledger_path = argv[i] + 9;
    } else {
      std::fprintf(stderr, "usage: %s [--ledger FILE]\n", argv[0]);
      return 2;
    }
  }

  scflow::obs::Session session;
  const auto rows =
      scflow::flow::figure10_area_rows(ledger_path.empty() ? nullptr : &session);
  std::printf("%s", scflow::flow::format_area_table(rows).c_str());

  std::printf("\npaper (DATE 2004, 0.25u, Synopsys):   measured (this substrate):\n");
  std::printf("  VHDL-Ref    100.0 %%                    %6.1f %%\n", rows[0].total_pct);
  std::printf("  BEH unopt.  127.5 %%                    %6.1f %%\n", rows[1].total_pct);
  std::printf("  BEH opt.     < 100 %%                   %6.1f %%\n", rows[2].total_pct);
  std::printf("  RTL unopt.   < 100 %%                   %6.1f %%\n", rows[3].total_pct);
  std::printf("  RTL opt.    smallest                   %6.1f %%\n", rows[4].total_pct);

  const bool shape_holds =
      rows[1].total_pct > 100.0 && rows[2].total_pct < 100.0 &&
      rows[3].total_pct < 100.0 && rows[4].total_pct < rows[3].total_pct &&
      rows[2].sequential_pct > rows[4].sequential_pct;
  std::printf("\nFig. 10 shape holds: %s\n", shape_holds ? "yes" : "NO");

  if (!ledger_path.empty()) {
    session.ledger.meta = scflow::obs::collect_run_metadata(argv[0]);
    if (!session.ledger.write(ledger_path)) {
      std::fprintf(stderr, "error: cannot write %s\n", ledger_path.c_str());
      return 1;
    }
    std::printf("run ledger: %s\n", ledger_path.c_str());
  }
  return shape_holds ? 0 : 1;
}
