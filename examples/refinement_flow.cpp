// The paper's design flow (Fig. 1), executed end to end: every abstraction
// level runs the same stimulus, each refinement step is revalidated for
// bit accuracy, and the time-quantisation effect (Fig. 7) is shown as the
// single value-changing step in the chain.
//
// Usage: refinement_flow [--trace FILE] [--ledger FILE]
//   --trace FILE    write a Chrome trace-event timeline (chrome://tracing,
//                   Perfetto "open trace file")
//   --ledger FILE   append run-ledger entries (scflow-ledger-1 JSONL): one
//                   per simulated level (kernel counters, per-process
//                   activations) and per verified refinement step, for
//                   tools/scflow_report to render and diff
#include <cstdio>
#include <cstring>
#include <string>

#include "flow/refinement_flow.hpp"

int main(int argc, char** argv) {
  using namespace scflow;

  std::string trace_path, ledger_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (std::strcmp(argv[i], "--ledger") == 0 && i + 1 < argc) {
      ledger_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--trace FILE] [--ledger FILE]\n", argv[0]);
      return 2;
    }
  }

  std::printf("=== Refinement-driven design flow (paper Fig. 1) ===\n\n");
  obs::Session session;
  const auto report = flow::run_refinement_flow(dsp::SrcMode::k44_1To48, 800, &session);
  std::printf("%s\n", flow::format_refinement_report(report).c_str());

  std::printf("Per-level simulation effort for the same stimulus:\n");
  std::printf("  %-22s %14s %14s %14s\n", "level", "sim. cycles", "activations",
              "ctx switches");
  for (const auto& [name, result] : report.level_results) {
    std::printf("  %-22s %14llu %14llu %14llu\n", name.c_str(),
                static_cast<unsigned long long>(result.simulated_cycles),
                static_cast<unsigned long long>(result.stats.process_activations),
                static_cast<unsigned long long>(result.stats.context_switches));
  }
  std::printf("\nNote how the clocked levels activate processes every cycle while\n");
  std::printf("the algorithmic and channel levels only work per sample event —\n");
  std::printf("the mechanism behind the paper's Fig. 8 performance ladder.\n");

  if (!trace_path.empty() || !ledger_path.empty()) {
    session.ledger.meta = obs::collect_run_metadata(argv[0]);
    bool ok = session.dump(trace_path);
    // Append, so one ledger file can collect a whole flow run across
    // tools (refinement_flow, then synthesis_flow, ...) — the header is
    // only written when the file starts empty.
    if (!ledger_path.empty())
      ok = session.ledger.write(ledger_path, /*append=*/true) && ok;
    if (!ok) {
      std::fprintf(stderr, "error: failed to write trace/ledger output\n");
      return 1;
    }
    if (!trace_path.empty()) std::printf("\ntimeline trace: %s\n", trace_path.c_str());
    if (!ledger_path.empty()) std::printf("run ledger: %s\n", ledger_path.c_str());
  }
  return report.all_steps_verified() ? 0 : 1;
}
