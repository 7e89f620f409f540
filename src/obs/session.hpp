// An observability session: one TraceWriter, one SpanSet and one run
// Ledger.  The flow drivers, engines and benches take an optional
// Session* and, when given, record step timings as trace slices,
// cross-thread batch jobs as spans, and one ledger entry per engine
// invocation — the ledger is the run's only metric schema; the caller
// then dumps trace.json / ledger.jsonl.
#pragma once

#include <cstdint>
#include <string>

#include "obs/ledger.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"

namespace scflow::obs {

struct Session {
  TraceWriter trace;
  SpanSet spans;
  Ledger ledger;

  /// Closes a timed step that began at @p start_ns (a trace.now_ns()
  /// stamp): emits it as a complete "timer" slice and returns its length,
  /// for the step's ledger entry ("duration_ns" or a "<step>_ns" counter).
  std::uint64_t end_slice(std::string name, std::uint64_t start_ns) {
    const std::uint64_t dur = trace.now_ns() - start_ns;
    trace.complete_event(std::move(name), "timer", start_ns, dur);
    return dur;
  }

  /// Exports pending spans into the trace, then writes the requested
  /// artifacts; empty paths are skipped.  Returns false if any requested
  /// write failed.
  bool dump(const std::string& trace_path, const std::string& ledger_path = {}) {
    bool ok = true;
    if (!trace_path.empty()) {
      spans.export_to(trace);
      ok = trace.write_file(trace_path);
    }
    if (!ledger_path.empty()) ok = ledger.write(ledger_path) && ok;
    return ok;
  }
};

}  // namespace scflow::obs
