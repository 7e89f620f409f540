// The run ledger: the flow's one metric schema.  An append-only JSONL
// artifact where every engine invocation (refinement-flow level and
// verify step, synthesis, Fig. 10 area row, CEC, fault and SEU campaign,
// service run) records one schema-versioned entry — {phase, design,
// input content-hash, options fingerprint, duration, counters, gauges,
// histograms}.  The first line is a header stamping {schema, rev, host,
// hw_threads, tool}; each following line is one entry, so runs can
// append to a shared file and tools can stream it line-by-line.
//
// Determinism contract: entries are built EXPLICITLY by the engines from
// their deterministic result counters, so data that depends on
// scheduling or on the fault engine (per-lane job counts and latencies,
// PPSFP drop accounting) stays out — it lives in trace spans and result
// structs.  All timing lives in fields/keys that name nanoseconds
// ("duration_ns", "*_ns"), which diff and the thread-sweep tests exclude
// — everything else must be bit-identical across reruns and thread
// counts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/histogram.hpp"

namespace scflow::obs {

inline constexpr std::string_view kLedgerSchema = "scflow-ledger-1";

/// Streaming FNV-1a 64-bit hash — the flow's content-hash / options-
/// fingerprint primitive (stable across platforms and runs).
class Fnv1a {
 public:
  void update_bytes(const void* data, std::size_t n);
  void update_u64(std::uint64_t v);
  void update_str(std::string_view s);  ///< length-prefixed (no concat ambiguity)
  [[nodiscard]] std::uint64_t digest() const { return h_; }
  /// Resumes a streaming hash from a previously observed digest (FNV-1a's
  /// running state IS its digest) — snapshot/restore of per-session
  /// output hashes in the serve resilience layer rides on this.
  void restore_digest(std::uint64_t digest) { h_ = digest; }

 private:
  std::uint64_t h_ = 14695981039346656037ULL;
};

/// Provenance stamped into ledger headers and bench context: git SHA
/// (SCFLOW_GIT_REV env or "unknown"), hostname, hardware thread count.
struct RunMetadata {
  std::string rev = "unknown";
  std::string host = "unknown";
  unsigned hw_threads = 0;
  std::string tool;
};

/// Collects RunMetadata for the current process.
[[nodiscard]] RunMetadata collect_run_metadata(std::string tool);

/// One engine invocation.  Metric vectors keep insertion order in memory
/// but serialize sorted by name, so two runs that record the same
/// metrics in different orders still emit identical lines.
struct LedgerEntry {
  std::string phase;   ///< "flow.level", "synth", "fig10", "cec", "fault", "seu", "serve.run", ...
  std::string design;  ///< design / step label
  std::uint64_t input_hash = 0;           ///< content hash of the engine's input
  std::uint64_t options_fingerprint = 0;  ///< hash of semantic options only
  std::uint64_t duration_ns = 0;

  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<std::pair<std::string, Histogram>> histograms;

  void add_counter(std::string name, std::uint64_t value) {
    counters.emplace_back(std::move(name), value);
  }
  void add_gauge(std::string name, double value) {
    gauges.emplace_back(std::move(name), value);
  }
  void add_histogram(std::string name, Histogram h) {
    histograms.emplace_back(std::move(name), std::move(h));
  }
  [[nodiscard]] std::uint64_t counter(std::string_view name) const;  ///< 0 if absent

  /// One JSON object (no trailing newline).  With @p strip_timing, the
  /// duration and every "*_ns" metric are omitted and "*_ns" histograms
  /// reduce to their count — the deterministic projection the
  /// thread-sweep bit-identity test compares.
  [[nodiscard]] std::string to_json(bool strip_timing = false) const;
};

/// In-memory ledger.  An engine appends entries as it runs; the owner
/// writes the JSONL at the end (or incrementally via write(append)).
class Ledger {
 public:
  Ledger() = default;
  Ledger(const Ledger&) = delete;
  Ledger& operator=(const Ledger&) = delete;

  RunMetadata meta;

  void append(LedgerEntry entry) { entries_.push_back(std::move(entry)); }
  [[nodiscard]] const std::vector<LedgerEntry>& entries() const { return entries_; }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }

  /// Full JSONL image (header line + one line per entry).
  [[nodiscard]] std::string to_jsonl(bool strip_timing = false) const;

  /// Writes the JSONL to @p path.  With @p append and a non-empty
  /// existing file, entries are appended without a second header.
  bool write(const std::string& path, bool append = false) const;

 private:
  std::vector<LedgerEntry> entries_;
};

/// One line the lenient parser had to skip (truncated tail, bit flip,
/// partial write): where and why, so tools can report it precisely.
struct MalformedLine {
  std::size_t line_no = 0;  ///< 1-based; 0 flags a file-level problem
  std::string error;
};

/// A ledger read back from disk.
struct LoadedLedger {
  RunMetadata meta;
  std::vector<LedgerEntry> entries;
  std::vector<MalformedLine> malformed;  ///< populated in lenient mode only
};

/// Parses a ledger JSONL file.  Strict mode (default): returns false
/// (with *error) on I/O or schema problems; every line must be valid
/// JSON of the right shape.  Lenient mode (@p skip_malformed): damaged
/// lines — truncated tails, bit flips, partial writes — are skipped and
/// recorded in LoadedLedger::malformed with their line numbers, every
/// intact entry is kept, and the call fails only when the file cannot
/// be read at all.
[[nodiscard]] bool load_ledger(const std::string& path, LoadedLedger* out,
                               std::string* error = nullptr,
                               bool skip_malformed = false);
/// Same, from an in-memory JSONL string.
[[nodiscard]] bool parse_ledger(std::string_view jsonl, LoadedLedger* out,
                                std::string* error = nullptr,
                                bool skip_malformed = false);

/// One metric difference between matched entries.
struct MetricDelta {
  std::string entry;   ///< "phase/design[#k]"
  std::string metric;  ///< counter/gauge/hash field name
  double a = 0.0;
  double b = 0.0;
};

/// Result of diffing two ledgers.  Entries match by (phase, design,
/// occurrence index); timing metrics ("duration_ns", "*_ns" keys) are
/// reported separately and never make a diff unclean.
struct LedgerDiff {
  std::vector<std::string> only_a;       ///< entry keys present only in A
  std::vector<std::string> only_b;       ///< entry keys present only in B
  std::vector<MetricDelta> deltas;       ///< gating: counters/gauges/hashes/histograms
  std::vector<MetricDelta> timing_only;  ///< informational: timing drift

  /// True iff the ledgers agree on everything except timing.
  [[nodiscard]] bool clean() const {
    return only_a.empty() && only_b.empty() && deltas.empty();
  }
};

[[nodiscard]] LedgerDiff diff_ledgers(const LoadedLedger& a, const LoadedLedger& b);

/// Per-phase table: entries grouped by phase with design, duration,
/// hashes and headline counters.
[[nodiscard]] std::string format_ledger_table(const LoadedLedger& ledger);
/// Histogram summaries ("phase/design metric: n=.. p50=.. ..") for every
/// entry that carries histograms.
[[nodiscard]] std::string format_ledger_histograms(const LoadedLedger& ledger);
/// Human rendering of a diff (empty-string when fully identical
/// including timing).
[[nodiscard]] std::string format_diff(const LedgerDiff& diff);

/// True for metric names that denote wall-clock timing and are excluded
/// from diff gating: "duration_ns" and any name ending in "_ns".
[[nodiscard]] bool is_timing_metric(std::string_view name);

}  // namespace scflow::obs
