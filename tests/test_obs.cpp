// Tests for the observability layer: JSON escaping, the structural
// validator and the parser's escape / UTF-8 paths, the Chrome trace-event
// writer, and the Session that ties trace and run ledger together.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "obs/json.hpp"
#include "obs/ledger.hpp"
#include "obs/session.hpp"
#include "obs/trace.hpp"

namespace scflow::obs {
namespace {

// --- JSON escaping -------------------------------------------------------

TEST(JsonEscape, PassesPlainTextThrough) {
  EXPECT_EQ(json_escape("counter.name_0"), "counter.name_0");
}

TEST(JsonEscape, EscapesQuotesAndBackslash) {
  EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
}

TEST(JsonEscape, EscapesControlCharacters) {
  EXPECT_EQ(json_escape("a\nb\tc\rd"), "a\\nb\\tc\\rd");
  EXPECT_EQ(json_escape(std::string("\x01", 1)), "\\u0001");
  EXPECT_EQ(json_escape(std::string("\x1f", 1)), "\\u001f");
}

TEST(JsonEscape, LeavesUtf8Alone) {
  EXPECT_EQ(json_escape("müx/µs"), "müx/µs");
}

// --- structural validator ------------------------------------------------

TEST(JsonValidate, AcceptsWellFormedDocuments) {
  EXPECT_TRUE(json_validate("{}"));
  EXPECT_TRUE(json_validate("[]"));
  EXPECT_TRUE(json_validate(R"({"a":[1,2.5,-3e2,true,false,null,"s\n"]})"));
  EXPECT_TRUE(json_validate("  [ { } , [ ] ]  "));
}

TEST(JsonValidate, RejectsMalformedDocuments) {
  std::string err;
  EXPECT_FALSE(json_validate("", &err));
  EXPECT_FALSE(json_validate("{", &err));
  EXPECT_FALSE(json_validate("{\"a\":}", &err));
  EXPECT_FALSE(json_validate("[1,]", &err));
  EXPECT_FALSE(json_validate("{} trailing", &err));
  EXPECT_FALSE(json_validate("[01]", &err));       // leading zero
  EXPECT_FALSE(json_validate("\"\\x\"", &err));    // bad escape
  EXPECT_FALSE(json_validate("nul", &err));
  EXPECT_FALSE(err.empty());
}

// --- parser: escapes and UTF-8 --------------------------------------------

// json_parse(json_escape(s)) must give back s byte for byte — the ledger's
// string fields (designs, phases, tool names) ride on this round trip.
std::string parse_string_literal(const std::string& escaped) {
  JsonValue v;
  std::string err;
  EXPECT_TRUE(json_parse("\"" + escaped + "\"", &v, &err)) << err << ": " << escaped;
  EXPECT_EQ(v.kind, JsonValue::Kind::kString);
  return v.string;
}

TEST(JsonParse, EscapeRoundTripsControlBytesQuotesAndUtf8) {
  for (int c = 0x00; c <= 0x1f; ++c) {
    const std::string s = "a" + std::string(1, static_cast<char>(c)) + "b";
    EXPECT_EQ(parse_string_literal(json_escape(s)), s) << "byte " << c;
  }
  for (const std::string s : {"\"", "\\", "q\"u\\o\"te"})
    EXPECT_EQ(parse_string_literal(json_escape(s)), s);
  // 2-, 3- and 4-byte UTF-8 sequences: é, €, 😀.
  for (const std::string s : {"caf\xc3\xa9", "\xe2\x82\xac 5", "\xf0\x9f\x98\x80!",
                              "\xc3\xa9\xe2\x82\xac\xf0\x9f\x98\x80"})
    EXPECT_EQ(parse_string_literal(json_escape(s)), s);
}

TEST(JsonParse, DecodesUnicodeEscapesToUtf8) {
  EXPECT_EQ(parse_string_literal("\\u00e9"), "\xc3\xa9");
  EXPECT_EQ(parse_string_literal("\\u20ac"), "\xe2\x82\xac");
  EXPECT_EQ(parse_string_literal("\\ud83d\\ude00"), "\xf0\x9f\x98\x80");
  EXPECT_EQ(parse_string_literal("x\\u0041\\u00e9\\ud83d\\ude00y"),
            "xA\xc3\xa9\xf0\x9f\x98\x80y");
}

// --- trace writer --------------------------------------------------------

TEST(TraceWriterTest, EmitsWellFormedChromeTraceJson) {
  TraceWriter tw;
  tw.complete_event("slice \"x\"", "flow", 1000, 2500);
  tw.instant_event("marker", "flow", 4000, 2);
  tw.counter_event("activations", 5000, 42.0);
  EXPECT_EQ(tw.event_count(), 3u);

  const std::string json = tw.to_json();
  std::string err;
  EXPECT_TRUE(json_validate(json, &err)) << err << "\n" << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  // ns -> us conversion: 2500 ns slice is a 2.5 us duration.
  EXPECT_NE(json.find("\"dur\":2.500"), std::string::npos);
}

TEST(TraceWriterTest, FlowEventsCarrySharedIds) {
  TraceWriter tw;
  tw.flow_start("link", "flow", 1000, 0, 42);
  tw.flow_end("link", "flow", 3000, 3, 42);
  const std::string json = tw.to_json();
  std::string err;
  EXPECT_TRUE(json_validate(json, &err)) << err << "\n" << json;
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
  // Binding point "enclosing slice" keeps the arrow attached to the
  // consuming slice in Perfetto.
  EXPECT_NE(json.find("\"bp\":\"e\""), std::string::npos);
  EXPECT_EQ(json.find("\"id\":42", json.find("\"id\":42") + 1) != std::string::npos, true);
}

TEST(TraceWriterTest, ClockIsMonotoneFromEpoch) {
  TraceWriter tw;
  const auto a = tw.now_ns();
  const auto b = tw.now_ns();
  EXPECT_GE(b, a);
}

// --- session --------------------------------------------------------------

TEST(SessionTest, DumpWritesBothArtifacts) {
  Session s;
  LedgerEntry e;
  e.phase = "test";
  e.design = "w";
  e.duration_ns = s.end_slice("w", s.trace.now_ns());
  e.add_counter("n", 1);
  s.ledger.append(std::move(e));
  EXPECT_EQ(s.trace.event_count(), 1u);  // end_slice emitted one slice

  const std::string tp = ::testing::TempDir() + "obs_trace.json";
  const std::string lp = ::testing::TempDir() + "obs_ledger.jsonl";
  std::remove(lp.c_str());
  ASSERT_TRUE(s.dump(tp, lp));
  std::ifstream in(tp);
  std::stringstream buf;
  buf << in.rdbuf();
  std::string err;
  EXPECT_TRUE(json_validate(buf.str(), &err)) << tp << ": " << err;
  EXPECT_NE(buf.str().find("\"name\":\"w\""), std::string::npos);
  LoadedLedger back;
  ASSERT_TRUE(load_ledger(lp, &back, &err)) << lp << ": " << err;
  ASSERT_EQ(back.entries.size(), 1u);
  EXPECT_EQ(back.entries[0].counter("n"), 1u);
  std::remove(tp.c_str());
  std::remove(lp.c_str());
}

}  // namespace
}  // namespace scflow::obs
