// Unit tests for the herd_lint analysis engine (src/analysis/): tokenizer
// edge cases, per-TU indexing, call-graph taint propagation, rule verdicts
// and diagnostics, and the planted fixtures' expected verdicts.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "analysis/callgraph.hpp"
#include "analysis/engine.hpp"
#include "analysis/index.hpp"
#include "analysis/lexer.hpp"

namespace {

using namespace herd::analysis;
namespace fs = std::filesystem;

std::vector<std::string> idents(const TokenStream& ts) {
  std::vector<std::string> out;
  for (const Token& t : ts.tokens) {
    if (t.kind == Tok::kIdent) out.emplace_back(t.text);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

TEST(Lexer, StripsLineAndBlockComments) {
  TokenStream ts = lex("int a; // trailing rand()\nint /* rand */ b;\n");
  EXPECT_EQ(idents(ts), (std::vector<std::string>{"int", "a", "int", "b"}));
  EXPECT_EQ(ts.tokens.back().line, 2u);  // `b;` sits on line 2
}

TEST(Lexer, BlankedStringContentsKeepLineCount) {
  TokenStream ts = lex("auto s = \"rand() // not a comment\";\nint x;\n");
  EXPECT_EQ(idents(ts), (std::vector<std::string>{"auto", "s", "int", "x"}));
  ASSERT_EQ(ts.tokens[3].kind, Tok::kString);
  EXPECT_EQ(ts.tokens[3].text, "\"rand() // not a comment\"");
  ASSERT_EQ(ts.tokens.back().text, ";");
  EXPECT_EQ(ts.tokens.back().line, 2u);
}

TEST(Lexer, RawStringWithCustomDelimiter) {
  TokenStream ts =
      lex("auto s = R\"ab( \"not the end\" )\" still raw )ab\"; int z;");
  ASSERT_EQ(ts.tokens[3].kind, Tok::kString);
  EXPECT_EQ(ts.tokens[3].text, "R\"ab( \"not the end\" )\" still raw )ab\"");
  std::vector<std::string> ids = idents(ts);
  ASSERT_EQ(ids.size(), 4u);
  EXPECT_EQ(ids[3], "z");
}

TEST(Lexer, DigitSeparatorsStayOneNumberToken) {
  TokenStream ts = lex("auto n = 1'000'000 + 0x1F'FF;");
  std::vector<std::string> nums;
  for (const Token& t : ts.tokens) {
    if (t.kind == Tok::kNumber) nums.emplace_back(t.text);
  }
  EXPECT_EQ(nums, (std::vector<std::string>{"1'000'000", "0x1F'FF"}));
}

TEST(Lexer, NestedTemplateCloserSplitsForFolding) {
  // `>>` lexes as one token; matching angle brackets splits it, so it
  // closes both template argument lists.
  TokenStream ts = lex("std::vector<std::vector<int>> v; f((a), b);");
  ASSERT_EQ(ts.tokens[9].text, ">>");
  EXPECT_EQ(match_bracket(ts.tokens, 3), 9u);  // outer `<`
  EXPECT_EQ(match_bracket(ts.tokens, 7), 9u);  // inner `<`
  ASSERT_EQ(ts.tokens[13].text, "(");
  EXPECT_EQ(ts.tokens[match_bracket(ts.tokens, 13)].text, ")");
  EXPECT_EQ(match_bracket(ts.tokens, 13), 19u);
  TokenStream open = lex("f((a);");
  EXPECT_EQ(match_bracket(open.tokens, 1), open.tokens.size());  // unbalanced
}

TEST(Lexer, LineContinuationKeepsLineNumbers) {
  TokenStream ts = lex("#define FOO \\\n  rand\nint after;");
  ASSERT_GE(ts.tokens.size(), 2u);
  // `rand` belongs to the continued directive line and is marked preproc.
  for (const Token& t : ts.tokens) {
    if (t.text == "rand") {
      EXPECT_TRUE(t.preproc);
    }
    if (t.text == "after") {
      EXPECT_FALSE(t.preproc);
      EXPECT_EQ(t.line, 3u);
    }
  }
}

TEST(Lexer, CharLiteralAndEscapes) {
  TokenStream ts = lex("char c = '\\n'; char q = '\"'; int w;");
  EXPECT_EQ(idents(ts).back(), "w");
  ASSERT_EQ(ts.tokens[8].kind, Tok::kChar);
  EXPECT_EQ(ts.tokens[8].text, "'\"'");
}

// ---------------------------------------------------------------------------
// Index + call graph
// ---------------------------------------------------------------------------

TEST(Index, FindsFunctionsCallsAndSinks) {
  TokenStream ts = lex(
      "namespace util {\n"
      "int jitter() { return rand() % 5; }\n"
      "int twice() { return jitter() + jitter(); }\n"
      "}\n");
  TuIndex tu = build_index("src/util/jitter.hpp", ts);
  ASSERT_EQ(tu.functions.size(), 2u);
  EXPECT_EQ(tu.functions[0].qualified, "util::jitter");
  ASSERT_EQ(tu.functions[0].sinks.size(), 1u);
  EXPECT_EQ(tu.functions[0].sinks[0], "rand");
  ASSERT_EQ(tu.functions[1].calls.size(), 2u);
  EXPECT_EQ(tu.functions[1].calls[0].callee, "jitter");
}

TEST(Index, MemberRandIsNotASink) {
  TokenStream ts = lex("int f(Rng& r) { return r.rand(); }");
  TuIndex tu = build_index("x.hpp", ts);
  ASSERT_EQ(tu.functions.size(), 1u);
  EXPECT_TRUE(tu.functions[0].sinks.empty());
}

TEST(Index, PrefixIncrementThroughCallChainCountsAsMutation) {
  TokenStream ts = lex(
      "void f(Rnic& r, P* procs, int i) {\n"
      "  ++r.counters().tx_ops;\n"
      "  ++procs[i]->stats.repl_dropped;\n"
      "  r.counters().rx_ops++;\n"
      "  stats.deadline_drops += 2;\n"
      "}\n");
  TuIndex tu = build_index("src/verbs/verbs.cpp", ts);
  EXPECT_EQ(tu.mutated.count("tx_ops"), 1u);
  EXPECT_EQ(tu.mutated.count("repl_dropped"), 1u);
  EXPECT_EQ(tu.mutated.count("rx_ops"), 1u);
  EXPECT_EQ(tu.mutated.count("deadline_drops"), 1u);
}

TEST(Index, LambdaCaptureIsNotAClaim) {
  TokenStream ts = lex(
      "void reg_all(Reg& reg, Nic& nic) {\n"
      "  reg.counter_fn(\"a.b\", [&nic]() { return nic.v(); });\n"
      "  reg.counter_fn(\"c.d\", [] { return T::sum(&T::real_member); });\n"
      "}\n");
  TuIndex tu = build_index("src/obs/x.cpp", ts);
  ASSERT_EQ(tu.claims.size(), 1u);
  EXPECT_EQ(tu.claims[0].member, "real_member");
  EXPECT_EQ(tu.claims[0].metric, "c.d");
}

TEST(CallGraph, TaintPropagatesTransitively) {
  TokenStream util = lex("int jitter() { return rand() % 3; }");
  TokenStream mid = lex("int backoff() { return jitter() * 2; }");
  TokenStream top = lex("int schedule() { return backoff(); }");
  std::vector<TuIndex> tus;
  tus.push_back(build_index("src/util/a.hpp", util));
  tus.push_back(build_index("src/util/b.hpp", mid));
  tus.push_back(build_index("src/herd/c.hpp", top));
  CallGraph graph(tus);
  const CallGraph::TaintInfo* ti = graph.taint_of("schedule");
  ASSERT_NE(ti, nullptr);
  EXPECT_TRUE(ti->tainted);
  EXPECT_EQ(ti->chain,
            (std::vector<std::string>{"schedule", "backoff", "jitter",
                                      "rand"}));
  EXPECT_TRUE(graph.all_defs_non_sim("jitter"));
  EXPECT_FALSE(graph.all_defs_non_sim("schedule"));
}

TEST(CallGraph, OneCleanOverloadMeansClean) {
  TokenStream a = lex("int pick() { return rand(); }");
  TokenStream b = lex("int pick() { return 4; }");
  std::vector<TuIndex> tus;
  tus.push_back(build_index("src/util/a.hpp", a));
  tus.push_back(build_index("src/util/b.hpp", b));
  CallGraph graph(tus);
  EXPECT_EQ(graph.taint_of("pick"), nullptr);
}

// ---------------------------------------------------------------------------
// Flow rules (via the engine, on synthetic files)
// ---------------------------------------------------------------------------

std::vector<Violation> rule_violations(const Engine& engine,
                                       const std::string& rule) {
  std::vector<Violation> out;
  for (const Violation& v : engine.violations()) {
    if (v.rule == rule) out.push_back(v);
  }
  return out;
}

TEST(MetricPairing, GhostCounterCaughtAndBumpedCounterClean) {
  Engine engine;
  engine.add_file("src/obs_user/m.hpp",
                  "struct S { unsigned long ghost = 0, live = 0; };\n"
                  "void reg_all(Reg& reg, S& s) {\n"
                  "  reg.link(\"m.ghost\", &s.ghost);\n"
                  "  reg.link(\"m.live\", &s.live);\n"
                  "}\n"
                  "void hit(S& s) { ++s.live; }\n");
  engine.run();
  std::vector<Violation> v = rule_violations(engine, "metric-pairing");
  ASSERT_EQ(v.size(), 1u);
  EXPECT_NE(v[0].detail.find("'m.ghost'"), std::string::npos);
}

TEST(MetricPairing, PairedCountersMustTravelTogether) {
  Engine engine;
  engine.add_file("src/repl/m.hpp",
                  "struct S { unsigned long fwd = 0; };\n"
                  "void reg_all(Reg& reg, S& s) {\n"
                  "  reg.link(\"x.repl.forwards\", &s.fwd);\n"
                  "}\n"
                  "void hit(S& s) { ++s.fwd; }\n");
  engine.run();
  std::vector<Violation> v = rule_violations(engine, "metric-pairing");
  ASSERT_EQ(v.size(), 1u);
  EXPECT_NE(v[0].detail.find("without its partner 'repl.acks'"),
            std::string::npos);
}

TEST(DeterminismTaint, SimCallerOfNonSimEntropyHelperCaught) {
  Engine engine;
  engine.add_file("src/util/jitter.hpp",
                  "int jitter_ms() { return rand() % 5; }\n");
  engine.add_file("src/herd/retry.hpp",
                  "int next_tick(int base) { return base + jitter_ms(); }\n");
  engine.run();
  std::vector<Violation> v = rule_violations(engine, "determinism-taint");
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].file, "src/herd/retry.hpp");
  EXPECT_NE(v[0].detail.find("jitter_ms -> rand"), std::string::npos);
}

TEST(DeterminismTaint, SimDefinedHelperIsLegacyRulesJob) {
  Engine engine;
  engine.add_file("src/sim/jitter.hpp",
                  "int jitter_ms() { return 5; }\n");
  engine.add_file("src/herd/retry.hpp",
                  "int next_tick(int base) { return base + jitter_ms(); }\n");
  engine.run();
  EXPECT_TRUE(rule_violations(engine, "determinism-taint").empty());
}

TEST(SpanPairing, LocallyPairedSpanIsClean) {
  Engine engine;
  engine.add_file("src/herd/poll.hpp",
                  "unsigned f(T& tr, long now) {\n"
                  "  unsigned s = tr.span_begin(\"p\", \"drr_wait\", now);\n"
                  "  tr.span_end(s, now);\n"
                  "  return 1;\n"
                  "}\n");
  engine.run();
  EXPECT_TRUE(rule_violations(engine, "span-pairing").empty());
}

TEST(SpanPairing, EarlyReturnBeforeEndCaught) {
  Engine engine;
  engine.add_file("src/herd/poll.hpp",
                  "unsigned f(T& tr, bool e, long now) {\n"
                  "  unsigned s = tr.span_begin(\"p\", \"drr_wait\", now);\n"
                  "  if (e) return 0;\n"
                  "  tr.span_end(s, now);\n"
                  "  return 1;\n"
                  "}\n");
  engine.run();
  std::vector<Violation> v = rule_violations(engine, "span-pairing");
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].line, 3u);
  EXPECT_NE(v[0].detail.find("before span_end closes 's'"),
            std::string::npos);
}

TEST(SpanPairing, DiscardedResultCaught) {
  Engine engine;
  engine.add_file("src/herd/poll.hpp",
                  "void f(T& tr, long now) {\n"
                  "  tr.span_begin(\"p\", \"mica_op\", now);\n"
                  "}\n");
  engine.run();
  std::vector<Violation> v = rule_violations(engine, "span-pairing");
  ASSERT_EQ(v.size(), 1u);
  EXPECT_NE(v[0].detail.find("discarded"), std::string::npos);
}

TEST(SpanPairing, MemberEscapeClosedInAnotherFunctionIsClean) {
  // The client's real shape: the root span id rides in the in-flight
  // record and a different method closes it at the terminal state.
  Engine engine;
  engine.add_file("src/herd/cl.hpp",
                  "void issue(T& tr, F& fl, long now) {\n"
                  "  unsigned root = tr.span_begin(\"c\", \"request\", now);\n"
                  "  fl.root_span = root;\n"
                  "}\n"
                  "void retire(T& tr, F& fl, long now) {\n"
                  "  tr.span_end(fl.root_span, now);\n"
                  "}\n");
  engine.run();
  EXPECT_TRUE(rule_violations(engine, "span-pairing").empty());
}

TEST(SpanPairing, MemberEscapeNeverClosedCaught) {
  Engine engine;
  engine.add_file("src/herd/cl.hpp",
                  "void issue(T& tr, F& fl, long now) {\n"
                  "  unsigned root = tr.span_begin(\"c\", \"request\", now);\n"
                  "  fl.root_span = root;\n"
                  "}\n");
  engine.run();
  std::vector<Violation> v = rule_violations(engine, "span-pairing");
  ASSERT_EQ(v.size(), 1u);
  EXPECT_NE(v[0].detail.find("'root_span'"), std::string::npos);
  EXPECT_NE(v[0].detail.find("nothing in the tree"), std::string::npos);
}

TEST(SpanPairing, NeverClosedNeverUsedCaught) {
  Engine engine;
  engine.add_file("src/herd/poll.hpp",
                  "void f(T& tr, long now) {\n"
                  "  unsigned s = tr.span_begin(\"p\", \"drr_wait\", now);\n"
                  "}\n");
  engine.run();
  std::vector<Violation> v = rule_violations(engine, "span-pairing");
  ASSERT_EQ(v.size(), 1u);
  EXPECT_NE(v[0].detail.find("never closed or used again"),
            std::string::npos);
}

TEST(SpanPairing, ReturnedIdAndOutsideHerdAreNotThisRulesJob) {
  Engine engine;
  // Ownership transferred to the caller: not a leak here.
  engine.add_file("src/herd/mk.hpp",
                  "unsigned open_root(T& tr, long now) {\n"
                  "  return tr.span_begin(\"c\", \"request\", now);\n"
                  "}\n");
  // Same leak shape outside src/herd: out of scope for this rule.
  engine.add_file("src/obs/self.hpp",
                  "void f(T& tr, long now) {\n"
                  "  tr.span_begin(\"p\", \"x\", now);\n"
                  "}\n");
  engine.run();
  EXPECT_TRUE(rule_violations(engine, "span-pairing").empty());
}

TEST(SpanPairing, RequestRootStoredAndEndedElsewhereIsClean) {
  // The client's shape: begin_request's context rides in the in-flight
  // record and a different method ends the request at its terminal state.
  Engine engine;
  engine.add_file("src/herd/cl.hpp",
                  "void issue(P& probe, F& fl, long now) {\n"
                  "  TraceCtx trace = probe.begin_request(\"c\", 1, now, a);\n"
                  "  fl.trace = trace;\n"
                  "}\n"
                  "void retire(P& probe, F& fl, long now) {\n"
                  "  probe.end_request(fl.trace, now, \"ok\", \"net_out\");\n"
                  "}\n");
  engine.run();
  EXPECT_TRUE(rule_violations(engine, "span-pairing").empty());
}

TEST(SpanPairing, RequestRootNeverEndedCaught) {
  // A span_end naming the member does not close a request root: only
  // end_request does.
  Engine engine;
  engine.add_file("src/herd/cl.hpp",
                  "void issue(P& probe, F& fl, long now) {\n"
                  "  TraceCtx trace = probe.begin_request(\"c\", 1, now, a);\n"
                  "  fl.trace = trace;\n"
                  "}\n"
                  "void retire(T& tr, F& fl, long now) {\n"
                  "  tr.span_end(fl.trace, now);\n"
                  "}\n");
  engine.run();
  std::vector<Violation> v = rule_violations(engine, "span-pairing");
  ASSERT_EQ(v.size(), 1u);
  EXPECT_NE(v[0].detail.find("begin_request"), std::string::npos);
  EXPECT_NE(v[0].detail.find("passes it to end_request"), std::string::npos);
}

TEST(SpanPairing, RequestRootEarlyReturnCaught) {
  Engine engine;
  engine.add_file("src/herd/cl.hpp",
                  "bool f(P& probe, bool full, long now) {\n"
                  "  TraceCtx t = probe.begin_request(\"c\", 1, now, a);\n"
                  "  if (full) return false;\n"
                  "  probe.end_request(t, now, \"ok\", \"net_out\");\n"
                  "  return true;\n"
                  "}\n");
  engine.run();
  std::vector<Violation> v = rule_violations(engine, "span-pairing");
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].line, 3u);
  EXPECT_NE(v[0].detail.find("before end_request closes 't'"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Per-file rules
// ---------------------------------------------------------------------------

TEST(LegacyRules, GoldenDeterminismDiagnostic) {
  Engine engine;
  engine.add_file("src/sim/x.cpp", "int f() { return rand(); }\n");
  engine.run();
  ASSERT_EQ(engine.violations().size(), 1u);
  const Violation& v = engine.violations()[0];
  EXPECT_EQ(v.rule, "determinism");
  EXPECT_EQ(v.line, 1u);
  EXPECT_EQ(v.detail,
            "rand() in a simulation path: unseeded libc entropy breaks "
            "seeded replay");
  // Directive tokens are linted too: a macro body that calls time() fires.
  Engine macro;
  macro.add_file("src/sim/x.cpp", "#define NOW time(nullptr)\nint y;\n");
  macro.run();
  ASSERT_EQ(macro.violations().size(), 1u);
  EXPECT_EQ(macro.violations()[0].detail,
            "time() in a simulation path: wall clock breaks seeded replay");
}

TEST(LegacyRules, CommentedSinkDoesNotFire) {
  Engine engine;
  engine.add_file("src/sim/x.cpp",
                  "// rand() here\nint f() { return 1; /* time(0) */ }\n");
  engine.run();
  EXPECT_TRUE(engine.violations().empty());
}

TEST(LegacyRules, RawNewOnlyInSimPaths) {
  Engine a;
  a.add_file("src/sim/x.cpp", "int* p = new int(3);\n");
  a.run();
  ASSERT_EQ(a.violations().size(), 1u);
  EXPECT_EQ(a.violations()[0].rule, "raw-new");
  EXPECT_EQ(a.violations()[0].detail,
            "raw `new`: ownership must go through std::unique_ptr or a "
            "container");
  Engine b;
  b.add_file("src/other/x.cpp", "int* p = new int(3);\n");
  b.run();
  EXPECT_TRUE(b.violations().empty());
}

TEST(LegacyRules, UnboundedRingDequeIsFlagged) {
  // sim::RingDeque grows without limit like std::deque, so the rule sees it
  // qualified and unqualified.
  for (const char* decl : {"sim::RingDeque<Req> q_;\n", "RingDeque<Req> q_;\n",
                           "std::deque<Req> q_;\n"}) {
    Engine engine;
    engine.add_file("src/herd/q.hpp", std::string("struct Q {\n  ") + decl +
                                          "};\n");
    engine.run();
    std::vector<Violation> v = rule_violations(engine, "bounded-queue");
    ASSERT_EQ(v.size(), 1u) << decl;
    EXPECT_EQ(v[0].line, 2u);
  }
}

TEST(LegacyRules, BoundedRingDequeIsClean) {
  Engine engine;
  engine.add_file("src/herd/q.hpp",
                  "struct Q {\n"
                  "  sim::RingDeque<Req> q_;\n"
                  "  std::size_t capacity = 8;\n"
                  "};\n");
  engine.add_file("src/verbs/q.hpp", "sim::RingDeque<Req> q_;\n");
  engine.run();
  EXPECT_TRUE(rule_violations(engine, "bounded-queue").empty());
}

TEST(ChainPost, PerWrLoopIsFlagged) {
  Engine engine;
  engine.add_file("src/herd/s.cpp",
                  "void f(Qp& qp, const std::vector<Wr>& done) {\n"
                  "  for (const Wr& wr : done) {\n"
                  "    qp.post_send(wr);\n"
                  "  }\n"
                  "}\n");
  engine.run();
  std::vector<Violation> v = rule_violations(engine, "chain-post");
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].line, 3u);
}

TEST(ChainPost, BracelessLoopBodyIsFlagged) {
  Engine engine;
  engine.add_file("src/herd/s.cpp",
                  "void f(Qp& qp, const Wr& wr, int n) {\n"
                  "  while (n-- > 0)\n"
                  "    qp.post_send(wr);\n"
                  "}\n");
  engine.run();
  ASSERT_EQ(rule_violations(engine, "chain-post").size(), 1u);
}

TEST(ChainPost, ChainedSpanPostInLoopIsClean) {
  Engine engine;
  engine.add_file(
      "src/herd/s.cpp",
      "void f(Qp& qp, const std::vector<Wr>& batch) {\n"
      "  while (more()) {\n"
      "    qp.post_send(std::span<const Wr>(batch));\n"
      "  }\n"
      "}\n");
  engine.run();
  EXPECT_TRUE(rule_violations(engine, "chain-post").empty());
}

TEST(ChainPost, SinglePostOutsideLoopIsClean) {
  Engine engine;
  engine.add_file("src/herd/s.cpp",
                  "void f(Qp& qp, const Wr& wr) {\n"
                  "  qp.post_send(wr);\n"
                  "}\n");
  engine.run();
  EXPECT_TRUE(rule_violations(engine, "chain-post").empty());
}

TEST(ChainPost, PostAfterLoopClosesIsClean) {
  Engine engine;
  engine.add_file("src/herd/s.cpp",
                  "void f(Qp& qp, const std::vector<Wr>& done) {\n"
                  "  for (const Wr& wr : done) {\n"
                  "    stage(wr);\n"
                  "  }\n"
                  "  qp.post_send(done.front());\n"
                  "}\n");
  engine.run();
  EXPECT_TRUE(rule_violations(engine, "chain-post").empty());
}

TEST(ChainPost, OnlyHerdPathsAreChecked) {
  Engine engine;
  engine.add_file("src/microbench/s.cpp",
                  "void f(Qp& qp, const Wr& wr, int n) {\n"
                  "  for (int i = 0; i < n; ++i) {\n"
                  "    qp.post_send(wr);\n"
                  "  }\n"
                  "}\n");
  engine.run();
  EXPECT_TRUE(rule_violations(engine, "chain-post").empty());
}

// ---------------------------------------------------------------------------
// Planted fixtures: expected verdicts
// ---------------------------------------------------------------------------

using Verdicts = std::set<std::tuple<std::string, std::size_t, std::string>>;

/// (file, line, rule) for every `// expect: <rule>` marker under `root`.
Verdicts expect_markers(const fs::path& root) {
  Verdicts out;
  for (const auto& entry : fs::recursive_directory_iterator(root)) {
    if (!entry.is_regular_file()) continue;
    std::ifstream in(entry.path());
    std::string line;
    for (std::size_t lineno = 1; std::getline(in, line); ++lineno) {
      static constexpr std::string_view kMarker = "// expect: ";
      std::size_t at = line.find(kMarker);
      if (at == std::string::npos) continue;
      std::string rule = line.substr(at + kMarker.size());
      rule = rule.substr(0, rule.find(' '));
      out.emplace(entry.path().generic_string(), lineno, rule);
    }
  }
  return out;
}

TEST(LintFixtures, EachRootReportsExactlyItsExpectMarkers) {
  // Every line a planted fixture must trip carries `// expect: <rule>`.
  // Each fixture root is linted on its own, so one rule's finding cannot
  // hide another's miss, and a line no marker names must stay clean.
  const fs::path tools = HERD_TOOLS_DIR;
  std::vector<fs::path> roots = {tools / "lint_fixtures"};
  for (const auto& f : fs::directory_iterator(tools / "lint_fixtures_flow")) {
    roots.push_back(f.path());
  }
  std::set<std::string> rules_covered;
  for (const fs::path& root : roots) {
    Engine engine;
    ASSERT_TRUE(engine.add_path(root)) << root;
    engine.run();
    Verdicts reported;
    for (const Violation& v : engine.violations()) {
      reported.emplace(v.file, v.line, v.rule);
      rules_covered.insert(v.rule);
    }
    EXPECT_EQ(reported, expect_markers(root)) << root;
  }
  EXPECT_EQ(rules_covered.size(), 10u);  // every rule has a planted fixture
}

}  // namespace
