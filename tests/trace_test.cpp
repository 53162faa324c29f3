// Tests for the tracing & metrics layer (src/trace): session mechanics,
// the Chrome Trace Event exporter (golden file + schema validation of a
// real traced compile+execute run) and the metrics JSON round-trip.

#include "trace/chrome_trace.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"

#include "codegen/task_program.hpp"
#include "sim/simulator.hpp"
#include "support/assert.hpp"
#include "tasking/executor.hpp"
#include "tasking/tracing_layer.hpp"
#include "testing/fixtures.hpp"
#include "testing/interpreted_kernel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace pipoly::trace {
namespace {

TEST(TraceTest, DisabledEmitsAreNoOps) {
  EXPECT_FALSE(enabled());
  beginSpan("orphan");
  endSpan("orphan");
  instant("nothing");
  counter("nope", 1.0);
  { Span span("scoped"); }
  // No session to drain — nothing to observe beyond "did not crash".
  EXPECT_FALSE(enabled());
}

TEST(TraceTest, RecordsSpansInstantsAndCounters) {
  Session session;
  session.start();
  EXPECT_TRUE(enabled());
  {
    Span span("outer", 7);
    instant("marker", 3);
    counter("gauge", 2.5);
  }
  session.stop();
  EXPECT_FALSE(enabled());

  const Trace& trace = session.trace();
  ASSERT_EQ(trace.events.size(), 4u);
  EXPECT_EQ(trace.events[0].kind, EventKind::Begin);
  EXPECT_EQ(trace.events[0].name, "outer");
  EXPECT_EQ(trace.events[0].arg, 7);
  EXPECT_EQ(trace.events[1].kind, EventKind::Instant);
  EXPECT_EQ(trace.events[1].arg, 3);
  EXPECT_EQ(trace.events[2].kind, EventKind::Counter);
  EXPECT_EQ(trace.events[2].value, 2.5);
  EXPECT_EQ(trace.events[3].kind, EventKind::End);
  EXPECT_EQ(trace.threads.size(), 1u);
}

TEST(TraceTest, SecondConcurrentSessionThrows) {
  Session first;
  first.start();
  Session second;
  EXPECT_THROW(second.start(), Error);
  first.stop();
}

TEST(TraceTest, SessionCannotRestart) {
  Session session;
  session.start();
  session.stop();
  EXPECT_THROW(session.start(), Error);
  session.stop(); // idempotent
}

TEST(TraceTest, OpenSpansAreClosedAtStop) {
  Session session;
  session.start();
  beginSpan("left.open", 1);
  beginSpan("nested.open");
  session.stop();

  const Trace& trace = session.trace();
  ASSERT_EQ(trace.events.size(), 4u);
  // Synthesized Ends close in LIFO order at the stop timestamp.
  EXPECT_EQ(trace.events[2].kind, EventKind::End);
  EXPECT_EQ(trace.events[2].name, "nested.open");
  EXPECT_EQ(trace.events[3].kind, EventKind::End);
  EXPECT_EQ(trace.events[3].name, "left.open");
  EXPECT_GE(trace.events[3].tsNanos, trace.events[1].tsNanos);
}

TEST(TraceTest, StrayEndsAreDropped) {
  Session session;
  session.start();
  endSpan("never.started");
  instant("kept");
  session.stop();
  ASSERT_EQ(session.trace().events.size(), 1u);
  EXPECT_EQ(session.trace().events[0].name, "kept");
}

TEST(TraceTest, TimestampsAreMonotonePerThread) {
  Session session;
  session.start();
  for (int i = 0; i < 100; ++i) {
    Span span("tick", i);
  }
  session.stop();
  std::int64_t last = -1;
  for (const TraceEvent& ev : session.trace().events) {
    EXPECT_GE(ev.tsNanos, last);
    last = ev.tsNanos;
  }
}

TEST(TraceTest, EveryEmittingThreadGetsItsOwnTrack) {
  Session session;
  session.start();
  setThreadName("primary");
  instant("from.main");
  std::thread helper([] {
    setThreadName("helper");
    Span span("from.helper");
  });
  helper.join();
  session.stop();

  const Trace& trace = session.trace();
  ASSERT_EQ(trace.threads.size(), 2u);
  std::set<std::string> names;
  for (const ThreadInfo& t : trace.threads)
    names.insert(t.name);
  EXPECT_TRUE(names.count("primary"));
  EXPECT_TRUE(names.count("helper"));
  std::set<std::uint64_t> tids;
  for (const TraceEvent& ev : trace.events)
    tids.insert(ev.tid);
  EXPECT_EQ(tids.size(), 2u);
}

TEST(TraceTest, ThreadNameIsStickyAcrossSessions) {
  setThreadName("sticky");
  Session session;
  session.start();
  instant("ping");
  session.stop();
  ASSERT_EQ(session.trace().threads.size(), 1u);
  EXPECT_EQ(session.trace().threads[0].name, "sticky");
}

TEST(TraceTest, EmitsFromUnnamedThreadGetDefaultName) {
  Session session;
  session.start();
  std::thread anon([] { instant("anon.ping"); });
  anon.join();
  session.stop();
  ASSERT_EQ(session.trace().threads.size(), 1u);
  EXPECT_EQ(session.trace().threads[0].name, "thread-0");
}

// ---------------------------------------------------------------------
// Chrome Trace Event exporter.

TEST(ChromeTraceTest, JsonEscapeHandlesSpecials) {
  EXPECT_EQ(jsonEscape("plain"), "plain");
  EXPECT_EQ(jsonEscape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(jsonEscape("line\nbreak\ttab"), "line\\nbreak\\ttab");
}

TEST(ChromeTraceTest, GoldenExportOfHandBuiltTrace) {
  Trace trace;
  trace.threads.push_back(ThreadInfo{"main", 1});
  trace.threads.push_back(ThreadInfo{"predicted worker 0", 2});
  trace.events.push_back(
      TraceEvent{EventKind::Begin, "phase", kNoArg, 1000, 0, 0.0});
  trace.events.push_back(
      TraceEvent{EventKind::Instant, "mark", 4, 1500, 0, 0.0});
  trace.events.push_back(
      TraceEvent{EventKind::Counter, "gauge", kNoArg, 2000, 0, 1.5});
  trace.events.push_back(
      TraceEvent{EventKind::End, "phase", kNoArg, 2500, 0, 0.0});
  trace.events.push_back(
      TraceEvent{EventKind::Begin, "S[0,0]", 3, 0, 1, 0.0});
  trace.events.push_back(
      TraceEvent{EventKind::End, "S[0,0]", 3, 12345678, 1, 0.0});

  const std::string expected =
      "{\"traceEvents\": [\n"
      "  {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 0, "
      "\"args\": {\"name\": \"pipoly\"}},\n"
      "  {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 2, \"tid\": 0, "
      "\"args\": {\"name\": \"predicted (simulator)\"}},\n"
      "  {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 0, "
      "\"args\": {\"name\": \"main\"}},\n"
      "  {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 2, \"tid\": 1, "
      "\"args\": {\"name\": \"predicted worker 0\"}},\n"
      "  {\"name\": \"phase\", \"ph\": \"B\", \"ts\": 1.000, \"pid\": 1, "
      "\"tid\": 0},\n"
      "  {\"name\": \"mark\", \"ph\": \"i\", \"ts\": 1.500, \"pid\": 1, "
      "\"tid\": 0, \"s\": \"t\", \"args\": {\"arg\": 4}},\n"
      "  {\"name\": \"gauge\", \"ph\": \"C\", \"ts\": 2.000, \"pid\": 1, "
      "\"tid\": 0, \"args\": {\"value\": 1.5}},\n"
      "  {\"name\": \"phase\", \"ph\": \"E\", \"ts\": 2.500, \"pid\": 1, "
      "\"tid\": 0},\n"
      "  {\"name\": \"S[0,0]\", \"ph\": \"B\", \"ts\": 0.000, \"pid\": 2, "
      "\"tid\": 1, \"args\": {\"arg\": 3}},\n"
      "  {\"name\": \"S[0,0]\", \"ph\": \"E\", \"ts\": 12345.678, \"pid\": 2, "
      "\"tid\": 1, \"args\": {\"arg\": 3}}\n"
      "]}\n";
  EXPECT_EQ(toChromeJson(trace), expected);
}

// Minimal field extractors for the line-wise schema checks (the exporter
// guarantees one JSON object per line with a fixed key layout).
std::string fieldString(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\": \"";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos)
    return {};
  const std::size_t start = at + needle.size();
  const std::size_t end = line.find('"', start);
  return line.substr(start, end - start);
}

double fieldNumber(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos)
    return -1.0;
  return std::stod(line.substr(at + needle.size()));
}

/// Compile + traced 2-worker execution of Listing 1, with the predicted
/// timeline appended — the exact artifact pipolyc --trace produces.
std::string tracedListing1Json(Trace* traceOut = nullptr) {
  scop::Scop scop = testing::listing1(12);
  Session session;
  setThreadName("main");
  session.start();
  codegen::TaskProgram prog = codegen::compilePipeline(scop);
  {
    testing::InterpretedKernel kernel(scop);
    tasking::TracingLayer layer(tasking::makeThreadPoolBackend(2));
    tasking::executeTaskProgram(prog, layer, kernel.executor());
  }
  session.stop();

  sim::CostModel model;
  model.iterationCost.assign(scop.numStatements(), 50e-6);
  model.taskOverhead = 1e-6;
  const sim::SimResult predicted =
      sim::simulate(prog, model, sim::SimConfig{2});
  sim::appendPredictedTimeline(session.trace(), predicted, prog, scop);
  if (traceOut)
    *traceOut = session.trace();
  return toChromeJson(session.trace());
}

TEST(ChromeTraceTest, RealTraceSatisfiesSchema) {
  const std::string json = tracedListing1Json();

  std::istringstream lines(json);
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line, "{\"traceEvents\": [");

  std::map<double, std::vector<std::string>> spanStacks; // per tid
  std::map<double, double> lastTs;                       // per tid
  std::set<std::string> spanNames;
  std::set<std::string> threadNames;
  while (std::getline(lines, line)) {
    if (line == "]}")
      break;
    ASSERT_EQ(line.find("  {"), 0u) << line;
    const std::string ph = fieldString(line, "ph");
    const std::string name = fieldString(line, "name");
    ASSERT_FALSE(ph.empty()) << line;
    ASSERT_FALSE(name.empty()) << line;
    if (ph == "M") {
      if (name == "thread_name") {
        const std::string needle = "\"args\": {\"name\": \"";
        const std::size_t at = line.find(needle);
        ASSERT_NE(at, std::string::npos) << line;
        const std::size_t start = at + needle.size();
        threadNames.insert(line.substr(start, line.find('"', start) - start));
      }
      continue;
    }
    const double tid = fieldNumber(line, "tid");
    const double ts = fieldNumber(line, "ts");
    ASSERT_GE(tid, 0.0) << line;
    ASSERT_GE(ts, 0.0) << line;

    // Per-track timestamps must never go backwards.
    auto [it, fresh] = lastTs.try_emplace(tid, ts);
    if (!fresh) {
      EXPECT_LE(it->second, ts) << "timestamps regressed on tid " << tid;
      it->second = ts;
    }

    if (ph == "B") {
      spanStacks[tid].push_back(name);
      spanNames.insert(name);
    } else if (ph == "E") {
      ASSERT_FALSE(spanStacks[tid].empty())
          << "unbalanced E for " << name << " on tid " << tid;
      EXPECT_EQ(spanStacks[tid].back(), name) << "mismatched B/E nesting";
      spanStacks[tid].pop_back();
    } else {
      EXPECT_TRUE(ph == "i" || ph == "C") << "unexpected ph " << ph;
    }
  }
  for (const auto& [tid, stack] : spanStacks)
    EXPECT_TRUE(stack.empty()) << "unclosed span on tid " << tid;

  // All compile phases must be present...
  for (const char* phase :
       {"compile", "detect.pipeline", "detect.pairs", "detect.integrate",
        "detect.requirements", "compile.schedule", "compile.ast",
        "codegen.lower", "codegen.validate"})
    EXPECT_TRUE(spanNames.count(phase)) << "missing compile phase " << phase;
  // ...as are per-task spans and the per-worker + predicted tracks.
  EXPECT_TRUE(spanNames.count("task"));
  EXPECT_TRUE(threadNames.count("main"));
  // Which workers record events depends on scheduling; at least one does.
  EXPECT_TRUE(std::any_of(threadNames.begin(), threadNames.end(),
                          [](const std::string& name) {
                            return name.rfind("pool worker ", 0) == 0;
                          }));
  EXPECT_TRUE(threadNames.count("predicted worker 0"));
}

TEST(ChromeTraceTest, PredictedTimelineIsItsOwnProcess) {
  Trace trace;
  tracedListing1Json(&trace);
  bool sawPredicted = false;
  for (std::size_t tid = 0; tid < trace.threads.size(); ++tid) {
    if (trace.threads[tid].name.rfind("predicted worker", 0) == 0) {
      sawPredicted = true;
      EXPECT_EQ(trace.threads[tid].pid, 2);
    } else {
      EXPECT_EQ(trace.threads[tid].pid, 1);
    }
  }
  EXPECT_TRUE(sawPredicted);
}

// ---------------------------------------------------------------------
// Metrics.

TEST(TraceMetricsTest, SummarizesHandBuiltTrace) {
  Trace trace;
  trace.threads.push_back(ThreadInfo{"t0", 1});
  auto push = [&](EventKind kind, const char* name, std::int64_t ts,
                  double value = 0.0) {
    trace.events.push_back(TraceEvent{kind, name, kNoArg, ts, 0, value});
  };
  push(EventKind::Begin, "work", 0);
  push(EventKind::Begin, "work", 100);
  push(EventKind::End, "work", 300);   // inner: 200ns
  push(EventKind::End, "work", 1000);  // outer: 1000ns
  push(EventKind::Instant, "blip", 1100);
  push(EventKind::Counter, "gauge", 1200, 5.0);
  push(EventKind::Counter, "gauge", 1300, 2.0);

  const MetricsSummary summary = summarizeTrace(trace);
  ASSERT_EQ(summary.spans.size(), 1u);
  EXPECT_EQ(summary.spans[0].name, "work");
  EXPECT_EQ(summary.spans[0].count, 2u);
  EXPECT_EQ(summary.spans[0].totalNanos, 1200);
  EXPECT_EQ(summary.spans[0].minNanos, 200);
  EXPECT_EQ(summary.spans[0].maxNanos, 1000);
  ASSERT_EQ(summary.counters.size(), 1u);
  EXPECT_EQ(summary.counters[0].count, 2u);
  EXPECT_EQ(summary.counters[0].last, 2.0);
  EXPECT_EQ(summary.counters[0].max, 5.0);
  ASSERT_EQ(summary.instants.size(), 1u);
  EXPECT_EQ(summary.instants[0].name, "blip");
  EXPECT_EQ(summary.instants[0].count, 1u);
}

TEST(TraceMetricsTest, JsonRoundTripsExactly) {
  Trace trace;
  tracedListing1Json(&trace);
  const MetricsSummary summary = summarizeTrace(trace);
  EXPECT_FALSE(summary.spans.empty());

  const std::string json = toJson(summary);
  const MetricsSummary parsed = parseMetricsJson(json);
  EXPECT_EQ(parsed, summary);
  // Idempotent: serializing the parse yields the same bytes.
  EXPECT_EQ(toJson(parsed), json);
}

TEST(TraceMetricsTest, ParserRejectsMalformedInput) {
  EXPECT_THROW(parseMetricsJson(""), Error);
  EXPECT_THROW(parseMetricsJson("{"), Error);
  EXPECT_THROW(parseMetricsJson("{\"spans\": [}"), Error);
  EXPECT_THROW(parseMetricsJson("[1, 2]"), Error);
}

TEST(TraceMetricsTest, SummaryOfEmptyTraceIsEmpty) {
  const MetricsSummary summary = summarizeTrace(Trace{});
  EXPECT_TRUE(summary.spans.empty());
  EXPECT_TRUE(summary.counters.empty());
  EXPECT_TRUE(summary.instants.empty());
  const MetricsSummary parsed = parseMetricsJson(toJson(summary));
  EXPECT_EQ(parsed, summary);
}

} // namespace
} // namespace pipoly::trace
