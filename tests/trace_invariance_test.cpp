// Trace invariance: observability must be pure observation. Running
// pipeline detection or task execution with an active trace::Session
// (and the TracingLayer installed) must produce bit-identical results to
// the untraced run — same PipelineInfo, same oracle fingerprints — on
// every Table-9 program, every backend, with and without the task-graph
// optimizer. Runs under TSAN/ASan in CI to also shake out races between
// tracing probes and the traced machinery.

#include "codegen/task_program.hpp"
#include "kernels/suite.hpp"
#include "opt/optimizer.hpp"
#include "pipeline/detect.hpp"
#include "tasking/executor.hpp"
#include "tasking/tracing_layer.hpp"
#include "testing/interpreted_kernel.hpp"
#include "trace/trace.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

namespace pipoly {
namespace {

/// Field-by-field PipelineInfo equality: the detection result has no
/// operator== because the presburger containers compare element-wise, so
/// spell it out.
bool infoEquals(const pipeline::PipelineInfo& a,
                const pipeline::PipelineInfo& b) {
  if (a.maps.size() != b.maps.size() ||
      a.statements.size() != b.statements.size())
    return false;
  for (std::size_t i = 0; i < a.maps.size(); ++i)
    if (a.maps[i].srcIdx != b.maps[i].srcIdx ||
        a.maps[i].tgtIdx != b.maps[i].tgtIdx ||
        !(a.maps[i].map == b.maps[i].map))
      return false;
  for (std::size_t s = 0; s < a.statements.size(); ++s) {
    const pipeline::StatementPipelineInfo& x = a.statements[s];
    const pipeline::StatementPipelineInfo& y = b.statements[s];
    if (x.blockStarts != y.blockStarts || !(x.blockReps == y.blockReps) ||
        x.chainOrdering != y.chainOrdering || !(x.selfEdges == y.selfEdges) ||
        x.inRequirements.size() != y.inRequirements.size())
      return false;
    for (std::size_t r = 0; r < x.inRequirements.size(); ++r)
      if (x.inRequirements[r].srcStmtIdx != y.inRequirements[r].srcStmtIdx ||
          !(x.inRequirements[r].map == y.inRequirements[r].map))
        return false;
  }
  return true;
}

constexpr pb::Value kN = 8;

TEST(TraceInvarianceTest, DetectionIsBitIdenticalUnderTracing) {
  for (const kernels::ProgramSpec& spec : kernels::table9Programs()) {
    const scop::Scop scop = kernels::buildProgram(spec, kN);
    const pipeline::PipelineInfo plain = pipeline::detectPipeline(scop);

    trace::Session session;
    session.start();
    const pipeline::PipelineInfo traced = pipeline::detectPipeline(scop);
    session.stop();

    EXPECT_TRUE(infoEquals(plain, traced))
        << spec.name << ": tracing changed the detection result";
    EXPECT_FALSE(session.trace().events.empty())
        << spec.name << ": traced detection recorded nothing";
  }
}

TEST(TraceInvarianceTest, DetectionTraceCoversEveryPhase) {
  const scop::Scop scop =
      kernels::buildProgram(kernels::programByName("P3"), kN);
  trace::Session session;
  session.start();
  (void)pipeline::detectPipeline(scop);
  session.stop();
  for (const char* phase : {"detect.pipeline", "detect.pairs",
                            "detect.integrate", "detect.requirements"}) {
    bool found = false;
    for (const trace::TraceEvent& ev : session.trace().events)
      found = found || ev.name == phase;
    EXPECT_TRUE(found) << "missing " << phase;
  }
}

struct BackendSpec {
  const char* name;
  std::unique_ptr<tasking::TaskingLayer> (*make)();
};

std::vector<BackendSpec> backends() {
  std::vector<BackendSpec> out = {
      {"serial", [] { return tasking::makeSerialBackend(); }},
      {"threadpool", [] { return tasking::makeThreadPoolBackend(4); }},
  };
  if (tasking::openMPAvailable())
    out.push_back({"openmp", [] { return tasking::makeOpenMPBackend(); }});
  return out;
}

TEST(TraceInvarianceTest, ExecutionFingerprintsMatchSequentialUnderTracing) {
  for (const kernels::ProgramSpec& spec : kernels::table9Programs()) {
    const scop::Scop scop = kernels::buildProgram(spec, kN);
    const std::uint64_t expected = testing::sequentialFingerprint(scop);

    codegen::TaskProgram plain = codegen::compilePipeline(scop);
    codegen::TaskProgram optimized = plain;
    opt::optimize(optimized);
    optimized.validate(scop);

    for (const BackendSpec& backend : backends()) {
      for (const bool useOptimized : {false, true}) {
        const codegen::TaskProgram& prog = useOptimized ? optimized : plain;
        for (const bool traced : {false, true}) {
          trace::Session session;
          if (traced)
            session.start();
          testing::InterpretedKernel kernel(scop);
          kernel.reset();
          tasking::TracingLayer layer(backend.make());
          tasking::executeTaskProgram(prog, layer, kernel.executor());
          const std::uint64_t got = kernel.fingerprint();
          if (traced)
            session.stop();
          EXPECT_EQ(got, expected)
              << spec.name << " backend=" << backend.name
              << " optimized=" << useOptimized << " traced=" << traced;
        }
      }
    }
  }
}

TEST(TraceInvarianceTest, TracedExecutionRecordsOneSpanPerTask) {
  const scop::Scop scop =
      kernels::buildProgram(kernels::programByName("P1"), kN);
  codegen::TaskProgram prog = codegen::compilePipeline(scop);

  trace::Session session;
  session.start();
  testing::InterpretedKernel kernel(scop);
  tasking::TracingLayer layer(tasking::makeThreadPoolBackend(4));
  tasking::executeTaskProgram(prog, layer, kernel.executor());
  session.stop();

  std::size_t begins = 0, ends = 0;
  std::vector<bool> seen(prog.tasks.size(), false);
  for (const trace::TraceEvent& ev : session.trace().events) {
    if (ev.name != "task")
      continue;
    if (ev.kind == trace::EventKind::Begin) {
      ++begins;
      ASSERT_GE(ev.arg, 0);
      ASSERT_LT(static_cast<std::size_t>(ev.arg), seen.size());
      seen[static_cast<std::size_t>(ev.arg)] = true;
    } else if (ev.kind == trace::EventKind::End) {
      ++ends;
    }
  }
  EXPECT_EQ(begins, prog.tasks.size());
  EXPECT_EQ(ends, prog.tasks.size());
  for (std::size_t i = 0; i < seen.size(); ++i)
    EXPECT_TRUE(seen[i]) << "task " << i << " has no span";
}

TEST(TraceInvarianceTest, RepeatedSessionsStayIndependent) {
  // Back-to-back sessions over the same workload must each observe a
  // complete, self-contained trace (the TLS buffer cache is epoch-keyed;
  // a stale cache entry would leak events across sessions).
  const scop::Scop scop =
      kernels::buildProgram(kernels::programByName("P2"), kN);
  codegen::TaskProgram prog = codegen::compilePipeline(scop);
  auto layer = std::make_unique<tasking::TracingLayer>(
      tasking::makeThreadPoolBackend(2));

  std::size_t firstCount = 0;
  for (int round = 0; round < 3; ++round) {
    trace::Session session;
    session.start();
    testing::InterpretedKernel kernel(scop);
    tasking::executeTaskProgram(prog, *layer, kernel.executor());
    session.stop();
    std::size_t taskBegins = 0;
    for (const trace::TraceEvent& ev : session.trace().events)
      if (ev.name == std::string("task") &&
          ev.kind == trace::EventKind::Begin)
        ++taskBegins;
    EXPECT_EQ(taskBegins, prog.tasks.size()) << "round " << round;
    if (round == 0)
      firstCount = session.trace().events.size();
    else
      EXPECT_GT(session.trace().events.size(), 0u) << "round " << round;
  }
  EXPECT_GT(firstCount, 0u);
}

} // namespace
} // namespace pipoly
