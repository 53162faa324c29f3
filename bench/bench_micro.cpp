// Micro-benchmarks (google-benchmark) of the library's building blocks:
// the Presburger substrate, the pipeline detection phases, end-to-end
// compilation, the tasking backends and the machine simulator.

#include "bench_common.hpp"
#include "codegen/task_program.hpp"
#include "frontend/frontend.hpp"
#include "kernels/suite.hpp"
#include "opt/optimizer.hpp"
#include "pipeline/blocking.hpp"
#include "pipeline/detect.hpp"
#include "pipeline/pipeline_map.hpp"
#include "pipeline/symbolic.hpp"
#include "presburger/map.hpp"
#include "presburger/polyhedron.hpp"
#include "scop/builder.hpp"
#include "sim/simulator.hpp"
#include "tasking/tasking.hpp"

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

namespace {

using namespace pipoly;

/// Listing 1 of the paper, parameterised by N.
scop::Scop listing1(pb::Value n) {
  scop::ScopBuilder b("listing1");
  std::size_t A = b.array("A", {n, n});
  std::size_t B = b.array("B", {n, n});
  auto S = b.statement("S", 2);
  S.bound(0, 0, n - 1).bound(1, 0, n - 1);
  S.write(A, {S.dim(0), S.dim(1)});
  S.read(A, {S.dim(0), S.dim(1) + 1});
  S.read(A, {S.dim(0) + 1, S.dim(1) + 1});
  auto R = b.statement("R", 2);
  R.bound(0, 0, n / 2 - 1).bound(1, 0, n / 2 - 1);
  R.write(B, {R.dim(0), R.dim(1)});
  R.read(A, {R.dim(0), 2 * R.dim(1)});
  R.read(B, {R.dim(0), R.dim(1) + 1});
  return b.build();
}

// ---- flat presburger-op microbenches -------------------------------------
// Synthetic inputs sized by point count (10^3 .. 10^6) rather than via a
// SCoP, so these isolate the flat-storage merge/gallop kernels themselves.

pb::IntTupleSet gridSet(pb::Value count, pb::Value offset) {
  const auto side =
      static_cast<pb::Value>(std::ceil(std::sqrt(static_cast<double>(count))));
  std::vector<pb::Tuple> pts;
  pts.reserve(static_cast<std::size_t>(count));
  for (pb::Value i = 0; i < count; ++i)
    pts.push_back(pb::Tuple{offset + i / side, offset + i % side});
  return pb::IntTupleSet(pb::Space("G", 2), std::move(pts));
}

void BM_FlatUnite(benchmark::State& state) {
  const auto n = static_cast<pb::Value>(state.range(0));
  // Half-overlapping grids: exercises the real merge, not the
  // disjoint-range concat fast path.
  const pb::IntTupleSet a = gridSet(n, 0);
  const pb::IntTupleSet b = gridSet(n, static_cast<pb::Value>(
                                           std::sqrt(static_cast<double>(n)) /
                                           2));
  for (auto _ : state) {
    auto u = a.unite(b);
    benchmark::DoNotOptimize(u);
  }
  state.SetItemsProcessed(state.iterations() * n * 2);
}
BENCHMARK(BM_FlatUnite)->Arg(1000)->Arg(10000)->Arg(100000)->Arg(1000000);

void BM_FlatCompose(benchmark::State& state) {
  const auto n = static_cast<pb::Value>(state.range(0));
  const pb::IntTupleSet dom = gridSet(n, 0);
  const pb::IntMap inner = bench::mapOf(
      dom, pb::Space("M", 2),
      [](const pb::Tuple& t) { return pb::Tuple{t[1], t[0]}; });
  const pb::IntMap outer = bench::mapOf(
      inner.range(), pb::Space("O", 2),
      [](const pb::Tuple& t) { return pb::Tuple{t[0] + t[1], t[0]}; });
  for (auto _ : state) {
    auto c = outer.compose(inner);
    benchmark::DoNotOptimize(c);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_FlatCompose)->Arg(1000)->Arg(10000)->Arg(100000)->Arg(1000000);

/// rows::sortUnique on unsorted rows (one in four a duplicate) of width
/// range(1), range(0) rows: the kernel behind every set and map built
/// from out-of-order rows. The copy per iteration is part of the cost.
void BM_SortUniqueUnsorted(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto w = static_cast<std::size_t>(state.range(1));
  pb::RowBuffer rows(n * w);
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t d = 0; d < w; ++d) {
      x ^= x << 13, x ^= x >> 7, x ^= x << 17;
      rows[r * w + d] = static_cast<pb::Value>(x % (n / 4 + 1));
    }
  for (auto _ : state) {
    pb::RowBuffer copy = rows;
    pb::rows::sortUnique(copy, w);
    benchmark::DoNotOptimize(copy);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SortUniqueUnsorted)
    ->Args({10000, 2})
    ->Args({10000, 5})
    ->Args({100000, 3})
    ->Args({100000, 10});

/// { S[i, j] : 0 <= i < 32 and 0 <= j <= i }, built the way ScopBuilder
/// builds every statement domain: constraints, projection, enumeration.
void BM_TriangleDomain(benchmark::State& state) {
  const pb::AffineExpr i = pb::AffineExpr::dim(2, 0);
  const pb::AffineExpr j = pb::AffineExpr::dim(2, 1);
  for (auto _ : state) {
    pb::Polyhedron triangle(2);
    triangle.add(pb::Constraint::ge(i));
    triangle.add(pb::Constraint::lt(i, pb::AffineExpr::constant(2, 32)));
    triangle.add(pb::Constraint::ge(j));
    triangle.add(pb::Constraint::le(j, i));
    auto s = pb::IntTupleSet::fromPolyhedron(pb::Space("S", 2), triangle);
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(BM_TriangleDomain);

void BM_MapCompose(benchmark::State& state) {
  const auto n = state.range(0);
  scop::Scop scop = listing1(n);
  pb::IntMap wr = scop.writeRelation(0, 0);
  pb::IntMap rd = scop.readRelation(1, 0);
  pb::IntMap wrInv = wr.inverse();
  for (auto _ : state) {
    auto p = wrInv.compose(rd);
    benchmark::DoNotOptimize(p);
  }
}
BENCHMARK(BM_MapCompose)->Arg(20)->Arg(40)->Arg(80);

void BM_LexmaxPerDomain(benchmark::State& state) {
  scop::Scop scop = listing1(state.range(0));
  pb::IntMap p = pipeline::producerRelation(scop, 0, 1);
  for (auto _ : state) {
    auto m = p.lexmaxPerDomain();
    benchmark::DoNotOptimize(m);
  }
}
BENCHMARK(BM_LexmaxPerDomain)->Arg(20)->Arg(80);

void BM_PipelineMap(benchmark::State& state) {
  scop::Scop scop = listing1(state.range(0));
  for (auto _ : state) {
    auto t = pipeline::pipelineMap(scop, 0, 1);
    benchmark::DoNotOptimize(t);
  }
}
BENCHMARK(BM_PipelineMap)->Arg(20)->Arg(40)->Arg(80);

void BM_PipelineMapSymbolicFastPath(benchmark::State& state) {
  scop::Scop scop = listing1(state.range(0));
  for (auto _ : state) {
    auto t = pipeline::trySymbolicPipelineMap(scop, 0, 1);
    benchmark::DoNotOptimize(t);
  }
}
BENCHMARK(BM_PipelineMapSymbolicFastPath)->Arg(20)->Arg(40)->Arg(80);

void BM_FrontendParse(benchmark::State& state) {
  static constexpr const char* kSource = R"(
    param N = 20;
    array A[N][N]; array B[N][N];
    for (i = 0; i < N - 1; i++)
      for (j = 0; j < N - 1; j++)
        S: A[i][j] = f(A[i][j], A[i][j+1], A[i+1][j+1]);
    for (i = 0; i < N/2 - 1; i++)
      for (j = 0; j < N/2 - 1; j++)
        R: B[i][j] = g(A[i][2*j], B[i][j+1], B[i+1][j+1], B[i][j]);
  )";
  for (auto _ : state) {
    auto scop = frontend::parseProgram(kSource);
    benchmark::DoNotOptimize(scop);
  }
}
BENCHMARK(BM_FrontendParse);

void BM_BlockPartition(benchmark::State& state) {
  scop::Scop scop = listing1(state.range(0));
  const pb::IntTupleSet boundaries = pipeline::pipelineMap(scop, 0, 1).domain();
  const pb::IntTupleSet domain = scop.statement(0).domain();
  for (auto _ : state) {
    auto starts = pipeline::blockStarts(
        domain, pipeline::blockReps(domain, {boundaries}));
    benchmark::DoNotOptimize(starts.data());
  }
}
BENCHMARK(BM_BlockPartition)->Arg(20)->Arg(80);

void BM_DetectPipeline(benchmark::State& state) {
  scop::Scop scop = kernels::buildProgram(kernels::programByName("P5"),
                                          state.range(0));
  for (auto _ : state) {
    auto info = pipeline::detectPipeline(scop);
    benchmark::DoNotOptimize(info);
  }
}
BENCHMARK(BM_DetectPipeline)->Arg(8)->Arg(16)->Arg(32);

void BM_CompilePipeline(benchmark::State& state) {
  scop::Scop scop = kernels::buildProgram(kernels::programByName("P5"),
                                          state.range(0));
  for (auto _ : state) {
    auto prog = codegen::compilePipeline(scop);
    benchmark::DoNotOptimize(prog);
  }
}
BENCHMARK(BM_CompilePipeline)->Arg(8)->Arg(16);

void BM_Optimize(benchmark::State& state) {
  scop::Scop scop = kernels::buildProgram(kernels::programByName("P5"),
                                          state.range(0));
  codegen::TaskProgram prog = codegen::compilePipeline(scop);
  for (auto _ : state) {
    codegen::TaskProgram copy = prog;
    auto stats = opt::optimize(copy);
    benchmark::DoNotOptimize(stats);
  }
}
BENCHMARK(BM_Optimize)->Arg(16)->Arg(32);

// Dependency resolution, built per run vs prebuilt: what a backend pays
// per run to map each in-dependency to its producer.
void BM_DependResolveBuild(benchmark::State& state) {
  scop::Scop scop = kernels::buildProgram(kernels::programByName("P5"), 32);
  codegen::TaskProgram prog = codegen::compilePipeline(scop);
  for (auto _ : state) {
    std::uint64_t sink = 0;
    for (const std::uint32_t p : opt::buildSlotTable(prog).inSlots)
      sink += p;
    benchmark::DoNotOptimize(sink);
  }
}
BENCHMARK(BM_DependResolveBuild);

void BM_DependResolveSlots(benchmark::State& state) {
  scop::Scop scop = kernels::buildProgram(kernels::programByName("P5"), 32);
  codegen::TaskProgram prog = codegen::compilePipeline(scop);
  opt::optimize(prog);
  const opt::SlotTable slots = opt::buildSlotTable(prog);
  for (auto _ : state) {
    std::uint64_t sink = 0;
    for (const codegen::Task& t : prog.tasks)
      for (const std::uint32_t* s = slots.inBegin(t.id);
           s != slots.inEnd(t.id); ++s)
        sink += *s;
    benchmark::DoNotOptimize(sink);
  }
}
BENCHMARK(BM_DependResolveSlots);

void BM_Simulate(benchmark::State& state) {
  scop::Scop scop = kernels::buildProgram(kernels::programByName("P5"), 16);
  codegen::TaskProgram prog = codegen::compilePipeline(scop);
  sim::CostModel model;
  model.iterationCost.assign(scop.numStatements(), 1e-5);
  for (auto _ : state) {
    auto r = sim::simulate(prog, model, sim::SimConfig{8});
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_Simulate);

void runEmptyTasks(tasking::TaskingLayer& layer, std::size_t count) {
  auto noop = +[](void*) {};
  int dummy = 0;
  layer.run([&] {
    for (std::size_t i = 0; i < count; ++i)
      layer.createTask(noop, &dummy, sizeof(dummy),
                       static_cast<std::int64_t>(i), 0, nullptr, nullptr, 0);
  });
}

void BM_TaskSpawnSerial(benchmark::State& state) {
  auto layer = tasking::makeSerialBackend();
  for (auto _ : state)
    runEmptyTasks(*layer, 1000);
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_TaskSpawnSerial);

void BM_TaskSpawnThreadPool(benchmark::State& state) {
  auto layer = tasking::makeThreadPoolBackend(4);
  for (auto _ : state)
    runEmptyTasks(*layer, 1000);
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_TaskSpawnThreadPool);

void BM_TaskSpawnOpenMP(benchmark::State& state) {
  auto layer = tasking::makeOpenMPBackend();
  if (!layer) {
    state.SkipWithError("OpenMP not available");
    return;
  }
  for (auto _ : state)
    runEmptyTasks(*layer, 1000);
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_TaskSpawnOpenMP);

} // namespace

BENCHMARK_MAIN();
