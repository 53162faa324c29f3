// E20 — channel-route streaming throughput vs. task-depend replay.
//
// Streams many batches of Table-9 programs through the two replay
// routes at matched thread counts:
//   * task-depend: CompiledPipeline's frozen ReplayGraph on the
//     dependency thread pool (atomic ready counters per node, parity
//     across batches), and
//   * channel: ChannelPipeline's persistent stage workers connected by
//     bounded SPSC token rings (tasking/channel_backend), capacities from
//     the communication analysis.
// The statement body is a near-free counter, so the measurement isolates
// the per-block *orchestration* cost — exactly the term the channel route
// attacks (no shared ready-counter cache lines, no pool wakeups; the only
// cross-thread traffic is one SPSC ring per pipeline edge).
//
// At thread counts above the host's CPU count both routes oversubscribe
// the same CPUs, so the comparison is orchestration cost under
// contention, not parallel speedup — the caveat the EXPERIMENTS.md E20
// entry spells out (E20 was recorded on one CPU). Matched counts keep it
// fair: k pool threads vs. k channel workers.
//
// `--smoke` shrinks the matrix and only checks that every configuration
// streams bit-identical results. `--check` additionally gates (exit
// non-zero) on the acceptance bar: at least one wide program/thread
// configuration must reach >= 1.3x channel throughput. `--json=FILE`
// writes BENCH_channel.json in the bench_detect schema.
//
// E22 — `--numa` switches to the topology-aware placement gate: every
// program runs A/B on a synthetic 2x-numa topology under deterministic
// remote-transfer emulation (ChannelOptions::emulateRemoteNsPerByte, so
// the measurement is the placement, not scheduler noise on a
// single-socket host):
//   A: topology-aware partitioner (placeStagesTopology), and
//   B: the PR 8 contiguous DP placed on the same machine model.
// It also predicts both placements with the topology-aware simulator and
// reports whether the predicted ranking matches the measured one, sweeps
// lambda over the placement objective, and measures the aware route
// across the uma / 2x-numa / ring presets (the E22 ablation axes).
// `--numa --check` gates on: >= 1.15x best aware-over-baseline speedup
// among configs whose placements differ, and no predicted-vs-measured
// ranking disagreement. `--numa --json=FILE` writes BENCH_numa.json.

#include "bench_common.hpp"

#include "codegen/task_program.hpp"
#include "kernels/suite.hpp"
#include "kernels/suite_runner.hpp"
#include "opt/optimizer.hpp"
#include "pipeline/comm.hpp"
#include "pipeline/detect.hpp"
#include "runtime/placement.hpp"
#include "runtime/topology.hpp"
#include "scop/builder.hpp"
#include "sim/simulator.hpp"
#include "support/str.hpp"
#include "tasking/channel_backend.hpp"
#include "tasking/executor.hpp"
#include "tasking/replay_executor.hpp"
#include "verify/oracle.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

namespace {

using namespace pipoly;

struct Config {
  const char* prog;
  unsigned threads;
  bool wide; // counts toward the >= 1.3x acceptance check
};

int run(bool smoke, bool check, const std::string& jsonPath) {
  const pb::Value n = smoke ? 10 : 16;
  const std::size_t batches = smoke ? 40 : 200;
  // P1 is the two-statement chain (the route's worst case); P5/P8 are the
  // four-statement wide programs where several stages stream concurrently.
  const std::vector<Config> configs = {
      {"P1", 1, false}, {"P1", 2, false}, {"P5", 1, true}, {"P5", 2, true},
      {"P5", 4, true},  {"P8", 2, true},  {"P8", 4, true},
  };

  std::printf("== E20: channel vs task-depend streaming throughput "
              "(N=%lld, batches=%zu) ==\n",
              static_cast<long long>(n), batches);

  bench::Table table({"prog", "threads", "stages", "comm_bytes",
                      "taskdep_batch_us", "channel_batch_us", "throughput_x",
                      "status"});
  bench::JsonReport json;
  json.meta("experiment", bench::JsonReport::str("E20"));
  json.meta("n", bench::JsonReport::num(static_cast<std::uint64_t>(n)));
  json.meta("batches", bench::JsonReport::num(batches));
  int failures = 0;
  double bestWide = 0.0;

  for (const Config& cfg : configs) {
    const kernels::ProgramSpec& spec = kernels::programByName(cfg.prog);
    scop::Scop scop = kernels::buildProgram(spec, n);
    const pipeline::PipelineInfo info = pipeline::detectPipeline(scop);
    const pipeline::CommInfo comm = pipeline::analyzeCommunication(scop, info);

    codegen::TaskProgram prog = codegen::compilePipeline(scop);
    opt::optimize(prog);
    auto shared =
        std::make_shared<const codegen::TaskProgram>(std::move(prog));
    const opt::SlotTable slots = opt::buildSlotTable(*shared);

    tasking::ReplayOptions taskDepOptions;
    taskDepOptions.numThreads = cfg.threads;
    tasking::CompiledPipeline taskDep(shared, slots, taskDepOptions);
    tasking::ChannelOptions channelOptions;
    channelOptions.numWorkers = cfg.threads;
    tasking::ChannelPipeline channel(shared, channelOptions, &comm);

    // Correctness: streaming through either route with shared state must
    // equal back-to-back sequential runs (checked with the real kernel).
    bool fingerprintsOk = true;
    {
      kernels::SuiteRunner runner(spec, scop, 1);
      for (int b = 0; b < 3; ++b)
        tasking::executeSequential(scop, runner.executor());
      const std::uint64_t expected = runner.fingerprint();
      const tasking::BatchStatementExecutor exec =
          [&](std::size_t, std::size_t s, const pb::Tuple& it) {
            runner.execute(s, it);
          };
      for (const bool onChannel : {false, true}) {
        runner.reset();
        if (onChannel)
          channel.replayBatches(3, exec);
        else
          taskDep.replayBatches(3, exec);
        const bool ok = runner.fingerprint() == expected;
        if (!ok)
          std::fprintf(stderr, "MISMATCH %s threads=%u route=%s\n", cfg.prog,
                       cfg.threads, onChannel ? "channel" : "taskdep");
        fingerprintsOk = fingerprintsOk && ok;
      }
    }

    // Throughput: near-free bodies isolate the orchestration cost.
    std::atomic<std::uint64_t> instances{0};
    const tasking::BatchStatementExecutor counting =
        [&](std::size_t, std::size_t, const pb::Tuple&) {
          instances.fetch_add(1, std::memory_order_relaxed);
        };
    taskDep.replayBatches(2, counting);  // warm both routes
    channel.replayBatches(2, counting);
    instances.store(0);

    Stopwatch taskDepWatch;
    taskDep.replayBatches(batches, counting);
    const double taskDepTime = taskDepWatch.seconds();
    const std::uint64_t taskDepInstances = instances.exchange(0);

    Stopwatch channelWatch;
    channel.replayBatches(batches, counting);
    const double channelTime = channelWatch.seconds();
    fingerprintsOk = fingerprintsOk && instances.load() == taskDepInstances;

    const double speedup = channelTime > 0 ? taskDepTime / channelTime : 0.0;
    if (cfg.wide)
      bestWide = std::max(bestWide, speedup);
    failures += fingerprintsOk ? 0 : 1;
    const double perBatch = 1e6 / static_cast<double>(batches);
    table.addRow({cfg.prog, std::to_string(cfg.threads),
                  std::to_string(channel.program().numStatements),
                  std::to_string(comm.totalBytes()),
                  bench::fmt(taskDepTime * perBatch, 1),
                  bench::fmt(channelTime * perBatch, 1), bench::fmt(speedup),
                  fingerprintsOk ? "ok" : "FAIL (fingerprint)"});
    json.beginProgram(cfg.prog);
    json.field("threads", bench::JsonReport::num(std::uint64_t{cfg.threads}));
    json.field("wide", cfg.wide ? "true" : "false");
    json.field("comm_bytes", bench::JsonReport::num(comm.totalBytes()));
    json.field("taskdep_us_per_batch",
               bench::JsonReport::num(taskDepTime * perBatch));
    json.field("channel_us_per_batch",
               bench::JsonReport::num(channelTime * perBatch));
    json.field("throughput_x", bench::JsonReport::num(speedup));
    json.field("ok", fingerprintsOk ? "true" : "false");
  }
  table.print();
  std::printf("best wide-workload channel throughput: %.2fx%s\n", bestWide,
              check ? (bestWide >= 1.3 ? "  (>= 1.3x: PASS)"
                                       : "  (>= 1.3x: FAIL)")
                    : "");
  if (!jsonPath.empty()) {
    json.meta("best_wide_throughput_x", bench::JsonReport::num(bestWide));
    if (!json.write("bench_channel", jsonPath))
      return 1;
  }
  if (failures != 0)
    return 1;
  return check && bestWide < 1.3 ? 1 : 0;
}

// A 4-statement serial chain whose only heavy channel edge is the middle
// one (S1 -> S2 moves the full array; the outer edges move one element).
// The PR 8 DP, forced to one stage per worker, must cut the heavy edge
// across the 2x-numa domain boundary; the topology-aware partitioner
// keeps it domain-local — the shape the E22 gate is sharpest on.
scop::Scop middleHeavyChain(pb::Value n) {
  scop::ScopBuilder b("MH");
  std::vector<std::size_t> arrays;
  for (std::size_t k = 0; k < 4; ++k) {
    std::string name("A");
    name += std::to_string(k);
    arrays.push_back(b.array(name, {n + 1, n + 1}));
  }
  for (std::size_t k = 0; k < 4; ++k) {
    auto S = b.statement(indexedName("S", k), 2);
    S.bound(0, 0, n).bound(1, 0, n);
    S.write(arrays[k], {S.dim(0), S.dim(1)});
    S.read(arrays[k], {S.dim(0) + 1, S.dim(1) + 1});
    if (k == 2)
      S.read(arrays[1], {S.dim(0), S.dim(1)});
    else if (k > 0)
      S.read(arrays[k - 1], {S.constant(0), S.constant(0)});
  }
  return b.build();
}

int runNuma(bool smoke, bool check, const std::string& jsonPath) {
  const pb::Value n = smoke ? 10 : 16;
  const std::size_t batches = smoke ? 6 : 24;
  const unsigned workers = 4;
  const double remoteClass = 4.0;
  const double emulateNsPerByte = 2000.0;
  const rt::Topology numa = rt::Topology::numa2(workers, remoteClass);

  std::printf("== E22: topology-aware vs PR 8 placement on synthetic "
              "2x-numa (N=%lld, batches=%zu, %.0f ns/byte remote "
              "emulation) ==\n",
              static_cast<long long>(n), batches, emulateNsPerByte);

  struct NumaProgram {
    std::string name;
    scop::Scop scop;
  };
  std::vector<NumaProgram> programs;
  programs.push_back({"MH", middleHeavyChain(n)});
  for (const char* name : {"P5", "P8"})
    programs.push_back(
        {name, kernels::buildProgram(kernels::programByName(name), n)});

  bench::Table table({"prog", "placements", "aware_batch_us",
                      "pr8_batch_us", "speedup_x", "predicted", "status"});
  bench::JsonReport json;
  json.meta("experiment", bench::JsonReport::str("E22"));
  json.meta("n", bench::JsonReport::num(static_cast<std::uint64_t>(n)));
  json.meta("batches", bench::JsonReport::num(batches));
  json.meta("remote_class", bench::JsonReport::num(remoteClass));
  json.meta("emulate_ns_per_byte", bench::JsonReport::num(emulateNsPerByte));

  int failures = 0;
  double bestSpeedup = 0.0;
  bool rankingDisagreed = false;

  for (const NumaProgram& p : programs) {
    const pipeline::PipelineInfo info = pipeline::detectPipeline(p.scop);
    const pipeline::CommInfo comm =
        pipeline::analyzeCommunication(p.scop, info);
    codegen::TaskProgram prog = codegen::compilePipeline(p.scop);
    opt::optimize(prog);
    auto shared =
        std::make_shared<const codegen::TaskProgram>(std::move(prog));

    auto makePipe = [&](bool aware) {
      tasking::ChannelOptions options;
      options.numWorkers = workers;
      options.topology = numa;
      options.topologyAwarePlacement = aware;
      options.emulateRemoteNsPerByte = emulateNsPerByte;
      return std::make_unique<tasking::ChannelPipeline>(shared, options,
                                                        &comm);
    };
    auto aware = makePipe(true);
    auto base = makePipe(false);
    const bool placementsDiffer = aware->placement().workerOfStage !=
                                  base->placement().workerOfStage;

    // Correctness under the emulated machine: both placements must still
    // reproduce the sequential fingerprint.
    bool ok = true;
    const std::uint64_t expected = verify::sequentialFingerprint(p.scop);
    for (tasking::ChannelPipeline* pipe : {aware.get(), base.get()}) {
      verify::InterpretedKernel kernel(p.scop);
      pipe->replay(kernel.executor());
      if (kernel.fingerprint() != expected) {
        ok = false;
        std::fprintf(stderr, "MISMATCH %s %s placement\n", p.name.c_str(),
                     pipe == aware.get() ? "aware" : "pr8");
      }
    }

    // Throughput A/B: near-free bodies, so the emulated cross-domain
    // pushes are the dominant term the placements trade in.
    std::atomic<std::uint64_t> instances{0};
    const tasking::BatchStatementExecutor counting =
        [&](std::size_t, std::size_t, const pb::Tuple&) {
          instances.fetch_add(1, std::memory_order_relaxed);
        };
    aware->replayBatches(2, counting);
    base->replayBatches(2, counting);

    Stopwatch awareWatch;
    aware->replayBatches(batches, counting);
    const double awareTime = awareWatch.seconds();
    Stopwatch baseWatch;
    base->replayBatches(batches, counting);
    const double baseTime = baseWatch.seconds();
    const double speedup = awareTime > 0 ? baseTime / awareTime : 0.0;
    if (placementsDiffer)
      bestSpeedup = std::max(bestSpeedup, speedup);

    // Predicted ranking, under a comm-dominant cost model mirroring the
    // emulated link: the simulator must order the two placements the way
    // the measurement does (E22's predicted-vs-measured claim).
    sim::CostModel model;
    model.iterationCost.assign(p.scop.numStatements(), 1e-9);
    model.commCostPerByte = emulateNsPerByte * 1e-9;
    const double predictedAware =
        sim::simulateChannels(*shared, comm, model, numa,
                              aware->placement())
            .makespan;
    const double predictedBase =
        sim::simulateChannels(*shared, comm, model, numa, base->placement())
            .makespan;
    std::string predicted = "tie";
    if (placementsDiffer) {
      const bool predictsAware = predictedAware < predictedBase;
      const bool measuresAware = awareTime < baseTime;
      predicted = predictsAware == measuresAware ? "agrees" : "DISAGREES";
      rankingDisagreed = rankingDisagreed || predictsAware != measuresAware;
    }

    failures += ok ? 0 : 1;
    const double perBatch = 1e6 / static_cast<double>(batches);
    table.addRow({p.name, placementsDiffer ? "differ" : "equal",
                  bench::fmt(awareTime * perBatch, 1),
                  bench::fmt(baseTime * perBatch, 1), bench::fmt(speedup),
                  predicted, ok ? "ok" : "FAIL (fingerprint)"});
    json.beginProgram(p.name.c_str());
    json.field("placements_differ", placementsDiffer ? "true" : "false");
    json.field("aware_us_per_batch",
               bench::JsonReport::num(awareTime * perBatch));
    json.field("pr8_us_per_batch",
               bench::JsonReport::num(baseTime * perBatch));
    json.field("speedup_x", bench::JsonReport::num(speedup));
    json.field("aware_comm_cost",
               bench::JsonReport::num(aware->placement().commCost));
    json.field("pr8_comm_cost",
               bench::JsonReport::num(base->placement().commCost));
    json.field("cross_domain_bytes_aware",
               bench::JsonReport::num(aware->placement().crossDomainBytes));
    json.field("cross_domain_bytes_pr8",
               bench::JsonReport::num(base->placement().crossDomainBytes));
    json.field("predicted_ranking", bench::JsonReport::str(predicted));
    json.field("ok", ok ? "true" : "false");
  }
  table.print();

  // Lambda sweep: the objective's load-vs-bytes exchange rate, placement
  // stats only (no execution — the partitioner is microseconds).
  {
    const scop::Scop scop = middleHeavyChain(n);
    const pipeline::PipelineInfo info = pipeline::detectPipeline(scop);
    const pipeline::CommInfo comm = pipeline::analyzeCommunication(scop, info);
    codegen::TaskProgram prog = codegen::compilePipeline(scop);
    opt::optimize(prog);
    std::vector<std::size_t> stageTasks(scop.numStatements(), 0);
    for (const codegen::Task& t : prog.tasks)
      ++stageTasks[t.stmtIdx];
    std::vector<std::size_t> stmtOfStage(scop.numStatements());
    for (std::size_t s = 0; s < stmtOfStage.size(); ++s)
      stmtOfStage[s] = s;
    const std::vector<rt::StageEdge> edges = comm.stageEdges(stmtOfStage);

    bench::Table sweep({"lambda", "max_load", "cross_worker_bytes",
                        "cross_domain_bytes", "comm_cost"});
    for (const double lambda : {0.0, 0.25, 1.0, 4.0}) {
      const rt::Placement placed = rt::placeStagesTopology(
          stageTasks, workers, edges, numa, rt::PlacementOptions{lambda});
      sweep.addRow({bench::fmt(lambda), std::to_string(placed.maxLoad),
                    std::to_string(placed.crossWorkerBytes),
                    std::to_string(placed.crossDomainBytes),
                    bench::fmt(placed.commCost, 1)});
    }
    std::printf("\nlambda sweep (MH, 2x-numa):\n");
    sweep.print();
  }

  // Topology ablation: the aware route on each preset, same emulation.
  {
    const scop::Scop scop = middleHeavyChain(n);
    const pipeline::PipelineInfo info = pipeline::detectPipeline(scop);
    const pipeline::CommInfo comm = pipeline::analyzeCommunication(scop, info);
    codegen::TaskProgram prog = codegen::compilePipeline(scop);
    opt::optimize(prog);
    auto shared =
        std::make_shared<const codegen::TaskProgram>(std::move(prog));
    std::atomic<std::uint64_t> instances{0};
    const tasking::BatchStatementExecutor counting =
        [&](std::size_t, std::size_t, const pb::Tuple&) {
          instances.fetch_add(1, std::memory_order_relaxed);
        };
    bench::Table ablation(
        {"topology", "batch_us", "cross_domain_bytes", "comm_cost"});
    for (const char* preset : {"uma", "2x-numa", "ring"}) {
      tasking::ChannelOptions options;
      options.numWorkers = workers;
      options.topology = rt::Topology::fromSpec(preset, workers);
      options.emulateRemoteNsPerByte = emulateNsPerByte;
      tasking::ChannelPipeline pipe(shared, options, &comm);
      pipe.replayBatches(2, counting);
      Stopwatch watch;
      pipe.replayBatches(batches, counting);
      const double time = watch.seconds();
      ablation.addRow(
          {preset,
           bench::fmt(time * 1e6 / static_cast<double>(batches), 1),
           std::to_string(pipe.placement().crossDomainBytes),
           bench::fmt(pipe.placement().commCost, 1)});
      json.beginProgram((std::string("MH/") + preset).c_str());
      json.field("aware_us_per_batch",
                 bench::JsonReport::num(time * 1e6 /
                                        static_cast<double>(batches)));
      json.field("cross_domain_bytes",
                 bench::JsonReport::num(pipe.placement().crossDomainBytes));
    }
    std::printf("\ntopology ablation (MH, topology-aware placement):\n");
    ablation.print();
  }

  std::printf("\nbest aware-over-PR8 speedup (differing placements): "
              "%.2fx%s%s\n",
              bestSpeedup,
              check ? (bestSpeedup >= 1.15 ? "  (>= 1.15x: PASS)"
                                           : "  (>= 1.15x: FAIL)")
                    : "",
              rankingDisagreed ? "  [predicted ranking DISAGREES]" : "");
  if (!jsonPath.empty()) {
    json.meta("numa_gate_x", bench::JsonReport::num(bestSpeedup));
    json.meta("predicted_ranking_ok",
              rankingDisagreed ? "false" : "true");
    if (!json.write("bench_numa", jsonPath))
      return 1;
  }
  if (failures != 0)
    return 1;
  return check && (bestSpeedup < 1.15 || rankingDisagreed) ? 1 : 0;
}

} // namespace

int main(int argc, char** argv) {
  bool smoke = false, check = false, numa = false;
  std::string jsonPath;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0)
      smoke = true;
    else if (std::strcmp(argv[i], "--check") == 0)
      check = true;
    else if (std::strcmp(argv[i], "--numa") == 0)
      numa = true;
    else if (std::strncmp(argv[i], "--json=", 7) == 0)
      jsonPath = argv[i] + 7;
  }
  return numa ? runNuma(smoke, check, jsonPath) : run(smoke, check, jsonPath);
}
