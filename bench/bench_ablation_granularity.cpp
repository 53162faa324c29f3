// Ablation for the paper's §7 future-work question: task granularity.
// Two knobs are swept:
//   * block coarsening — merges consecutive pipeline blocks into one
//     task, trading parallel overlap against per-task spawn overhead;
//   * DetectOptions::reductionBlocks — the partial-block count a relaxed
//     accumulation nest splits into, trading combine fan-in against
//     parallel partial work.
// The reduction sweep prices each candidate with the placed channel
// simulator (sim::simulateChannels over the channel engine's own
// placement, ChannelPipeline::placement()), so the chosen value reflects
// which partials share a worker, not just how many there are. The
// policy stays a knob — the sweep documents the auto-tuning path and
// records the sweep-chosen value per kernel in the JSON output
// (--json=FILE).

#include "bench_common.hpp"

#include "codegen/task_program.hpp"
#include "kernels/reduction_kernels.hpp"
#include "kernels/suite.hpp"
#include "pipeline/comm.hpp"
#include "pipeline/detect.hpp"
#include "sim/simulator.hpp"
#include "tasking/channel_backend.hpp"

#include <cstdio>
#include <string>
#include <vector>

int main(int argc, char** argv) {
  using namespace pipoly;
  std::string jsonPath;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--json=", 0) == 0) {
      jsonPath = arg.substr(7);
    } else {
      std::printf("usage: bench_ablation_granularity [--json=FILE]\n");
      return 2;
    }
  }

  std::printf("== Ablation: task granularity (block coarsening) ==\n");
  std::printf("Program P5, N = 32, simulated 8 workers. Two cost regimes: "
              "cheap iterations (5 us, overhead-sensitive) and expensive "
              "iterations (200 us).\n\n");

  const double taskOverhead = bench::measureTaskOverhead();
  std::printf("measured task overhead: %.2f us\n\n", taskOverhead * 1e6);

  bench::JsonReport json;
  json.meta("experiment", bench::JsonReport::str("granularity"));
  json.meta("task_overhead_us", bench::JsonReport::num(taskOverhead * 1e6));

  {
    const kernels::ProgramSpec& spec = kernels::programByName("P5");
    scop::Scop scop = kernels::buildProgram(spec, 32);

    bench::Table table({"coarsening", "tasks", "speedup(cheap)",
                        "speedup(expensive)"});

    for (std::size_t factor : {1u, 2u, 4u, 8u, 16u, 32u, 64u, 128u}) {
      pipeline::DetectOptions opt;
      opt.coarsening = factor;
      codegen::TaskProgram prog = codegen::compilePipeline(scop, opt);

      std::vector<std::string> row{std::to_string(factor),
                                   std::to_string(prog.tasks.size())};
      for (double iterCost : {5e-6, 200e-6}) {
        sim::CostModel model;
        model.iterationCost.assign(scop.numStatements(), iterCost);
        model.taskOverhead = taskOverhead;
        const double seq = sim::sequentialTime(scop, model);
        sim::SimResult r = sim::simulate(prog, model, sim::SimConfig{8});
        row.push_back(bench::fmt(r.speedupOver(seq)));
      }
      table.addRow(std::move(row));
    }
    table.print();
    std::printf("\nExpectation: with cheap iterations, moderate coarsening "
                "beats factor 1 (overhead amortisation); with expensive "
                "iterations, fine blocks win (maximum overlap).\n");
  }

  // Reduction-block sweep: for each reduction kernel, sweep the partial
  // block count and pick the value the placed channel simulator predicts
  // fastest. More partials mean more parallel accumulation but a wider
  // combine fan-in and more placed stages competing for the same
  // workers; the placement decides which stages share a worker and
  // which edges pay the transfer. Kernels whose accumulation nest
  // is already subdivided by an upstream pipeline map (dot_product_chain,
  // histogram, stencil_accumulate) are insensitive to the knob — their
  // flat rows document that; norm_accumulate takes the pure-accumulation
  // route where the knob is the only source of partial blocks.
  //
  // The sweep records a chosen value per route. The task-graph route
  // spreads partials across the pool. The channel route runs partials
  // fed by a producer on one stage, so for them extra blocks only widen
  // the combine fan-in; norm_accumulate's unfed partials split into up
  // to one lane stage per worker. The channel-route prediction uses the
  // engine's own placement.
  std::printf("\n== Ablation: reduction partial blocks "
              "(DetectOptions::reductionBlocks) ==\n");
  const unsigned workers = 8;
  std::printf("Reduction kernels, N = 32, %u workers. Predicted "
              "channel-route makespan, cheap-iteration regime.\n\n",
              workers);

  for (const kernels::ReductionKernelSpec& spec :
       kernels::reductionKernels()) {
    const scop::Scop scop = spec.build(32);
    bench::Table table({"reduction_blocks", "tasks", "channel_us", "pool_us",
                        "cross_worker_bytes"});
    std::size_t chosenChan = 0, chosenPool = 0;
    double bestChan = 0.0, bestPool = 0.0;
    std::string sweepJson = "[";
    for (std::size_t blocks : {1u, 2u, 4u, 8u, 16u, 32u, 64u}) {
      pipeline::DetectOptions opt;
      opt.reductionBlocks = blocks;
      const pipeline::PipelineInfo info = pipeline::detectPipeline(scop, opt);
      const pipeline::CommInfo comm =
          pipeline::analyzeCommunication(scop, info);
      const codegen::TaskProgram prog = codegen::compilePipeline(scop, opt);
      // Built only for its placement: a pipeline that is never replayed
      // starts no worker thread.
      tasking::ChannelOptions channelOptions;
      channelOptions.numWorkers = workers;
      const tasking::ChannelPipeline pipe(prog, channelOptions, &comm);

      sim::CostModel model;
      model.iterationCost.assign(scop.numStatements(), 5e-6);
      model.taskOverhead = taskOverhead;
      model.channelTokenOverhead = taskOverhead;
      model.commCostPerByte = 1e-9;
      const sim::ChannelSimResult chan =
          sim::simulateChannels(prog, comm, model, pipe.placement());
      const sim::SimResult pool =
          sim::simulate(prog, model, sim::SimConfig{workers});

      if (chosenChan == 0 || chan.makespan < bestChan) {
        chosenChan = blocks;
        bestChan = chan.makespan;
      }
      if (chosenPool == 0 || pool.makespan < bestPool) {
        chosenPool = blocks;
        bestPool = pool.makespan;
      }
      if (sweepJson.size() > 1)
        sweepJson += ", ";
      sweepJson += "{\"reduction_blocks\": " + std::to_string(blocks) +
                   ", \"channel_makespan_us\": " +
                   bench::JsonReport::num(chan.makespan * 1e6) +
                   ", \"pool_makespan_us\": " +
                   bench::JsonReport::num(pool.makespan * 1e6) + "}";
      table.addRow({std::to_string(blocks), std::to_string(prog.tasks.size()),
                    bench::fmt(chan.makespan * 1e6, 1),
                    bench::fmt(pool.makespan * 1e6, 1),
                    std::to_string(pipe.placement().crossWorkerBytes)});
    }
    sweepJson += "]";

    std::printf("%s (reduction stmt S%zu):\n", spec.name.c_str(),
                spec.reductionStmt);
    table.print();
    std::printf("  sweep-chosen reductionBlocks: channel route %zu "
                "(%.1f us), pool route %zu (%.1f us); default policy "
                "stays %zu\n\n",
                chosenChan, bestChan * 1e6, chosenPool, bestPool * 1e6,
                pipeline::DetectOptions{}.reductionBlocks);

    json.beginProgram(spec.name);
    json.field("reduction_stmt",
               bench::JsonReport::num(
                   static_cast<std::uint64_t>(spec.reductionStmt)));
    json.field("sweep", sweepJson);
    json.field("chosen_reduction_blocks_channel",
               bench::JsonReport::num(static_cast<std::uint64_t>(chosenChan)));
    json.field("chosen_channel_makespan_us",
               bench::JsonReport::num(bestChan * 1e6));
    json.field("chosen_reduction_blocks_pool",
               bench::JsonReport::num(static_cast<std::uint64_t>(chosenPool)));
    json.field("chosen_pool_makespan_us",
               bench::JsonReport::num(bestPool * 1e6));
    json.field("default_reduction_blocks",
               bench::JsonReport::num(static_cast<std::uint64_t>(
                   pipeline::DetectOptions{}.reductionBlocks)));
  }

  std::printf("The policy stays a knob (DetectOptions::reductionBlocks); "
              "the sweep documents the auto-tuning path.\n");

  if (!jsonPath.empty() &&
      !json.write("bench_ablation_granularity", jsonPath))
    return 1;
  return 0;
}
