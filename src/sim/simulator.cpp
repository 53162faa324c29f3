#include "sim/simulator.hpp"

#include "support/assert.hpp"

#include <algorithm>
#include <map>
#include <queue>

namespace pipoly::sim {

SimResult simulate(const codegen::TaskProgram& program, const CostModel& model,
                   const SimConfig& config) {
  return simulate(program, opt::buildSlotTable(program), model, config);
}

SimResult simulate(const codegen::TaskProgram& program,
                   const opt::SlotTable& slots, const CostModel& model,
                   const SimConfig& config) {
  PIPOLY_CHECK(config.workers >= 1);
  const std::size_t n = program.tasks.size();
  PIPOLY_CHECK_MSG(slots.numSlots == n,
                   "slot table does not match the task program");

  // Producer slot ids are task ids: O(1) per edge, no hashing.
  std::vector<std::vector<std::size_t>> dependents(n);
  std::vector<std::size_t> indegree(n, 0);
  for (std::size_t id = 0; id < n; ++id) {
    for (const std::uint32_t* s = slots.inBegin(id); s != slots.inEnd(id);
         ++s) {
      dependents[*s].push_back(id);
      ++indegree[id];
    }
  }

  std::vector<double> cost(n);
  SimResult result;
  result.workers = config.workers;
  result.numTasks = n;
  for (const codegen::Task& t : program.tasks) {
    cost[t.id] = model.taskCost(t);
    result.totalWork += cost[t.id];
  }

  // Critical path (tasks are creation-ordered, edges point forward).
  std::vector<double> cp(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    cp[i] += cost[i];
    result.criticalPath = std::max(result.criticalPath, cp[i]);
    for (std::size_t d : dependents[i])
      cp[d] = std::max(cp[d], cp[i]);
  }

  // Greedy list scheduling; the ready set dispatches lowest id first.
  std::priority_queue<std::size_t, std::vector<std::size_t>, std::greater<>>
      ready;
  for (std::size_t i = 0; i < n; ++i)
    if (indegree[i] == 0)
      ready.push(i);

  // (finish time, task, worker)
  using Event = std::tuple<double, std::size_t, unsigned>;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> running;
  std::vector<unsigned> freeWorkers;
  for (unsigned w = config.workers; w-- > 0;)
    freeWorkers.push_back(w);
  double now = 0.0;
  std::size_t finished = 0;
  result.events.reserve(n);

  while (finished < n) {
    // Dispatch as many ready tasks as there are free workers.
    while (!ready.empty() && !freeWorkers.empty()) {
      std::size_t task = ready.top();
      ready.pop();
      unsigned worker = freeWorkers.back();
      freeWorkers.pop_back();
      result.events.push_back(
          ScheduleEvent{task, worker, now, now + cost[task]});
      running.emplace(now + cost[task], task, worker);
    }
    PIPOLY_CHECK_MSG(!running.empty(),
                     "deadlock in task graph simulation (cycle?)");
    auto [finishTime, task, worker] = running.top();
    running.pop();
    now = finishTime;
    freeWorkers.push_back(worker);
    ++finished;
    for (std::size_t d : dependents[task])
      if (--indegree[d] == 0)
        ready.push(d);
  }
  result.makespan = now;
  return result;
}

namespace {

/// Shared DES of the channel route on the stage layout for `workers`.
/// `placement` null = the placement-free model (one idealized worker per
/// stage, every cross-stage edge pays the transfer).
ChannelSimResult
simulateChannelsImpl(const codegen::TaskProgram& program,
                     const pipeline::CommInfo& comm, const CostModel& model,
                     unsigned workers, const rt::Placement* placement) {
  ChannelSimResult result;
  const std::size_t n = program.tasks.size();
  if (n == 0)
    return result;
  const codegen::StageLayout p = codegen::stageLayout(program, workers);
  result.numStages = p.stmtOf.size();
  if (placement != nullptr)
    PIPOLY_CHECK_MSG(placement->workerOfStage.size() == result.numStages,
                     "placement does not match the program's stage count");
  const opt::SlotTable slots = opt::buildSlotTable(program);

  // Channel edges present in this program: distinct cross-stage pairs.
  std::map<std::pair<std::size_t, std::size_t>, std::size_t> edgeIdx;
  auto edgeFor = [&](std::size_t srcStage, std::size_t tgtStage) {
    const auto [it, fresh] =
        edgeIdx.try_emplace({srcStage, tgtStage}, result.edges.size());
    if (fresh) {
      ChannelEdgeLoad load;
      load.srcStmt = p.stmtOf[srcStage];
      load.tgtStmt = p.stmtOf[tgtStage];
      if (const pipeline::EdgeComm* e =
              comm.edge(load.srcStmt, load.tgtStmt)) {
        load.totalBytes = e->totalBytes;
        load.capacitySlots = e->capacitySlots;
      }
      load.bytesPerToken = p.stageTasks[srcStage] > 0
                               ? static_cast<double>(load.totalBytes) /
                                     static_cast<double>(
                                         p.stageTasks[srcStage])
                               : 0.0;
      result.edges.push_back(load);
    }
    return it->second;
  };

  // Single-pass DES: tasks in creation order is a topological order, and
  // within a stage it is *the* execution order of the channel route. A
  // task starts when its stage predecessor finished and every cross-stage
  // token arrived (producer finish + edge latency); its body costs only
  // the iterations — the route spawns no tasks and hashes no slots.
  // Under a placement, stages sharing a worker additionally serialize on
  // that worker's clock, and only cross-worker transfers move bytes.
  std::vector<double> finish(n, 0.0);
  std::vector<double> stageClock(result.numStages, 0.0);
  std::vector<double> workerClock(
      placement != nullptr ? placement->ownedStages.size() : 0, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const codegen::Task& task = program.tasks[i];
    const auto [stage, pos] = p.place[i];
    (void)pos;
    double start = stageClock[stage];
    if (placement != nullptr)
      start = std::max(start, workerClock[placement->workerOfStage[stage]]);
    for (const std::uint32_t* s = slots.inBegin(i); s != slots.inEnd(i);
         ++s) {
      const std::size_t srcStage = p.place[*s].first;
      if (srcStage == stage) {
        start = std::max(start, finish[*s]);
        continue;
      }
      const ChannelEdgeLoad& load = result.edges[edgeFor(srcStage, stage)];
      double latency = model.channelTokenOverhead;
      // A same-worker edge's token is a local counter bump: no move.
      if (placement == nullptr || placement->workerOfStage[srcStage] !=
                                      placement->workerOfStage[stage])
        latency += model.commCostPerByte * load.bytesPerToken;
      start = std::max(start, finish[*s] + latency);
      result.commTime += latency;
    }
    finish[i] = start + static_cast<double>(task.iterations.size()) *
                            model.iterationCost.at(task.stmtIdx);
    stageClock[stage] = finish[i];
    if (placement != nullptr)
      workerClock[placement->workerOfStage[stage]] = finish[i];
    result.makespan = std::max(result.makespan, finish[i]);
  }

  // Peak occupancy per edge: a token appears at its producer's finish
  // and is retired at the start of the earliest consumer task depending
  // on that producer (tokens nobody waits on stay in flight to the end).
  for (const auto& [pair, ei] : edgeIdx) {
    std::vector<std::pair<double, int>> deltas;
    std::vector<double> retire(n, -1.0);
    for (std::size_t i = 0; i < n; ++i) {
      if (p.place[i].first != pair.second)
        continue;
      const double start = finish[i] - static_cast<double>(
                                           program.tasks[i].iterations.size()) *
                                           model.iterationCost.at(
                                               program.tasks[i].stmtIdx);
      for (const std::uint32_t* s = slots.inBegin(i); s != slots.inEnd(i);
           ++s)
        if (p.place[*s].first == pair.first &&
            (retire[*s] < 0.0 || start < retire[*s]))
          retire[*s] = start;
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (p.place[i].first != pair.first)
        continue;
      deltas.emplace_back(finish[i], +1);
      if (retire[i] >= 0.0)
        deltas.emplace_back(retire[i], -1);
    }
    std::sort(deltas.begin(), deltas.end(),
              [](const auto& a, const auto& b) {
                // Retire before push at equal timestamps: the consumer's
                // poll drains before the producer's next push lands.
                return a.first != b.first ? a.first < b.first
                                          : a.second < b.second;
              });
    int live = 0, peak = 0;
    for (const auto& [ts, delta] : deltas)
      peak = std::max(peak, live += delta);
    result.edges[ei].peakTokens = static_cast<std::uint32_t>(peak);
    result.bytesMoved += result.edges[ei].totalBytes;
  }
  return result;
}

} // namespace

ChannelSimResult simulateChannels(const codegen::TaskProgram& program,
                                  const pipeline::CommInfo& comm,
                                  const CostModel& model, unsigned workers) {
  return simulateChannelsImpl(program, comm, model,
                              codegen::channelWorkers(workers), nullptr);
}

ChannelSimResult simulateChannels(const codegen::TaskProgram& program,
                                  const pipeline::CommInfo& comm,
                                  const CostModel& model,
                                  const rt::Placement& placement) {
  return simulateChannelsImpl(
      program, comm, model,
      static_cast<unsigned>(std::max<std::size_t>(
          placement.ownedStages.size(), 1)),
      &placement);
}

double sequentialTime(const scop::Scop& scop, const CostModel& model) {
  double total = 0.0;
  for (std::size_t s = 0; s < scop.numStatements(); ++s)
    total += static_cast<double>(scop.statement(s).domain().size()) *
             model.iterationCost.at(s);
  return total;
}

double maxNestTime(const scop::Scop& scop, const CostModel& model) {
  double best = 0.0;
  for (std::size_t s = 0; s < scop.numStatements(); ++s)
    best = std::max(best,
                    static_cast<double>(scop.statement(s).domain().size()) *
                        model.iterationCost.at(s));
  return best;
}

std::string renderTimeline(const SimResult& result,
                           const codegen::TaskProgram& program,
                           const scop::Scop& scop, std::size_t width) {
  PIPOLY_CHECK(width >= 10);
  std::string out;
  if (result.makespan <= 0.0)
    return out;
  const double scale = static_cast<double>(width) / result.makespan;

  std::vector<std::string> rows(result.workers, std::string(width, '.'));
  for (const ScheduleEvent& ev : result.events) {
    const std::size_t stmt = program.tasks.at(ev.taskId).stmtIdx;
    const char symbol = scop.statement(stmt).name().empty()
                            ? '?'
                            : scop.statement(stmt).name().front();
    auto begin = static_cast<std::size_t>(ev.start * scale);
    auto end = static_cast<std::size_t>(ev.finish * scale);
    begin = std::min(begin, width - 1);
    end = std::min(std::max(end, begin + 1), width);
    for (std::size_t c = begin; c < end; ++c)
      rows[ev.worker][c] = symbol;
  }

  std::ostringstream os;
  os << "time 0";
  for (std::size_t c = 6; c + 12 < width; ++c)
    os << ' ';
  os << "-> " << result.makespan << " s\n";
  for (unsigned w = 0; w < result.workers; ++w)
    os << 'w' << w << " |" << rows[w] << "|\n";
  return os.str();
}

void appendPredictedTimeline(trace::Trace& trace, const SimResult& result,
                             const codegen::TaskProgram& program,
                             const scop::Scop& scop) {
  const std::uint64_t base = trace.threads.size();
  for (unsigned w = 0; w < result.workers; ++w)
    trace.threads.push_back(trace::ThreadInfo{
        "predicted worker " + std::to_string(w), /*pid=*/2});

  // Keep per-tid timestamps monotone: group events by worker (they are
  // already non-overlapping and start-ordered within one worker).
  for (unsigned w = 0; w < result.workers; ++w) {
    for (const ScheduleEvent& ev : result.events) {
      if (ev.worker != w)
        continue;
      const codegen::Task& task = program.tasks.at(ev.taskId);
      const std::string name =
          scop.statement(task.stmtIdx).name() + task.blockRep.toString();
      const std::uint64_t tid = base + w;
      trace::TraceEvent begin;
      begin.kind = trace::EventKind::Begin;
      begin.name = name;
      begin.arg = static_cast<std::int64_t>(ev.taskId);
      begin.tsNanos = static_cast<std::int64_t>(ev.start * 1e9);
      begin.tid = tid;
      trace::TraceEvent end = begin;
      end.kind = trace::EventKind::End;
      end.tsNanos = static_cast<std::int64_t>(ev.finish * 1e9);
      trace.events.push_back(std::move(begin));
      trace.events.push_back(std::move(end));
    }
  }
}

} // namespace pipoly::sim
