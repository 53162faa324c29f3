// Demonstrates the paper's portability claim (§5.5/§7): the tasking layer
// is independent of task creation and scheduling, so swapping the backend
// is a matter of implementing the CreateTask interface. Here a custom
// instrumented backend wraps an inner layer, counts tasks and
// dependencies, and records the maximum dependency depth — without any
// change to the compilation pipeline.
//
// Run:  ./build/examples/custom_backend

#include "codegen/task_program.hpp"
#include "scop/builder.hpp"
#include "support/str.hpp"
#include "tasking/executor.hpp"
#include "tasking/tasking.hpp"

#include <cstdio>
#include <map>
#include <memory>
#include <vector>

using namespace pipoly;

namespace {

/// A user-written tasking backend: delegates execution to any inner layer
/// while gathering statistics about the task graph it is handed.
class InstrumentedLayer final : public tasking::TaskingLayer {
public:
  explicit InstrumentedLayer(std::unique_ptr<tasking::TaskingLayer> inner)
      : inner_(std::move(inner)) {}

  std::string_view name() const override { return "instrumented"; }

  void createTask(tasking::TaskFunction f, const void* input,
                  std::size_t inputSize, std::int64_t outDepend, int outIdx,
                  const std::int64_t* inDepend, const int* inIdx,
                  std::size_t dependNum) override {
    ++tasks_;
    totalDeps_ += dependNum;
    // Dependency depth: 1 + max depth of the slots this task waits on.
    std::size_t depth = 1;
    for (std::size_t k = 0; k < dependNum; ++k) {
      auto it = slotDepth_.find({inIdx[k], inDepend[k]});
      if (it != slotDepth_.end())
        depth = std::max(depth, it->second + 1);
    }
    slotDepth_[{outIdx, outDepend}] = depth;
    maxDepth_ = std::max(maxDepth_, depth);
    inner_->createTask(f, input, inputSize, outDepend, outIdx, inDepend,
                       inIdx, dependNum);
  }

  void run(const std::function<void()>& spawner) override {
    inner_->run(spawner);
  }

  std::size_t tasks() const { return tasks_; }
  std::size_t totalDeps() const { return totalDeps_; }
  std::size_t maxDepth() const { return maxDepth_; }

private:
  std::unique_ptr<tasking::TaskingLayer> inner_;
  std::size_t tasks_ = 0, totalDeps_ = 0, maxDepth_ = 0;
  std::map<std::pair<int, std::int64_t>, std::size_t> slotDepth_;
};

/// A simple 3-nest producer/consumer chain.
scop::Scop buildChain() {
  constexpr pb::Value n = 16;
  scop::ScopBuilder b("chain3");
  std::vector<std::size_t> arrays;
  for (int k = 0; k < 3; ++k)
    arrays.push_back(b.array(indexedName("A", static_cast<std::size_t>(k)), {n + 1, n + 1}));
  for (int k = 0; k < 3; ++k) {
    auto S = b.statement(indexedName("S", static_cast<std::size_t>(k)), 2);
    S.bound(0, 0, n).bound(1, 0, n);
    S.write(arrays[static_cast<std::size_t>(k)], {S.dim(0), S.dim(1)});
    S.read(arrays[static_cast<std::size_t>(k)],
           {S.dim(0) + 1, S.dim(1) + 1});
    if (k > 0)
      S.read(arrays[static_cast<std::size_t>(k) - 1], {S.dim(0), S.dim(1)});
  }
  return b.build();
}

} // namespace

int main() {
  scop::Scop scop = buildChain();
  codegen::TaskProgram prog = codegen::compilePipeline(scop);

  InstrumentedLayer layer(tasking::makeThreadPoolBackend(4));

  std::vector<int> executed(scop.numStatements(), 0);
  std::mutex m;
  tasking::executeTaskProgram(
      prog, layer, [&](std::size_t stmt, const pb::Tuple&) {
        std::lock_guard lock(m);
        ++executed[stmt];
      });

  std::printf("custom backend '%s' observed:\n",
              std::string(layer.name()).c_str());
  std::printf("  tasks created:        %zu\n", layer.tasks());
  std::printf("  dependency edges:     %zu\n", layer.totalDeps());
  std::printf("  max dependency depth: %zu\n", layer.maxDepth());
  for (std::size_t s = 0; s < executed.size(); ++s)
    std::printf("  statement %s executed %d instances (domain %zu)\n",
                scop.statement(s).name().c_str(), executed[s],
                scop.statement(s).domain().size());

  bool ok = true;
  for (std::size_t s = 0; s < executed.size(); ++s)
    ok = ok && executed[s] ==
                   static_cast<int>(scop.statement(s).domain().size());
  std::printf("%s\n", ok ? "OK: every instance executed exactly once"
                         : "MISMATCH in executed instance counts");
  return ok ? 0 : 1;
}
