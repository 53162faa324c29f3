#pragma once

// Test-only oracle for TaskDep::producer: resolves every dependency to its
// producing task through its (idx, tag) pair alone, with one flat
// open-addressing table over the tasks' out tags — the resolution every
// layer ran before lowering recorded producer ids. Hand-built programs
// fill their ids through it, and the corpus tests check the lowered and
// optimized ids against it.

#include "codegen/task_program.hpp"
#include "support/assert.hpp"

#include <cstdint>
#include <optional>
#include <vector>

namespace pipoly::testing {

/// Task i's producers are producers[offsets[i] .. offsets[i + 1]), in the
/// order of its `in` list.
struct ResolvedDependencies {
  std::vector<std::uint32_t> producers;
  std::vector<std::uint32_t> offsets; // tasks + 1 entries
};

/// (idx, tag) -> task position.
class OutTagIndex {
public:
  static constexpr std::uint32_t kNone = UINT32_MAX;

  /// Any task type with an `out` TaskDep (codegen::Task, LegacyTask).
  template <class TaskT> explicit OutTagIndex(const std::vector<TaskT>& tasks) {
    PIPOLY_CHECK_MSG(tasks.size() < kNone, "task program too large");
    std::size_t capacity = 16;
    while (capacity < 2 * tasks.size())
      capacity *= 2;
    mask_ = capacity - 1;
    slots_.assign(capacity, Slot{});
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      const codegen::TaskDep& out = tasks[i].out;
      std::size_t k = hash(out.idx, out.tag);
      for (; slots_[k].id != kNone; k = (k + 1) & mask_)
        PIPOLY_CHECK_MSG(slots_[k].idx != out.idx || slots_[k].tag != out.tag,
                         "duplicate out-dependency tag");
      slots_[k] = Slot{out.tag, out.idx, static_cast<std::uint32_t>(i)};
    }
  }

  /// Position of the task whose out tag is (idx, tag), or kNone.
  std::uint32_t find(int idx, std::int64_t tag) const {
    for (std::size_t k = hash(idx, tag);; k = (k + 1) & mask_) {
      const Slot& slot = slots_[k];
      if (slot.id == kNone || (slot.tag == tag && slot.idx == idx))
        return slot.id;
    }
  }

private:
  struct Slot {
    std::int64_t tag = 0;
    int idx = 0;
    std::uint32_t id = kNone;
  };

  std::size_t hash(int idx, std::int64_t tag) const {
    std::uint64_t h =
        static_cast<std::uint64_t>(tag) ^
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(idx)) << 40);
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
    h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
    return static_cast<std::size_t>(h ^ (h >> 31)) & mask_;
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
};

/// Resolves every in-dependency by its (idx, tag) pair. Throws when two
/// tasks share an out tag or an in-dependency names no task or a later
/// one (creation order).
template <class TaskT>
ResolvedDependencies resolveDependencies(const std::vector<TaskT>& tasks) {
  const OutTagIndex index(tasks);
  ResolvedDependencies deps;
  deps.offsets.reserve(tasks.size() + 1);
  deps.offsets.push_back(0);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    for (const codegen::TaskDep& dep : tasks[i].in) {
      const std::uint32_t p = index.find(dep.idx, dep.tag);
      PIPOLY_CHECK_MSG(p != OutTagIndex::kNone,
                       "in-dependency with no producing task");
      PIPOLY_CHECK_MSG(p < i, "in-dependency on a later task (creation order)");
      deps.producers.push_back(p);
    }
    deps.offsets.push_back(static_cast<std::uint32_t>(deps.producers.size()));
  }
  return deps;
}

inline ResolvedDependencies
resolveDependencies(const codegen::TaskProgram& program) {
  return resolveDependencies(program.tasks);
}

/// Fills every dependency's producer from its (idx, tag) pair: each out
/// names its own task, each in-dependency the task resolved above.
template <class TaskT> void fillProducers(std::vector<TaskT>& tasks) {
  const ResolvedDependencies deps = resolveDependencies(tasks);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    tasks[i].out.producer = static_cast<std::uint32_t>(i);
    for (std::size_t k = 0; k < tasks[i].in.size(); ++k)
      tasks[i].in[k].producer = deps.producers[deps.offsets[i] + k];
  }
}

inline void fillProducers(codegen::TaskProgram& program) {
  fillProducers(program.tasks);
}

/// True when every recorded producer id equals the oracle's resolution.
inline bool producersMatchOracle(const codegen::TaskProgram& program) {
  const ResolvedDependencies deps = resolveDependencies(program);
  for (std::size_t i = 0; i < program.tasks.size(); ++i) {
    const codegen::Task& t = program.tasks[i];
    if (t.out.producer != i)
      return false;
    for (std::size_t k = 0; k < t.in.size(); ++k)
      if (t.in[k].producer != deps.producers[deps.offsets[i] + k])
        return false;
  }
  return true;
}

/// Index of the task with the given out-dependency (linear scan).
inline std::optional<std::size_t>
taskWithOut(const codegen::TaskProgram& program, const codegen::TaskDep& dep) {
  for (const codegen::Task& t : program.tasks)
    if (t.out.idx == dep.idx && t.out.tag == dep.tag)
      return t.id;
  return std::nullopt;
}

} // namespace pipoly::testing
