#pragma once

// §5.5 — the minimal, language-agnostic tasking layer. The interface
// mirrors the paper's CreateTask signature (Fig. 7):
//
//   void CreateTask(void (*f)(void*), void* input,
//                   int outDepend, int outIdx,
//                   int* inDepend, int* inIdx,
//                   int inputSize, int dependNum);
//
// Semantics (matching OpenMP task depend, Fig. 8):
//   * the task publishes dependency slot (outIdx, outDepend);
//   * it waits for the most recently created task publishing each slot
//     (inIdx[k], inDepend[k]) — a slot nobody published is ready;
//   * `input` is copied (inputSize bytes); the copy is released after the
//     task body ran. inputSize == 0 is valid (input may then be null; the
//     body receives an unspecified, possibly null pointer);
//   * tasks must be created from inside run() — from the spawner (the
//     analogue of the `omp parallel` + `omp single` region the generated
//     code uses) or, on the threadpool backend, also from running task
//     bodies (createTask is thread-safe there; serial runs bodies on the
//     spawner thread so nested creation is trivially safe, and the
//     openmp backend requires creation from the single region only).
//
// Three backends implement the interface — the paper's §7 portability
// claim made concrete:
//   * serial      — creation order execution (reference semantics);
//   * threadpool  — our dependency-tracking thread pool. The backend
//                   creates its pool on the first run() and keeps it:
//                   the workers stay parked between runs and the task
//                   slabs are rewound, not reallocated, so repeated runs
//                   spawn no threads;
//   * openmp      — real OpenMP tasks with depend clauses, including the
//                   iterator-based variable-length in-dependency list.

#include <cstdint>
#include <functional>
#include <memory>
#include <string_view>

namespace pipoly::tasking {

using TaskFunction = void (*)(void*);

class TaskingLayer {
public:
  virtual ~TaskingLayer() = default;

  virtual std::string_view name() const = 0;

  /// The paper's CreateTask (Fig. 7), with size_t/int64 where the paper's
  /// prototype used int.
  virtual void createTask(TaskFunction f, const void* input,
                          std::size_t inputSize, std::int64_t outDepend,
                          int outIdx, const std::int64_t* inDepend,
                          const int* inIdx, std::size_t dependNum) = 0;

  /// Optional dense-slot protocol (the task-graph optimizer's slot
  /// interning, src/opt): announces that until run() returns, every
  /// createTask call uses idx == 0 and 0 <= tag < numSlots for its out-
  /// and in-dependencies. Backends may then resolve dependency slots by
  /// array indexing instead of associative lookups. Must be called from
  /// inside run(), before the first createTask of that run; the hint
  /// expires when run() returns. The default implementation ignores the
  /// hint — correctness never depends on it, since dense slot ids are
  /// ordinary (idx, tag) keys to a backend that resolves them generically.
  virtual void reserveDependencySlots(std::size_t numSlots) {
    (void)numSlots;
  }

  /// Runs `spawner` inside the backend's parallel region and waits until
  /// every created task has finished.
  virtual void run(const std::function<void()>& spawner) = 0;

  /// Approximate bytes of per-run bookkeeping (dependency-slot tables,
  /// per-function counters, ...) the backend keeps allocated between
  /// run() calls. Backends follow a reuse-or-release policy: capacity is
  /// kept while it is within a small factor of what the last run used —
  /// so steady-state replays allocate nothing — and released once a run
  /// needs much less, so one oversized program does not pin its
  /// high-water memory across thousands of later runs. Diagnostic
  /// accounting only; 0 when the backend keeps no per-run state.
  virtual std::size_t retainedBytes() const { return 0; }
};

std::unique_ptr<TaskingLayer> makeSerialBackend();
std::unique_ptr<TaskingLayer> makeThreadPoolBackend(unsigned numThreads);

/// Returns nullptr when the library was built without OpenMP support.
///
/// With `funcCountOrdering` the backend additionally implements the
/// paper's Fig. 8 funcCount protocol *literally*: tasks created with the
/// same function pointer are chained through per-function dependency
/// slots (`depend(in: self[funcCount-1]) depend(out: self[funcCount])`),
/// so same-nest blocks run in creation order even when the caller passes
/// no explicit self dependencies.
std::unique_ptr<TaskingLayer> makeOpenMPBackend(bool funcCountOrdering = false);

/// True when makeOpenMPBackend() returns a real backend.
bool openMPAvailable();

} // namespace pipoly::tasking
