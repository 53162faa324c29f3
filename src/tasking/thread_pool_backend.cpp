#include "tasking/tasking.hpp"

#include "runtime/thread_pool.hpp"
#include "support/assert.hpp"
#include "support/hash.hpp"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstring>
#include <limits>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace pipoly::tasking {

namespace {

// The work-stealing DependencyThreadPool accepts submissions from any
// thread (task bodies included), and this backend matches that contract:
// createTask() may be called concurrently from the spawner and from
// running task bodies. The last-writer slot table is the only shared
// mutable state; a mutex held across resolve + submit + publish keeps
// each createTask's depend semantics atomic (concurrent publishers of
// the same slot race only in program order, exactly as OpenMP's
// last-writer rule does).
//
// Slot resolution has two tiers: when the caller announced interned
// dense slots (reserveDependencySlots, the src/opt slot table), the
// last-writer table is a flat vector indexed by tag — O(1), no hashing;
// otherwise a hashed map over the (idx, tag) pairs.
//
// The pool is created on the first run() and kept for the backend's
// lifetime: its workers park between runs, and every run() ends with a
// recycle() that rewinds the task slabs, so a steady stream of same-shape
// runs spawns no threads and allocates nothing per task.
class ThreadPoolBackend final : public TaskingLayer {
  using Pool = rt::DependencyThreadPool;

public:
  explicit ThreadPoolBackend(unsigned numThreads) : numThreads_(numThreads) {}

  std::string_view name() const override { return "threadpool"; }

  void reserveDependencySlots(std::size_t numSlots) override {
    PIPOLY_CHECK_MSG(inRun_.load(std::memory_order_relaxed),
                     "reserveDependencySlots outside of run()");
    std::lock_guard lock(lastWriterMutex_);
    denseWriter_.assign(numSlots, kNoWriter);
  }

  void createTask(TaskFunction f, const void* input, std::size_t inputSize,
                  std::int64_t outDepend, int outIdx,
                  const std::int64_t* inDepend, const int* inIdx,
                  std::size_t dependNum) override {
    PIPOLY_CHECK_MSG(inRun_.load(std::memory_order_relaxed),
                     "createTask outside of run()");
    PIPOLY_CHECK_MSG(input != nullptr || inputSize == 0,
                     "null task input with non-zero size");

    std::lock_guard lock(lastWriterMutex_);

    // Resolve in-dependencies against the last writer of each slot
    // (OpenMP depend semantics). Unpublished slots are ready.
    deps_.clear();
    for (std::size_t k = 0; k < dependNum; ++k) {
      if (isDense(inIdx[k], inDepend[k])) {
        const auto id = denseWriter_[static_cast<std::size_t>(inDepend[k])];
        if (id != kNoWriter)
          deps_.push_back(id);
      } else {
        auto it = lastWriter_.find({inIdx[k], inDepend[k]});
        if (it != lastWriter_.end())
          deps_.push_back(it->second);
      }
    }

    Pool::TaskId id;
    if (inputSize <= Pool::kInlinePayload) {
      // Common case (the executor and timing layers pass pointer-sized
      // structs): the pool node holds the copy itself.
      id = pool_->submit(f, input, inputSize, deps_);
    } else {
      auto copy = std::make_unique<std::byte[]>(inputSize);
      std::memcpy(copy.get(), input, inputSize);
      const HeapInput heap{f, copy.get()};
      id = pool_->submit(&runHeapInput, &heap, sizeof(heap), deps_);
      (void)copy.release(); // owned by the task now
    }
    if (isDense(outIdx, outDepend))
      denseWriter_[static_cast<std::size_t>(outDepend)] = id;
    else
      lastWriter_[{outIdx, outDepend}] = id;
  }

  void run(const std::function<void()>& spawner) override {
    if (!pool_)
      pool_ = std::make_unique<Pool>(numThreads_);
    PIPOLY_CHECK_MSG(!inRun_.exchange(true),
                     "reentrant ThreadPoolBackend::run");
    try {
      spawner();
      pool_->waitAll();
    } catch (...) {
      // A spawner failure can leave tasks in flight: drain them (their
      // own errors lose to the one being rethrown) before recycling.
      try {
        pool_->waitAll();
      } catch (...) {
      }
      finishRun();
      throw;
    }
    finishRun();
  }

  std::size_t retainedBytes() const override {
    return (pool_ ? pool_->retainedBytes() : 0) +
           denseWriter_.capacity() * sizeof(Pool::TaskId) +
           deps_.capacity() * sizeof(Pool::TaskId) +
           lastWriter_.bucket_count() *
               (sizeof(void*) +
                sizeof(std::pair<const std::pair<int, std::int64_t>,
                                 Pool::TaskId>));
  }

private:
  /// Payload of a task whose input exceeds the pool's inline payload:
  /// the body and a heap copy of the input, freed after the body ran.
  struct HeapInput {
    TaskFunction f;
    std::byte* bytes;
  };
  static_assert(sizeof(HeapInput) <= Pool::kInlinePayload);

  static void runHeapInput(void* raw) {
    const HeapInput& heap = *static_cast<HeapInput*>(raw);
    std::unique_ptr<std::byte[]> bytes(heap.bytes);
    heap.f(bytes.get());
  }

  static constexpr Pool::TaskId kNoWriter =
      std::numeric_limits<Pool::TaskId>::max();

  bool isDense(int idx, std::int64_t tag) const {
    return idx == 0 && tag >= 0 &&
           static_cast<std::size_t>(tag) < denseWriter_.size();
  }

  /// Ends a run on a drained pool: rewinds its slabs and applies the
  /// reuse-or-release rule to the slot tables.
  void finishRun() {
    pool_->recycle();
    // Reuse-or-release: clear() keeps the high-water capacity, which is
    // what repeated same-shape runs want (no steady-state allocations),
    // but would pin one oversized run's memory forever. Release the
    // backing storage once the capacity exceeds twice what this run
    // actually used (with a small floor so tiny runs keep their seed
    // allocation).
    const std::size_t usedHash = lastWriter_.size();
    const std::size_t usedDense = denseWriter_.size();
    lastWriter_.clear();
    denseWriter_.clear();
    if (lastWriter_.bucket_count() > 2 * std::max<std::size_t>(usedHash, 16))
      decltype(lastWriter_)().swap(lastWriter_);
    if (denseWriter_.capacity() > 2 * std::max<std::size_t>(usedDense, 64))
      decltype(denseWriter_)().swap(denseWriter_);
    inRun_.store(false);
  }

  unsigned numThreads_;
  std::atomic<bool> inRun_{false};
  std::mutex lastWriterMutex_;
  // Both tables and the deps_ scratch guarded by lastWriterMutex_.
  std::unordered_map<std::pair<int, std::int64_t>, Pool::TaskId, PairHash>
      lastWriter_;
  std::vector<Pool::TaskId> denseWriter_;
  std::vector<Pool::TaskId> deps_;
  // Created by the first run(). Declared last: its workers run task
  // bodies that call createTask(), so it must die before the tables.
  std::unique_ptr<Pool> pool_;
};

} // namespace

std::unique_ptr<TaskingLayer> makeThreadPoolBackend(unsigned numThreads) {
  return std::make_unique<ThreadPoolBackend>(numThreads);
}

} // namespace pipoly::tasking
