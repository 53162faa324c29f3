#pragma once

// A chunked slab with stable addresses and lock-free indexed reads.
//
// The thread pool's task nodes and dependency edges live here: ids are
// dense indices handed out by an atomic counter, elements are
// default-constructed in fixed-size chunks, and a chunk stays put until
// the slab dies or a recycle() releases it. That gives three properties
// the executor leans on:
//   * submit() allocates a node with one fetch_add — no per-task
//     unique_ptr/deque churn and no global lock on the hot path;
//   * an index stays dereferenceable until the next recycle(), so late
//     dependencies on long-finished tasks are just an indexed load;
//   * operator[] never takes a lock — the grow mutex is touched only on
//     the (rare) first allocation inside a fresh chunk.
//
// recycle() restarts the index counter at 0 and reuses the existing
// chunks, so a long-lived owner allocates nothing in steady state and is
// not bounded by MaxChunks × kChunkSize over its lifetime, only per cycle.
// Reused elements keep whatever the previous cycle left in them; callers
// reinitialise what they rely on when they allocate.

#include "support/assert.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <mutex>

namespace pipoly::rt {

template <typename T, std::size_t ChunkSizeLog2 = 10,
          std::size_t MaxChunks = 4096>
class ChunkedSlab {
public:
  static constexpr std::size_t kChunkSize = std::size_t{1} << ChunkSizeLog2;

  ChunkedSlab() = default;
  ChunkedSlab(const ChunkedSlab&) = delete;
  ChunkedSlab& operator=(const ChunkedSlab&) = delete;

  ~ChunkedSlab() {
    for (auto& chunk : chunks_)
      delete[] chunk.load(std::memory_order_acquire);
  }

  /// Thread-safe: reserves the next index and makes sure its chunk
  /// exists. A fresh chunk's elements are default-constructed; a reused
  /// one's hold what the previous cycle left.
  std::size_t allocate() {
    const std::size_t i = count_.fetch_add(1, std::memory_order_relaxed);
    ensureChunk(i >> ChunkSizeLog2);
    return i;
  }

  /// Thread-safe for any index obtained from a completed allocate()
  /// (publication of the index carries the happens-before edge).
  T& operator[](std::size_t i) {
    T* chunk = chunks_[i >> ChunkSizeLog2].load(std::memory_order_acquire);
    PIPOLY_ASSERT(chunk != nullptr);
    return chunk[i & (kChunkSize - 1)];
  }

  /// Number of indices handed out since construction or the last
  /// recycle().
  std::size_t size() const { return count_.load(std::memory_order_acquire); }

  /// Restarts indices at 0, keeping the chunks for reuse. Chunks beyond
  /// twice this cycle's high-water mark (at least one) are released, so
  /// one oversized cycle does not pin its memory. Not thread-safe: the
  /// caller guarantees no concurrent allocate() or element access, and
  /// every index handed out so far becomes invalid.
  void recycle() {
    const std::size_t used =
        (count_.load(std::memory_order_relaxed) + kChunkSize - 1) >>
        ChunkSizeLog2;
    const std::size_t keep = std::max<std::size_t>(2 * used, 1);
    const std::size_t held = numChunks_.load(std::memory_order_relaxed);
    // Outside a cycle the live chunks form a prefix: indices are dense
    // and every cycle started at 0.
    for (std::size_t c = keep; c < held; ++c)
      delete[] chunks_[c].exchange(nullptr, std::memory_order_relaxed);
    numChunks_.store(std::min(held, keep), std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
  }

  /// Heap bytes held by the live chunks.
  std::size_t retainedBytes() const {
    return numChunks_.load(std::memory_order_relaxed) * kChunkSize * sizeof(T);
  }

private:
  void ensureChunk(std::size_t c) {
    PIPOLY_CHECK_MSG(c < MaxChunks, "ChunkedSlab capacity exhausted");
    if (chunks_[c].load(std::memory_order_acquire) != nullptr)
      return;
    std::lock_guard lock(growMutex_);
    if (chunks_[c].load(std::memory_order_relaxed) == nullptr) {
      chunks_[c].store(new T[kChunkSize](), std::memory_order_release);
      numChunks_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  std::atomic<std::size_t> count_{0};
  std::atomic<std::size_t> numChunks_{0};
  std::mutex growMutex_;
  std::array<std::atomic<T*>, MaxChunks> chunks_{};
};

} // namespace pipoly::rt
