// Deterministic fork-join thread pool shared by the ML training/inference
// stack and the evaluation harness.
//
// Design constraints (see DESIGN.md "Threading model"):
//   * Results must be bit-identical to the sequential path. parallel_for
//     only distributes index ranges whose iterations write disjoint state;
//     parallel_reduce fixes the chunk boundaries from (begin, end, grain)
//     alone — never from the thread count — and folds the per-chunk
//     partials in ascending chunk order, so floating-point grouping is
//     reproducible for any LUMOS_THREADS setting.
//   * No work stealing, no task graph: one blocking loop at a time, chunks
//     handed out by an atomic cursor. The caller participates, so a pool
//     of size N uses N-1 background workers.
//   * Nested parallel_for calls (a parallel region entered from inside a
//     chunk body) run inline on the calling thread instead of deadlocking
//     on the pool.
//   * Exceptions thrown by chunk bodies are captured and the one from the
//     lowest chunk index is rethrown on the submitting thread.
//
// Pool size resolution: LUMOS_THREADS env var if set (>= 1), otherwise
// std::thread::hardware_concurrency(). Size 1 means strictly sequential
// execution on the calling thread.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

namespace lumos {

/// Pool size implied by the environment: LUMOS_THREADS when set to a
/// positive integer, else the hardware concurrency (min 1).
std::size_t configured_threads() noexcept;

class ThreadPool {
 public:
  /// `n_threads` = 0 resolves via configured_threads().
  explicit ThreadPool(std::size_t n_threads = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Process-wide pool, lazily created with configured_threads() workers.
  static ThreadPool& global();

  /// Current parallelism (>= 1). 1 = sequential fallback.
  std::size_t threads() const noexcept;

  /// Re-sizes the pool (joins the old workers first). Must not be called
  /// from inside a parallel region or concurrently with parallel_for.
  void set_threads(std::size_t n);

  /// Runs fn(chunk_begin, chunk_end) over [begin, end) split into chunks
  /// of `grain` indices (last chunk may be short). Blocks until every
  /// chunk completed. Safe to call from inside a chunk body: nested calls
  /// run inline on the current thread.
  void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                    const std::function<void(std::size_t, std::size_t)>& fn);

  /// True while the current thread is executing a chunk body (used to
  /// divert nested parallel regions inline).
  static bool in_parallel_region() noexcept;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Convenience wrapper over the global pool.
inline void parallel_for(
    std::size_t begin, std::size_t end, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  ThreadPool::global().parallel_for(begin, end, grain, fn);
}

/// Deterministic ordered reduction over [begin, end): `map(b, e)` produces
/// a partial result per chunk, `combine(acc, partial)` folds the partials
/// in ascending chunk order. Chunk boundaries depend only on
/// (begin, end, grain), so the result is bit-identical for any pool size —
/// including floating-point accumulations.
template <typename T, typename MapFn, typename CombineFn>
T parallel_reduce(std::size_t begin, std::size_t end, std::size_t grain,
                  T identity, MapFn&& map, CombineFn&& combine) {
  if (end <= begin) return identity;
  if (grain == 0) grain = 1;
  const std::size_t n_chunks = (end - begin + grain - 1) / grain;
  std::vector<T> partial(n_chunks, identity);
  ThreadPool::global().parallel_for(
      0, n_chunks, 1, [&](std::size_t cb, std::size_t ce) {
        for (std::size_t c = cb; c < ce; ++c) {
          const std::size_t b = begin + c * grain;
          partial[c] = map(b, std::min(end, b + grain));
        }
      });
  T acc = std::move(partial[0]);
  for (std::size_t c = 1; c < n_chunks; ++c) {
    acc = combine(std::move(acc), std::move(partial[c]));
  }
  return acc;
}

}  // namespace lumos
