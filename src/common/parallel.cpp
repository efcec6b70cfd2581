#include "common/parallel.h"

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <thread>
#include <utility>

namespace lumos {
namespace {

thread_local bool t_in_parallel_region = false;

}  // namespace

std::size_t configured_threads() noexcept {
  if (const char* env = std::getenv("LUMOS_THREADS")) {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != env && v > 0) return static_cast<std::size_t>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

struct ThreadPool::Impl {
  /// The one parallel_for record, reused by every call (submitters are
  /// serialized): chunks are claimed through the atomic `next` cursor;
  /// `done` counts completed chunks.
  struct Job {
    std::size_t begin = 0;
    std::size_t end = 0;
    std::size_t grain = 1;
    std::size_t n_chunks = 0;
    const std::function<void(std::size_t, std::size_t)>* fn = nullptr;
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::mutex m;
    std::condition_variable cv;  ///< signalled when the last chunk finishes
    std::exception_ptr error;
    std::size_t error_chunk = static_cast<std::size_t>(-1);
  };

  std::size_t n_threads = 1;
  std::vector<std::thread> workers;
  std::mutex m;                  ///< guards `posted` / `inside` / `stop`
  std::condition_variable cv;    ///< wakes idle workers
  std::condition_variable left;  ///< signalled when `inside` drops to 0
  Job job;
  bool posted = false;     ///< `job` is open to workers
  std::size_t inside = 0;  ///< workers in `job`'s chunk loop
  bool stop = false;
  std::mutex submit_m;  ///< serializes submitters from distinct threads

  static void run_chunks(Job& j) {
    const bool prev = t_in_parallel_region;
    t_in_parallel_region = true;
    for (;;) {
      const std::size_t c = j.next.fetch_add(1, std::memory_order_relaxed);
      if (c >= j.n_chunks) break;
      const std::size_t b = j.begin + c * j.grain;
      const std::size_t e = std::min(j.end, b + j.grain);
      try {
        (*j.fn)(b, e);
      } catch (...) {
        std::lock_guard<std::mutex> lk(j.m);
        if (c < j.error_chunk) {
          j.error_chunk = c;
          j.error = std::current_exception();
        }
      }
      if (j.done.fetch_add(1, std::memory_order_acq_rel) + 1 == j.n_chunks) {
        std::lock_guard<std::mutex> lk(j.m);
        j.cv.notify_all();
      }
    }
    t_in_parallel_region = prev;
  }

  void worker_loop() {
    for (;;) {
      {
        std::unique_lock<std::mutex> lk(m);
        cv.wait(lk, [&] { return stop || posted; });
        if (stop) return;
        ++inside;
      }
      run_chunks(job);
      // All chunks claimed: close the job so idle workers stop seeing it.
      std::lock_guard<std::mutex> lk(m);
      posted = false;
      if (--inside == 0) left.notify_one();
    }
  }

  void start(std::size_t n) {
    n_threads = std::max<std::size_t>(1, n);
    workers.reserve(n_threads - 1);
    for (std::size_t i = 1; i < n_threads; ++i) {
      workers.emplace_back([this] { worker_loop(); });
    }
  }

  void shutdown() {
    {
      std::lock_guard<std::mutex> lk(m);
      stop = true;
    }
    cv.notify_all();
    for (auto& w : workers) w.join();
    workers.clear();
    stop = false;
  }
};

ThreadPool::ThreadPool(std::size_t n_threads) : impl_(new Impl) {
  impl_->start(n_threads == 0 ? configured_threads() : n_threads);
}

ThreadPool::~ThreadPool() { impl_->shutdown(); }

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

std::size_t ThreadPool::threads() const noexcept { return impl_->n_threads; }

void ThreadPool::set_threads(std::size_t n) {
  std::lock_guard<std::mutex> submit(impl_->submit_m);
  if (n == 0) n = configured_threads();
  if (n == impl_->n_threads) return;
  impl_->shutdown();
  impl_->start(n);
}

bool ThreadPool::in_parallel_region() noexcept { return t_in_parallel_region; }

void ThreadPool::parallel_for(
    std::size_t begin, std::size_t end, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  if (end <= begin) return;
  if (grain == 0) grain = 1;
  const std::size_t n_chunks = (end - begin + grain - 1) / grain;

  // Sequential fallback: pool of one, a nested region, or a single chunk.
  // Chunks run in ascending order so an exception surfaces from the same
  // (lowest) chunk the parallel path would report.
  if (impl_->n_threads <= 1 || t_in_parallel_region || n_chunks <= 1) {
    const bool prev = t_in_parallel_region;
    t_in_parallel_region = true;
    try {
      for (std::size_t c = 0; c < n_chunks; ++c) {
        const std::size_t b = begin + c * grain;
        fn(b, std::min(end, b + grain));
      }
    } catch (...) {
      t_in_parallel_region = prev;
      throw;
    }
    t_in_parallel_region = prev;
    return;
  }

  std::lock_guard<std::mutex> submit(impl_->submit_m);
  Impl::Job& j = impl_->job;
  {
    // A worker may still be leaving the previous call's chunk loop, which
    // reads the record: wait for it before reusing the record.
    std::unique_lock<std::mutex> lk(impl_->m);
    impl_->left.wait(lk, [&] { return impl_->inside == 0; });
    j.begin = begin;
    j.end = end;
    j.grain = grain;
    j.n_chunks = n_chunks;
    j.fn = &fn;
    j.next.store(0, std::memory_order_relaxed);
    j.done.store(0, std::memory_order_relaxed);
    j.error = nullptr;
    j.error_chunk = static_cast<std::size_t>(-1);
    impl_->posted = true;
  }
  impl_->cv.notify_all();

  Impl::run_chunks(j);  // the submitting thread works too

  {
    std::unique_lock<std::mutex> lk(j.m);
    j.cv.wait(lk, [&] {
      return j.done.load(std::memory_order_acquire) == j.n_chunks;
    });
  }
  {
    std::lock_guard<std::mutex> lk(impl_->m);
    impl_->posted = false;
  }
  if (j.error) std::rethrow_exception(std::exchange(j.error, nullptr));
}

}  // namespace lumos
