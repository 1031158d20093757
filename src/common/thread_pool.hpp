// Host-side thread pool for task-level parallelism.
//
// The accelerator model exposes P_task independent task slots; the host
// analogue is a small pool of worker threads that execute independent
// batch tasks (and other embarrassingly parallel loops: derive_v
// columns, DSE P_eng slices) concurrently. Determinism is a design
// requirement, not an accident: parallel_for hands out loop indices and
// every index writes only its own output slot, so results are bitwise
// identical for any thread count -- including 1, which runs inline with
// no pool involvement at all.
//
// Thread-count resolution order (resolve_threads):
//   explicit positive request > HSVD_THREADS env var > hardware cores.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace hsvd::common {

// Host-side instrumentation hook for parallel_for (see src/obs/ for the
// tracer-backed implementation). Defined here as a pure interface so
// the common layer stays free of observability dependencies.
class ParallelForObserver {
 public:
  virtual ~ParallelForObserver() = default;
  // One call per finished loop index of a *labelled* parallel_for.
  // `worker` is the pool worker ordinal that ran the index (-1 = the
  // calling thread). Timestamps are raw steady_clock points so the
  // observer can convert to whatever epoch its tracer uses. Must be
  // thread-safe: indices finish concurrently.
  virtual void on_index(const char* label, std::size_t index, int worker,
                        std::chrono::steady_clock::time_point start,
                        std::chrono::steady_clock::time_point end) = 0;
};

class ThreadPool {
 public:
  // Spawns `threads` persistent workers (minimum 1).
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return static_cast<int>(workers_.size()); }

  // Runs fn(i) for every i in [0, n). `threads` bounds the concurrency:
  // <= 1 executes inline in index order; otherwise up to threads - 1 pool
  // workers help the calling thread drain an atomic index counter. The
  // calling thread always participates, so nested parallel_for calls
  // cannot deadlock even when every pool worker is busy. The first
  // exception thrown by fn is rethrown here after all indices finish.
  //
  // `label` names the loop for the observer hook: when a label is given
  // AND an observer is attached, every index is timed and reported via
  // ParallelForObserver::on_index. A null label (the default) or a null
  // observer costs one pointer check per loop.
  void parallel_for(std::size_t n, int threads,
                    const std::function<void(std::size_t)>& fn,
                    const char* label = nullptr);

  // Process-wide observer for labelled parallel_for loops (last writer
  // wins; nullptr detaches). Scoped attachment: obs::ScopedPoolObservation.
  static void set_observer(ParallelForObserver* observer);
  static ParallelForObserver* observer();

  // Ordinal of the pool worker running the current thread (-1 when the
  // current thread is not a pool worker, e.g. the caller of parallel_for).
  static int worker_ordinal();

  // Process-wide pool sized to the hardware concurrency.
  static ThreadPool& shared();

  // Resolves a requested thread count: `requested` > 0 wins; otherwise
  // the HSVD_THREADS environment variable (positive integer); otherwise
  // std::thread::hardware_concurrency() (at least 1).
  static int resolve_threads(int requested);

  static int hardware_threads();

 private:
  void worker_loop(int ordinal);
  void submit(std::function<void()> job);

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> jobs_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

}  // namespace hsvd::common
