#include "common/thread_pool.hpp"

#include <atomic>
#include <cstdlib>
#include <exception>
#include <memory>

namespace hsvd::common {

namespace {

// Observer for labelled parallel_for loops; one process-wide slot keeps
// the no-observer fast path to a single relaxed load.
std::atomic<ParallelForObserver*> g_observer{nullptr};

// Ordinal of the pool worker owning the current thread (-1 = not a pool
// worker). Set once at worker startup.
thread_local int t_worker_ordinal = -1;

}  // namespace

void ThreadPool::set_observer(ParallelForObserver* observer) {
  g_observer.store(observer, std::memory_order_release);
}

ParallelForObserver* ThreadPool::observer() {
  return g_observer.load(std::memory_order_acquire);
}

int ThreadPool::worker_ordinal() { return t_worker_ordinal; }

ThreadPool::ThreadPool(int threads) {
  const int n = threads < 1 ? 1 : threads;
  workers_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop(int ordinal) {
  t_worker_ordinal = ordinal;
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !jobs_.empty(); });
      if (jobs_.empty()) return;  // stopping_ and drained
      job = std::move(jobs_.front());
      jobs_.pop_front();
    }
    job();
  }
}

void ThreadPool::submit(std::function<void()> job) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    jobs_.push_back(std::move(job));
  }
  cv_.notify_one();
}

namespace {

// Shared between the caller and its helper jobs. Heap-owned so that a
// helper job which only gets scheduled after the loop already finished
// (every index claimed by faster participants) still has valid state to
// look at -- it sees no work left and exits. This is what makes nested
// parallel_for deadlock-free: a caller never waits on helpers that were
// queued but not started, only on helpers actively running indices.
struct LoopWork {
  LoopWork(std::size_t count, std::function<void(std::size_t)> body,
           const char* loop_label, ParallelForObserver* obs)
      : n(count), fn(std::move(body)), label(loop_label), observer(obs) {}

  const std::size_t n;
  const std::function<void(std::size_t)> fn;
  const char* const label;                 // null = unobserved loop
  ParallelForObserver* const observer;     // sampled once at loop start
  std::atomic<std::size_t> next{0};
  std::mutex mutex;
  std::condition_variable idle_cv;
  int active = 0;  // helpers currently inside drain (guarded by mutex)
  std::exception_ptr error;  // first failure (guarded by mutex)

  void run_index(std::size_t i) {
    if (observer != nullptr && label != nullptr) {
      const auto start = std::chrono::steady_clock::now();
      fn(i);
      observer->on_index(label, i, ThreadPool::worker_ordinal(), start,
                         std::chrono::steady_clock::now());
    } else {
      fn(i);
    }
  }

  void drain() {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        run_index(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mutex);
        if (!error) error = std::current_exception();
      }
    }
  }

  bool exhausted() const {
    return next.load(std::memory_order_relaxed) >= n;
  }
};

}  // namespace

void ThreadPool::parallel_for(std::size_t n, int threads,
                              const std::function<void(std::size_t)>& fn,
                              const char* label) {
  if (n == 0) return;
  std::size_t width = threads <= 1 ? 1 : static_cast<std::size_t>(threads);
  width = std::min(width, n);
  width = std::min(width, static_cast<std::size_t>(size()) + 1);
  ParallelForObserver* obs = label != nullptr ? observer() : nullptr;
  if (width <= 1) {
    // Inline path: instrument identically so a trace's host spans do not
    // depend on the thread-count resolution.
    LoopWork work(n, fn, label, obs);
    for (std::size_t i = 0; i < n; ++i) work.run_index(i);
    return;
  }

  auto work = std::make_shared<LoopWork>(n, fn, label, obs);
  for (std::size_t h = 0; h + 1 < width; ++h) {
    submit([work] {
      if (work->exhausted()) return;
      {
        std::lock_guard<std::mutex> lock(work->mutex);
        ++work->active;
      }
      work->drain();
      {
        std::lock_guard<std::mutex> lock(work->mutex);
        --work->active;
      }
      work->idle_cv.notify_all();
    });
  }
  work->drain();  // the calling thread always participates
  {
    std::unique_lock<std::mutex> lock(work->mutex);
    work->idle_cv.wait(lock, [&work] { return work->active == 0; });
    if (work->error) std::rethrow_exception(work->error);
  }
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool(hardware_threads());
  return pool;
}

int ThreadPool::hardware_threads() {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<int>(hc);
}

int ThreadPool::resolve_threads(int requested) {
  if (requested > 0) return requested;
  if (const char* env = std::getenv("HSVD_THREADS")) {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != env && v > 0) return static_cast<int>(v);
  }
  return hardware_threads();
}

}  // namespace hsvd::common
