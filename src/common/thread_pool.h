#ifndef DELEX_COMMON_THREAD_POOL_H_
#define DELEX_COMMON_THREAD_POOL_H_

#include <atomic>
#include <deque>
#include <exception>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/annotations.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "obs/log.h"
#include "obs/mem.h"
#include "obs/metrics.h"

namespace delex {

/// \brief Fixed-size FIFO thread pool for page-parallel execution.
///
/// Deliberately minimal — submit and wait, no futures, no work stealing:
/// Delex's unit of work is one page's full plan walk, which is coarse
/// enough that a single locked queue is nowhere near contention at any
/// realistic thread count.
///
/// Error contract: tasks return Status; a task that throws has the
/// exception converted to Status::Internal. The first non-OK status is
/// remembered and surfaced by Wait(). Remaining tasks still run to
/// completion — callers (the engine's ordered write-back stage) need every
/// in-flight page to settle before tearing down shared state, so the pool
/// never abandons queued work on error.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (clamped to >= 1).
  explicit ThreadPool(int num_threads) {
    if (num_threads < 1) num_threads = 1;
    threads_.reserve(static_cast<size_t>(num_threads));
    for (int i = 0; i < num_threads; ++i) {
      threads_.emplace_back([this] { WorkerLoop(); });
    }
  }

  /// Drains outstanding tasks, then joins the workers.
  ~ThreadPool() {
    (void)Wait();
    {
      MutexLock lock(&mu_);
      shutdown_ = true;
    }
    work_cv_.NotifyAll();
    for (std::thread& t : threads_) t.join();
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues one task. Never blocks on queue depth; callers that need
  /// bounded memory throttle themselves (see DelexEngine's in-flight
  /// window).
  void Submit(std::function<Status()> task) {
    size_t depth;
    {
      MutexLock lock(&mu_);
      queue_.push_back(std::move(task));
      ++pending_;
      depth = queue_.size();
    }
    work_cv_.NotifyOne();
    obs::MemCharge(obs::MemTag::kThreadPool, kQueuedTaskBytes);
    // Saturation: a queue deeper than 4x the workers, beyond what the live
    // TaskGroups' windows allow, means submitters are outrunning the pool
    // and the "never blocks" contract is buffering real memory. WARN once
    // per run (the flag re-arms when Wait drains the pool), count every
    // trip.
    const size_t windows = windows_.load(std::memory_order_relaxed);
    if (depth > 4 * threads_.size() + windows &&
        !saturation_warned_.exchange(true, std::memory_order_relaxed)) {
      static obs::Counter* saturations =
          obs::MetricsRegistry::Global().GetCounter("pool.saturation_warns");
      saturations->Increment();
      DELEX_LOG(WARN) << "thread pool saturated: " << depth
                      << " queued tasks > 4x " << threads_.size()
                      << " workers + " << windows << " in TaskGroup windows";
    }
  }

  /// A TaskGroup's window: up to `window` of its tasks may sit in the
  /// queue by design, so the saturation check allows for them while the
  /// group lives.
  void AddWindow(size_t window) {
    windows_.fetch_add(window, std::memory_order_relaxed);
  }
  void RemoveWindow(size_t window) {
    windows_.fetch_sub(window, std::memory_order_relaxed);
  }

  /// Blocks until every submitted task has finished; returns the first
  /// error any task produced (sticky until the next Wait()).
  Status Wait() {
    MutexLock lock(&mu_);
    while (pending_ != 0) done_cv_.Wait(&mu_);
    Status status = std::move(first_error_);
    first_error_ = Status::OK();
    saturation_warned_.store(false, std::memory_order_relaxed);
    return status;
  }

  int num_threads() const { return static_cast<int>(threads_.size()); }

  /// Runs `task` under the pool's error contract: a throw becomes
  /// Status::Internal. For tasks that report their status elsewhere than
  /// Wait() (TaskGroup).
  static Status RunTask(const std::function<Status()>& task) {
    try {
      return task();
    } catch (const std::exception& e) {
      return Status::Internal(std::string("task threw: ") + e.what());
    } catch (...) {
      return Status::Internal("task threw a non-std exception");
    }
  }

 private:
  /// Per queued task: the std::function shell plus deque slot — what the
  /// thread_pool subsystem actually buffers when submitters outrun it.
  static constexpr int64_t kQueuedTaskBytes =
      static_cast<int64_t>(sizeof(std::function<Status()>)) + 32;

  void WorkerLoop() {
    for (;;) {
      std::function<Status()> task;
      {
        MutexLock lock(&mu_);
        while (!shutdown_ && queue_.empty()) work_cv_.Wait(&mu_);
        if (queue_.empty()) return;  // shutdown with a drained queue
        task = std::move(queue_.front());
        queue_.pop_front();
      }
      obs::MemCharge(obs::MemTag::kThreadPool, -kQueuedTaskBytes);
      Status status = RunTask(task);
      {
        MutexLock lock(&mu_);
        if (!status.ok() && first_error_.ok()) first_error_ = status;
        if (--pending_ == 0) done_cv_.NotifyAll();
      }
    }
  }

  Mutex mu_{"thread_pool.mu"};
  CondVar work_cv_;
  CondVar done_cv_;
  std::deque<std::function<Status()>> queue_ DELEX_GUARDED_BY(mu_);
  std::vector<std::thread> threads_;  // immutable after the constructor
  int64_t pending_ DELEX_GUARDED_BY(mu_) = 0;
  bool shutdown_ DELEX_GUARDED_BY(mu_) = false;
  Status first_error_ DELEX_GUARDED_BY(mu_);
  std::atomic<bool> saturation_warned_{false};
  std::atomic<size_t> windows_{0};  // summed windows of live TaskGroups
};

/// \brief One caller's tasks on a ThreadPool, or inline on the caller's
/// thread when the pool is null.
///
/// Submit blocks while `window` of the group's tasks are unfinished, which
/// bounds what a fast submitter buffers; the window is registered with the
/// pool's saturation check while the group lives. Wait settles this
/// group's tasks only and returns the first error among them: on a pool
/// shared with other callers, ThreadPool::Wait would block on their tasks
/// and return their sticky error. Tasks run under ThreadPool::RunTask, so
/// a throw becomes Status::Internal. The destructor waits, so tasks may
/// reference the caller's stack state.
class TaskGroup {
 public:
  TaskGroup(ThreadPool* pool, size_t window)
      : pool_(pool), window_(window < 1 ? 1 : window) {
    if (pool_ != nullptr) pool_->AddWindow(window_);
  }
  ~TaskGroup() {
    (void)Wait();
    if (pool_ != nullptr) pool_->RemoveWindow(window_);
  }

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  void Submit(std::function<Status()> task) {
    if (pool_ == nullptr) {
      Status status = ThreadPool::RunTask(task);
      MutexLock lock(&mu_);
      if (!status.ok() && first_error_.ok()) first_error_ = std::move(status);
      return;
    }
    {
      MutexLock lock(&mu_);
      if (unfinished_ >= window_) {
        Stopwatch blocked;
        while (unfinished_ >= window_) cv_.Wait(&mu_);
        blocked_us_ += blocked.ElapsedMicros();
      }
      ++unfinished_;
    }
    pool_->Submit([this, task = std::move(task)]() mutable -> Status {
      Status status = ThreadPool::RunTask(task);
      task = nullptr;  // release the task's captures before settling
      MutexLock lock(&mu_);
      if (!status.ok() && first_error_.ok()) first_error_ = std::move(status);
      --unfinished_;
      // Notify under the lock: Wait's caller may destroy the group as soon
      // as it sees the last task settle, and it cannot return from Wait
      // before this guard releases.
      cv_.NotifyAll();
      return Status::OK();
    });
  }

  /// Blocks until every task submitted so far has finished; returns the
  /// first error among them.
  Status Wait() {
    MutexLock lock(&mu_);
    while (unfinished_ != 0) cv_.Wait(&mu_);
    return first_error_;
  }

  /// Time Submit has spent blocked on the window so far.
  int64_t blocked_us() {
    MutexLock lock(&mu_);
    return blocked_us_;
  }

 private:
  ThreadPool* const pool_;
  const size_t window_;
  Mutex mu_{"task_group.mu"};
  CondVar cv_;
  size_t unfinished_ DELEX_GUARDED_BY(mu_) = 0;
  Status first_error_ DELEX_GUARDED_BY(mu_);
  int64_t blocked_us_ DELEX_GUARDED_BY(mu_) = 0;
};

}  // namespace delex

#endif  // DELEX_COMMON_THREAD_POOL_H_
