#include "ecnprobe/util/thread_pool.hpp"

#include <utility>

namespace ecnprobe::util {

namespace {
thread_local int tls_worker_index = -1;
}  // namespace

ThreadPool::ThreadPool(int threads) {
  if (threads < 1) threads = 1;
  workers_.reserve(static_cast<std::size_t>(threads));
  for (int i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] { worker_main(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
  }
  work_cv_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
  if (first_error_) {
    auto error = std::exchange(first_error_, nullptr);
    lock.unlock();
    std::rethrow_exception(error);
  }
}

int ThreadPool::current_worker_index() { return tls_worker_index; }

void ThreadPool::worker_main(int index) {
  tls_worker_index = index;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ set and no work left
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    std::exception_ptr error;
    try {
      task();
    } catch (...) {
      // Captured, not fatal: surfaced to the caller from wait_idle().
      error = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      // Hand over (or drop) our reference under the lock, so the exception
      // is never released concurrently with wait_idle()'s caller using it.
      if (error && !first_error_) first_error_ = std::move(error);
      error = nullptr;
      --active_;
      if (queue_.empty() && active_ == 0) idle_cv_.notify_all();
    }
  }
}

}  // namespace ecnprobe::util
