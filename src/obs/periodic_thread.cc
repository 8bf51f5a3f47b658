#include "obs/periodic_thread.h"

namespace scanraw {
namespace obs {

PeriodicThread::PeriodicThread(std::chrono::milliseconds interval,
                               std::function<void()> tick)
    : interval_(interval), tick_(std::move(tick)) {}

PeriodicThread::~PeriodicThread() { Stop(); }

void PeriodicThread::Start() {
  {
    MutexLock lock(mu_);
    if (started_ || stopped_) return;
    started_ = true;
  }
  tick_();
  thread_ = std::thread([this] { Loop(); });
}

void PeriodicThread::Stop() {
  {
    MutexLock lock(mu_);
    if (stopped_) return;
    stopped_ = true;
    cv_.NotifyAll();
  }
  if (thread_.joinable()) thread_.join();
  tick_();
}

void PeriodicThread::Loop() {
  for (;;) {
    {
      MutexLock lock(mu_);
      const auto deadline = std::chrono::steady_clock::now() + interval_;
      // The flag is checked before every wait, so a Stop() that lands
      // before the first one does not cost an interval, and a spurious
      // wake-up does not tick early.
      while (!stopped_ && std::chrono::steady_clock::now() < deadline) {
        cv_.WaitFor(lock, deadline - std::chrono::steady_clock::now());
      }
      if (stopped_) return;
    }
    tick_();
  }
}

}  // namespace obs
}  // namespace scanraw
