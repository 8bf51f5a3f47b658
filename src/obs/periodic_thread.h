// The one background loop of the observability plane: a thread that runs a
// tick at a fixed interval. The per-query resource sampler (§3.3), the
// progress reporter, the manager's watchdog tick and the CLI's rates printer
// are all a PeriodicThread with a different tick.
//
// Contract:
// - Start() runs the tick once on the caller, then starts a thread that runs
//   it every `interval`.
// - Stop() wakes and joins the thread, then runs one final tick on the
//   caller. The final tick runs exactly once per object, even when Start()
//   never ran, so a sub-interval query still leaves its settled end state.
//   The loop checks the stop flag before it blocks, so a Stop() right after
//   Start() never waits out the interval.
// - Stop() is idempotent and the destructor calls it; a Start() after
//   Stop() does nothing.
// - The tick runs with no lock held. Start() and Stop() are called by the
//   owner, not concurrently with each other.
#ifndef SCANRAW_OBS_PERIODIC_THREAD_H_
#define SCANRAW_OBS_PERIODIC_THREAD_H_

#include <chrono>
#include <functional>
#include <thread>

#include "common/thread_annotations.h"

namespace scanraw {
namespace obs {

class PeriodicThread {
 public:
  PeriodicThread(std::chrono::milliseconds interval,
                 std::function<void()> tick);
  ~PeriodicThread();
  PeriodicThread(const PeriodicThread&) = delete;
  PeriodicThread& operator=(const PeriodicThread&) = delete;

  void Start() EXCLUDES(mu_);
  void Stop() EXCLUDES(mu_);

 private:
  void Loop() EXCLUDES(mu_);

  const std::chrono::milliseconds interval_;
  const std::function<void()> tick_;

  // Nothing is acquired under it: the tick runs after it is released.
  Mutex mu_{LockRank::kLeaf, "PeriodicThread.mu"};
  CondVar cv_;
  // Owner-only (see the contract): started in Start, joined in Stop.
  std::thread thread_;
  bool started_ GUARDED_BY(mu_) = false;
  bool stopped_ GUARDED_BY(mu_) = false;
};

}  // namespace obs
}  // namespace scanraw

#endif  // SCANRAW_OBS_PERIODIC_THREAD_H_
