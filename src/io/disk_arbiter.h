// DiskArbiter: enforces the SCANRAW rule that only one of READ or WRITE
// touches the disk at any instant (§3.2, "SCANRAW has to enforce that only
// one of READ or WRITE accesses the disk at any particular instant in time").
//
// The scheduler thread owns the policy: READ holds the disk by default; when
// READ is blocked on a full text-chunk buffer the scheduler grants the disk
// to WRITE for one chunk, then `resume`s READ (Figure 3's control messages).
#ifndef SCANRAW_IO_DISK_ARBITER_H_
#define SCANRAW_IO_DISK_ARBITER_H_

#include <cstdint>

#include "common/clock.h"
#include "common/thread_annotations.h"
#include "obs/heartbeat.h"
#include "obs/metrics.h"

namespace scanraw {

enum class DiskUser : int { kNone = 0, kReader = 1, kWriter = 2 };

class DiskArbiter {
 public:
  explicit DiskArbiter(const Clock* clock = RealClock::Instance())
      : clock_(clock) {}

  // Blocks until the disk is free or already held by `user`, then takes it.
  void Acquire(DiskUser user) EXCLUDES(mu_);

  // Non-blocking variant; returns true if the disk was taken.
  bool TryAcquire(DiskUser user) EXCLUDES(mu_);

  void Release(DiskUser user) EXCLUDES(mu_);

  DiskUser current_user() const EXCLUDES(mu_);

  // Cumulative nanoseconds the disk was held by readers / writers; the
  // resource-utilization benchmark (Figure 9) samples these.
  int64_t reader_busy_nanos() const EXCLUDES(mu_);
  int64_t writer_busy_nanos() const EXCLUDES(mu_);

  // Cumulative nanoseconds readers / writers spent blocked in Acquire.
  // Per-query deltas drive the DISK_WAIT stage of critical-path
  // attribution, distinguishing contention on the single-disk rule from
  // bandwidth throttling.
  int64_t reader_wait_nanos() const EXCLUDES(mu_);
  int64_t writer_wait_nanos() const EXCLUDES(mu_);

  // Wires per-acquire wait/hold latency histograms (nanoseconds a READ or
  // WRITE spent blocked before taking the disk, and held it afterwards).
  // Call before the arbiter is shared across threads; pass nullptr to
  // detach.
  void BindMetrics(obs::Histogram* reader_wait, obs::Histogram* writer_wait,
                   obs::Histogram* reader_hold, obs::Histogram* writer_hold)
      EXCLUDES(mu_);

  // Wires the watchdog's DISK_WAIT stage: threads are marked active while
  // blocked in Acquire and every grant/release beats, so a deadlocked
  // READ/WRITE handoff shows up as a stalled DISK_WAIT stage. Call before
  // the arbiter is shared across threads; pass nullptr to detach.
  void BindHeartbeats(obs::StageHeartbeats* heartbeats) EXCLUDES(mu_);

 private:
  const Clock* clock_;
  // Written once before threads share the arbiter (BindHeartbeats), then
  // only read; relaxed atomic keeps late binding defined.
  std::atomic<obs::StageHeartbeats*> heartbeats_{nullptr};
  mutable Mutex mu_{LockRank::kDiskArbiter, "DiskArbiter.mu"};
  CondVar cv_;
  DiskUser user_ GUARDED_BY(mu_) = DiskUser::kNone;
  int64_t acquired_at_nanos_ GUARDED_BY(mu_) = 0;
  int64_t reader_busy_nanos_ GUARDED_BY(mu_) = 0;
  int64_t writer_busy_nanos_ GUARDED_BY(mu_) = 0;
  int64_t reader_wait_nanos_ GUARDED_BY(mu_) = 0;
  int64_t writer_wait_nanos_ GUARDED_BY(mu_) = 0;
  obs::Histogram* reader_wait_hist_ GUARDED_BY(mu_) = nullptr;
  obs::Histogram* writer_wait_hist_ GUARDED_BY(mu_) = nullptr;
  obs::Histogram* reader_hold_hist_ GUARDED_BY(mu_) = nullptr;
  obs::Histogram* writer_hold_hist_ GUARDED_BY(mu_) = nullptr;
};

// RAII holder.
class ScopedDiskAccess {
 public:
  ScopedDiskAccess(DiskArbiter* arbiter, DiskUser user)
      : arbiter_(arbiter), user_(user) {
    if (arbiter_ != nullptr) arbiter_->Acquire(user_);
  }
  ~ScopedDiskAccess() {
    if (arbiter_ != nullptr) arbiter_->Release(user_);
  }
  ScopedDiskAccess(const ScopedDiskAccess&) = delete;
  ScopedDiskAccess& operator=(const ScopedDiskAccess&) = delete;

 private:
  DiskArbiter* arbiter_;
  DiskUser user_;
};

}  // namespace scanraw

#endif  // SCANRAW_IO_DISK_ARBITER_H_
