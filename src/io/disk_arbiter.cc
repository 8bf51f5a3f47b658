#include "io/disk_arbiter.h"

namespace scanraw {

void DiskArbiter::Acquire(DiskUser user) {
  const int64_t wait_start = clock_->NowNanos();
  // Heartbeat scope covers the blocking wait: a thread wedged here shows as
  // DISK_WAIT active with a frozen beat count, which is exactly the signature
  // the stall watchdog looks for.
  obs::StageHeartbeats::Scope heartbeat(
      heartbeats_.load(std::memory_order_relaxed),
      obs::Stage::kDiskWait);
  MutexLock lock(mu_);
  while (user_ != DiskUser::kNone) cv_.Wait(lock);
  user_ = user;
  acquired_at_nanos_ = clock_->NowNanos();
  const int64_t waited = acquired_at_nanos_ - wait_start;
  if (user == DiskUser::kReader) {
    reader_wait_nanos_ += waited;
  } else if (user == DiskUser::kWriter) {
    writer_wait_nanos_ += waited;
  }
  obs::Histogram* wait_hist = user == DiskUser::kReader ? reader_wait_hist_
                                                        : writer_wait_hist_;
  if (wait_hist != nullptr) {
    wait_hist->Record(static_cast<uint64_t>(waited < 0 ? 0 : waited));
  }
}

bool DiskArbiter::TryAcquire(DiskUser user) {
  MutexLock lock(mu_);
  if (user_ != DiskUser::kNone) return false;
  user_ = user;
  acquired_at_nanos_ = clock_->NowNanos();
  return true;
}

void DiskArbiter::Release(DiskUser user) {
  MutexLock lock(mu_);
  if (user_ != user) return;  // defensive: double release is a no-op
  const int64_t held = clock_->NowNanos() - acquired_at_nanos_;
  if (user == DiskUser::kReader) {
    reader_busy_nanos_ += held;
    if (reader_hold_hist_ != nullptr) {
      reader_hold_hist_->Record(static_cast<uint64_t>(held));
    }
  } else if (user == DiskUser::kWriter) {
    writer_busy_nanos_ += held;
    if (writer_hold_hist_ != nullptr) {
      writer_hold_hist_->Record(static_cast<uint64_t>(held));
    }
  }
  user_ = DiskUser::kNone;
  cv_.NotifyAll();
  obs::StageHeartbeats* hb = heartbeats_.load(std::memory_order_relaxed);
  if (hb != nullptr) hb->Beat(obs::Stage::kDiskWait);
}

void DiskArbiter::BindMetrics(obs::Histogram* reader_wait,
                              obs::Histogram* writer_wait,
                              obs::Histogram* reader_hold,
                              obs::Histogram* writer_hold) {
  MutexLock lock(mu_);
  reader_wait_hist_ = reader_wait;
  writer_wait_hist_ = writer_wait;
  reader_hold_hist_ = reader_hold;
  writer_hold_hist_ = writer_hold;
}

void DiskArbiter::BindHeartbeats(obs::StageHeartbeats* heartbeats) {
  heartbeats_.store(heartbeats, std::memory_order_relaxed);
}

DiskUser DiskArbiter::current_user() const {
  MutexLock lock(mu_);
  return user_;
}

int64_t DiskArbiter::reader_busy_nanos() const {
  MutexLock lock(mu_);
  return reader_busy_nanos_;
}

int64_t DiskArbiter::writer_busy_nanos() const {
  MutexLock lock(mu_);
  return writer_busy_nanos_;
}

int64_t DiskArbiter::reader_wait_nanos() const {
  MutexLock lock(mu_);
  return reader_wait_nanos_;
}

int64_t DiskArbiter::writer_wait_nanos() const {
  MutexLock lock(mu_);
  return writer_wait_nanos_;
}

}  // namespace scanraw
