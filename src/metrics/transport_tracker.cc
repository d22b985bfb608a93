#include "src/metrics/transport_tracker.h"

namespace floatfl {

void TransportTracker::Record(size_t attempts, double wire_mb, double retransmitted_mb,
                              double salvaged_mb, double progress_mb, double backoff_s,
                              bool timed_out) {
  ++transfers_;
  attempts_ += attempts;
  if (timed_out) {
    ++timeouts_;
  }
  wire_mb_ += wire_mb;
  retransmitted_mb_ += retransmitted_mb;
  salvaged_mb_ += salvaged_mb;
  progress_mb_ += progress_mb;
  backoff_s_ += backoff_s;
}

template <class Ar, class Self>
void TransportTracker::Transfer(Ar& ar, Self& self) {
  ar.Size(self.transfers_);
  ar.Size(self.attempts_);
  ar.Size(self.timeouts_);
  ar.F64(self.wire_mb_);
  ar.F64(self.retransmitted_mb_);
  ar.F64(self.salvaged_mb_);
  ar.F64(self.progress_mb_);
  ar.F64(self.backoff_s_);
}

void TransportTracker::SaveState(CheckpointWriter& w) const { Transfer(w, *this); }
void TransportTracker::LoadState(CheckpointReader& r) { Transfer(r, *this); }

}  // namespace floatfl
