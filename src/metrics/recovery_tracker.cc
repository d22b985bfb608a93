#include "src/metrics/recovery_tracker.h"

#include "src/failure/checkpoint_io.h"

namespace floatfl {

template <class Ar, class Self>
void RecoveryTracker::Transfer(Ar& ar, Self& self) {
  ar.Size(self.restarts_);
  ar.Size(self.archives_skipped_);
  ar.Size(self.rounds_replayed_);
  ar.Size(self.checkpoints_written_);
  ar.Size(self.checkpoints_failed_);
  ar.Size(self.checkpoints_collected_);
  ar.Size(self.temps_swept_);
}

void RecoveryTracker::SaveState(CheckpointWriter& w) const { Transfer(w, *this); }
void RecoveryTracker::LoadState(CheckpointReader& r) { Transfer(r, *this); }

}  // namespace floatfl
