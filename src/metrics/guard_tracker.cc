#include "src/metrics/guard_tracker.h"

#include "src/failure/checkpoint_io.h"

namespace floatfl {

template <class Ar, class Self>
void GuardTracker::Transfer(Ar& ar, Self& self) {
  ar.Size(self.snapshots_);
  ar.Size(self.nonfinite_triggers_);
  ar.Size(self.collapse_triggers_);
  ar.Size(self.stall_triggers_);
  ar.Size(self.rollbacks_);
  ar.Size(self.masked_actions_);
  ar.Size(self.quarantine_openings_);
  ar.Size(self.rejected_rewards_);
  ar.Size(self.safe_mode_rounds_);
}

void GuardTracker::SaveState(CheckpointWriter& w) const { Transfer(w, *this); }
void GuardTracker::LoadState(CheckpointReader& r) { Transfer(r, *this); }

}  // namespace floatfl
