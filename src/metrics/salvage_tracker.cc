#include "src/metrics/salvage_tracker.h"

namespace floatfl {

template <class Ar, class Self>
void SalvageTracker::Transfer(Ar& ar, Self& self) {
  ar.Size(self.partials_salvaged_);
  ar.Size(self.partials_below_min_);
  ar.Size(self.partials_rejected_);
  ar.U64(self.salvaged_steps_);
  ar.F64(self.salvaged_fraction_sum_);
  ar.F64(self.salvaged_progress_mb_);
  ar.Size(self.backups_planned_);
  ar.Size(self.backups_won_);
  ar.Size(self.backups_redundant_);
  ar.Size(self.deadline_misses_averted_);
}

void SalvageTracker::SaveState(CheckpointWriter& w) const { Transfer(w, *this); }
void SalvageTracker::LoadState(CheckpointReader& r) { Transfer(r, *this); }

}  // namespace floatfl
