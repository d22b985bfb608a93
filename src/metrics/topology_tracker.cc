#include "src/metrics/topology_tracker.h"

namespace floatfl {

template <class Ar, class Self>
void TopologyTracker::Transfer(Ar& ar, Self& self) {
  ar.Size(self.edge_crashes_);
  ar.Size(self.edge_blackouts_);
  ar.Size(self.reparented_clients_);
  ar.Size(self.orphaned_clients_);
  ar.Size(self.partials_forwarded_);
  ar.Size(self.partials_lost_);
  ar.Size(self.tampered_partials_);
  ar.Size(self.tampered_rejections_);
  ar.Size(self.late_partials_);
  ar.Size(self.edge_agg_exclusions_);
  ar.Size(self.edge_transfer_attempts_);
  ar.F64(self.tier1_wire_mb_);
  ar.F64(self.tier1_retransmitted_mb_);
}

void TopologyTracker::SaveState(CheckpointWriter& w) const { Transfer(w, *this); }
void TopologyTracker::LoadState(CheckpointReader& r) { Transfer(r, *this); }

}  // namespace floatfl
