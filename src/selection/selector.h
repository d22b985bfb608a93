// Client-selection interface shared by the synchronous engine.
//
// Implementations: RandomSelector (FedAvg), OortSelector, ReflSelector.
// FedBuff's over-selection lives in the async engine, which draws from a
// RandomSelector over available clients.
#ifndef SRC_SELECTION_SELECTOR_H_
#define SRC_SELECTION_SELECTOR_H_

#include <cstddef>
#include <string>
#include <vector>

#include "src/failure/checkpoint_io.h"
#include "src/fl/client.h"

namespace floatfl {

class Selector {
 public:
  virtual ~Selector() = default;

  // Chooses up to k client ids for the round starting at `now_s`. The
  // population is non-const because reading the stateful traces (e.g.
  // availability) advances them.
  //
  // The returned ids must be valid indices into `clients` and pairwise
  // distinct (sampling without replacement): the sync engine observes and
  // simulates each selected client on its own pool task, so a repeated id
  // would have two workers stepping one client's traces. SyncEngine aborts
  // the round (FLOATFL_CHECK) if the contract is broken.
  virtual std::vector<size_t> Select(size_t round, double now_s, size_t k,
                                     std::vector<Client>& clients) = 0;

  // Outcome feedback for one selected client.
  virtual void OnOutcome(size_t client_id, bool completed, double duration_s, double deadline_s) {
    (void)client_id;
    (void)completed;
    (void)duration_s;
    (void)deadline_s;
  }

  // Transfer feedback (lossy transport only, DESIGN.md §10): the client's
  // *effective* throughput this round (wire bytes over wire time, after
  // retransmissions) vs its nominal provisioned link speed. Lets selectors
  // rank clients by the bandwidth they actually deliver. Engines only call
  // this when the transport is enabled, so default-config runs are
  // byte-identical with or without an implementation.
  virtual void OnTransfer(size_t client_id, double effective_mbps, double nominal_mbps) {
    (void)client_id;
    (void)effective_mbps;
    (void)nominal_mbps;
  }

  // The selector's current utility score for a client, consumed by the
  // admission layer's utility-priority load shedding (DESIGN.md §15).
  // Score-free selectors return 0 and the engines fall back to the arriving
  // update's quality.
  virtual double IngestUtility(size_t client_id) const {
    (void)client_id;
    return 0.0;
  }

  virtual std::string Name() const = 0;

  // Checkpoint/resume of the selector's mutable state (RNG, utilities,
  // pacing...). Stateless selectors keep the no-op defaults.
  virtual void SaveState(CheckpointWriter& w) const { (void)w; }
  virtual void LoadState(CheckpointReader& r) { (void)r; }
};

}  // namespace floatfl

#endif  // SRC_SELECTION_SELECTOR_H_
