// Server ingress (DESIGN.md §15): the one stage the sync, async and real
// engines pass their uploads through on the way to aggregation.
//
// The stage owns the overload injector, the admission gate, the gate's
// tracker and the log of accepted uploads that replays re-deliver. Per
// ingestion burst it builds the arrivals in a fixed order — the engine's
// fresh uploads in arrival order (after the reorder draw), then each fresh
// upload's at-least-once duplicates, then the replays of logged uploads in
// slot order — and rules on them: through the gate when it is enabled,
// otherwise every delivery passes and the tracker is not touched. Each
// engine keeps only what it does with a verdict.
#ifndef SRC_ADMISSION_INGRESS_H_
#define SRC_ADMISSION_INGRESS_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <span>
#include <vector>

#include "src/admission/admission_config.h"
#include "src/admission/admission_controller.h"
#include "src/admission/update_log.h"
#include "src/failure/checkpoint_io.h"
#include "src/failure/fault_config.h"
#include "src/failure/overload_injector.h"
#include "src/metrics/admission_tracker.h"
#include "src/opt/technique.h"

namespace floatfl {

// One delivery reaching the server door, with the gate's verdict on it.
struct IngressDelivery {
  enum class Kind : uint8_t {
    kFresh,      // the upload itself
    kDuplicate,  // an at-least-once re-delivery of a fresh upload (same key)
    kReplay,     // a re-delivery of the client's last logged upload
  };
  Kind kind = Kind::kFresh;
  // The engine's slot of the delivering client (its selection index).
  size_t slot = 0;
  AdmissionController::Arrival arrival;
  // The upload's content and delivery cost: set by the engine on a fresh
  // upload, copied onto its duplicates, read from the log for a replay.
  TechniqueKind technique = TechniqueKind::kNone;
  double quality = 0.0;
  double upload_comm_s = 0.0;
  double upload_mb = 0.0;
  // Real engine only: the parameter vector and its FedAvg weight. A replay
  // delivers the logged vector as it was when the burst was built, valid
  // until the next Ingest.
  const std::vector<float>* params = nullptr;
  double weight = 0.0;
  AdmissionController::Verdict verdict;

  bool redundant() const { return kind != Kind::kFresh; }
};

class ServerIngress {
 public:
  ServerIngress() = default;
  ServerIngress(const FaultConfig& faults, const AdmissionConfig& admission, uint64_t seed,
                size_t num_clients)
      : overload_(faults, seed), admission_(admission), log_(num_clients) {}

  // False when no overload fault is armed and the gate is off: every upload
  // would pass untouched, so the engines skip the stage.
  bool active() const { return overload_.enabled() || admission_.enabled(); }

  // Builds one burst at `now_round` and rules on it. `fresh` holds the
  // burst's fresh uploads in arrival order; `slot_clients[s]` is the client
  // in slot s, whose logged upload may be replayed. A replay's shedding
  // utility is its logged `replay_utility` field over 1 + staleness. While
  // overload faults are armed, every admitted fresh upload is logged (at
  // its arrival key) for later replays.
  std::vector<IngressDelivery> Ingest(uint64_t now_round, std::vector<IngressDelivery> fresh,
                                      std::span<const size_t> slot_clients,
                                      double LoggedUpload::*replay_utility);

  // Rules on a burst of salvaged partial uploads, which the engine keys
  // under kPartialUpdateAttempt. An empty burst never reaches the gate.
  std::vector<AdmissionController::Verdict> AdmitPartials(
      uint64_t now_round, const std::vector<AdmissionController::Arrival>& partials);

  const AdmissionTracker& tracker() const { return tracker_; }

  // The gate, the log and the tracker, in that order.
  void SaveState(CheckpointWriter& w) const;
  void LoadState(CheckpointReader& r);

 private:
  template <class Ar, class Self> static void Transfer(Ar& ar, Self& self);
  std::vector<AdmissionController::Verdict> Rule(
      uint64_t now_round, const std::vector<AdmissionController::Arrival>& arrivals);

  OverloadInjector overload_;
  AdmissionController admission_;
  AdmissionTracker tracker_;
  UpdateLog log_;
  // Logged vectors a fresh upload replaced while this burst replays them.
  std::deque<std::vector<float>> replayed_params_;
};

}  // namespace floatfl

#endif  // SRC_ADMISSION_INGRESS_H_
