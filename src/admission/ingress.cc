#include "src/admission/ingress.h"

#include <numeric>

#include "src/failure/checkpoint_util.h"

namespace floatfl {

std::vector<IngressDelivery> ServerIngress::Ingest(uint64_t now_round,
                                                   std::vector<IngressDelivery> fresh,
                                                   std::span<const size_t> slot_clients,
                                                   double LoggedUpload::*replay_utility) {
  // The reorder draw permutes positions only, whatever they hold.
  std::vector<size_t> order(fresh.size());
  std::iota(order.begin(), order.end(), size_t{0});
  overload_.MaybeReorder(now_round, order);
  replayed_params_.clear();
  std::vector<IngressDelivery> burst;
  burst.reserve(fresh.size());
  for (const size_t i : order) {
    burst.push_back(fresh[i]);
  }
  if (overload_.enabled()) {
    // At-least-once duplicates carry the exact key of the upload they copy,
    // which is what lets idempotent admission fold them.
    for (size_t i = 0; i < order.size(); ++i) {
      const size_t copies = overload_.DuplicateCopies(now_round, burst[i].arrival.client_id);
      for (size_t c = 0; c < copies; ++c) {
        IngressDelivery d = burst[i];
        d.kind = IngressDelivery::Kind::kDuplicate;
        burst.push_back(d);
      }
    }
    // Replays re-deliver the client's last *accepted* upload — what a
    // retransmit buffer would still hold — at its original key.
    for (size_t s = 0; s < slot_clients.size(); ++s) {
      const LoggedUpload* logged = log_.Get(slot_clients[s]);
      if (logged == nullptr || logged->round >= now_round) {
        continue;
      }
      const size_t slots = overload_.ReplaySlots(now_round, slot_clients[s]);
      for (size_t r = 0; r < slots; ++r) {
        IngressDelivery d;
        d.kind = IngressDelivery::Kind::kReplay;
        d.slot = s;
        d.arrival.client_id = slot_clients[s];
        d.arrival.round = logged->round;
        d.arrival.attempt = logged->attempt;
        d.arrival.staleness = static_cast<double>(now_round - logged->round);
        // A stale upload ranks below fresh ones under utility-priority
        // shedding, more so the older it is.
        d.arrival.utility = logged->*replay_utility / (1.0 + d.arrival.staleness);
        d.technique = static_cast<TechniqueKind>(logged->technique);
        d.quality = logged->quality;
        d.upload_comm_s = logged->upload_comm_s;
        d.upload_mb = logged->upload_mb;
        d.params = &logged->params;
        d.weight = logged->weight;
        burst.push_back(d);
      }
    }
  }
  std::vector<AdmissionController::Arrival> arrivals;
  arrivals.reserve(burst.size());
  for (const IngressDelivery& d : burst) {
    arrivals.push_back(d.arrival);
  }
  const std::vector<AdmissionController::Verdict> verdicts = Rule(now_round, arrivals);
  for (size_t i = 0; i < burst.size(); ++i) {
    IngressDelivery& d = burst[i];
    d.verdict = verdicts[i];
    if (overload_.enabled() && d.kind == IngressDelivery::Kind::kFresh && d.verdict.admitted) {
      // Replays of the entry this upload replaces keep its old content.
      const LoggedUpload* old = log_.Get(d.arrival.client_id);
      for (IngressDelivery& replay : burst) {
        if (old != nullptr && replay.params == &old->params) {
          replay.params = &replayed_params_.emplace_back(old->params);
        }
      }
      // The replay fault re-delivers exactly this entry in a later round.
      LoggedUpload entry;
      entry.round = d.arrival.round;
      entry.attempt = d.arrival.attempt;
      entry.quality = d.quality;
      entry.upload_comm_s = d.upload_comm_s;
      entry.upload_mb = d.upload_mb;
      entry.technique = static_cast<uint32_t>(d.technique);
      if (d.params != nullptr) {
        entry.params = *d.params;
      }
      entry.weight = d.weight;
      log_.Record(d.arrival.client_id, std::move(entry));
    }
  }
  return burst;
}

std::vector<AdmissionController::Verdict> ServerIngress::AdmitPartials(
    uint64_t now_round, const std::vector<AdmissionController::Arrival>& partials) {
  if (partials.empty()) {
    return {};
  }
  return Rule(now_round, partials);
}

std::vector<AdmissionController::Verdict> ServerIngress::Rule(
    uint64_t now_round, const std::vector<AdmissionController::Arrival>& arrivals) {
  if (admission_.enabled()) {
    return admission_.Admit(now_round, arrivals, &tracker_);
  }
  AdmissionController::Verdict pass;
  pass.admitted = true;
  return std::vector<AdmissionController::Verdict>(arrivals.size(), pass);
}

template <class Ar, class Self>
void ServerIngress::Transfer(Ar& ar, Self& self) {
  Nested(ar, self.admission_);
  Nested(ar, self.log_);
  Nested(ar, self.tracker_);
}

void ServerIngress::SaveState(CheckpointWriter& w) const { Transfer(w, *this); }
void ServerIngress::LoadState(CheckpointReader& r) { Transfer(r, *this); }

}  // namespace floatfl
