// Forwarding decorators that time each injected layer from outside the
// library, plus the shadow observer that re-runs the trace catch-up and the
// client simulation on copies of the selected clients.
//
// Every decorator forwards every virtual function of its interface to the
// wrapped object unchanged (selftest.cc proves a decorated run bit-identical
// to an undecorated one, checkpoint bytes included). Timing state lives in a
// LayerTimes the caller owns, so one record can span several decorators and
// several process lives of a supervised run.
#ifndef FLOATBENCH_DECORATORS_H_
#define FLOATBENCH_DECORATORS_H_

#include <string>
#include <vector>

#include "floatbench/measure.h"
#include "src/failure/durable_file.h"
#include "src/fl/observation.h"
#include "src/fl/sync_engine.h"
#include "src/fl/tuning_policy.h"
#include "src/selection/selector.h"

namespace floatbench {

using namespace floatfl;

// Per-layer wall time and call counts gathered by the decorators and the
// shadow observer.
struct LayerTimes {
  double select_s = 0.0;
  size_t select_calls = 0;
  // OnOutcome / OnTransfer / IngestUtility: selector work inside the step
  // that is not selection itself.
  double selector_feedback_s = 0.0;
  double decide_s = 0.0;
  size_t decisions = 0;
  double report_s = 0.0;
  size_t reports = 0;
  size_t reports_participated = 0;
  // Report calls per round of the surviving timeline; a recovered life
  // truncates it to the restored round before replaying.
  std::vector<size_t> reports_by_round;
  size_t current_round = 0;
  std::vector<double> write_ms;
  double write_bytes = 0.0;
  // Shadow observer totals.
  double observe_s = 0.0;
  size_t queries = 0;
  std::vector<double> gaps_sim_s;
  double simulate_s = 0.0;
  // Shadow observations that differed from what the policy was shown.
  size_t observe_mismatches = 0;
  size_t observe_compared = 0;
};

// Re-runs ObserveClient and SyncEngine::SimulateClient on copies of the
// clients a round selected. Copies are taken inside Select (before the
// engine touches them); Run() executes after the step has returned, so the
// engine never sees the shadow work.
class ShadowObserver {
 public:
  ShadowObserver(SyncEngine& engine, LayerTimes& times)
      : engine_(engine),
        times_(times),
        reference_(ComputePopulationReference(engine.clients())),
        last_query_s_(engine.clients().size(), 0.0),
        technique_(engine.clients().size(), TechniqueKind::kNone),
        decided_(engine.clients().size(), 0),
        shown_(engine.clients().size()) {}

  void Capture(const std::vector<size_t>& ids, double now_s, const std::vector<Client>& clients) {
    now_s_ = now_s;
    copies_.clear();
    for (size_t id : ids) {
      copies_.push_back(clients[id]);
      technique_[id] = TechniqueKind::kNone;
      decided_[id] = 0;
    }
  }

  // What the policy decided for (and was shown about) `client_id` this round.
  void NoteDecision(size_t client_id, TechniqueKind technique, const ClientObservation& shown) {
    if (client_id < technique_.size()) {
      technique_[client_id] = technique;
      decided_[client_id] = 1;
      shown_[client_id] = shown;
    }
  }

  void Run(size_t round) {
    for (Client& copy : copies_) {
      const size_t id = copy.id();
      double t0 = WallNow();
      const ClientObservation obs = ObserveClient(copy, now_s_, reference_);
      times_.observe_s += WallNow() - t0;
      ++times_.queries;
      times_.gaps_sim_s.push_back(now_s_ - last_query_s_[id]);
      last_query_s_[id] = now_s_;
      if (decided_[id] != 0) {
        ++times_.observe_compared;
        const ClientObservation& s = shown_[id];
        if (obs.cpu_avail != s.cpu_avail || obs.mem_avail != s.mem_avail ||
            obs.net_avail != s.net_avail || obs.deadline_diff != s.deadline_diff) {
          ++times_.observe_mismatches;
        }
      }
      const FaultDecision fault = engine_.injector().enabled()
                                      ? engine_.injector().Decide(round, id, now_s_)
                                      : FaultDecision();
      t0 = WallNow();
      engine_.SimulateClient(copy, round, now_s_, technique_[id], fault);
      times_.simulate_s += WallNow() - t0;
    }
    copies_.clear();
  }

 private:
  SyncEngine& engine_;
  LayerTimes& times_;
  PopulationReference reference_;
  double now_s_ = 0.0;
  std::vector<Client> copies_;
  std::vector<double> last_query_s_;
  std::vector<TechniqueKind> technique_;
  std::vector<char> decided_;
  std::vector<ClientObservation> shown_;
};

class TimedSelector final : public Selector {
 public:
  TimedSelector(Selector& inner, LayerTimes& times) : inner_(inner), times_(times) {}

  // Copies of the selected clients go to `shadow` (null: no capture).
  void set_shadow(ShadowObserver* shadow) { shadow_ = shadow; }

  std::vector<size_t> Select(size_t round, double now_s, size_t k,
                             std::vector<Client>& clients) override {
    const double t0 = WallNow();
    std::vector<size_t> ids = inner_.Select(round, now_s, k, clients);
    times_.select_s += WallNow() - t0;
    ++times_.select_calls;
    if (shadow_ != nullptr) {
      shadow_->Capture(ids, now_s, clients);
    }
    return ids;
  }
  void OnOutcome(size_t client_id, bool completed, double duration_s,
                 double deadline_s) override {
    const double t0 = WallNow();
    inner_.OnOutcome(client_id, completed, duration_s, deadline_s);
    times_.selector_feedback_s += WallNow() - t0;
  }
  void OnTransfer(size_t client_id, double effective_mbps, double nominal_mbps) override {
    const double t0 = WallNow();
    inner_.OnTransfer(client_id, effective_mbps, nominal_mbps);
    times_.selector_feedback_s += WallNow() - t0;
  }
  double IngestUtility(size_t client_id) const override {
    const double t0 = WallNow();
    const double u = inner_.IngestUtility(client_id);
    times_.selector_feedback_s += WallNow() - t0;
    return u;
  }
  std::string Name() const override { return inner_.Name(); }
  void SaveState(CheckpointWriter& w) const override { inner_.SaveState(w); }
  void LoadState(CheckpointReader& r) override { inner_.LoadState(r); }

 private:
  Selector& inner_;
  LayerTimes& times_;
  ShadowObserver* shadow_ = nullptr;
};

class TimedPolicy final : public TuningPolicy {
 public:
  TimedPolicy(TuningPolicy& inner, LayerTimes& times) : inner_(inner), times_(times) {}

  // Decisions are noted in `shadow` (null: not noted).
  void set_shadow(ShadowObserver* shadow) { shadow_ = shadow; }

  TechniqueKind Decide(size_t client_id, const ClientObservation& client,
                       const GlobalObservation& global) override {
    const double t0 = WallNow();
    const TechniqueKind technique = inner_.Decide(client_id, client, global);
    times_.decide_s += WallNow() - t0;
    ++times_.decisions;
    if (shadow_ != nullptr) {
      shadow_->NoteDecision(client_id, technique, client);
    }
    return technique;
  }
  void Report(size_t client_id, const ClientObservation& client, const GlobalObservation& global,
              TechniqueKind technique, bool participated, double accuracy_improvement) override {
    const double t0 = WallNow();
    inner_.Report(client_id, client, global, technique, participated, accuracy_improvement);
    times_.report_s += WallNow() - t0;
    ++times_.reports;
    times_.reports_participated += participated ? 1 : 0;
    if (times_.reports_by_round.size() <= times_.current_round) {
      times_.reports_by_round.resize(times_.current_round + 1, 0);
    }
    ++times_.reports_by_round[times_.current_round];
  }
  std::string Name() const override { return inner_.Name(); }
  void SaveState(CheckpointWriter& w) const override { inner_.SaveState(w); }
  void LoadState(CheckpointReader& r) override { inner_.LoadState(r); }

 private:
  TuningPolicy& inner_;
  LayerTimes& times_;
  ShadowObserver* shadow_ = nullptr;
};

class TimedDurableFile final : public DurableFile {
 public:
  TimedDurableFile(DurableFile& inner, LayerTimes& times) : inner_(inner), times_(times) {}

  bool Write(const std::string& path, const std::string& bytes) override {
    const double t0 = WallNow();
    const bool ok = inner_.Write(path, bytes);
    times_.write_ms.push_back(1e3 * (WallNow() - t0));
    times_.write_bytes += static_cast<double>(bytes.size());
    return ok;
  }

 private:
  DurableFile& inner_;
  LayerTimes& times_;
};

}  // namespace floatbench

#endif  // FLOATBENCH_DECORATORS_H_
