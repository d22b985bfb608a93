// Self-tests of the benchmark's own helpers: the percentile rule, the
// decorators' forwarding of every virtual function, and bit-identity of
// decorated and undecorated runs (checkpoint bytes included).
//
//   floatbench_selftest [tmpdir]     exit 0 when every check passes
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "floatbench/decorators.h"
#include "floatbench/measure.h"
#include "floatbench/workloads.h"
#include "src/core/float_controller.h"
#include "src/failure/checkpoint_io.h"
#include "src/fl/real_engine.h"
#include "src/recovery/checkpoint_ring.h"
#include "src/recovery/crash_plan.h"
#include "src/recovery/run_supervisor.h"
#include "src/selection/oort_selector.h"

namespace floatbench {
namespace {

int failures = 0;

#define EXPECT(cond)                                                   \
  do {                                                                 \
    if (!(cond)) {                                                     \
      ++failures;                                                      \
      std::printf("FAILED %s:%d: %s\n", __FILE__, __LINE__, #cond);    \
    }                                                                  \
  } while (0)

std::vector<double> Ramp(size_t n) {
  std::vector<double> v;
  for (size_t i = n; i >= 1; --i) {
    v.push_back(static_cast<double>(i));  // reversed: the rule must sort
  }
  return v;
}

void TestPercentileRule() {
  Tail t = TailPercentile(Ramp(2100));
  EXPECT(t.pct == 0.99 && t.value == 2079.0 && t.beyond == 21 && t.n == 2100);
  t = TailPercentile(Ramp(1000));
  EXPECT(t.pct == 0.99 && t.value == 990.0 && t.beyond == 10);
  // 300 samples cannot support p99: the highest percentile with ten samples
  // beyond it is p96.67.
  t = TailPercentile(Ramp(300));
  EXPECT(t.value == 290.0 && t.beyond == 10 && t.pct < 0.99);
  t = TailPercentile(Ramp(15));
  EXPECT(t.pct == 0.5 && t.value == 8.0);
  EXPECT(TailPercentile({}).n == 0);
  EXPECT(Median({3.0, 1.0, 2.0}) == 2.0);
  EXPECT(Median({4.0, 1.0, 2.0, 3.0}) == 2.5);
}

// Records every virtual call with its arguments.
class RecordingSelector final : public Selector {
 public:
  std::vector<size_t> Select(size_t round, double now_s, size_t k,
                             std::vector<Client>&) override {
    log << "select " << round << " " << now_s << " " << k << ";";
    return {round, k};
  }
  void OnOutcome(size_t id, bool completed, double duration_s, double deadline_s) override {
    log << "outcome " << id << completed << duration_s << deadline_s << ";";
  }
  void OnTransfer(size_t id, double effective, double nominal) override {
    log << "transfer " << id << effective << nominal << ";";
  }
  double IngestUtility(size_t id) const override { return 0.5 + static_cast<double>(id); }
  std::string Name() const override { return "recording"; }
  void SaveState(CheckpointWriter& w) const override { w.U64(77); }
  void LoadState(CheckpointReader& r) override { log << "load " << r.U64() << ";"; }
  std::ostringstream log;
};

class RecordingPolicy final : public TuningPolicy {
 public:
  TechniqueKind Decide(size_t id, const ClientObservation& c, const GlobalObservation& g) override {
    log << "decide " << id << c.cpu_avail << g.epochs << ";";
    return TechniqueKind::kQuant8;
  }
  void Report(size_t id, const ClientObservation& c, const GlobalObservation& g, TechniqueKind t,
              bool participated, double improvement) override {
    log << "report " << id << c.net_avail << g.batch_size << static_cast<int>(t) << participated
        << improvement << ";";
  }
  std::string Name() const override { return "recording-policy"; }
  void SaveState(CheckpointWriter& w) const override { w.U64(99); }
  void LoadState(CheckpointReader& r) override { log << "load " << r.U64() << ";"; }
  std::ostringstream log;
};

class RecordingFile final : public DurableFile {
 public:
  bool Write(const std::string& path, const std::string& bytes) override {
    log << path << ":" << bytes << ";";
    return bytes != "fail";
  }
  std::ostringstream log;
};

void TestForwarding() {
  LayerTimes times;
  std::vector<Client> none;
  RecordingSelector direct_sel;
  RecordingSelector inner_sel;
  TimedSelector sel(inner_sel, times);
  EXPECT(sel.Select(3, 1.5, 7, none) == direct_sel.Select(3, 1.5, 7, none));
  sel.OnOutcome(4, true, 2.5, 9.0);
  direct_sel.OnOutcome(4, true, 2.5, 9.0);
  sel.OnTransfer(5, 1.25, 8.0);
  direct_sel.OnTransfer(5, 1.25, 8.0);
  EXPECT(sel.IngestUtility(6) == direct_sel.IngestUtility(6));
  EXPECT(sel.Name() == direct_sel.Name());
  CheckpointWriter w1;
  CheckpointWriter w2;
  sel.SaveState(w1);
  direct_sel.SaveState(w2);
  EXPECT(w1.buffer() == w2.buffer());
  CheckpointReader r1(w1.buffer());
  CheckpointReader r2(w2.buffer());
  sel.LoadState(r1);
  direct_sel.LoadState(r2);
  EXPECT(inner_sel.log.str() == direct_sel.log.str());
  EXPECT(times.select_calls == 1);

  RecordingPolicy direct_pol;
  RecordingPolicy inner_pol;
  TimedPolicy pol(inner_pol, times);
  ClientObservation c;
  c.cpu_avail = 0.25;
  c.net_avail = 0.75;
  GlobalObservation g;
  EXPECT(pol.Decide(2, c, g) == direct_pol.Decide(2, c, g));
  pol.Report(2, c, g, TechniqueKind::kPrune25, false, 0.125);
  direct_pol.Report(2, c, g, TechniqueKind::kPrune25, false, 0.125);
  EXPECT(pol.Name() == direct_pol.Name());
  CheckpointWriter p1;
  CheckpointWriter p2;
  pol.SaveState(p1);
  direct_pol.SaveState(p2);
  EXPECT(p1.buffer() == p2.buffer());
  CheckpointReader q1(p1.buffer());
  CheckpointReader q2(p2.buffer());
  pol.LoadState(q1);
  direct_pol.LoadState(q2);
  EXPECT(inner_pol.log.str() == direct_pol.log.str());
  EXPECT(times.decisions == 1 && times.reports == 1 && times.reports_participated == 0);

  RecordingFile direct_file;
  RecordingFile inner_file;
  TimedDurableFile file(inner_file, times);
  EXPECT(file.Write("a", "bytes") == direct_file.Write("a", "bytes"));
  EXPECT(file.Write("b", "fail") == direct_file.Write("b", "fail"));
  EXPECT(inner_file.log.str() == direct_file.log.str());
  EXPECT(times.write_ms.size() == 2 && times.write_bytes == 9.0);
}

// A small sync run that reaches every selector and policy virtual: Oort's
// utility feeds utility-priority shedding (IngestUtility), the lossy
// transport feeds OnTransfer, and the supervisor checkpoints through the
// durable writer.
ExperimentConfig SmallStormConfig() {
  ExperimentConfig config;
  config.num_clients = 40;
  config.clients_per_round = 8;
  config.rounds = 20;
  config.seed = 4242;
  config.num_threads = 2;
  config.model = ModelId::kShuffleNetV2;
  config.faults.crash_prob = 0.1;
  config.faults.chunk_loss_prob = 0.1;
  config.faults.max_transfer_retries = 2;
  config.faults.duplicate_prob = 0.2;
  config.faults.stampede_prob = 0.3;
  config.admission.dedup = true;
  config.admission.queue_capacity = 4;
  config.admission.shed_policy = SheddingPolicy::kUtilityPriority;
  config.guard.enabled = true;
  return config;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream s;
  s << in.rdbuf();
  return s.str();
}

struct SyncRun {
  std::string state;
  std::vector<std::string> archives;
  LayerTimes times;
};

// Runs the small storm under an enabled supervisor; `decorated` wraps the
// selector, policy and durable writer and attaches the shadow observer.
// `kill_at` > 0 soft-kills the first life at that round and recovers.
SyncRun RunSmallSync(const std::string& dir, bool decorated, size_t kill_at) {
  const ExperimentConfig config = SmallStormConfig();
  RecoveryConfig recovery;
  recovery.enabled = true;
  recovery.dir = dir;
  WipeRing(dir);
  CrashPlanConfig plan_config;
  plan_config.directed = true;
  plan_config.trigger_round = kill_at;
  plan_config.trigger_site = CrashSite::kMidRound;
  CrashPlan plan(plan_config);

  SyncRun run;
  TimedDurableFile file(DefaultDurableFile(), run.times);
  for (size_t life = 0; life < 3; ++life) {
    OortSelector oort(config.seed + 202, config.num_clients);
    auto controller = FloatController::MakeDefault(config.seed, config.rounds);
    TimedSelector timed_sel(oort, run.times);
    TimedPolicy timed_pol(*controller, run.times);
    Selector* sel = decorated ? static_cast<Selector*>(&timed_sel) : &oort;
    TuningPolicy* pol = decorated ? static_cast<TuningPolicy*>(&timed_pol) : controller.get();
    SyncEngine engine(config, sel, pol);
    ShadowObserver shadow(engine, run.times);
    RunSupervisor<SyncEngine> supervisor(recovery, engine);
    if (decorated) {
      timed_sel.set_shadow(&shadow);
      timed_pol.set_shadow(&shadow);
      supervisor.SetDurableFile(&file);
      supervisor.SetStep([&](SyncEngine& e, size_t round) {
        e.RunRound(round);
        shadow.Run(round);
      });
    }
    if (kill_at > 0 && life == 0) {
      supervisor.SetCrashPlan(&plan);
    }
    supervisor.Recover();
    if (supervisor.Run(config.rounds) == SupervisedOutcome::kCompleted) {
      run.state = TrainingState(engine);
      break;
    }
  }
  CheckpointRing ring(dir, 0);
  for (size_t round : ring.Rounds()) {
    run.archives.push_back(ReadFile(ring.PathFor(round)));
  }
  WipeRing(dir);
  return run;
}

void TestDecoratedSyncRunIsBitIdentical(const std::string& tmpdir) {
  const SyncRun plain = RunSmallSync(tmpdir + "/selftest_plain", false, 0);
  const SyncRun decorated = RunSmallSync(tmpdir + "/selftest_decorated", true, 0);
  EXPECT(!plain.state.empty());
  EXPECT(plain.state == decorated.state);
  EXPECT(!plain.archives.empty());
  EXPECT(plain.archives == decorated.archives);
  // Every forwarded path was exercised, and the shadow reproduced exactly
  // the observations the policy was shown.
  const LayerTimes& t = decorated.times;
  EXPECT(t.select_calls == SmallStormConfig().rounds);
  EXPECT(t.decisions > 0 && t.reports > 0 && t.selector_feedback_s > 0.0);
  EXPECT(!t.write_ms.empty());
  EXPECT(t.queries > 0 && t.observe_compared > 0 && t.observe_mismatches == 0);
  // A decorated relaunch restores through the decorators' LoadState.
  const SyncRun killed = RunSmallSync(tmpdir + "/selftest_killed", true, 9);
  EXPECT(killed.state == plain.state);
}

void TestDecoratedRealRunIsBitIdentical() {
  RealFlConfig config;
  config.num_clients = 12;
  config.clients_per_round = 4;
  config.num_classes = 3;
  config.input_dim = 8;
  config.hidden_dims = {12};
  config.test_samples_per_class = 10;
  config.seed = 5;
  config.num_threads = 2;
  config.faults.crash_prob = 0.2;
  std::string states[2];
  for (int decorated = 0; decorated < 2; ++decorated) {
    LayerTimes times;
    RealFlEngine engine(config);
    auto controller = FloatController::MakeDefault(config.seed, 6);
    TimedPolicy timed(*controller, times);
    engine.AttachPolicy(decorated != 0 ? static_cast<TuningPolicy*>(&timed) : controller.get());
    for (int round = 0; round < 6; ++round) {
      engine.RunRoundWithPolicy();
    }
    CheckpointWriter w;
    engine.SaveState(w);
    states[decorated] = w.buffer();
    if (decorated != 0) {
      EXPECT(times.reports == 6 * config.clients_per_round);
    }
  }
  EXPECT(states[0] == states[1]);
}

}  // namespace
}  // namespace floatbench

int main(int argc, char** argv) {
  const std::string tmpdir = argc > 1 ? argv[1] : ".";
  floatbench::TestPercentileRule();
  floatbench::TestForwarding();
  floatbench::TestDecoratedSyncRunIsBitIdentical(tmpdir);
  floatbench::TestDecoratedRealRunIsBitIdentical();
  std::printf("floatbench_selftest: %s (%d failed checks)\n",
              floatbench::failures == 0 ? "ok" : "FAILED", floatbench::failures);
  return floatbench::failures == 0 ? 0 : 1;
}
