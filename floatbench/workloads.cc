#include "floatbench/workloads.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <optional>

#include "bench/bench_util.h"
#include "src/common/rng.h"
#include "src/data/synthetic.h"
#include "src/failure/checkpoint_io.h"
#include "src/fl/real_engine.h"
#include "src/recovery/checkpoint_ring.h"
#include "src/recovery/crash_plan.h"
#include "src/recovery/run_supervisor.h"

namespace floatbench {
namespace {

using floatfl_bench::MakeSelector;
using floatfl_bench::PaperConfig;

// speech_chaos_durable: rounds per supervised run and the supervisor's
// default cadence / ring depth.
constexpr size_t kDurableRounds = 1000;
// real_mlp_float: rounds per run.
constexpr size_t kRealRounds = 50;

struct Fig12Cell {
  const char* name;
  const char* selector;  // null = FedBuff (async engine)
  bool with_float;
};

constexpr Fig12Cell kFig12Cells[] = {
    {"fedavg", "fedavg", false}, {"FLOAT(fedavg)", "fedavg", true},
    {"oort", "oort", false},     {"FLOAT(oort)", "oort", true},
    {"refl", "refl", false},     {"fedbuff", nullptr, false},
    {"FLOAT(fedbuff)", nullptr, true},
};

uint64_t SplitMix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

// Steps are timed one by one; the totals feed the pool-idle share.
template <typename F>
void TimeStep(OpResult& op, F&& step) {
  const double w0 = WallNow();
  const double c0 = CpuNow();
  step();
  const double wall = WallNow() - w0;
  op.step_cpu_s += CpuNow() - c0;
  op.step_wall_s += wall;
  op.step_ms.push_back(1e3 * wall);
}

// Wall and CPU of the measured part of one operation.
class RunClock {
 public:
  explicit RunClock(OpResult& op) : op_(op), w0_(WallNow()), c0_(CpuNow()) {}
  void Stop() {
    op_.run_s = WallNow() - w0_;
    op_.cpu_s = CpuNow() - c0_;
  }

 private:
  OpResult& op_;
  double w0_;
  double c0_;
};

template <typename Engine>
void DigestState(const Engine& engine, OpResult& op, Digest& d) {
  Digest state;
  state.Str(TrainingState(engine));
  op.state_digest = state.value();
  d.U64(op.state_digest);
}

void Fail(OpResult& op, const std::string& what) { op.errors.push_back(op.name + ": " + what); }

void CheckFinite(OpResult& op, const char* what, double v) {
  if (!std::isfinite(v)) {
    Fail(op, std::string("non-finite ") + what);
  }
}

void CheckAccuracy(OpResult& op, const char* what, double v) {
  CheckFinite(op, what, v);
  if (!(v >= 0.0 && v <= 1.0)) {
    Fail(op, std::string(what) + " outside [0, 1]");
  }
}

// The per-operation conservation checks shared by every engine.
void CheckConservation(OpResult& op) {
  if (op.completed + op.dropouts != op.selected) {
    Fail(op, "completed + dropouts != selected");
  }
  if (op.breakdown_total != op.dropouts) {
    Fail(op, "dropout breakdown total != dropouts");
  }
  if (op.selected == 0) {
    Fail(op, "no client was selected");
  }
}

// Reads the deterministic fields and layer counters of a trace-driven run.
void AbsorbResult(const ExperimentResult& r, OpResult& op, Digest& d) {
  op.selected = r.total_selected;
  op.completed = r.total_completed;
  op.dropouts = r.total_dropouts;
  op.breakdown_total = r.dropout_breakdown.Total();
  op.acc_avg = r.accuracy_avg;
  op.acc_bottom10 = r.accuracy_bottom10;
  op.wasted_compute_h = r.wasted.compute_hours;
  op.sim_hours = r.wall_clock_hours;

  auto& c = op.counters;
  c["net.wire_mb"] = r.wire_mb;
  c["net.retransmitted_mb"] = r.retransmitted_mb;
  c["net.transfer_attempts"] = static_cast<double>(r.transfer_attempts);
  c["admission.admitted"] = static_cast<double>(r.admission_admitted);
  c["admission.shed"] = static_cast<double>(r.admission_shed);
  c["admission.refused"] =
      static_cast<double>(r.admission_deduplicated + r.admission_shed +
                          r.admission_rate_limited + r.admission_replay_rejected);
  c["salvage.partials_salvaged"] = static_cast<double>(r.partials_salvaged);
  c["salvage.backups_won"] = static_cast<double>(r.backups_won);
  c["salvage.backups_planned"] = static_cast<double>(r.backups_planned);
  c["guard.rollbacks"] = static_cast<double>(r.rollbacks);
  c["guard.watchdog_triggers"] = static_cast<double>(r.watchdog_triggers);
  c["topology.reparented"] = static_cast<double>(r.reparented_clients);
  c["topology.orphaned"] = static_cast<double>(r.orphaned_clients);
  c["agg.updates_trimmed"] = static_cast<double>(r.updates_trimmed);
  c["recovery.ckpts_written"] = static_cast<double>(r.recovery_checkpoints_written);

  for (double v : {r.wire_mb, r.retransmitted_mb, r.salvaged_mb, r.transfer_backoff_s,
                   r.transfer_progress_mb, r.tier1_wire_mb, r.tier1_retransmitted_mb,
                   r.redundant_mb, r.salvaged_progress_mb, r.useful.compute_hours,
                   r.useful.comm_hours, r.useful.memory_tb, r.wasted.compute_hours,
                   r.wasted.comm_hours, r.wasted.memory_tb, r.wall_clock_hours}) {
    CheckFinite(op, "result field", v);
  }
  for (double a : {r.accuracy_avg, r.accuracy_top10, r.accuracy_bottom10, r.global_accuracy}) {
    CheckAccuracy(op, "accuracy", a);
  }
  for (double a : r.accuracy_history) {
    CheckAccuracy(op, "accuracy history", a);
  }
  CheckConservation(op);

  for (double v : {r.accuracy_avg, r.accuracy_top10, r.accuracy_bottom10, r.global_accuracy,
                   r.useful.compute_hours, r.useful.comm_hours, r.useful.memory_tb,
                   r.wasted.compute_hours, r.wasted.comm_hours, r.wasted.memory_tb,
                   r.wall_clock_hours, r.wire_mb}) {
    d.F64(v);
  }
  for (size_t v : {r.total_selected, r.total_completed, r.total_dropouts, r.never_selected,
                   r.never_completed, r.rejected_updates, r.recovery_restarts,
                   r.recovery_archives_skipped, r.recovery_rounds_replayed,
                   r.recovery_checkpoints_written, r.recovery_checkpoints_failed}) {
    d.U64(v);
  }
  for (double a : r.accuracy_history) {
    d.F64(a);
  }
  for (size_t v : r.per_client_completed) {
    d.U64(v);
  }
}

// The wrapped selector and policy of one engine construction. Untraced
// operations hand the engine the plain objects.
struct Injected {
  std::unique_ptr<Selector> selector;
  std::unique_ptr<TuningPolicy> policy;
  std::optional<TimedSelector> timed_selector;
  std::optional<TimedPolicy> timed_policy;
  std::optional<ShadowObserver> shadow;

  Injected(std::unique_ptr<Selector> s, std::unique_ptr<TuningPolicy> p, LayerTimes* times)
      : selector(std::move(s)), policy(std::move(p)) {
    if (times != nullptr) {
      if (selector) {
        timed_selector.emplace(*selector, *times);
      }
      if (policy) {
        timed_policy.emplace(*policy, *times);
      }
    }
  }
  Selector* sel() { return timed_selector ? &*timed_selector : selector.get(); }
  TuningPolicy* pol() { return timed_policy ? &*timed_policy : policy.get(); }

  // Starts shadow capture for a sync engine (traced runs only).
  void Shadow(SyncEngine& engine, LayerTimes* times) {
    if (times == nullptr) {
      return;
    }
    shadow.emplace(engine, *times);
    timed_selector->set_shadow(&*shadow);
    if (timed_policy) {
      timed_policy->set_shadow(&*shadow);
    }
  }
};

std::unique_ptr<TuningPolicy> MaybeFloat(bool with_float, const ExperimentConfig& config) {
  if (!with_float) {
    return nullptr;
  }
  return FloatController::MakeDefault(config.seed, config.rounds);
}

void CheckReports(OpResult& op, const LayerTimes* times) {
  if (times == nullptr || !op.has_policy) {
    return;
  }
  size_t reports = 0;
  for (size_t n : times->reports_by_round) {
    reports += n;
  }
  if (reports != op.selected) {
    Fail(op, "Report calls (" + std::to_string(reports) + ") != selected (" +
                 std::to_string(op.selected) + ")");
  }
  if (times->observe_mismatches != 0) {
    Fail(op, "shadow ObserveClient disagrees with the observation the policy saw");
  }
}

OpResult RunFig12Cell(const Fig12Cell& cell, const RunOptions& options, LayerTimes* times) {
  OpResult op;
  op.name = std::string("fig12_cifar10/") + cell.name;
  op.has_policy = cell.with_float;
  ExperimentConfig config = PaperConfig(DatasetId::kCifar10, ModelId::kResNet34, options.seed);
  config.num_threads = options.threads;
  Digest d;

  const double t0 = WallNow();
  if (cell.selector != nullptr) {
    Injected in(MakeSelector(cell.selector, config), MaybeFloat(cell.with_float, config), times);
    SyncEngine engine(config, in.sel(), in.pol());
    op.setup_s.push_back(WallNow() - t0);
    if (options.setup_only) {
      return op;
    }
    in.Shadow(engine, times);
    RunClock clock(op);
    for (size_t round = 0; round < config.rounds; ++round) {
      if (times != nullptr) {
        times->current_round = round;
      }
      TimeStep(op, [&] { engine.RunRound(round); });
      if (in.shadow) {
        in.shadow->Run(round);
      }
    }
    const ExperimentResult result = engine.Snapshot();
    clock.Stop();
    AbsorbResult(result, op, d);
    DigestState(engine, op, d);
  } else {
    Injected in(nullptr, MaybeFloat(cell.with_float, config), times);
    AsyncEngine engine(config, in.pol());
    op.setup_s.push_back(WallNow() - t0);
    if (options.setup_only) {
      return op;
    }
    RunClock clock(op);
    for (size_t version = 0; version < config.rounds; ++version) {
      if (times != nullptr) {
        times->current_round = version;
      }
      TimeStep(op, [&] { engine.RunUntil(version + 1); });
    }
    const ExperimentResult result = engine.Snapshot();
    clock.Stop();
    AbsorbResult(result, op, d);
    DigestState(engine, op, d);
  }
  op.digest = d.value();
  CheckReports(op, times);
  return op;
}

// Speech/SpeechCNN at paper population with every stress subsystem armed:
// the knobs of the chaos soak test plus a faulty 4-edge aggregation tree.
ExperimentConfig SpeechChaosConfig(const RunOptions& options) {
  ExperimentConfig config = PaperConfig(DatasetId::kSpeech, ModelId::kSpeechCnn, options.seed);
  config.rounds = kDurableRounds;
  config.num_threads = options.threads;
  config.faults.crash_prob = 0.15;
  config.faults.corrupt_prob = 0.1;
  config.faults.flaky_fraction = 0.2;
  config.faults.flaky_enter_prob = 0.2;
  config.faults.flaky_exit_prob = 0.3;
  config.faults.flaky_crash_prob = 0.3;
  config.faults.overcommit = 1.5;
  config.faults.retry_cooldown_rounds = 2;
  config.faults.byzantine_mode = ByzantineMode::kScaledReplacement;
  config.faults.byzantine_fraction = 0.15;
  config.aggregator.kind = AggregatorKind::kTrimmedMean;
  config.faults.chunk_loss_prob = 0.1;
  config.faults.link_blackout_prob = 0.05;
  config.faults.max_transfer_retries = 2;
  config.faults.duplicate_prob = 0.2;
  config.faults.replay_prob = 0.2;
  config.faults.stampede_prob = 0.2;
  config.admission.dedup = true;
  config.admission.dedup_window_rounds = 4;
  config.admission.reject_replays = true;
  config.admission.rate_tokens_per_round = 4.0;
  config.admission.rate_bucket_cap = 8.0;
  config.admission.queue_capacity = 24;
  config.guard.enabled = true;
  config.salvage.enabled = true;
  config.salvage.speculation = true;
  config.salvage.speculation_margin = 0.0;
  config.salvage.max_backup_fraction = 0.25;
  config.topology.num_edges = 4;
  config.topology.edge_crash_prob = 0.1;
  config.topology.edge_blackout_prob = 0.05;
  config.topology.edge_retry_cooldown_rounds = 2;
  config.topology.edge_link_loss_prob = 0.05;
  return config;
}

// The library's write sequence (temp file, rename over the final name)
// without its two fsync calls. The benchmark measures what checkpointing
// costs the process; fsync latency is a property of the host's disk, which
// on a shared machine varied twofold from minute to minute.
class PageCacheFile final : public DurableFile {
 public:
  bool Write(const std::string& path, const std::string& bytes) override {
    const std::string tmp = path + TempSuffix();
    {
      std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
      if (!out.write(bytes.data(), static_cast<std::streamsize>(bytes.size())) ||
          !out.flush()) {
        std::remove(tmp.c_str());
        return false;
      }
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
      std::remove(tmp.c_str());
      return false;
    }
    return true;
  }
};


// One supervised run, relaunched after every kill the way a restarted
// process would be: fresh selector, policy and engine, then Recover().
// With `with_kill`, a seed-keyed one-shot soft kill is armed in the first
// life. Checkpoints go through PageCacheFile (timed when traced), except
// inside the armed window, where the crash plan's own writer takes over.
OpResult RunDurable(const RunOptions& options, LayerTimes* times, bool with_kill) {
  OpResult op;
  op.name = with_kill ? "speech_chaos_durable/FLOAT(fedavg)+kill"
                      : "speech_chaos_durable/FLOAT(fedavg)";
  op.has_policy = true;
  const ExperimentConfig config = SpeechChaosConfig(options);
  RecoveryConfig recovery;
  recovery.enabled = true;
  recovery.dir = options.tmpdir + "/ring";
  WipeRing(recovery.dir);

  const uint64_t key = SplitMix(options.seed ^ 0xD0AB1EULL);
  CrashPlanConfig plan_config;
  plan_config.seed = options.seed;
  plan_config.directed = true;
  plan_config.hard_kill = false;
  plan_config.trigger_round = kDurableRounds / 4 + key % (kDurableRounds / 4);
  // Every site but kAfterRename loses work, so the relaunch replays rounds.
  constexpr CrashSite kSites[] = {CrashSite::kBeforeSave, CrashSite::kMidWrite,
                                  CrashSite::kAfterTempBeforeRename, CrashSite::kMidRound};
  plan_config.trigger_site = kSites[(key >> 32) % std::size(kSites)];
  CrashPlan plan(plan_config);

  PageCacheFile page_cache;
  std::optional<TimedDurableFile> timed_file;
  if (times != nullptr) {
    timed_file.emplace(page_cache, *times);
  }
  DurableFile& writer = timed_file ? static_cast<DurableFile&>(*timed_file) : page_cache;
  std::optional<RunClock> clock;
  bool completed = false;
  Digest d;
  for (size_t life = 0; life < 4 && !completed; ++life) {
    const double t0 = WallNow();
    Injected in(MakeSelector("fedavg", config), MaybeFloat(true, config), times);
    SyncEngine engine(config, in.sel(), in.pol());
    op.setup_s.push_back(WallNow() - t0);
    if (options.setup_only) {
      return op;
    }
    if (!clock) {
      clock.emplace(op);
    }
    in.Shadow(engine, times);
    RunSupervisor<SyncEngine> supervisor(recovery, engine);
    supervisor.SetDurableFile(&writer);
    supervisor.SetStep([&](SyncEngine& e, size_t round) {
      if (times != nullptr) {
        times->current_round = round;
      }
      TimeStep(op, [&] { e.RunRound(round); });
      if (in.shadow) {
        in.shadow->Run(round);
      }
    });
    const double r0 = WallNow();
    const size_t restored = supervisor.Recover();
    if (supervisor.report().recovered) {
      op.recover_ms.push_back(1e3 * (WallNow() - r0));
    }
    if (times != nullptr && times->reports_by_round.size() > restored) {
      times->reports_by_round.resize(restored);  // those rounds are replayed
    }
    ++op.lives;
    if (with_kill && life == 0) {
      // Arm the plan at the checkpoint boundary before its trigger: only the
      // saves inside the armed window go through the plan's own writer.
      const size_t arm_round =
          plan_config.trigger_round / recovery.checkpoint_every * recovery.checkpoint_every;
      if (supervisor.Run(arm_round) != SupervisedOutcome::kCompleted) {
        Fail(op, "unarmed prefix did not complete");
        break;
      }
      supervisor.SetCrashPlan(&plan);
    }
    if (supervisor.Run(config.rounds) == SupervisedOutcome::kCompleted) {
      completed = true;
      const ExperimentResult result = engine.Snapshot();
      clock->Stop();
      AbsorbResult(result, op, d);
      DigestState(engine, op, d);
    }
  }
  WipeRing(recovery.dir);
  if (!completed) {
    Fail(op, "supervised run did not complete");
    return op;
  }
  // Replayed rounds counted from outside: steps beyond one per round.
  op.counters["recovery.rounds_replayed"] =
      static_cast<double>(op.step_ms.size() - config.rounds);
  if (with_kill && (plan.KillsFired() != 1 || op.lives != 2)) {
    Fail(op, "the armed kill did not fire exactly once");
  }
  op.digest = d.value();
  CheckReports(op, times);
  return op;
}

RealFlConfig RealConfig(const RunOptions& options) {
  RealFlConfig config;
  config.num_clients = 100;
  config.clients_per_round = 20;
  config.input_dim = 64;
  config.hidden_dims = {128, 64};
  config.num_classes = 10;
  // Not saturated (about 0.92 after 50 rounds), and steady across seeds;
  // 0.35 left the final and worst-class accuracies seed-dominated.
  config.class_separation = 0.5;
  config.sgd.epochs = 2;
  config.seed = options.seed;
  config.num_threads = options.threads;
  // Client crashes give the policy failures to learn from and the run a
  // non-zero dropout share.
  config.faults.crash_prob = 0.2;
  return config;
}

// Mean of the worst 10 % of per-class accuracies of `model` on a fresh
// balanced test set drawn from the engine's synthetic task. The task's class
// centers are the first draws of the engine's seed stream, so rebuilding it
// from the seed reproduces them; the overall accuracy on this set is checked
// against the engine's own test accuracy.
double BottomClassAccuracy(const RealFlConfig& config, Mlp model, double engine_accuracy,
                           OpResult& op) {
  Rng task_rng(config.seed);
  const SyntheticTaskData task(config.num_classes, config.input_dim, config.class_separation,
                               task_rng);
  Rng test_rng(SplitMix(config.seed ^ 0x7E57ULL));
  Tensor inputs;
  std::vector<int> labels;
  task.MakeTestSet(200, test_rng, &inputs, &labels);
  const Tensor logits = model.Forward(inputs);
  std::vector<double> hit(config.num_classes, 0.0);
  std::vector<double> seen(config.num_classes, 0.0);
  double hits = 0.0;
  for (size_t i = 0; i < logits.rows(); ++i) {
    size_t best = 0;
    for (size_t c = 1; c < logits.cols(); ++c) {
      if (logits.At(i, c) > logits.At(i, best)) {
        best = c;
      }
    }
    const size_t label = static_cast<size_t>(labels[i]);
    seen[label] += 1.0;
    if (best == label) {
      hit[label] += 1.0;
      hits += 1.0;
    }
  }
  if (std::fabs(hits / static_cast<double>(logits.rows()) - engine_accuracy) > 0.1) {
    Fail(op, "held-out accuracy disagrees with the engine's test accuracy");
  }
  std::vector<double> per_class;
  for (size_t c = 0; c < config.num_classes; ++c) {
    per_class.push_back(hit[c] / seen[c]);
  }
  std::sort(per_class.begin(), per_class.end());
  const size_t bottom = std::max<size_t>(1, per_class.size() / 10);
  double sum = 0.0;
  for (size_t i = 0; i < bottom; ++i) {
    sum += per_class[i];
  }
  return sum / static_cast<double>(bottom);
}

OpResult RunReal(const RunOptions& options, LayerTimes* times) {
  OpResult op;
  op.name = "real_mlp_float/FLOAT";
  op.has_policy = true;
  const RealFlConfig config = RealConfig(options);
  Digest d;

  const double t0 = WallNow();
  RealFlEngine engine(config);
  Injected in(nullptr, FloatController::MakeDefault(config.seed, kRealRounds), times);
  engine.AttachPolicy(in.pol());
  op.setup_s.push_back(WallNow() - t0);
  if (options.setup_only) {
    return op;
  }

  const double dense_bytes = static_cast<double>(engine.DenseUpdateBytes());
  double upload_ratio_sum = 0.0;
  double update_error_sum = 0.0;
  RealRoundStats stats;
  RunClock clock(op);
  for (size_t round = 0; round < kRealRounds; ++round) {
    if (times != nullptr) {
      times->current_round = round;
    }
    TimeStep(op, [&] { stats = engine.RunRoundWithPolicy(); });
    const size_t dropouts = stats.crashed + stats.rejected_updates + stats.transfer_timeouts +
                            stats.orphaned;
    if (stats.participants + dropouts != config.clients_per_round) {
      Fail(op, "round " + std::to_string(round) + ": participants + dropouts != selected");
    }
    op.selected += config.clients_per_round;
    op.completed += stats.participants;
    op.dropouts += dropouts;
    op.breakdown_total += dropouts;
    upload_ratio_sum += stats.mean_upload_bytes / dense_bytes;
    update_error_sum += stats.mean_update_error;
    op.counters["agg.updates_trimmed"] += static_cast<double>(stats.updates_trimmed);
    op.counters["guard.rollbacks"] += stats.rolled_back ? 1.0 : 0.0;
    CheckAccuracy(op, "test accuracy", stats.test_accuracy);
    CheckFinite(op, "test loss", stats.test_loss);
    CheckFinite(op, "upload bytes", stats.mean_upload_bytes);
    CheckFinite(op, "update error", stats.mean_update_error);
    d.F64(stats.test_accuracy);
    d.F64(stats.test_loss);
    d.F64(stats.mean_upload_bytes);
    d.F64(stats.mean_update_error);
    d.U64(stats.participants);
    d.U64(stats.crashed);
  }
  clock.Stop();
  op.counters["opt.upload_ratio_sum"] = upload_ratio_sum;
  op.counters["opt.update_error_sum"] = update_error_sum;
  op.counters["opt.rounds"] = static_cast<double>(kRealRounds);
  op.acc_avg = stats.test_accuracy;
  op.acc_bottom10 = BottomClassAccuracy(config, engine.global_model(), stats.test_accuracy, op);
  CheckAccuracy(op, "bottom-10% class accuracy", op.acc_bottom10);
  for (float p : engine.global_model().GetParameters()) {
    if (!std::isfinite(p)) {
      Fail(op, "non-finite model parameter");
      break;
    }
  }
  CheckConservation(op);
  d.F64(op.acc_bottom10);
  DigestState(engine, op, d);
  op.digest = d.value();
  CheckReports(op, times);
  return op;
}

}  // namespace

void WipeRing(const std::string& dir) {
  CheckpointRing ring(dir, 0);
  ring.SweepTemps();
  for (size_t round : ring.Rounds()) {
    std::remove(ring.PathFor(round).c_str());
  }
  ::rmdir(dir.c_str());
}

std::vector<std::string> OpNames(const std::string& workload) {
  if (workload == "fig12_cifar10") {
    std::vector<std::string> names;
    for (const Fig12Cell& cell : kFig12Cells) {
      names.push_back(cell.name);
    }
    return names;
  }
  if (workload == "speech_chaos_durable") {
    return {"FLOAT(fedavg)"};
  }
  if (workload == "real_mlp_float") {
    return {"FLOAT"};
  }
  return {};
}

OpResult RunOp(const std::string& workload, size_t index, const RunOptions& options,
               LayerTimes* times, bool with_kill) {
  if (times != nullptr) {
    times->reports_by_round.clear();  // the Report check is per operation
  }
  if (workload == "fig12_cifar10") {
    return RunFig12Cell(kFig12Cells[index], options, times);
  }
  if (workload == "speech_chaos_durable") {
    return RunDurable(options, times, with_kill);
  }
  return RunReal(options, times);
}

}  // namespace floatbench
