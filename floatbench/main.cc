// floatbench: the repository benchmark.
//
//   floatbench --workload <fig12_cifar10|speech_chaos_durable|real_mlp_float>
//              --seed <n> --seconds <s> --trace <0|1> [--tmpdir <dir>]
//
// --trace 0 repeats the workload's operations for about --seconds seconds,
// each repetition on a fresh seed-derived instance, and prints the
// end-to-end metrics. --trace 1 runs the workload untraced, then with the
// layer decorators and shadow calls attached, then untraced again, plus a
// 1-thread run of its first operation, and prints the per-layer metrics and
// the tracing overhead. Both check every operation's outputs; the last line
// of standard output is one JSON object with the result.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "floatbench/measure.h"
#include "floatbench/workloads.h"

namespace floatbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string tmpdir = ".";
};

bool ParseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--tmpdir") {
      args.tmpdir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !OpNames(args.workload).empty() && args.seconds > 0.0;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;
};

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "") {
    metrics_.push_back({name, value, unit, note});
  }

  // Prints every metric by name with its unit, then the JSON result line.
  void Print(bool correct, size_t attempted, size_t failed) const {
    for (const Metric& m : metrics_) {
      std::printf("metric %-28s %16.6f %-8s %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                  m.note.c_str());
    }
    std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(attempted) +
                       ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      // JSON has no NaN or infinity; AllFinite() already marks such a run
      // incorrect.
      const double v = std::isfinite(metrics_[i].value) ? metrics_[i].value : 0.0;
      char value[64];
      std::snprintf(value, sizeof value, "%.17g", v);
      json += (i == 0 ? "\"" : ", \"") + metrics_[i].name + "\": {\"value\": " + value +
              ", \"unit\": \"" + metrics_[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
  }

  bool AllFinite() const {
    for (const Metric& m : metrics_) {
      if (!std::isfinite(m.value)) {
        return false;
      }
    }
    return true;
  }

 private:
  std::vector<Metric> metrics_;
};

void PrintOp(const char* tag, const OpResult& op) {
  double setup = 0.0;
  for (double s : op.setup_s) {
    setup += s;
  }
  std::printf("%-9s %-42s setup %.3fs run %.3fs steps %zu selected %zu completed %zu "
              "dropouts %zu acc %.4f bottom10 %.4f digest %016llx\n",
              tag, op.name.c_str(), setup, op.run_s, op.step_ms.size(), op.selected,
              op.completed, op.dropouts, op.acc_avg, op.acc_bottom10,
              static_cast<unsigned long long>(op.digest));
  for (const std::string& e : op.errors) {
    std::printf("CHECK FAILED: %s\n", e.c_str());
  }
}

using Pass = std::vector<OpResult>;

// Runs every operation of the workload once. `times` (null when untraced)
// accumulates the layer timings of the whole pass.
Pass RunPass(const Args& args, const RunOptions& options, const char* tag, LayerTimes* times) {
  Pass pass;
  for (size_t i = 0; i < OpNames(args.workload).size(); ++i) {
    pass.push_back(RunOp(args.workload, i, options, times));
    PrintOp(tag, pass.back());
  }
  return pass;
}

// Counts failed operations: checks that failed inside the operation, plus,
// with `same_inputs`, operations whose deterministic digest differs from the
// first pass.
size_t CountFailed(const std::vector<Pass>& passes, bool same_inputs) {
  size_t failed = 0;
  for (const Pass& pass : passes) {
    for (size_t i = 0; i < pass.size(); ++i) {
      const bool mismatch = same_inputs && pass[i].digest != passes.front()[i].digest;
      if (mismatch) {
        std::printf("CHECK FAILED: %s digest differs from the first pass\n",
                    pass[i].name.c_str());
      }
      failed += (!pass[i].errors.empty() || mismatch) ? 1 : 0;
    }
  }
  return failed;
}

double Sum(const Pass& pass, double OpResult::*field) {
  double s = 0.0;
  for (const OpResult& op : pass) {
    s += op.*field;
  }
  return s;
}

double Counter(const Pass& pass, const std::string& name) {
  double s = 0.0;
  for (const OpResult& op : pass) {
    auto it = op.counters.find(name);
    s += it == op.counters.end() ? 0.0 : it->second;
  }
  return s;
}

double SafeRatio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::string TailNote(const Tail& tail) {
  char note[96];
  std::snprintf(note, sizeof note, "(p%.2f of n=%zu, %zu beyond)", 100.0 * tail.pct, tail.n,
                tail.beyond);
  return note;
}

// Engine constructions timed per run for setup_s.
constexpr size_t kSetupSamples = 20;

// --trace 0: time kSetupSamples engine constructions, then repeat whole
// passes, each on a fresh instance of the workload, while another one fits
// in the budget.
int RunUntraced(const Args& args, const RunOptions& options) {
  std::vector<double> setups;
  RunOptions setup_only = options;
  setup_only.setup_only = true;
  for (size_t k = 0; setups.size() < kSetupSamples; ++k) {
    setup_only.seed = InstanceSeed(options.seed, k);
    for (size_t i = 0; i < OpNames(args.workload).size(); ++i) {
      const OpResult op = RunOp(args.workload, i, setup_only, nullptr);
      setups.insert(setups.end(), op.setup_s.begin(), op.setup_s.end());
    }
  }

  std::vector<Pass> passes;
  const double start = WallNow();
  double pass_s = 0.0;
  do {
    RunOptions instance = options;
    instance.seed = InstanceSeed(options.seed, passes.size());
    const double p0 = WallNow();
    passes.push_back(RunPass(args, instance, "untraced", nullptr));
    pass_s = WallNow() - p0;
  } while (WallNow() - start + pass_s <= args.seconds);

  size_t attempted = 0;
  size_t selected = 0;
  size_t dropouts = 0;
  double run_s = 0.0;
  double cpu_s = 0.0;
  double acc_avg = 0.0;
  double acc_bottom10 = 0.0;
  double wasted_compute_h = 0.0;
  double sim_hours = 0.0;
  std::vector<double> steps;
  for (const Pass& pass : passes) {
    for (const OpResult& op : pass) {
      ++attempted;
      selected += op.selected;
      dropouts += op.dropouts;
      run_s += op.run_s;
      cpu_s += op.cpu_s;
      acc_avg += op.acc_avg;
      acc_bottom10 += op.acc_bottom10;
      wasted_compute_h += op.wasted_compute_h;
      sim_hours += op.sim_hours;
      steps.insert(steps.end(), op.step_ms.begin(), op.step_ms.end());
      setups.insert(setups.end(), op.setup_s.begin(), op.setup_s.end());
    }
  }
  const size_t failed = CountFailed(passes, /*same_inputs=*/false);
  const double ops = static_cast<double>(attempted);

  Report report;
  report.Add("client_rounds_per_s", static_cast<double>(selected) / run_s, "1/s");
  report.Add("step_ms_p50", Median(steps), "ms", "(n=" + std::to_string(steps.size()) + ")");
  report.Add("cpu_ms_per_client_round", 1e3 * cpu_s / static_cast<double>(selected), "ms");
  report.Add("setup_s", Median(setups), "s",
             "(median of " + std::to_string(setups.size()) + " engine constructions)");
  report.Add("peak_rss_mb", PeakRssMb(), "MB");
  report.Add("acc_avg", acc_avg / ops, "ratio");
  report.Add("acc_bottom10", acc_bottom10 / ops, "ratio");
  report.Add("dropout_share", static_cast<double>(dropouts) / static_cast<double>(selected),
             "ratio");
  const double npasses = static_cast<double>(passes.size());
  std::printf("info passes %zu wasted_compute_h/pass %.6f sim_hours/pass %.6f\n", passes.size(),
              wasted_compute_h / npasses, sim_hours / npasses);
  const bool correct = failed == 0 && report.AllFinite();
  report.Print(correct, attempted, failed);
  return 0;
}

// --trace 1: untraced, traced and untraced passes on the same inputs (the
// two untraced passes bracket the traced one in time, so warm-up and drift
// cancel in the overhead), a 1-thread run of the first operation, and
// (durable workload) an uninterrupted golden run.
int RunTraced(const Args& args, const RunOptions& options) {
  LayerTimes sum;
  const Pass untraced = RunPass(args, options, "untraced", nullptr);
  const Pass traced = RunPass(args, options, "traced", &sum);
  const Pass untraced_again = RunPass(args, options, "untraced", nullptr);
  size_t failed = CountFailed({untraced, traced, untraced_again}, /*same_inputs=*/true);
  size_t attempted = 3 * untraced.size();

  RunOptions single = options;
  single.threads = 1;
  const OpResult t1 = RunOp(args.workload, 0, single, nullptr);
  PrintOp("threads1", t1);
  ++attempted;
  if (!t1.errors.empty() || t1.digest != untraced.front().digest) {
    std::printf("CHECK FAILED: %s differs between 1 and %zu threads\n", t1.name.c_str(),
                options.threads);
    ++failed;
  }
  if (args.workload == "speech_chaos_durable") {
    const OpResult golden = RunOp(args.workload, 0, options, nullptr, /*with_kill=*/false);
    PrintOp("golden", golden);
    ++attempted;
    if (!golden.errors.empty() || golden.state_digest != traced.front().state_digest) {
      std::printf("CHECK FAILED: killed-and-recovered training state differs from the "
                  "uninterrupted run\n");
      ++failed;
    }
  }

  std::vector<double> recover_ms;
  size_t lives = 0;
  for (const OpResult& op : traced) {
    recover_ms.insert(recover_ms.end(), op.recover_ms.begin(), op.recover_ms.end());
    lives += op.lives;
  }
  std::vector<double> untraced_steps;
  for (const OpResult& op : untraced) {
    untraced_steps.insert(untraced_steps.end(), op.step_ms.begin(), op.step_ms.end());
  }
  const Tail step_tail = TailPercentile(untraced_steps);
  const double step_s = Sum(traced, &OpResult::step_wall_s);
  const double threads = static_cast<double>(options.threads);
  const Tail write_tail = TailPercentile(sum.write_ms);
  double recover_mean = 0.0;
  for (double r : recover_ms) {
    recover_mean += r / static_cast<double>(recover_ms.size());
  }
  const double overhead =
      Sum(traced, &OpResult::run_s) -
      0.5 * (Sum(untraced, &OpResult::run_s) + Sum(untraced_again, &OpResult::run_s));

  Report report;
  // Reported here, without a bound: the tail of steps lasting a few
  // milliseconds mostly measures how the shared host schedules the pool's
  // threads, and varied by 0.3 to 0.9 of its median between runs.
  report.Add("step_ms_p99", step_tail.value, "ms",
             "first untraced pass " + TailNote(step_tail));
  report.Add("trace.observe_s", sum.observe_s, "s", "(shadow ObserveClient, sync engines)");
  report.Add("trace.queries", static_cast<double>(sum.queries), "count");
  report.Add("trace.gap_sim_s_p50", Median(sum.gaps_sim_s), "s");
  report.Add("fl.step_s", step_s, "s");
  report.Add("fl.self_s",
             step_s - sum.select_s - sum.selector_feedback_s - sum.decide_s - sum.report_s, "s",
             args.workload == "real_mlp_float" ? "(lumps nn, opt and agg together)" : "");
  report.Add("fl.simulate_cpu_s", sum.simulate_s, "s", "(shadow SimulateClient, sync engines)");
  report.Add("sim.pool_idle_share",
             1.0 - Sum(untraced, &OpResult::step_cpu_s) /
                       (Sum(untraced, &OpResult::step_wall_s) * threads),
             "ratio");
  report.Add("sim.speedup_t1_t4", t1.run_s / untraced.front().run_s, "x",
             "(" + untraced.front().name + ")");
  report.Add("selection.select_s", sum.select_s, "s");
  report.Add("selection.calls", static_cast<double>(sum.select_calls), "count");
  report.Add("core.decide_s", sum.decide_s, "s");
  report.Add("core.report_s", sum.report_s, "s");
  report.Add("core.decisions", static_cast<double>(sum.decisions), "count");
  report.Add("core.useful_ratio",
             SafeRatio(static_cast<double>(sum.reports_participated),
                       static_cast<double>(sum.reports)),
             "ratio");
  report.Add("net.wire_mb", Counter(traced, "net.wire_mb"), "MB");
  report.Add("net.retransmit_ratio",
             SafeRatio(Counter(traced, "net.retransmitted_mb"), Counter(traced, "net.wire_mb")),
             "ratio");
  report.Add("net.transfer_attempts", Counter(traced, "net.transfer_attempts"), "count");
  const double admitted = Counter(traced, "admission.admitted");
  report.Add("admission.admitted", admitted, "count");
  report.Add("admission.shed", Counter(traced, "admission.shed"), "count");
  report.Add("admission.useful_ratio",
             SafeRatio(admitted, admitted + Counter(traced, "admission.refused")), "ratio");
  report.Add("salvage.partials_salvaged", Counter(traced, "salvage.partials_salvaged"), "count");
  report.Add("salvage.backup_win_ratio",
             SafeRatio(Counter(traced, "salvage.backups_won"),
                       Counter(traced, "salvage.backups_planned")),
             "ratio");
  report.Add("guard.rollbacks", Counter(traced, "guard.rollbacks"), "count");
  report.Add("guard.watchdog_triggers", Counter(traced, "guard.watchdog_triggers"), "count");
  report.Add("topology.reparented", Counter(traced, "topology.reparented"), "count");
  report.Add("topology.orphaned", Counter(traced, "topology.orphaned"), "count");
  report.Add("agg.updates_trimmed", Counter(traced, "agg.updates_trimmed"), "count");
  report.Add("failure.ckpt_write_ms_p50", Median(sum.write_ms), "ms",
             "(n=" + std::to_string(sum.write_ms.size()) + ")");
  report.Add("failure.ckpt_write_ms_p99", write_tail.value, "ms", TailNote(write_tail));
  report.Add("failure.ckpt_kb",
             SafeRatio(sum.write_bytes, static_cast<double>(sum.write_ms.size())) / 1024.0,
             "KiB");
  report.Add("recovery.recover_ms", recover_mean, "ms");
  report.Add("recovery.lives", static_cast<double>(lives), "count");
  report.Add("recovery.rounds_replayed", Counter(traced, "recovery.rounds_replayed"), "count");
  report.Add("recovery.ckpts_written", Counter(traced, "recovery.ckpts_written"), "count");
  report.Add("opt.upload_ratio",
             SafeRatio(Counter(traced, "opt.upload_ratio_sum"), Counter(traced, "opt.rounds")),
             "ratio");
  report.Add("opt.update_error",
             SafeRatio(Counter(traced, "opt.update_error_sum"), Counter(traced, "opt.rounds")),
             "abs");
  report.Add("sim_hours", Sum(traced, &OpResult::sim_hours), "h");
  report.Add("wasted_compute_h", Sum(traced, &OpResult::wasted_compute_h), "h");
  report.Add("bench.trace_overhead_s", overhead, "s", "(traced minus untraced wall)");
  const bool correct = failed == 0 && report.AllFinite();
  report.Print(correct, attempted, failed);
  return 0;
}

}  // namespace
}  // namespace floatbench

int main(int argc, char** argv) {
  floatbench::Args args;
  if (!floatbench::ParseArgs(argc, argv, args)) {
    std::cerr << "usage: floatbench --workload <fig12_cifar10|speech_chaos_durable|"
                 "real_mlp_float> --seed <n> --seconds <s> --trace <0|1> [--tmpdir <dir>]\n";
    return 2;
  }
  floatbench::RunOptions options;
  options.seed = args.seed;
  options.tmpdir = args.tmpdir;
  return args.trace ? floatbench::RunTraced(args, options)
                    : floatbench::RunUntraced(args, options);
}
