// The benchmark's three workloads, each a list of operations. One operation
// is one Figure-12 cell, one supervised durable run, or one real-MLP run;
// RunOp builds its engines, steps them with per-step host timing, and
// returns the measured and deterministic results plus the outcome of the
// per-operation correctness checks.
#ifndef FLOATBENCH_WORKLOADS_H_
#define FLOATBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "floatbench/decorators.h"
#include "src/failure/checkpoint_io.h"

namespace floatbench {

// Worker threads for every engine: this benchmark's reference host has 4
// hardware threads, and the count is pinned so runs on different hosts do
// the same work.
inline constexpr size_t kThreads = 4;

struct RunOptions {
  uint64_t seed = 1;
  size_t threads = kThreads;
  // Directory the durable workload keeps its checkpoint ring in.
  std::string tmpdir;
  // Construct the operation's engines, record their set-up time and return
  // without stepping.
  bool setup_only = false;
};

// Seed of the k-th instance of a workload in one run: instance 0 runs the
// given seed itself, later instances draw fresh populations so one run
// averages over several.
inline uint64_t InstanceSeed(uint64_t seed, size_t k) {
  return seed ^ (static_cast<uint64_t>(k) * 0x9E3779B97F4A7C15ULL);
}

struct OpResult {
  std::string name;
  // One sample per engine construction (population, traces, surrogate).
  std::vector<double> setup_s;
  // Host wall and process CPU from the end of the first construction to the
  // final result (includes checkpointing, relaunches and, when traced, the
  // shadow work).
  double run_s = 0.0;
  double cpu_s = 0.0;
  std::vector<double> step_ms;
  double step_wall_s = 0.0;
  double step_cpu_s = 0.0;
  size_t selected = 0;
  size_t completed = 0;
  size_t dropouts = 0;
  size_t breakdown_total = 0;
  double acc_avg = 0.0;
  double acc_bottom10 = 0.0;
  double wasted_compute_h = 0.0;
  double sim_hours = 0.0;
  // Digest of every deterministic result field and of the training state.
  uint64_t digest = 0;
  // Digest of the training state alone (engine state minus the recovery
  // tracker), compared between a killed and an uninterrupted durable run.
  uint64_t state_digest = 0;
  bool has_policy = false;
  // Layer counters read from the engines' public results after the run.
  std::map<std::string, double> counters;
  // Durable runs: process lives and the Recover() calls that restored.
  size_t lives = 0;
  std::vector<double> recover_ms;
  // Correctness failures; empty when every check passed.
  std::vector<std::string> errors;
};

// Engine state minus the trailing recovery-tracker section: what must match
// between a killed-and-recovered run and an uninterrupted one.
template <typename Engine>
std::string TrainingState(const Engine& engine) {
  CheckpointWriter full;
  engine.SaveState(full);
  CheckpointWriter tail;
  engine.recovery_tracker().SaveState(tail);
  return full.buffer().substr(0, full.buffer().size() - tail.buffer().size());
}

// Deletes a checkpoint ring directory and every archive and temp in it.
void WipeRing(const std::string& dir);

// Operation names of a workload; empty for an unknown workload.
std::vector<std::string> OpNames(const std::string& workload);

// Runs operation `index` of `workload`. `times` is null for an untraced run;
// otherwise the decorators and the shadow observer add to it.
// `with_kill` arms the durable workload's crash plan (ignored elsewhere).
OpResult RunOp(const std::string& workload, size_t index, const RunOptions& options,
               LayerTimes* times, bool with_kill = true);

}  // namespace floatbench

#endif  // FLOATBENCH_WORKLOADS_H_
