// Parallel client-execution scaling: wall-clock per round versus
// num_threads, with the speedup over the sequential path — recorded into
// BENCH_parallel.json (DESIGN.md §12), not just printed.
//
// Two workloads:
//  * a 100-client synchronous trace-driven round (the paper-scale
//    simulation hot loop), and
//  * a real-training round with FLOAT attached (per-client SGD on MLPs —
//    the compute-bound path where parallelism pays most — plus the policy
//    path's cached round-start accuracy and row-parallel test-set pass).
//
// Determinism is asserted on the fly: every thread count must produce the
// same round-accuracy as the num_threads=1 baseline, so this bench doubles
// as a quick invariance smoke test at benchmark scale.
//
// On single-core hosts multi-thread speedups are timesharing artifacts, so
// thread counts above hardware_concurrency are SKIPPED (recorded with
// variant "skipped", speedup 0) rather than measured as noise or failed —
// the bench degrades gracefully instead of lying.
//
// Usage: parallel_scaling [--out DIR] [thread counts...]
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "bench/perf_util.h"
#include "src/fl/real_engine.h"

namespace floatfl_bench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr size_t kSyncRounds = 30;
constexpr size_t kRealRounds = 20;

struct Measurement {
  double seconds = 0.0;
  double final_accuracy = 0.0;
};

Measurement MeasureSync(size_t num_threads) {
  ExperimentConfig config = PaperConfig();
  config.num_clients = 200;
  config.clients_per_round = 100;
  config.rounds = kSyncRounds;
  config.num_threads = num_threads;
  RandomSelector selector(config.seed);
  SyncEngine engine(config, &selector, nullptr);
  const auto start = Clock::now();
  const ExperimentResult result = engine.Run();
  const auto stop = Clock::now();
  Measurement m;
  m.seconds = std::chrono::duration<double>(stop - start).count();
  m.final_accuracy = result.global_accuracy;
  return m;
}

Measurement MeasureReal(size_t num_threads) {
  RealFlConfig config;
  config.num_clients = 32;
  config.clients_per_round = 16;
  config.num_classes = 6;
  config.input_dim = 24;
  config.hidden_dims = {48, 24};
  config.sgd.epochs = 2;
  config.seed = 42;
  config.num_threads = num_threads;
  const auto policy = FloatController::MakeDefault(config.seed, kRealRounds);
  RealFlEngine engine(config);
  engine.AttachPolicy(policy.get());
  const auto start = Clock::now();
  RealRoundStats stats;
  for (size_t round = 0; round < kRealRounds; ++round) {
    stats = engine.RunRoundWithPolicy();
  }
  const auto stop = Clock::now();
  Measurement m;
  m.seconds = std::chrono::duration<double>(stop - start).count();
  m.final_accuracy = stats.test_accuracy;
  return m;
}

// Runs one workload across the thread counts, printing the table and
// appending one sample per thread count (work_units = rounds the workload
// runs; speedup = sequential wall over this wall).
void RunScaling(const char* name, const char* case_name, double rounds,
                Measurement (*measure)(size_t), const std::vector<size_t>& thread_counts,
                unsigned hw_threads, std::vector<PerfSample>& out) {
  std::printf("\n== %s ==\n", name);
  std::printf("%-12s %12s %10s %s\n", "num_threads", "seconds", "speedup", "deterministic");
  bool have_base = false;
  double base_seconds = 0.0;
  double base_accuracy = 0.0;
  for (size_t threads : thread_counts) {
    PerfSample sample;
    sample.area = "parallel";
    sample.case_name = case_name;
    sample.scale = "t" + std::to_string(threads);
    sample.work_units = rounds;
    if (threads > 1 && hw_threads > 0 && threads > hw_threads) {
      // Not enough hardware to measure this honestly; skip, don't fail.
      sample.variant = "skipped";
      out.push_back(sample);
      std::printf("%-12zu %12s %10s (skipped: only %u hardware threads)\n", threads, "-", "-",
                  hw_threads);
      continue;
    }
    const Measurement m = measure(threads);
    if (!have_base) {
      have_base = true;
      base_seconds = m.seconds;
      base_accuracy = m.final_accuracy;
    }
    const bool same = m.final_accuracy == base_accuracy;
    sample.variant = "measured";
    sample.wall_seconds = m.seconds;
    sample.speedup = m.seconds > 0.0 ? base_seconds / m.seconds : 0.0;
    sample.peak_rss_mb = PeakRssMb();
    sample.FinalizeRates();
    out.push_back(sample);
    std::printf("%-12zu %12.3f %9.2fx %s\n", threads, m.seconds,
                base_seconds > 0.0 ? base_seconds / m.seconds : 0.0, same ? "yes" : "NO!");
    if (!same) {
      std::fprintf(stderr, "DETERMINISM VIOLATION at num_threads=%zu\n", threads);
      std::exit(1);
    }
  }
}

}  // namespace
}  // namespace floatfl_bench

int main(int argc, char** argv) {
  // Pass explicit thread counts as args, e.g. `parallel_scaling 1 2 4 8`.
  std::string out_dir = ".";
  std::vector<size_t> thread_counts;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_dir = argv[++i];
    } else {
      thread_counts.push_back(static_cast<size_t>(std::atoll(argv[i])));
    }
  }
  if (thread_counts.empty()) {
    thread_counts = {1, 2, 4, 8};
  }
  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("hardware_concurrency: %u\n", hw);
  if (hw < 8) {
    std::printf("note: fewer than 8 hardware threads; counts above %u are skipped\n", hw);
  }
  std::vector<floatfl_bench::PerfSample> samples;
  floatfl_bench::RunScaling("sync engine, 100-client round", "sync",
                            static_cast<double>(floatfl_bench::kSyncRounds),
                            floatfl_bench::MeasureSync, thread_counts, hw, samples);
  floatfl_bench::RunScaling("real-training engine round", "real",
                            static_cast<double>(floatfl_bench::kRealRounds),
                            floatfl_bench::MeasureReal, thread_counts, hw, samples);
  const std::string path = out_dir + "/BENCH_parallel.json";
  if (!floatfl_bench::WriteJsonFile(path, samples)) {
    std::fprintf(stderr, "failed to write %s\n", path.c_str());
    return 1;
  }
  std::printf("wrote %s (%zu samples)\n", path.c_str(), samples.size());
  return 0;
}
