// Continuous performance harness (DESIGN.md §12).
//
// Runs fixed-scale scenarios for five areas and emits one machine-readable
// trajectory file per area:
//
//   BENCH_agg.json        reference vs blocked aggregation, all five rules
//   BENCH_trace.json      repeated trace queries on a timestamp ladder
//   BENCH_round_loop.json full engine round loops
//   BENCH_nn.json         dense kernels and an SGD epoch at real-MLP shapes
//   BENCH_ckpt.json       a supervised chaos-sync run that checkpoints
//
// The agg before/after pair and the nn cases are also *checked* here: the
// blocked variant must produce bit-identical outputs to the reference rule
// and the dense kernels to the scalar oracle, so a harness run that
// measures a non-equivalent optimization aborts — the JSON never records
// numbers from a wrong computation.
//
// Usage: perf_harness [--out DIR] [--scale-factor N]
//   --out DIR        directory for the BENCH_*.json files (default ".")
//   --scale-factor N divide workloads by N for CI smoke runs (default 1)
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench/kernel_oracle.h"
#include "bench/perf_util.h"
#include "src/agg/aggregator.h"
#include "src/agg/reference.h"
#include "src/common/check.h"
#include "src/common/rng.h"
#include "src/core/float_controller.h"
#include "src/failure/durable_file.h"
#include "src/fl/real_engine.h"
#include "src/fl/vfl_engine.h"
#include "src/nn/mlp.h"
#include "src/nn/optimizer.h"
#include "src/recovery/run_supervisor.h"
#include "src/trace/compute_trace.h"
#include "src/trace/interference.h"
#include "src/trace/network_trace.h"

namespace floatfl_bench {
namespace {

using namespace floatfl;

size_t g_scale_factor = 1;

size_t Scaled(size_t n) { return std::max<size_t>(1, n / g_scale_factor); }

// Runs `body` once and fills the sample's wall/alloc/RSS fields around it.
template <typename Body>
void Measure(PerfSample& sample, const Body& body) {
  // Best-of-N wall time: the minimum over identical deterministic reps is
  // the run least disturbed by the scheduler, which is what makes the
  // ±15% CI tolerance hold on noisy shared hosts. Allocations are counted
  // on the first rep only (reps repeat the identical work).
  constexpr int kWallReps = 5;
  const uint64_t allocs_before = AllocCount();
  const WallTimer first;
  body();
  double best = first.Seconds();
  sample.allocations = static_cast<double>(AllocCount() - allocs_before);
  for (int rep = 1; rep < kWallReps; ++rep) {
    const WallTimer timer;
    body();
    best = std::min(best, timer.Seconds());
  }
  sample.wall_seconds = best;
  sample.peak_rss_mb = PeakRssMb();
  sample.FinalizeRates();
}

// ---------------------------------------------------------------------------
// Area "agg": reference vs blocked aggregation rules.
// ---------------------------------------------------------------------------

struct AggScale {
  const char* name;
  size_t updates;
  size_t dim;
  size_t iters;
};

std::vector<std::vector<float>> MakeUpdates(size_t n, size_t dim, Rng& rng) {
  std::vector<std::vector<float>> updates(n);
  for (auto& u : updates) {
    u.resize(dim);
    for (float& x : u) {
      x = static_cast<float>(rng.Normal(0.0, 1.0));
    }
  }
  return updates;
}

void BenchAgg(std::vector<PerfSample>& out) {
  const AggScale scales[] = {
      {"small", 10, 4096, Scaled(12)},
      {"large", 20, 16384, Scaled(8)},
  };
  struct Rule {
    const char* name;
    AggregatorKind kind;
  };
  const Rule rules[] = {
      {"fedavg", AggregatorKind::kFedAvg},       {"median", AggregatorKind::kMedian},
      {"trimmed", AggregatorKind::kTrimmedMean}, {"krum", AggregatorKind::kKrum},
      {"normclip", AggregatorKind::kNormClip},
  };
  for (const AggScale& scale : scales) {
    Rng rng(20260808);
    const std::vector<std::vector<float>> updates = MakeUpdates(scale.updates, scale.dim, rng);
    std::vector<double> weights(scale.updates);
    for (double& w : weights) {
      w = rng.Uniform(10.0, 100.0);
    }
    std::vector<float> global(scale.dim);
    for (float& g : global) {
      g = static_cast<float>(rng.Normal(0.0, 0.5));
    }
    for (const Rule& rule : rules) {
      AggregatorConfig config;
      config.kind = rule.kind;
      const double work =
          static_cast<double>(scale.updates) * static_cast<double>(scale.dim) *
          static_cast<double>(scale.iters);

      std::vector<float> ref_result;
      PerfSample ref;
      ref.area = "agg";
      ref.case_name = rule.name;
      ref.scale = scale.name;
      ref.variant = "reference";
      ref.work_units = work;
      Measure(ref, [&] {
        for (size_t i = 0; i < scale.iters; ++i) {
          AggregatorStats stats;
          ref_result = ReferenceAggregate(config, updates, weights, global, &stats);
        }
      });
      out.push_back(ref);

      std::vector<float> opt_result;
      PerfSample opt;
      opt.area = "agg";
      opt.case_name = rule.name;
      opt.scale = scale.name;
      opt.variant = "blocked";
      opt.work_units = work;
      const std::unique_ptr<Aggregator> aggregator = MakeAggregator(config);
      Measure(opt, [&] {
        for (size_t i = 0; i < scale.iters; ++i) {
          AggregatorStats stats;
          opt_result = aggregator->Aggregate(updates, weights, global, &stats);
        }
      });
      out.push_back(opt);

      FLOATFL_CHECK_MSG(ref_result == opt_result,
                        "blocked aggregation diverged from the reference rule");
      std::cout << "agg/" << rule.name << "/" << scale.name << ": reference "
                << ref.wall_seconds << "s, blocked " << opt.wall_seconds << "s\n";
    }
  }
}

// ---------------------------------------------------------------------------
// Area "trace": repeated same-timestamp queries.
// ---------------------------------------------------------------------------

struct TraceScale {
  const char* name;
  size_t steps;            // distinct timestamps visited
  size_t queries_per_step; // repeated queries at each timestamp
};

// Drives `query(t)` over the scale's timestamp ladder and returns the sum
// of every returned value.
template <typename Query>
double DriveTrace(const TraceScale& scale, const Query& query) {
  double checksum = 0.0;
  double t = 0.0;
  for (size_t s = 0; s < scale.steps; ++s) {
    for (size_t q = 0; q < scale.queries_per_step; ++q) {
      checksum += query(t);
    }
    t += 7.5;  // deliberately off the traces' internal step grids
  }
  return checksum;
}

template <typename MakeTrace, typename Query>
void BenchOneTrace(std::vector<PerfSample>& out, const char* case_name,
                   const TraceScale& scale, const MakeTrace& make_trace, const Query& query) {
  PerfSample sample;
  sample.area = "trace";
  sample.case_name = case_name;
  sample.scale = scale.name;
  sample.variant = "default";
  sample.work_units =
      static_cast<double>(scale.steps) * static_cast<double>(scale.queries_per_step);
  double checksum = 0.0;
  // The trace is rebuilt per rep: queries are contractually monotonic in
  // time, so a rep cannot re-drive the ladder on an advanced trace.
  Measure(sample, [&] {
    auto trace = make_trace();
    checksum = DriveTrace(scale, [&](double t) { return query(trace, t); });
  });
  out.push_back(sample);
  std::cout << "trace/" << case_name << "/" << scale.name << ": " << sample.wall_seconds
            << "s (checksum " << checksum << ")\n";
}

void BenchTrace(std::vector<PerfSample>& out) {
  const TraceScale scales[] = {
      {"small", Scaled(20000), 8},
      {"large", Scaled(80000), 8},
  };
  for (const TraceScale& scale : scales) {
    BenchOneTrace(
        out, "network", scale, [] { return NetworkTrace(NetworkKind::kFourG, 7); },
        [](NetworkTrace& trace, double t) { return trace.BandwidthMbpsAt(t); });
    BenchOneTrace(
        out, "compute", scale, [] { return ComputeTrace::SampleDevice(11); },
        [](ComputeTrace& trace, double t) { return trace.GflopsAt(t); });
    BenchOneTrace(
        out, "interference", scale,
        [] { return InterferenceModel(InterferenceScenario::kDynamic, 13); },
        [](InterferenceModel& model, double t) {
          const ResourceAvailability a = model.At(t);
          return a.cpu + a.memory + a.network;
        });
  }
}

// ---------------------------------------------------------------------------
// Area "round_loop": full engine round loops.
// ---------------------------------------------------------------------------

// Shared scenario knobs: single-threaded (so allocation counts are
// deterministic), deterministic zero-loss transport on (so bytes-moved is
// real wire accounting, not zero).
ExperimentConfig RoundLoopConfig(bool large) {
  ExperimentConfig config = PaperConfig();
  config.num_clients = large ? 120 : 60;
  config.clients_per_round = large ? 20 : 10;
  config.rounds = Scaled(large ? 40 : 20);
  config.num_threads = 1;
  config.faults.transport = true;  // chunked wire accounting, zero loss
  return config;
}

struct EngineRunResult {
  double wire_mb = 0.0;
  double sim_seconds = 0.0;
};

template <typename RunFn>
void BenchEngine(std::vector<PerfSample>& out, const char* case_name, const char* scale_name,
                 double rounds, const RunFn& run) {
  PerfSample sample;
  sample.area = "round_loop";
  sample.case_name = case_name;
  sample.scale = scale_name;
  sample.variant = "default";
  sample.work_units = rounds;
  EngineRunResult result;
  Measure(sample, [&] { result = run(); });
  sample.sim_seconds = result.sim_seconds;
  sample.bytes_moved_mb = result.wire_mb;
  sample.FinalizeRates();
  out.push_back(sample);
  std::cout << "round_loop/" << case_name << "/" << scale_name << ": " << sample.wall_seconds
            << "s / " << sample.allocations << " allocs\n";
}

void BenchRoundLoop(std::vector<PerfSample>& out) {
  for (const bool large : {false, true}) {
    const char* scale_name = large ? "large" : "small";

    {
      const ExperimentConfig config = RoundLoopConfig(large);
      BenchEngine(out, "sync", scale_name, static_cast<double>(config.rounds),
                  [&] {
                    const std::unique_ptr<Selector> selector = MakeSelector("fedavg", config);
                    SyncEngine engine(config, selector.get(), nullptr);
                    const ExperimentResult r = engine.Run();
                    return EngineRunResult{r.wire_mb, engine.now()};
                  });
    }
    {
      ExperimentConfig config = RoundLoopConfig(large);
      config.rounds = Scaled(large ? 20 : 10);
      BenchEngine(out, "async", scale_name, static_cast<double>(config.rounds),
                  [&] {
                    AsyncEngine engine(config, nullptr);
                    const ExperimentResult r = engine.Run();
                    return EngineRunResult{r.wire_mb, r.wall_clock_hours * 3600.0};
                  });
    }
    {
      RealFlConfig config;
      config.num_clients = large ? 20 : 12;
      config.clients_per_round = large ? 6 : 4;
      config.num_threads = 1;
      config.seed = 42;
      config.faults.transport = true;
      const size_t rounds = Scaled(large ? 5 : 3);
      BenchEngine(out, "real", scale_name, static_cast<double>(rounds),
                  [&] {
                    RealFlEngine engine(config);
                    for (size_t i = 0; i < rounds; ++i) {
                      engine.RunRound(TechniqueKind::kNone);
                    }
                    return EngineRunResult{engine.transport_tracker().TotalWireMb(), 0.0};
                  });
    }
    {
      VflConfig config;
      config.train_samples = large ? 240 : 120;
      config.seed = 42;
      config.faults.transport = true;
      const size_t epochs = Scaled(large ? 6 : 3);
      BenchEngine(out, "vfl", scale_name, static_cast<double>(epochs),
                  [&] {
                    VflEngine engine(config);
                    for (size_t i = 0; i < epochs; ++i) {
                      engine.TrainEpoch(TechniqueKind::kNone);
                    }
                    return EngineRunResult{engine.transport_tracker().TotalWireMb(), 0.0};
                  });
    }
  }
}

// ---------------------------------------------------------------------------
// Area "nn": the dense kernels and one SGD epoch at the real-MLP shapes
// (batch 20; 64 -> 128 -> 64 -> 10), where real_mlp_float spends its time.
// Each case first checks its outputs against the scalar oracle
// (bench/kernel_oracle.h) and aborts on any differing bit.
// ---------------------------------------------------------------------------

const std::vector<size_t> kRealMlpDims = {64, 128, 64, 10};
constexpr size_t kRealMlpBatch = 20;

// One layer's operands: activations (batch x in, ReLU-sparse past the first
// layer), weights (in x out) and the gradient arriving at its output
// (batch x out).
struct LayerOperands {
  Tensor x;
  Tensor w;
  Tensor g;
};

std::vector<LayerOperands> RealMlpOperands() {
  Rng rng(20261019);
  std::vector<LayerOperands> layers;
  for (size_t l = 0; l + 1 < kRealMlpDims.size(); ++l) {
    LayerOperands op;
    op.x = Tensor(kRealMlpBatch, kRealMlpDims[l]);
    for (float& v : op.x.flat()) {
      v = static_cast<float>(rng.Normal());
      if (l > 0) {
        v = std::max(v, 0.0f);
      }
    }
    op.w = Tensor::GlorotUniform(kRealMlpDims[l], kRealMlpDims[l + 1], rng);
    op.g = Tensor(kRealMlpBatch, kRealMlpDims[l + 1]);
    for (float& v : op.g.flat()) {
      v = static_cast<float>(rng.Normal(0.0, 0.05));
    }
    layers.push_back(std::move(op));
  }
  return layers;
}

// Times `iters` passes of `kernel` over every layer's operands. work_units
// is the dense multiply-add count, so it is exact and shape-only.
template <typename Kernel, typename Oracle>
void BenchNnKernel(std::vector<PerfSample>& out, const char* case_name, size_t iters,
                   const Kernel& kernel, const Oracle& oracle) {
  const std::vector<LayerOperands> layers = RealMlpOperands();
  std::vector<Tensor> results(layers.size());
  double macs = 0.0;
  for (size_t l = 0; l < layers.size(); ++l) {
    kernel(layers[l], &results[l]);
    FLOATFL_CHECK_MSG(BitsEqual(results[l], oracle(layers[l])),
                      "dense kernel diverged from the scalar oracle");
    macs += static_cast<double>(layers[l].x.rows() * layers[l].w.rows() * layers[l].w.cols());
  }
  PerfSample sample;
  sample.area = "nn";
  sample.case_name = case_name;
  sample.scale = "real_mlp";
  sample.variant = "default";
  sample.work_units = macs * static_cast<double>(iters);
  Measure(sample, [&] {
    for (size_t i = 0; i < iters; ++i) {
      for (size_t l = 0; l < layers.size(); ++l) {
        kernel(layers[l], &results[l]);
      }
    }
  });
  out.push_back(sample);
  std::cout << "nn/" << case_name << "/real_mlp: " << sample.wall_seconds << "s\n";
}

// One epoch of TrainSgd over a 100-sample shard, starting each time from the
// same parameters and RNG state, as a real-engine client does.
void BenchTrainEpoch(std::vector<PerfSample>& out, size_t iters) {
  Rng rng(20261020);
  const Mlp init(kRealMlpDims, rng);
  const std::vector<float> params = init.GetParameters();
  Tensor inputs(100, kRealMlpDims.front());
  for (float& v : inputs.flat()) {
    v = static_cast<float>(rng.Normal());
  }
  std::vector<int> labels(inputs.rows());
  for (int& label : labels) {
    label = static_cast<int>(rng.UniformInt(kRealMlpDims.back()));
  }
  SgdConfig config;
  config.batch_size = kRealMlpBatch;
  config.epochs = 1;
  const auto train = [&] {
    Rng client_rng(7);
    Mlp model(kRealMlpDims, params, client_rng);
    TrainSgd(model, inputs, labels, config, client_rng);
    return model;
  };

  // The oracle epoch replays TrainSgd's batch order with oracle steps.
  Rng client_rng(7);
  Mlp oracle(kRealMlpDims, params, client_rng);
  const std::vector<size_t> order = client_rng.Permutation(inputs.rows());
  for (size_t start = 0; start < inputs.rows(); start += config.batch_size) {
    const size_t count = std::min(config.batch_size, inputs.rows() - start);
    Tensor batch(count, inputs.cols());
    std::vector<int> batch_labels(count);
    for (size_t b = 0; b < count; ++b) {
      for (size_t j = 0; j < inputs.cols(); ++j) {
        batch.At(b, j) = inputs.At(order[start + b], j);
      }
      batch_labels[b] = labels[order[start + b]];
    }
    OracleTrainBatch(oracle, batch, batch_labels, config.learning_rate);
  }
  const Mlp trained = train();
  for (size_t l = 0; l < trained.NumLayers(); ++l) {
    FLOATFL_CHECK_MSG(BitsEqual(trained.layer(l).weights(), oracle.layer(l).weights()) &&
                          BitsEqual(trained.layer(l).bias(), oracle.layer(l).bias()),
                      "TrainSgd diverged from the oracle SGD epoch");
  }

  PerfSample sample;
  sample.area = "nn";
  sample.case_name = "train_sgd_epoch";
  sample.scale = "real_mlp";
  sample.variant = "default";
  sample.work_units = static_cast<double>(iters * inputs.rows());  // samples trained
  Measure(sample, [&] {
    for (size_t i = 0; i < iters; ++i) {
      train();
    }
  });
  out.push_back(sample);
  std::cout << "nn/train_sgd_epoch/real_mlp: " << sample.wall_seconds << "s\n";
}

void BenchNn(std::vector<PerfSample>& out) {
  BenchNnKernel(
      out, "matmul", Scaled(10000),
      [](const LayerOperands& op, Tensor* r) { op.x.MatMulInto(op.w, r); },
      [](const LayerOperands& op) { return OracleMatMul(op.x, op.w); });
  BenchNnKernel(
      out, "matmul_transposed", Scaled(7000),
      [](const LayerOperands& op, Tensor* r) { op.g.MatMulTransposedInto(op.w, r); },
      [](const LayerOperands& op) { return OracleMatMulTransposed(op.g, op.w); });
  BenchNnKernel(
      out, "transposed_matmul", Scaled(9000),
      [](const LayerOperands& op, Tensor* r) { op.x.TransposedMatMulInto(op.g, r); },
      [](const LayerOperands& op) { return OracleTransposedMatMul(op.x, op.g); });
  BenchTrainEpoch(out, Scaled(400));
}

// ---------------------------------------------------------------------------
// Area "ckpt": a supervised chaos-sync run (Speech, guard, salvage, lossy
// transport, admission, a faulty 4-edge tree, FLOAT) that checkpoints every
// 5 rounds. bytes_moved_mb is every byte serialized into checkpoint archives
// and guard snapshots, so state that grows with run length moves it on any
// host.
// ---------------------------------------------------------------------------

// Counts archive bytes instead of writing them: the wall time measures
// serialization, not the host's disk.
class CountingFile : public DurableFile {
 public:
  bool Write(const std::string& /*path*/, const std::string& bytes) override {
    bytes_ += bytes.size();
    return true;
  }
  size_t bytes() const { return bytes_; }

 private:
  size_t bytes_ = 0;
};

ExperimentConfig CkptConfig() {
  ExperimentConfig config;
  config.dataset = DatasetId::kSpeech;
  config.model = ModelId::kSpeechCnn;
  config.num_clients = 60;
  config.clients_per_round = 12;
  config.rounds = Scaled(1000);
  config.seed = 1;
  config.num_threads = 1;
  config.faults.crash_prob = 0.15;
  config.faults.flaky_fraction = 0.2;
  config.faults.overcommit = 1.5;
  config.faults.chunk_loss_prob = 0.1;
  config.faults.max_transfer_retries = 2;
  config.faults.duplicate_prob = 0.2;
  config.admission.dedup = true;
  config.admission.queue_capacity = 24;
  config.guard.enabled = true;
  config.salvage.enabled = true;
  config.topology.num_edges = 4;
  config.topology.edge_crash_prob = 0.1;
  return config;
}

void BenchCkpt(std::vector<PerfSample>& out, const std::string& ring_dir) {
  const ExperimentConfig config = CkptConfig();
  RecoveryConfig recovery;
  recovery.enabled = true;
  recovery.dir = ring_dir;
  PerfSample sample;
  sample.area = "ckpt";
  sample.case_name = "supervised_chaos_sync";
  sample.scale = "default";
  sample.variant = "default";
  sample.work_units = static_cast<double>(config.rounds);
  Measure(sample, [&] {
    const std::unique_ptr<Selector> selector = MakeSelector("fedavg", config);
    const auto policy = FloatController::MakeDefault(config.seed, config.rounds);
    SyncEngine engine(config, selector.get(), policy.get());
    CountingFile file;
    size_t snapshot_bytes = 0;
    RunSupervisor<SyncEngine> supervisor(recovery, engine);
    supervisor.SetDurableFile(&file);
    supervisor.SetStep([&](SyncEngine& e, size_t round) {
      e.RunRound(round);
      // The guard snapshots at most once per round, stamped with it.
      const SnapshotRing& ring = e.guard().ring();
      if (!ring.Empty() && ring.FromNewest(0).round == round) {
        snapshot_bytes += ring.FromNewest(0).blob.size();
      }
    });
    FLOATFL_CHECK(supervisor.Run(config.rounds) == SupervisedOutcome::kCompleted);
    FLOATFL_CHECK(supervisor.report().checkpoints_written > 0 && snapshot_bytes > 0);
    sample.sim_seconds = engine.now();
    sample.bytes_moved_mb = static_cast<double>(file.bytes() + snapshot_bytes) / 1e6;
  });
  std::remove(ring_dir.c_str());  // the writer never fills it
  out.push_back(sample);
  std::cout << "ckpt/" << sample.case_name << ": " << sample.wall_seconds << "s / "
            << sample.bytes_moved_mb << " MB serialized\n";
}

int Main(int argc, char** argv) {
  std::string out_dir = ".";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--scale-factor") == 0 && i + 1 < argc) {
      g_scale_factor = static_cast<size_t>(std::atoll(argv[++i]));
      if (g_scale_factor == 0) {
        g_scale_factor = 1;
      }
    } else {
      std::cerr << "usage: perf_harness [--out DIR] [--scale-factor N]\n";
      return 2;
    }
  }
  if (!AllocHookActive()) {
    std::cout << "note: counting allocator not linked; allocations will read 0\n";
  }

  std::vector<PerfSample> agg, trace, round_loop, nn, ckpt;
  BenchAgg(agg);
  BenchTrace(trace);
  BenchRoundLoop(round_loop);
  BenchNn(nn);
  BenchCkpt(ckpt, out_dir + "/ckpt_ring");

  const auto write = [&](const char* name, const std::vector<PerfSample>& samples) {
    const std::string path = out_dir + "/" + name;
    if (!WriteJsonFile(path, samples)) {
      std::cerr << "failed to write " << path << "\n";
      std::exit(1);
    }
    std::cout << "wrote " << path << " (" << samples.size() << " samples)\n";
  };
  write("BENCH_agg.json", agg);
  write("BENCH_trace.json", trace);
  write("BENCH_round_loop.json", round_loop);
  write("BENCH_nn.json", nn);
  write("BENCH_ckpt.json", ckpt);
  return 0;
}

}  // namespace
}  // namespace floatfl_bench

int main(int argc, char** argv) { return floatfl_bench::Main(argc, argv); }
