// Figure 9: reusability of the RLHF agent (RQ3).
//
// Pre-trains FLOAT's agent on FEMNIST + ResNet-18 (200 rounds), then
// transfers it to (a) CIFAR10 + ResNet-18 and (b) CIFAR10 + ResNet-50, and
// compares the fine-tuning reward trajectory against training an agent from
// scratch on the same workload. Expected shapes: the pre-trained agent
// starts with a much higher reward and converges within ~20 rounds, versus
// a slow ramp from scratch — pre-train-then-fine-tune is cheap (RQ3).
#include <iostream>
#include <vector>

#include "bench/bench_util.h"

using namespace floatfl_bench;

namespace {

// Average reward of an agent's feedback stream, grouped per round.
std::vector<double> PerRoundRewards(const std::vector<double>& history, size_t per_round) {
  std::vector<double> rounds;
  for (size_t start = 0; start + per_round <= history.size(); start += per_round) {
    double sum = 0.0;
    for (size_t i = 0; i < per_round; ++i) {
      sum += history[start + i];
    }
    rounds.push_back(sum / static_cast<double>(per_round));
  }
  return rounds;
}

constexpr size_t kSeeds = 5;

// Runs the fine-tune workload for several seeds, from scratch or initialized
// from `pretrained`, and returns the seed-averaged per-round reward curve.
std::vector<double> AveragedCurve(const ExperimentConfig& base_config,
                                  const FloatController* pretrained) {
  std::vector<double> sum;
  for (size_t s = 0; s < kSeeds; ++s) {
    ExperimentConfig config = base_config;
    config.seed = base_config.seed + 1000 * s;
    auto controller = FloatController::MakeDefault(config.seed, config.rounds);
    if (pretrained != nullptr) {
      controller->agent().InitializeFrom(pretrained->agent());
    }
    // The agent keeps only its last rewards; the curve needs every one.
    std::vector<double> rewards;
    controller->agent().SetRewardLog(&rewards);
    (void)RunSync(config, "fedavg", controller.get());
    controller->agent().SetRewardLog(nullptr);
    const std::vector<double> curve = PerRoundRewards(rewards, config.clients_per_round);
    if (sum.empty()) {
      sum.assign(curve.size(), 0.0);
    }
    for (size_t i = 0; i < sum.size() && i < curve.size(); ++i) {
      sum[i] += curve[i];
    }
  }
  for (auto& v : sum) {
    v /= static_cast<double>(kSeeds);
  }
  return sum;
}

void PrintRewardCurve(const std::string& title, const std::vector<double>& scratch,
                      const std::vector<double>& finetuned) {
  std::cout << "\n" << title << "\n";
  TablePrinter table({"round", "scratch-reward", "finetuned-reward"});
  for (size_t round : {size_t{1}, size_t{2}, size_t{3}, size_t{5}, size_t{10}, size_t{15},
                       size_t{20}, size_t{30}, size_t{40}}) {
    if (round > scratch.size() || round > finetuned.size()) {
      break;
    }
    table.Cell(static_cast<long long>(round))
        .Cell(scratch[round - 1], 3)
        .Cell(finetuned[round - 1], 3)
        .EndRow();
  }
  table.Print(std::cout);
}

}  // namespace

int main() {
  std::cout << "Reproduces Figure 9: RLHF agent reusability. Pre-train on FEMNIST +\n"
               "ResNet-18, fine-tune on CIFAR10 (+ ResNet-50).\n";

  // --- Pre-training phase (FEMNIST, ResNet-18, 200 rounds).
  ExperimentConfig pretrain_config = PaperConfig(DatasetId::kFemnist, ModelId::kResNet18);
  pretrain_config.rounds = 200;
  auto pretrained = FloatController::MakeDefault(pretrain_config.seed, pretrain_config.rounds);
  (void)RunSync(pretrain_config, "fedavg", pretrained.get());
  std::cout << "\nPre-trained agent: avg reward over last 50 feedbacks = "
            << FormatDouble(pretrained->agent().AverageRewardOver(50), 3) << "\n";

  // --- Transfer (a): CIFAR10 + ResNet-34 (the paper's standard model), 40
  // fine-tune rounds, averaged over seeds.
  {
    ExperimentConfig config = PaperConfig(DatasetId::kCifar10, ModelId::kResNet34, /*seed=*/91);
    config.rounds = 40;
    PrintRewardCurve("Transfer (a): CIFAR10 + ResNet-34, per-round average reward (5 seeds)",
                     AveragedCurve(config, nullptr), AveragedCurve(config, pretrained.get()));
  }

  // --- Transfer (b): CIFAR10 + ResNet-50, 40 fine-tune rounds. The paper
  // reports positive rewards ("absolute rewards") within ~20 rounds.
  {
    ExperimentConfig config = PaperConfig(DatasetId::kCifar10, ModelId::kResNet50, /*seed=*/92);
    config.rounds = 40;
    PrintRewardCurve("Transfer (b): CIFAR10 + ResNet-50, per-round average reward (5 seeds)",
                     AveragedCurve(config, nullptr), AveragedCurve(config, pretrained.get()));
  }
  return 0;
}
