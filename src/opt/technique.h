// Straggler-acceleration optimization techniques (Section 4.3).
//
// Each technique trades communication / computation / memory cost against
// update quality. The FL engine charges the cost multipliers against the
// client's simulated resources; the `accuracy_impact` feeds the surrogate
// convergence model (and mirrors the measured degradation of each technique).
// Real tensor-level implementations live in quantize.h / prune.h /
// compress.h and are exercised by the nn-backed examples and tests.
#ifndef SRC_OPT_TECHNIQUE_H_
#define SRC_OPT_TECHNIQUE_H_

#include <cstddef>
#include <string>
#include <vector>

namespace floatfl {

enum class TechniqueKind {
  kNone = 0,
  kQuant16,
  kQuant8,
  kPrune25,
  kPrune50,
  kPrune75,
  kPartial25,
  kPartial50,
  kPartial75,
  kCompressLossless,
};

// Number of TechniqueKind values. kCompressLossless must stay the last
// enumerator.
inline constexpr size_t kNumTechniques = static_cast<size_t>(TechniqueKind::kCompressLossless) + 1;

std::string ToString(TechniqueKind kind);

// Multipliers applied to the client's nominal round costs, plus the quality
// penalty of the resulting model update.
struct CostEffect {
  double compute_mult = 1.0;  // local-training FLOPs
  double comm_mult = 1.0;     // upload/download bytes
  double memory_mult = 1.0;   // peak training memory
  double accuracy_impact = 0.0;  // fraction of update quality lost, [0, 1]
};

const CostEffect& EffectOf(TechniqueKind kind);

// FLOAT's action space: the 8 tunable accelerations (RQ5: "8 actions") plus
// the explicit no-acceleration action.
const std::vector<TechniqueKind>& ActionTechniques();

// Every kind including kNone and lossless compression.
const std::vector<TechniqueKind>& AllTechniques();

// Classification helpers used by the heuristic baseline and analyses.
bool IsQuantization(TechniqueKind kind);
bool IsPruning(TechniqueKind kind);
bool IsPartialTraining(TechniqueKind kind);

// For partial training: fraction of the model excluded from updates.
double PartialTrainingFraction(TechniqueKind kind);
// For pruning: fraction of weights removed.
double PruningFraction(TechniqueKind kind);
// For quantization: bit width (32 when not a quantization technique).
int QuantizationBits(TechniqueKind kind);

}  // namespace floatfl

#endif  // SRC_OPT_TECHNIQUE_H_
