#include "src/core/rlhf_agent.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/failure/checkpoint_io.h"
#include "src/guard/training_guard.h"

namespace floatfl {
namespace {

RlhfConfig FastConfig(uint64_t seed = 1) {
  RlhfConfig config;
  config.seed = seed;
  config.total_rounds = 100;
  return config;
}

StateEncoderConfig SmallEncoder() {
  StateEncoderConfig config;
  config.include_human_feedback = false;
  return config;
}

TEST(RlhfAgentTest, StateAndActionCounts) {
  RlhfAgent agent(SmallEncoder(), FastConfig());
  EXPECT_EQ(agent.NumStates(), 125u);
  EXPECT_EQ(agent.NumActions(), 9u);
}

TEST(RlhfAgentTest, LearningRateScheduleClampedAndGrowing) {
  RlhfAgent agent(SmallEncoder(), FastConfig());
  EXPECT_DOUBLE_EQ(agent.LearningRateFor(0), agent.config().min_learning_rate);
  EXPECT_GT(agent.LearningRateFor(80), agent.LearningRateFor(40));
  EXPECT_DOUBLE_EQ(agent.LearningRateFor(100), 1.0);
  EXPECT_DOUBLE_EQ(agent.LearningRateFor(10000), 1.0);
}

TEST(RlhfAgentTest, LearnsBestActionInBanditSetting) {
  // State 7: action 3 always succeeds, everything else always fails. After
  // enough feedback, exploitation must choose action 3.
  RlhfAgent agent(SmallEncoder(), FastConfig(3));
  Rng rng(5);
  for (size_t round = 0; round < 300; ++round) {
    const size_t action = agent.ChooseActionIndex(7, round);
    const bool success = (action == 3);
    agent.FeedbackIndexed(7, action, success, success ? 0.01 : 0.0, round);
  }
  // With exploration floored at epsilon_min, the vast majority of late
  // choices must be action 3; verify the greedy choice directly via Q.
  size_t best = 0;
  for (size_t a = 1; a < agent.NumActions(); ++a) {
    if (agent.table().Q(7, a) > agent.table().Q(7, best)) {
      best = a;
    }
  }
  EXPECT_EQ(best, 3u);
}

TEST(RlhfAgentTest, MovingAverageRewardDoesNotAccumulateUnboundedly) {
  RlhfAgent agent(SmallEncoder(), FastConfig(5));
  for (size_t i = 0; i < 1000; ++i) {
    agent.FeedbackIndexed(0, 0, true, 0.01, i % 100);
  }
  // Q is a blend of bounded moving averages (plus a small discount term), so
  // it must stay bounded near 1 even after 1000 positive updates — the RQ6
  // fix for Bellman's additive inflation.
  EXPECT_LE(agent.table().Q(0, 0), 1.2);
  EXPECT_GT(agent.table().Q(0, 0), 0.5);
}

TEST(RlhfAgentTest, DropoutWithoutCacheGivesNoLearningSignal) {
  RlhfConfig config = FastConfig(7);
  config.cache_dropout_feedback = false;
  RlhfAgent agent(SmallEncoder(), config);
  const double q_before = agent.table().Q(3, 2);
  agent.FeedbackIndexed(3, 2, /*participated=*/false, 0.0, 10);
  EXPECT_DOUBLE_EQ(agent.table().Q(3, 2), q_before);
  EXPECT_EQ(agent.table().Visits(3, 2), 0u);
}

TEST(RlhfAgentTest, DropoutWithCacheUpdatesQ) {
  RlhfConfig config = FastConfig(9);
  config.cache_dropout_feedback = true;
  RlhfAgent agent(SmallEncoder(), config);
  // Prime the cache with a success, then report a dropout.
  agent.FeedbackIndexed(3, 2, true, 0.02, 10);
  const double q_after_success = agent.table().Q(3, 2);
  agent.FeedbackIndexed(3, 2, false, 0.0, 11);
  EXPECT_NE(agent.table().Q(3, 2), q_after_success);
  EXPECT_EQ(agent.table().Visits(3, 2), 2u);
}

TEST(RlhfAgentTest, RewardHistoryAndAverages) {
  RlhfAgent agent(SmallEncoder(), FastConfig(11));
  agent.FeedbackIndexed(0, 0, true, 0.01, 1);
  agent.FeedbackIndexed(0, 1, false, 0.0, 1);
  EXPECT_EQ(agent.RewardsHeld(), 2u);
  EXPECT_GT(agent.AverageRewardOver(2), 0.0);
  EXPECT_LT(agent.AverageRewardOver(2), 1.0);
  EXPECT_NEAR(agent.PositiveRewardFraction(2), 0.5, 1e-9);
}

TEST(RlhfAgentTest, ChooseTechniqueReturnsActionSpaceMember) {
  RlhfAgent agent(SmallEncoder(), FastConfig(13));
  ClientObservation obs;
  obs.cpu_avail = 0.3;
  obs.net_avail = 0.5;
  obs.mem_avail = 0.7;
  GlobalObservation global;
  for (size_t round = 0; round < 50; ++round) {
    const TechniqueKind kind = agent.ChooseTechnique(obs, global, round);
    bool found = false;
    for (TechniqueKind action : ActionTechniques()) {
      if (action == kind) {
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found);
  }
}

TEST(RlhfAgentTest, InitializeFromTransfersLearnedPreferences) {
  RlhfAgent teacher(SmallEncoder(), FastConfig(15));
  for (size_t round = 0; round < 200; ++round) {
    const size_t action = teacher.ChooseActionIndex(42, round);
    teacher.FeedbackIndexed(42, action, action == 5, action == 5 ? 0.01 : 0.0, round);
  }
  RlhfAgent student(SmallEncoder(), FastConfig(16));
  student.InitializeFrom(teacher);
  EXPECT_EQ(student.table().BestAction(42), teacher.table().BestAction(42));
  EXPECT_TRUE(student.RewardsHeld() == 0u);
}

TEST(RlhfAgentTest, BalancedExplorationVisitsAllActions) {
  RlhfConfig config = FastConfig(17);
  config.epsilon = 1.0;  // always explore
  config.epsilon_min = 1.0;
  RlhfAgent agent(SmallEncoder(), config);
  for (size_t i = 0; i < 45; ++i) {
    const size_t action = agent.ChooseActionIndex(9, 0);
    agent.FeedbackIndexed(9, action, true, 0.0, 0);
  }
  // Balanced exploration must have spread visits evenly: 45 visits over 9
  // actions -> 5 each.
  for (size_t a = 0; a < agent.NumActions(); ++a) {
    EXPECT_EQ(agent.table().Visits(9, a), 5u);
  }
}

TEST(RlhfAgentTest, MemoryGrowsWithStates) {
  StateEncoderConfig small = SmallEncoder();
  StateEncoderConfig large = SmallEncoder();
  large.resource_bins = 10;
  RlhfAgent small_agent(small, FastConfig(19));
  RlhfAgent large_agent(large, FastConfig(19));
  EXPECT_GT(large_agent.MemoryBytes(), 5 * small_agent.MemoryBytes());
}

TEST(RlhfAgentTest, PaperOperatingPointMemoryUnderBudget) {
  StateEncoderConfig encoder;
  encoder.include_human_feedback = false;
  RlhfAgent agent(encoder, FastConfig(21), /*num_actions=*/8);
  EXPECT_LT(agent.MemoryBytes(), 200u * 1024u);  // < 0.2 MB (Figure 8)
}

TEST(RlhfAgentTest, NonFiniteRewardIsRejectedInsteadOfPoisoningTheTable) {
  // Pre-fix semantics this test pins against regressing: a single NaN
  // accuracy_improvement flowed into the accuracy moving average and SetQ,
  // turning the cell (and every future blend with it) into NaN permanently;
  // a +Inf locked max_improvement_seen_ at infinity, zeroing every future
  // normalized accuracy score. Both must now be rejected at the boundary.
  RlhfAgent agent(SmallEncoder(), FastConfig(25));
  agent.FeedbackIndexed(4, 1, true, 0.02, 1);
  const double q_healthy = agent.table().Q(4, 1);
  ASSERT_TRUE(std::isfinite(q_healthy));

  agent.FeedbackIndexed(4, 1, true, std::numeric_limits<double>::quiet_NaN(), 2);
  agent.FeedbackIndexed(4, 1, true, std::numeric_limits<double>::infinity(), 3);
  EXPECT_EQ(agent.RejectedRewards(), 2u);
  EXPECT_TRUE(std::isfinite(agent.table().Q(4, 1)));

  // The normalizer survived the +Inf: a later honest improvement still
  // produces a positive, finite learning signal instead of a zeroed score.
  agent.FeedbackIndexed(4, 1, true, 0.02, 4);
  EXPECT_TRUE(std::isfinite(agent.table().Q(4, 1)));
  EXPECT_GT(agent.table().Q(4, 1), 0.0);
  EXPECT_GT(agent.AverageRewardOver(1), 0.0);
}

TEST(RlhfAgentTest, AbsurdMagnitudeRewardIsRejected) {
  // Accuracies live in [0, 1]; a 1e9 "improvement" is a bug upstream, not a
  // signal, and must not become the normalization baseline.
  RlhfAgent agent(SmallEncoder(), FastConfig(27));
  agent.FeedbackIndexed(0, 0, true, 1e9, 1);
  EXPECT_EQ(agent.RejectedRewards(), 1u);
  agent.FeedbackIndexed(0, 0, true, 0.01, 2);
  EXPECT_GT(agent.AverageRewardOver(1), 0.0);
}

TEST(RlhfAgentTest, NonFiniteObservationFieldsAreSanitizedAndCounted) {
  RlhfAgent agent(SmallEncoder(), FastConfig(29));
  ClientObservation poisoned;
  poisoned.cpu_avail = std::numeric_limits<double>::quiet_NaN();
  poisoned.net_avail = std::numeric_limits<double>::infinity();
  GlobalObservation global;
  // Neither call may crash the encoder or poison the table.
  const TechniqueKind kind = agent.ChooseTechnique(poisoned, global, 0);
  bool found = false;
  for (TechniqueKind action : ActionTechniques()) {
    found = found || action == kind;
  }
  EXPECT_TRUE(found);
  agent.Feedback(poisoned, global, kind, true, 0.01, 0);
  EXPECT_EQ(agent.RejectedObservations(), 2u);
  for (size_t s = 0; s < agent.NumStates(); ++s) {
    for (size_t a = 0; a < agent.NumActions(); ++a) {
      EXPECT_TRUE(std::isfinite(agent.table().Q(s, a)));
    }
  }
}

TEST(RlhfAgentTest, RejectionCountersSurviveCheckpoint) {
  RlhfAgent agent(SmallEncoder(), FastConfig(33));
  agent.FeedbackIndexed(0, 0, true, std::numeric_limits<double>::quiet_NaN(), 1);
  ClientObservation poisoned;
  poisoned.mem_avail = std::numeric_limits<double>::quiet_NaN();
  agent.Feedback(poisoned, GlobalObservation{}, TechniqueKind::kNone, true, 0.0, 1);
  CheckpointWriter w;
  agent.SaveState(w);
  RlhfAgent loaded(SmallEncoder(), FastConfig(34));
  CheckpointReader r(w.buffer());
  loaded.LoadState(r);
  EXPECT_EQ(loaded.RejectedRewards(), agent.RejectedRewards());
  EXPECT_EQ(loaded.RejectedObservations(), agent.RejectedObservations());
}

TEST(RlhfAgentTest, SummarizePerActionTalliesRunOutcomes) {
  RlhfAgent agent(SmallEncoder(), FastConfig(23));
  agent.FeedbackIndexed(0, 2, true, 0.01, 1);
  agent.FeedbackIndexed(0, 2, false, 0.0, 1);
  agent.FeedbackIndexed(1, 2, true, 0.01, 1);
  const auto summaries = agent.SummarizePerAction();
  EXPECT_EQ(summaries[2].visits, 3u);
  EXPECT_NEAR(summaries[2].avg_participation, 2.0 / 3.0, 1e-9);
  EXPECT_EQ(summaries[0].visits, 0u);
}

// The reward window against a plain full-stream oracle: the last n entries of
// every reward the agent ever recorded, summed oldest first, exactly as the
// agent computed them before it bounded its history.
double OracleAverage(const std::vector<double>& all, size_t last_n) {
  const size_t n = std::min(last_n, all.size());
  if (n == 0) {
    return 0.0;
  }
  double sum = 0.0;
  for (size_t i = all.size() - n; i < all.size(); ++i) {
    sum += all[i];
  }
  return sum / static_cast<double>(n);
}

double OraclePositiveFraction(const std::vector<double>& all, size_t last_n) {
  const size_t n = std::min(last_n, all.size());
  if (n == 0) {
    return 0.0;
  }
  size_t positive = 0;
  for (size_t i = all.size() - n; i < all.size(); ++i) {
    positive += all[i] > 0.0 ? 1 : 0;
  }
  return static_cast<double>(positive) / static_cast<double>(n);
}

void ExpectWindowsMatch(const RlhfAgent& agent, const std::vector<double>& all) {
  EXPECT_EQ(agent.RewardsHeld(), std::min(all.size(), RlhfAgent::kRewardWindow));
  for (const size_t n : {size_t{1}, size_t{2}, size_t{50}, size_t{600}, size_t{1000}}) {
    EXPECT_EQ(agent.AverageRewardOver(n), OracleAverage(all, n)) << "window " << n;
    EXPECT_EQ(agent.PositiveRewardFraction(n), OraclePositiveFraction(all, n)) << "window " << n;
  }
}

// Random feedbacks; about a third are dropouts, some of which earn a zero
// reward (no cached feedback for their cell yet).
void Feed(RlhfAgent& agent, Rng& rng, size_t count) {
  for (size_t i = 0; i < count; ++i) {
    const size_t state = static_cast<size_t>(rng.UniformInt(agent.NumStates()));
    const size_t action = static_cast<size_t>(rng.UniformInt(agent.NumActions()));
    const bool participated = rng.NextDouble() < 0.65;
    agent.FeedbackIndexed(state, action, participated, 0.05 * rng.NextDouble(), i / 20);
  }
}

std::string Saved(const RlhfAgent& agent) {
  CheckpointWriter w;
  agent.SaveState(w);
  return w.buffer();
}

TEST(RlhfAgentTest, RewardWindowMatchesTheFullStreamOracle) {
  RlhfAgent agent(SmallEncoder(), FastConfig(41));
  std::vector<double> all;
  agent.SetRewardLog(&all);
  Rng rng(41);
  ExpectWindowsMatch(agent, all);
  // Before the ring fills, exactly full, one past, and deep into wrapping.
  size_t fed = 0;
  for (const size_t at : {size_t{1}, size_t{999}, size_t{1000}, size_t{1001}, size_t{2500}}) {
    Feed(agent, rng, at - fed);
    fed = at;
    ASSERT_EQ(all.size(), fed);
    SCOPED_TRACE("after " + std::to_string(fed) + " feedbacks");
    ExpectWindowsMatch(agent, all);
  }
  EXPECT_GT(OraclePositiveFraction(all, 1000), 0.0);
  EXPECT_LT(OraclePositiveFraction(all, 1000), 1.0);
}

TEST(RlhfAgentTest, RewardWindowSurvivesASaveLoadMidWrap) {
  RlhfAgent agent(SmallEncoder(), FastConfig(42));
  std::vector<double> all;
  agent.SetRewardLog(&all);
  Rng rng(42);
  Feed(agent, rng, 2500);  // the ring's cursor sits mid-buffer
  const std::string payload = Saved(agent);

  RlhfAgent loaded(SmallEncoder(), FastConfig(43));
  CheckpointReader r(payload);
  loaded.LoadState(r);
  ASSERT_TRUE(r.AtEnd());
  ExpectWindowsMatch(loaded, all);
  EXPECT_EQ(Saved(loaded), payload);

  // Both keep wrapping in step with the oracle.
  Rng rng_copy = rng;
  Feed(agent, rng, 700);
  Feed(loaded, rng_copy, 700);
  ExpectWindowsMatch(loaded, all);
  EXPECT_EQ(Saved(loaded), Saved(agent));
}

// A payload whose reward window holds `n` rewards of 0.25, built around an
// empty agent's payload (the window's count is its third-last word, before
// the two rejection counters).
std::string PayloadWithWindow(size_t n) {
  RlhfAgent empty(SmallEncoder(), FastConfig(44));
  const std::string base = Saved(empty);
  EXPECT_EQ(base.substr(base.size() - 24, 8), std::string(8, '\0'));
  CheckpointWriter window;
  window.Size(n);
  for (size_t i = 0; i < n; ++i) {
    window.F64(0.25);
  }
  return base.substr(0, base.size() - 24) + window.buffer() + base.substr(base.size() - 16);
}

TEST(RlhfAgentTest, LoaderRefusesARewardWindowPastKRewardWindow) {
  RlhfAgent full(SmallEncoder(), FastConfig(45));
  CheckpointReader ok_reader(PayloadWithWindow(RlhfAgent::kRewardWindow));
  full.LoadState(ok_reader);
  EXPECT_TRUE(ok_reader.AtEnd());
  EXPECT_EQ(full.RewardsHeld(), RlhfAgent::kRewardWindow);
  EXPECT_EQ(full.AverageRewardOver(1000), 0.25);
  // The cursor is not stored: a full window loads unwrapped and the next
  // reward evicts the oldest.
  std::vector<double> all(RlhfAgent::kRewardWindow, 0.25);
  full.SetRewardLog(&all);
  Rng rng(45);
  Feed(full, rng, 3);
  ExpectWindowsMatch(full, all);

  RlhfAgent refused(SmallEncoder(), FastConfig(46));
  CheckpointReader long_reader(PayloadWithWindow(RlhfAgent::kRewardWindow + 1));
  refused.LoadState(long_reader);
  EXPECT_FALSE(long_reader.ok());
  EXPECT_EQ(refused.RewardsHeld(), 0u);
}

TEST(RlhfAgentTest, GuardRollbackRewindsTheRewardWindow) {
  RlhfAgent agent(SmallEncoder(), FastConfig(47));
  std::vector<double> all;
  agent.SetRewardLog(&all);
  Rng rng(47);
  GuardConfig config;
  config.enabled = true;
  TrainingGuard guard(config);
  const TrainingGuard::SaveFn save = [&](CheckpointWriter& w) { agent.SaveState(w); };
  const TrainingGuard::RestoreFn restore = [&](CheckpointReader& r) { agent.LoadState(r); };

  Feed(agent, rng, 1200);
  ASSERT_FALSE(guard.EndRound(0, {0.5, 0.0}, save, restore));
  ASSERT_EQ(guard.tracker().Snapshots(), 1u);
  const std::vector<double> at_snapshot = all;
  Feed(agent, rng, 700);
  ASSERT_TRUE(guard.EndRound(1, {0.2, 0.0}, save, restore));  // collapse
  ExpectWindowsMatch(agent, at_snapshot);
}

}  // namespace
}  // namespace floatfl
