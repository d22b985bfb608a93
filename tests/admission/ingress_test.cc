// ServerIngress replays (DESIGN.md §15): a replay re-delivers the client's
// logged upload as it was when the burst was built, even when the same
// burst admits a fresh upload from that client and logs it in the entry's
// place.
#include "src/admission/ingress.h"

#include <gtest/gtest.h>

#include <vector>

namespace floatfl {
namespace {

IngressDelivery Fresh(uint64_t round, const std::vector<float>* params) {
  IngressDelivery d;
  d.arrival.client_id = 0;
  d.arrival.round = round;
  d.params = params;
  d.weight = 1.0;
  return d;
}

TEST(IngressTest, ReplayDeliversTheLoggedVectorNotTheFreshUploadReplacingIt) {
  FaultConfig faults;
  faults.replay_prob = 1.0;
  // Gate off: every delivery is admitted and every fresh upload is logged.
  ServerIngress ingress(faults, AdmissionConfig(), /*seed=*/7, /*num_clients=*/1);
  const std::vector<size_t> slots = {0};

  const std::vector<float> old_params = {1.0f, 2.0f};
  const std::vector<IngressDelivery> first =
      ingress.Ingest(0, {Fresh(0, &old_params)}, slots, &LoggedUpload::weight);
  ASSERT_EQ(first.size(), 1u);
  ASSERT_TRUE(first[0].verdict.admitted);

  const std::vector<float> new_params = {3.0f, 4.0f};
  const std::vector<IngressDelivery> second =
      ingress.Ingest(1, {Fresh(1, &new_params)}, slots, &LoggedUpload::weight);
  size_t replays = 0;
  for (const IngressDelivery& d : second) {
    ASSERT_TRUE(d.verdict.admitted);
    if (d.kind == IngressDelivery::Kind::kFresh) {
      EXPECT_EQ(*d.params, new_params);
    } else {
      ASSERT_EQ(d.kind, IngressDelivery::Kind::kReplay);
      EXPECT_EQ(d.arrival.round, 0u);
      EXPECT_EQ(*d.params, old_params);
      ++replays;
    }
  }
  EXPECT_GE(replays, 1u);
}

}  // namespace
}  // namespace floatfl
