// UpdateLog checkpoint loader (DESIGN.md §15): the log holds one entry per
// client, so a payload saved for a different population, or one naming a
// technique that does not exist, is refused and the log keeps its size.
#include "src/admission/update_log.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "src/opt/technique.h"

namespace floatfl {
namespace {

LoggedUpload Entry(uint64_t round, TechniqueKind technique) {
  LoggedUpload entry;
  entry.round = round;
  entry.quality = 0.75;
  entry.upload_mb = 1.5;
  entry.technique = static_cast<uint32_t>(technique);
  entry.params = {0.5f, -1.0f};
  entry.weight = 12.0;
  return entry;
}

TEST(UpdateLogTest, RoundTripRestoresEveryEntry) {
  UpdateLog log(4);
  log.Record(1, Entry(3, TechniqueKind::kQuant8));
  log.Record(3, Entry(5, TechniqueKind::kCompressLossless));
  CheckpointWriter w;
  log.SaveState(w);

  UpdateLog restored(4);
  CheckpointReader r(w.buffer());
  restored.LoadState(r);
  ASSERT_TRUE(r.AtEnd());
  EXPECT_EQ(restored.Get(0), nullptr);
  ASSERT_NE(restored.Get(3), nullptr);
  EXPECT_EQ(restored.Get(3)->round, 5u);
  EXPECT_EQ(restored.Get(3)->params, Entry(5, TechniqueKind::kNone).params);
  CheckpointWriter again;
  restored.SaveState(again);
  EXPECT_EQ(again.buffer(), w.buffer());
}

TEST(UpdateLogTest, LoadRefusesAnotherPopulationSize) {
  UpdateLog small(8);
  small.Record(7, Entry(2, TechniqueKind::kQuant16));
  CheckpointWriter w;
  small.SaveState(w);

  UpdateLog log(16);
  CheckpointReader r(w.buffer());
  log.LoadState(r);
  EXPECT_FALSE(r.ok());
  // Still one slot per client: indexing the whole population stays in range.
  EXPECT_EQ(log.size(), 16u);
  EXPECT_EQ(log.Get(15), nullptr);
  log.Record(15, Entry(4, TechniqueKind::kNone));
  EXPECT_NE(log.Get(15), nullptr);

  UpdateLog larger(4);
  CheckpointReader r2(w.buffer());
  larger.LoadState(r2);
  EXPECT_FALSE(r2.ok());
  EXPECT_EQ(larger.size(), 4u);
}

TEST(UpdateLogTest, LoadRefusesAnUnknownTechnique) {
  UpdateLog log(1);
  log.Record(0, Entry(1, TechniqueKind::kCompressLossless));
  CheckpointWriter w;
  log.SaveState(w);
  // Layout: count, valid, round, attempt, quality, comm_s, upload_mb, then
  // the technique.
  const size_t technique_offset = 8 + 1 + 8 + 8 + 8 + 8 + 8;
  const uint32_t last = static_cast<uint32_t>(TechniqueKind::kCompressLossless);
  for (const uint32_t technique : {last, last + 1, 0xFFFFFFFFu}) {
    std::string payload = w.buffer();
    std::memcpy(payload.data() + technique_offset, &technique, sizeof(technique));
    UpdateLog restored(1);
    CheckpointReader r(payload);
    restored.LoadState(r);
    EXPECT_EQ(r.AtEnd(), technique == last) << "technique " << technique;
  }
}

}  // namespace
}  // namespace floatfl
