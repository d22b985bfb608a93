#include "src/metrics/aggregation_tracker.h"

#include "src/failure/checkpoint_util.h"

namespace floatfl {

void AggregationTracker::Record(size_t byzantine_selected, const AggregatorStats& round_stats) {
  AggregationRoundRecord record;
  record.byzantine_selected = byzantine_selected;
  record.updates_clipped = round_stats.updates_clipped;
  record.krum_rejections = round_stats.krum_rejections;
  record.updates_trimmed = round_stats.updates_trimmed;
  history_.push_back(record);
}

size_t AggregationTracker::TotalByzantineSelected() const {
  size_t total = 0;
  for (const auto& r : history_) {
    total += r.byzantine_selected;
  }
  return total;
}

size_t AggregationTracker::TotalClipped() const {
  size_t total = 0;
  for (const auto& r : history_) {
    total += r.updates_clipped;
  }
  return total;
}

size_t AggregationTracker::TotalKrumRejections() const {
  size_t total = 0;
  for (const auto& r : history_) {
    total += r.krum_rejections;
  }
  return total;
}

size_t AggregationTracker::TotalTrimmed() const {
  size_t total = 0;
  for (const auto& r : history_) {
    total += r.updates_trimmed;
  }
  return total;
}

template <class Ar, class Self>
void AggregationTracker::Transfer(Ar& ar, Self& self) {
  Seq(ar, self.history_, [](auto& a, auto& record) {
    a.Size(record.byzantine_selected);
    a.Size(record.updates_clipped);
    a.Size(record.krum_rejections);
    a.Size(record.updates_trimmed);
  });
}

void AggregationTracker::SaveState(CheckpointWriter& w) const { Transfer(w, *this); }
void AggregationTracker::LoadState(CheckpointReader& r) { Transfer(r, *this); }

}  // namespace floatfl
