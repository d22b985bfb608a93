// Per-client log of the last accepted upload (DESIGN.md §15).
//
// The overload injector's replay fault re-delivers a client's most recent
// accepted upload — exactly what a retransmit buffer would hold. The log
// keeps one entry per client: the round it was accepted at, the
// quality-space contribution (surrogate engines) or parameter vector +
// FedAvg weight (real engine), and the delivery cost a redundant
// re-processing of it charges. Populated only while overload faults are
// active; serialized with the engine so replays are bit-exact across
// resumes.
#ifndef SRC_ADMISSION_UPDATE_LOG_H_
#define SRC_ADMISSION_UPDATE_LOG_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/failure/checkpoint_io.h"
#include "src/opt/technique.h"

namespace floatfl {

struct LoggedUpload {
  bool valid = false;
  uint64_t round = 0;
  // Launch count at upload time — the dedup key's attempt component, so a
  // replay within the dedup window folds onto the original's key.
  uint64_t attempt = 0;
  double quality = 0.0;
  // Redundant-delivery processing cost: the upload leg's comm seconds and
  // wire MB, charged as waste when an unguarded server re-processes it.
  double upload_comm_s = 0.0;
  double upload_mb = 0.0;
  uint32_t technique = 0;
  // Real engine only: the accepted parameter vector and its FedAvg weight.
  std::vector<float> params;
  double weight = 0.0;
};

class UpdateLog {
 public:
  UpdateLog() = default;
  explicit UpdateLog(size_t num_clients) : entries_(num_clients) {}

  void Record(size_t client_id, LoggedUpload entry) {
    entry.valid = true;
    entries_[client_id] = std::move(entry);
  }

  // The client's last accepted upload, or nullptr if it never had one.
  const LoggedUpload* Get(size_t client_id) const {
    const LoggedUpload& e = entries_[client_id];
    return e.valid ? &e : nullptr;
  }

  size_t size() const { return entries_.size(); }

  void SaveState(CheckpointWriter& w) const {
    w.Size(entries_.size());
    for (const LoggedUpload& e : entries_) {
      w.Bool(e.valid);
      if (!e.valid) {
        continue;
      }
      w.U64(e.round);
      w.U64(e.attempt);
      w.F64(e.quality);
      w.F64(e.upload_comm_s);
      w.F64(e.upload_mb);
      w.U32(e.technique);
      w.F32Vec(e.params);
      w.F64(e.weight);
    }
  }
  // Refuses (fails the reader) a payload saved for another population or
  // naming a technique that does not exist; the log keeps one entry per
  // client either way.
  void LoadState(CheckpointReader& r) {
    if (r.Size() != entries_.size()) {
      r.Fail();
      return;
    }
    for (LoggedUpload& e : entries_) {
      e = LoggedUpload();
      e.valid = r.Bool();
      if (!e.valid) {
        continue;
      }
      e.round = r.U64();
      e.attempt = r.U64();
      e.quality = r.F64();
      e.upload_comm_s = r.F64();
      e.upload_mb = r.F64();
      e.technique = r.U32();
      if (e.technique >= kNumTechniques) {
        r.Fail();
      }
      e.params = r.F32Vec();
      e.weight = r.F64();
    }
  }

 private:
  std::vector<LoggedUpload> entries_;
};

}  // namespace floatfl

#endif  // SRC_ADMISSION_UPDATE_LOG_H_
