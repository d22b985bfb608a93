// Bit-exact binary archive for checkpoint/resume.
//
// Checkpoints must restore an experiment to the *identical* process state —
// the resume contract is bit-for-bit equality with an uninterrupted run — so
// the archive stores doubles and floats as their raw IEEE-754 bit patterns
// (no text round-tripping) and every integer as a fixed-width
// little-endian-on-write value. The writer accumulates into a memory buffer
// and flushes to disk atomically (write temp, rename); the reader validates
// length on every primitive and latches a failure flag instead of throwing,
// so a truncated or corrupted checkpoint is reported, never trusted.
// ArchiveHash is the one hash over archive bytes: the checkpoint header's
// payload hash and the configuration fingerprints.
#ifndef SRC_FAILURE_CHECKPOINT_IO_H_
#define SRC_FAILURE_CHECKPOINT_IO_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace floatfl {

class DurableFile;

// Word-wide hash of archive bytes: four interleaved 64-bit lanes over 8-byte
// little-endian words (h = rotl(h ^ w, r) * odd), folded with the length and
// the word and byte tail, then a final avalanche. Each step is a bijection of
// the running state, so two inputs of one length that differ only inside one
// 8-byte word always hash differently: every single-bit flip is caught.
uint64_t ArchiveHash(std::string_view bytes);

class CheckpointWriter {
 public:
  void U8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void U32(uint32_t v) { Raw(&v, sizeof(v)); }
  void U64(uint64_t v) { Raw(&v, sizeof(v)); }
  void Size(size_t v) { U64(static_cast<uint64_t>(v)); }
  void Bool(bool v) { U8(v ? 1 : 0); }
  void F64(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }
  void F32(float v) {
    uint32_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    U32(bits);
  }

  void F64Vec(const std::vector<double>& v) {
    Size(v.size());
    for (double x : v) F64(x);
  }
  void F32Vec(const std::vector<float>& v) {
    Size(v.size());
    for (float x : v) F32(x);
  }
  void SizeVec(const std::vector<size_t>& v) {
    Size(v.size());
    for (size_t x : v) Size(x);
  }
  void U32Vec(const std::vector<uint32_t>& v) {
    Size(v.size());
    for (uint32_t x : v) U32(x);
  }
  void U8Vec(const std::vector<uint8_t>& v) {
    Size(v.size());
    for (uint8_t x : v) U8(x);
  }
  void BoolVec(const std::vector<bool>& v) {
    Size(v.size());
    for (bool x : v) Bool(x);
  }
  // Length-prefixed byte string; carries nested archive blobs (the guard's
  // snapshot ring stores whole serialized states as opaque payloads).
  void Str(const std::string& s) {
    Size(s.size());
    buf_.append(s);
  }

  const std::string& buffer() const { return buf_; }
  size_t size() const { return buf_.size(); }
  // Empties the buffer but keeps its capacity, so a writer reused across
  // saves of a steady-size state stops reallocating.
  void Clear() { buf_.clear(); }
  void Reserve(size_t n) { buf_.reserve(n); }
  // Hands the bytes over, leaving the writer empty.
  std::string TakeBuffer() { return std::exchange(buf_, std::string()); }
  // Overwrites the 8 bytes at `offset`, written earlier by U64 or Size (a
  // header field filled in once the payload behind it is known).
  void PatchU64(size_t offset, uint64_t v) { std::memcpy(buf_.data() + offset, &v, sizeof(v)); }
  // Writes cannot fail; lets one field list test ok() in either direction.
  bool ok() const { return true; }

  // Crash-consistent file write (fsync'd temp + rename + directory fsync,
  // src/failure/durable_file.h). Returns false on any I/O failure — an empty
  // path, an unwritable or missing parent directory, a directory as the
  // target, a short write — without ever leaving a partial final file. The
  // second overload routes the bytes through an injected writer so tests can
  // tear the write or kill the process at named crashpoints.
  bool WriteFile(const std::string& path) const;
  bool WriteFile(const std::string& path, DurableFile& io) const;

 private:
  void Raw(const void* p, size_t n) {
    const char* c = static_cast<const char*>(p);
    buf_.append(c, n);
  }
  std::string buf_;
};

class CheckpointReader {
 public:
  explicit CheckpointReader(std::string data) : buf_(std::move(data)) {}

  // Reads an entire file into a reader. Returns false if the file cannot be
  // read; the reader is left failed in that case.
  static bool FromFile(const std::string& path, CheckpointReader* out);

  uint8_t U8() {
    uint8_t v = 0;
    Raw(&v, sizeof(v));
    return v;
  }
  uint32_t U32() {
    uint32_t v = 0;
    Raw(&v, sizeof(v));
    return v;
  }
  uint64_t U64() {
    uint64_t v = 0;
    Raw(&v, sizeof(v));
    return v;
  }
  size_t Size() { return static_cast<size_t>(U64()); }
  bool Bool() { return U8() != 0; }
  double F64() {
    const uint64_t bits = U64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  float F32() {
    const uint32_t bits = U32();
    float v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  std::vector<double> F64Vec() { return Vec<double>(&CheckpointReader::F64); }
  std::vector<float> F32Vec() { return Vec<float>(&CheckpointReader::F32); }
  std::vector<size_t> SizeVec() { return Vec<size_t>(&CheckpointReader::Size); }
  std::vector<uint32_t> U32Vec() { return Vec<uint32_t>(&CheckpointReader::U32); }
  std::vector<uint8_t> U8Vec() { return Vec<uint8_t>(&CheckpointReader::U8); }
  std::vector<bool> BoolVec() { return Vec<bool>(&CheckpointReader::Bool); }
  std::string Str() {
    const size_t n = SaneCount();
    std::string s;
    if (!ok_ || n == 0) return s;
    s.assign(buf_.data() + pos_, n);
    pos_ += n;
    return s;
  }

  // By-reference forms mirroring the writer's by-value methods, so one field
  // list drives both directions (checkpoint_util.h): r.F64(x) is exactly
  // x = r.F64(), including the zero or empty value after a failure. The
  // vector forms refill `v` in place.
  void U8(uint8_t& v) { v = U8(); }
  void U32(uint32_t& v) { v = U32(); }
  void U64(uint64_t& v) { v = U64(); }
  void Size(size_t& v) { v = Size(); }
  void Bool(bool& v) { v = Bool(); }
  void F64(double& v) { v = F64(); }
  void F32(float& v) { v = F32(); }
  void F64Vec(std::vector<double>& v) { VecInto(v, &CheckpointReader::F64); }
  void F32Vec(std::vector<float>& v) { VecInto(v, &CheckpointReader::F32); }
  void SizeVec(std::vector<size_t>& v) { VecInto(v, &CheckpointReader::Size); }
  void U32Vec(std::vector<uint32_t>& v) { VecInto(v, &CheckpointReader::U32); }
  void U8Vec(std::vector<uint8_t>& v) { VecInto(v, &CheckpointReader::U8); }
  void BoolVec(std::vector<bool>& v) { VecInto(v, &CheckpointReader::Bool); }
  void Str(std::string& s) { s = Str(); }

  // True while every read so far stayed in bounds and no loader refused a
  // value.
  bool ok() const { return ok_; }
  // Marks the payload refused: a loader that reads a value it cannot accept
  // (a count or an enum out of range) fails the whole restore.
  void Fail() { ok_ = false; }
  // True when the payload was consumed exactly (call after the last field).
  bool AtEnd() const { return ok_ && pos_ == buf_.size(); }

 private:
  void Raw(void* p, size_t n) {
    if (!ok_ || pos_ + n > buf_.size()) {
      ok_ = false;
      std::memset(p, 0, n);
      return;
    }
    std::memcpy(p, buf_.data() + pos_, n);
    pos_ += n;
  }
  // Element count with an overrun guard: a corrupted length field cannot ask
  // for more elements than bytes remaining.
  size_t SaneCount() {
    const size_t n = Size();
    if (n > buf_.size() - std::min(pos_, buf_.size())) {
      ok_ = false;
      return 0;
    }
    return n;
  }
  template <typename T>
  void VecInto(std::vector<T>& v, T (CheckpointReader::*read)()) {
    const size_t n = SaneCount();
    v.clear();
    v.reserve(n);
    for (size_t i = 0; i < n && ok(); ++i) v.push_back((this->*read)());
  }
  template <typename T>
  std::vector<T> Vec(T (CheckpointReader::*read)()) {
    std::vector<T> v;
    VecInto(v, read);
    return v;
  }

  std::string buf_;
  size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace floatfl

#endif  // SRC_FAILURE_CHECKPOINT_IO_H_
