#include "src/failure/checkpoint_io.h"

#include <sys/stat.h>

#include <fstream>

#include "src/failure/durable_file.h"

namespace floatfl {
namespace {

constexpr uint64_t kLaneMul = 0x9E3779B97F4A7C15ULL;  // odd
constexpr int kLaneRot = 29;

inline uint64_t Rotl(uint64_t x, int r) { return (x << r) | (x >> (64 - r)); }
inline uint64_t Step(uint64_t h, uint64_t w) { return Rotl(h ^ w, kLaneRot) * kLaneMul; }
inline uint64_t Word(const char* p) {
  uint64_t w;
  std::memcpy(&w, p, sizeof(w));
  return w;
}

}  // namespace

uint64_t ArchiveHash(std::string_view bytes) {
  const char* p = bytes.data();
  const size_t n = bytes.size();
  uint64_t lanes[4] = {0x243F6A8885A308D3ULL, 0x13198A2E03707344ULL, 0xA4093822299F31D0ULL,
                       0x082EFA98EC4E6C89ULL};
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    lanes[0] = Step(lanes[0], Word(p + i));
    lanes[1] = Step(lanes[1], Word(p + i + 8));
    lanes[2] = Step(lanes[2], Word(p + i + 16));
    lanes[3] = Step(lanes[3], Word(p + i + 24));
  }
  uint64_t h = Step(0x452821E638D01377ULL, static_cast<uint64_t>(n));
  for (const uint64_t lane : lanes) {
    h = Step(h, lane);
  }
  for (; i + 8 <= n; i += 8) {
    h = Step(h, Word(p + i));
  }
  for (; i < n; ++i) {
    h = Step(h, static_cast<unsigned char>(p[i]));
  }
  // Final avalanche (the MurmurHash3 fmix64 finalizer, itself a bijection).
  h ^= h >> 33;
  h *= 0xFF51AFD7ED558CCDULL;
  h ^= h >> 33;
  h *= 0xC4CEB9FE1A85EC53ULL;
  h ^= h >> 33;
  return h;
}

bool CheckpointWriter::WriteFile(const std::string& path) const {
  return WriteFile(path, DefaultDurableFile());
}

bool CheckpointWriter::WriteFile(const std::string& path, DurableFile& io) const {
  return io.Write(path, buf_);
}

bool CheckpointReader::FromFile(const std::string& path, CheckpointReader* out) {
  // Refuse degenerate paths outright: an empty name, or a directory (reading
  // one through ifstream "succeeds" with zero bytes on some libstdc++
  // versions, which would surface as a confusing header mismatch instead of
  // an I/O error).
  struct stat st;
  if (path.empty() || ::stat(path.c_str(), &st) != 0 || !S_ISREG(st.st_mode)) {
    *out = CheckpointReader("");
    out->ok_ = false;
    return false;
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    *out = CheckpointReader("");
    out->ok_ = false;
    return false;
  }
  std::string data((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  if (in.bad()) {
    *out = CheckpointReader("");
    out->ok_ = false;
    return false;
  }
  *out = CheckpointReader(std::move(data));
  return true;
}

}  // namespace floatfl
