// Shared plumbing for the continuous performance harness (DESIGN.md §12).
//
// A PerfSample is one measured scenario: an (area, case, scale, variant)
// key plus its measurements. The harness binaries emit arrays of samples as
// BENCH_<area>.json at the repo root; perf_check diffs a freshly produced
// file against the committed baseline — strict equality on deterministic
// fields (work_units, sim_seconds, bytes_moved_mb), a one-sided tolerance
// on wall time, everything else informational.
//
// The JSON here is deliberately hand-rolled for exactly this flat schema:
// an array of objects whose values are strings or doubles. No dependency,
// no general-purpose parser.
#ifndef BENCH_PERF_UTIL_H_
#define BENCH_PERF_UTIL_H_

#include <atomic>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace floatfl_bench {

// Global allocation counter. The counting operator new/delete live in
// bench/alloc_hook.cc and are linked only into the perf binaries; every
// other binary sees this inline variable stay at zero. Relaxed ordering is
// enough — the harness only reads deltas around single-threaded sections.
inline std::atomic<uint64_t> g_perf_alloc_count{0};

inline uint64_t AllocCount() { return g_perf_alloc_count.load(std::memory_order_relaxed); }

// True when the counting allocator is linked in (the counter moves at all).
// Cheap probe: one heap allocation must bump the counter.
inline bool AllocHookActive() {
  const uint64_t before = AllocCount();
  { std::vector<int> probe(16); (void)probe; }
  return AllocCount() != before;
}

// Peak resident set size in MiB from /proc/self/status (VmHWM). Returns 0
// when the pseudo-file is unavailable (non-Linux hosts); callers treat the
// field as informational.
inline double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      std::string unit;
      fields >> kb >> unit;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  double Seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

struct PerfSample {
  // Key (unique per file): measurement area, scenario, problem size, and
  // the code path under test (e.g. reference vs blocked; "default" where an
  // area measures a single path).
  std::string area;
  std::string case_name;
  std::string scale;
  std::string variant;

  // Measurements. work_units, sim_seconds and bytes_moved_mb are fully
  // deterministic (simulated clock / wire accounting, never wall time) and
  // are compared strictly; wall_seconds gets a tolerance; the rest are
  // informational. allocations is deterministic whenever the counting
  // allocator is linked and the section is single-threaded.
  double wall_seconds = 0.0;
  double work_units = 0.0;
  double sim_seconds = 0.0;
  double det_rounds_per_sec = 0.0;   // work_units / sim_seconds (0 when no sim clock)
  double wall_rounds_per_sec = 0.0;  // work_units / wall_seconds
  double peak_rss_mb = 0.0;
  double bytes_moved_mb = 0.0;
  double allocations = 0.0;
  double speedup = 0.0;  // parallel area only; 0 elsewhere

  std::string Key() const { return area + "/" + case_name + "/" + scale + "/" + variant; }

  // Fills the derived throughput fields from the primary measurements.
  void FinalizeRates() {
    det_rounds_per_sec = sim_seconds > 0.0 ? work_units / sim_seconds : 0.0;
    wall_rounds_per_sec = wall_seconds > 0.0 ? work_units / wall_seconds : 0.0;
  }
};

namespace perf_json {

inline void AppendEscaped(std::string& out, const std::string& s) {
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
    }
    out.push_back(c);
  }
}

inline void AppendField(std::string& out, const char* name, double value, bool last = false) {
  char buf[64];
  // %.17g round-trips doubles exactly, keeping strict comparisons honest.
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  out += "    \"";
  out += name;
  out += "\": ";
  out += buf;
  out += last ? "\n" : ",\n";
}

inline void AppendField(std::string& out, const char* name, const std::string& value) {
  out += "    \"";
  out += name;
  out += "\": \"";
  AppendEscaped(out, value);
  out += "\",\n";
}

}  // namespace perf_json

// Serializes samples as a pretty-printed JSON array (stable field order, so
// committed baselines diff cleanly).
inline std::string ToJson(const std::vector<PerfSample>& samples) {
  std::string out = "[\n";
  for (size_t i = 0; i < samples.size(); ++i) {
    const PerfSample& s = samples[i];
    out += "  {\n";
    perf_json::AppendField(out, "area", s.area);
    perf_json::AppendField(out, "case", s.case_name);
    perf_json::AppendField(out, "scale", s.scale);
    perf_json::AppendField(out, "variant", s.variant);
    perf_json::AppendField(out, "wall_seconds", s.wall_seconds);
    perf_json::AppendField(out, "work_units", s.work_units);
    perf_json::AppendField(out, "sim_seconds", s.sim_seconds);
    perf_json::AppendField(out, "det_rounds_per_sec", s.det_rounds_per_sec);
    perf_json::AppendField(out, "wall_rounds_per_sec", s.wall_rounds_per_sec);
    perf_json::AppendField(out, "peak_rss_mb", s.peak_rss_mb);
    perf_json::AppendField(out, "bytes_moved_mb", s.bytes_moved_mb);
    perf_json::AppendField(out, "allocations", s.allocations);
    perf_json::AppendField(out, "speedup", s.speedup, /*last=*/true);
    out += i + 1 < samples.size() ? "  },\n" : "  }\n";
  }
  out += "]\n";
  return out;
}

// Parses the exact dialect ToJson emits (flat array of objects with string
// or number values). Returns false on any structural surprise; `error`
// gets a human-readable reason.
inline bool FromJson(const std::string& text, std::vector<PerfSample>* samples,
                     std::string* error) {
  samples->clear();
  size_t i = 0;
  const auto skip_ws = [&] {
    while (i < text.size() && std::isspace(static_cast<unsigned char>(text[i]))) {
      ++i;
    }
  };
  const auto fail = [&](const std::string& why) {
    if (error != nullptr) {
      *error = why + " at offset " + std::to_string(i);
    }
    return false;
  };
  const auto parse_string = [&](std::string* out) {
    if (i >= text.size() || text[i] != '"') {
      return false;
    }
    ++i;
    out->clear();
    while (i < text.size() && text[i] != '"') {
      if (text[i] == '\\' && i + 1 < text.size()) {
        ++i;
      }
      out->push_back(text[i]);
      ++i;
    }
    if (i >= text.size()) {
      return false;
    }
    ++i;  // closing quote
    return true;
  };

  skip_ws();
  if (i >= text.size() || text[i] != '[') {
    return fail("expected '['");
  }
  ++i;
  skip_ws();
  if (i < text.size() && text[i] == ']') {
    ++i;
    return true;
  }
  while (true) {
    skip_ws();
    if (i >= text.size() || text[i] != '{') {
      return fail("expected '{'");
    }
    ++i;
    PerfSample s;
    while (true) {
      skip_ws();
      std::string name;
      if (!parse_string(&name)) {
        return fail("expected field name");
      }
      skip_ws();
      if (i >= text.size() || text[i] != ':') {
        return fail("expected ':'");
      }
      ++i;
      skip_ws();
      if (i < text.size() && text[i] == '"') {
        std::string value;
        if (!parse_string(&value)) {
          return fail("unterminated string");
        }
        if (name == "area") {
          s.area = value;
        } else if (name == "case") {
          s.case_name = value;
        } else if (name == "scale") {
          s.scale = value;
        } else if (name == "variant") {
          s.variant = value;
        }  // unknown string fields are ignored (schema growth)
      } else {
        size_t end = i;
        while (end < text.size() && text[end] != ',' && text[end] != '}' &&
               !std::isspace(static_cast<unsigned char>(text[end]))) {
          ++end;
        }
        double value = 0.0;
        try {
          value = std::stod(text.substr(i, end - i));
        } catch (...) {
          return fail("bad number for field '" + name + "'");
        }
        i = end;
        if (name == "wall_seconds") {
          s.wall_seconds = value;
        } else if (name == "work_units") {
          s.work_units = value;
        } else if (name == "sim_seconds") {
          s.sim_seconds = value;
        } else if (name == "det_rounds_per_sec") {
          s.det_rounds_per_sec = value;
        } else if (name == "wall_rounds_per_sec") {
          s.wall_rounds_per_sec = value;
        } else if (name == "peak_rss_mb") {
          s.peak_rss_mb = value;
        } else if (name == "bytes_moved_mb") {
          s.bytes_moved_mb = value;
        } else if (name == "allocations") {
          s.allocations = value;
        } else if (name == "speedup") {
          s.speedup = value;
        }  // unknown numeric fields are ignored
      }
      skip_ws();
      if (i < text.size() && text[i] == ',') {
        ++i;
        continue;
      }
      if (i < text.size() && text[i] == '}') {
        ++i;
        break;
      }
      return fail("expected ',' or '}'");
    }
    samples->push_back(s);
    skip_ws();
    if (i < text.size() && text[i] == ',') {
      ++i;
      continue;
    }
    if (i < text.size() && text[i] == ']') {
      ++i;
      return true;
    }
    return fail("expected ',' or ']'");
  }
}

inline bool WriteJsonFile(const std::string& path, const std::vector<PerfSample>& samples) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return false;
  }
  out << ToJson(samples);
  return static_cast<bool>(out);
}

inline bool ReadJsonFile(const std::string& path, std::vector<PerfSample>* samples,
                         std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (error != nullptr) {
      *error = "cannot open " + path;
    }
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return FromJson(buffer.str(), samples, error);
}

// One baseline-vs-fresh sample comparison verdict.
struct PerfDiff {
  std::string key;
  bool ok = true;
  std::string detail;  // empty when ok
  // Names of every field that failed, in check order (so callers can print
  // a JSON path per failing field, not just the first mismatch).
  std::vector<std::string> failed_fields;
};

// Compares a fresh sample against its committed baseline. Deterministic
// fields must match exactly; wall time may regress by at most `wall_tol`
// (fractional, one-sided — getting faster never fails). Wall checks are
// skipped when both runs are under `wall_floor_s` (pure noise territory)
// and for the machine-dependent `parallel` area. RSS and allocations are
// informational here (allocation *ordering* properties are asserted by the
// harness itself, where the alloc hook is guaranteed present).
inline PerfDiff ComparePerfSamples(const PerfSample& baseline, const PerfSample& fresh,
                                   double wall_tol = 0.15, double wall_floor_s = 0.05) {
  PerfDiff diff;
  diff.key = baseline.Key();
  std::ostringstream why;
  const auto exact = [&](const char* name, double expect, double got) {
    if (expect != got) {
      diff.ok = false;
      diff.failed_fields.push_back(name);
      why << name << " changed: baseline " << expect << " vs fresh " << got << "; ";
    }
  };
  exact("work_units", baseline.work_units, fresh.work_units);
  exact("sim_seconds", baseline.sim_seconds, fresh.sim_seconds);
  exact("bytes_moved_mb", baseline.bytes_moved_mb, fresh.bytes_moved_mb);
  exact("det_rounds_per_sec", baseline.det_rounds_per_sec, fresh.det_rounds_per_sec);
  if (baseline.area != "parallel" &&
      (baseline.wall_seconds >= wall_floor_s || fresh.wall_seconds >= wall_floor_s) &&
      fresh.wall_seconds > baseline.wall_seconds * (1.0 + wall_tol)) {
    diff.ok = false;
    diff.failed_fields.push_back("wall_seconds");
    why << "wall_seconds regressed: baseline " << baseline.wall_seconds << " vs fresh "
        << fresh.wall_seconds << " (tolerance " << wall_tol * 100.0 << "%); ";
  }
  diff.detail = why.str();
  return diff;
}

}  // namespace floatfl_bench

#endif  // BENCH_PERF_UTIL_H_
