#ifndef MBR_BENCH_BENCH_COMMON_H_
#define MBR_BENCH_BENCH_COMMON_H_

// Shared helpers for the per-table / per-figure benchmark binaries.
//
// Every binary runs standalone with laptop-scale defaults and prints the
// paper's rows/series next to our measured values. Environment variables
// scale the workloads:
//   MBR_SCALE   — multiplies the default node counts (default 1.0)
//   MBR_TRIALS  — link-prediction trials (default per bench)
//   MBR_SEED    — dataset seed override
// Each must parse completely (scale and trials positive); a bad value
// prints what was wrong and exits 2.

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "datagen/dblp_generator.h"
#include "datagen/twitter_generator.h"

namespace mbr::bench {

[[noreturn]] inline void BadEnv(const char* name, const char* what,
                                const char* value) {
  std::fprintf(stderr, "%s must be %s (got '%s')\n", name, what, value);
  std::exit(2);
}

inline double EnvScale() {
  const char* s = std::getenv("MBR_SCALE");
  if (s == nullptr) return 1.0;
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(s, &end);
  if (end == s || *end != '\0' || errno != 0 || !(v > 0.0) ||
      !std::isfinite(v)) {
    BadEnv("MBR_SCALE", "a positive number", s);
  }
  return v;
}

// Parses a whole unsigned decimal integer; false on anything else (sign,
// trailing junk, overflow).
inline bool ParseU64(const char* s, uint64_t* out) {
  if (*s < '0' || *s > '9') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (*end != '\0' || errno != 0) return false;
  *out = v;
  return true;
}

inline uint32_t EnvTrials(uint32_t def) {
  const char* s = std::getenv("MBR_TRIALS");
  if (s == nullptr) return def;
  uint64_t v = 0;
  if (!ParseU64(s, &v) || v == 0 || v > UINT32_MAX) {
    BadEnv("MBR_TRIALS", "a positive integer", s);
  }
  return static_cast<uint32_t>(v);
}

inline uint64_t EnvSeed(uint64_t def) {
  const char* s = std::getenv("MBR_SEED");
  if (s == nullptr) return def;
  uint64_t v = 0;
  if (!ParseU64(s, &v)) BadEnv("MBR_SEED", "an unsigned integer", s);
  return v;
}

// The default benchmark datasets: scaled-down analogues of the paper's
// Twitter crawl and DBLP dump (see DESIGN.md).
inline datagen::TwitterConfig BenchTwitterConfig(uint32_t base_nodes = 20000) {
  datagen::TwitterConfig c;
  c.num_nodes = static_cast<uint32_t>(base_nodes * EnvScale());
  c.seed = EnvSeed(c.seed);
  return c;
}

inline datagen::DblpConfig BenchDblpConfig(uint32_t base_nodes = 10000) {
  datagen::DblpConfig c;
  c.num_nodes = static_cast<uint32_t>(base_nodes * EnvScale());
  c.seed = EnvSeed(c.seed);
  return c;
}

inline void PrintHeader(const char* experiment, const char* paper_ref) {
  std::printf("==============================================================\n");
  std::printf("%s\n", experiment);
  std::printf("reproduces: %s\n", paper_ref);
  std::printf("==============================================================\n");
}

}  // namespace mbr::bench

#endif  // MBR_BENCH_BENCH_COMMON_H_
