// Shared plumbing for the perfbench workloads: options, the result record
// every workload fills in, wall clocks, and order statistics.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Slowed-layer mode (attribution self-check): busy-wait this long per
  /// send in the Host shim and per fsync in the Disk wrapper. 0 = off.
  int64_t slow_ns = 0;
  /// Directory traced runs write their span logs to ("" = do not write).
  std::string trace_out;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one workload run reports. `e2e` holds the end-to-end metrics
/// (measured untraced), `layer` the per-layer ones (traced runs only).
/// `fingerprint` folds every deterministic output (virtual-time results and
/// counts) so two runs of one seed can be compared bit for bit.
struct Result {
  bool correct = true;
  std::vector<std::string> failures;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> e2e;
  std::vector<Metric> layer;
  uint64_t fingerprint = 0;

  void check(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      failures.push_back(what);
    }
  }
  void add_e2e(std::string name, double value, std::string unit) {
    e2e.push_back({std::move(name), value, std::move(unit)});
  }
  void add_layer(std::string name, double value, std::string unit) {
    layer.push_back({std::move(name), value, std::move(unit)});
  }
};

/// Monotonic wall clock in nanoseconds.
inline int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time consumed by the calling thread, in nanoseconds.
int64_t thread_cpu_ns();

/// Busy-wait `ns` of wall time (the slowed-layer mode's injected cost).
inline void spin_for(int64_t ns) {
  if (ns <= 0) return;
  const int64_t until = wall_ns() + ns;
  while (wall_ns() < until) {
  }
}

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

/// The q-quantile (0..1) of `v` by nearest rank; 0 for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// 64-bit mixing step for order hashes and fingerprints.
inline uint64_t mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  h ^= h >> 31;
  h *= 0xbf58476d1ce4e5b9ULL;
  return h ^ (h >> 29);
}
inline uint64_t mix_double(uint64_t h, double v) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  return mix(h, bits);
}

Result run_udp_loopback(const Options& opt);
Result run_sim_ring(const Options& opt);
Result run_sim_kv(const Options& opt, bool durable);

}  // namespace perfbench
