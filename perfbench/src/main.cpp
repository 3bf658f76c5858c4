// perfbench: one workload run of the repository benchmark.
//
//   perfbench --workload <udp_loopback|sim_ring|sim_kv|sim_kv_durable>
//             --seed <n> --seconds <s> [--trace 0|1] [--slow-ns <ns>]
//             [--trace-out <dir>]
//
// Prints progress lines, then one JSON line: correct / attempted / failed,
// the end-to-end metrics ("e2e"), the per-layer metrics of a traced run
// ("layer"), the run's determinism fingerprint and any failed checks.
// perfbench/run.py builds this binary and turns that line into the
// benchmark's result.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "common.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PERFBENCH_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define PERFBENCH_SANITIZED 1
#endif
#endif

namespace {

using perfbench::Metric;

void print_json_string(const std::string& s) {
  std::putchar('"');
  for (const char c : s) {
    if (c == '"' || c == '\\') std::putchar('\\');
    std::putchar(c);
  }
  std::putchar('"');
}

void print_metrics(const char* key, const std::vector<Metric>& metrics) {
  std::printf("\"%s\": {", key);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}");
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <udp_loopback|sim_ring|sim_kv|"
               "sim_kv_durable> --seed <n> --seconds <s> [--trace 0|1] "
               "[--slow-ns <ns>] [--trace-out <dir>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
#if defined(PERFBENCH_SANITIZED) || !defined(NDEBUG)
  std::fprintf(stderr,
               "perfbench: refusing to measure a sanitizer or assert-enabled "
               "build\n");
  return 3;
#endif
  perfbench::Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::atof(value);
    } else if (flag == "--trace") {
      opt.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--slow-ns") {
      opt.slow_ns = std::atoll(value);
    } else if (flag == "--trace-out") {
      opt.trace_out = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || opt.seconds <= 0) return usage();
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d slow_ns=%lld build=%s "
              "compiler=%s\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0, static_cast<long long>(opt.slow_ns),
              PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER);
  std::fflush(stdout);

  perfbench::Result r;
  try {
    if (opt.workload == "udp_loopback") {
      r = perfbench::run_udp_loopback(opt);
    } else if (opt.workload == "sim_ring") {
      r = perfbench::run_sim_ring(opt);
    } else if (opt.workload == "sim_kv") {
      r = perfbench::run_sim_kv(opt, /*durable=*/false);
    } else if (opt.workload == "sim_kv_durable") {
      r = perfbench::run_sim_kv(opt, /*durable=*/true);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  for (const std::string& f : r.failures) std::printf("CHECK FAILED: %s\n", f.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, ",
              r.correct ? "true" : "false", static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  print_metrics("e2e", r.e2e);
  std::printf(", ");
  print_metrics("layer", r.layer);
  std::printf(", \"fingerprint\": \"%016llx\", \"failures\": [",
              static_cast<unsigned long long>(r.fingerprint));
  for (size_t i = 0; i < r.failures.size(); ++i) {
    if (i != 0) std::printf(", ");
    print_json_string(r.failures[i]);
  }
  std::printf("]}\n");
  return 0;
}
