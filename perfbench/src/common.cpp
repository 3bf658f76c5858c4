#include "common.hpp"

#include <sys/resource.h>

#include <ctime>

namespace perfbench {

int64_t thread_cpu_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  const auto rank = static_cast<size_t>(q * static_cast<double>(v.size() - 1) + 0.5);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank),
                   v.end());
  return v[rank];
}

}  // namespace perfbench
