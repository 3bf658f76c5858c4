#include "sim_common.hpp"

#include <algorithm>
#include <cstdio>

namespace perfbench {

using accelring::util::Nanos;

void Stepper::run_until(Nanos end, Nanos slice) {
  const uint64_t events0 = eq_.events_executed();
  const int64_t started = wall_ns();
  if (vts_.empty()) {
    vts_.push_back(eq_.now());
    walls_.push_back(started);
  }
  for (Nanos t = eq_.now() + slice; t < end + slice; t += slice) {
    const Nanos to = std::min(t, end);
    const int32_t span = tracer_.begin(span_);
    eq_.run_until(to);
    tracer_.end(span);
    vts_.push_back(to);
    walls_.push_back(wall_ns());
  }
  wall_spent_ += wall_ns() - started;
  events_ += eq_.events_executed() - events0;
}

double Stepper::wall_at(Nanos vt) const {
  if (vts_.empty()) return 0;
  const auto it = std::upper_bound(vts_.begin(), vts_.end(), vt);
  if (it == vts_.begin()) return static_cast<double>(walls_.front());
  if (it == vts_.end()) return static_cast<double>(walls_.back());
  const auto hi = static_cast<size_t>(it - vts_.begin());
  const size_t lo = hi - 1;
  const double frac = static_cast<double>(vt - vts_[lo]) /
                      static_cast<double>(vts_[hi] - vts_[lo]);
  return static_cast<double>(walls_[lo]) +
         frac * static_cast<double>(walls_[hi] - walls_[lo]);
}

void wall_latency(const Stepper& stepper,
                  const std::vector<std::pair<Nanos, Nanos>>& ops, Rep& rep) {
  std::vector<double> us;
  us.reserve(ops.size());
  for (const auto& [issued, done] : ops) {
    us.push_back((stepper.wall_at(done) - stepper.wall_at(issued)) / 1e3);
  }
  rep.p50_us = quantile(us, 0.5);
  rep.p99_us = quantile(us, 0.99);
}

void run_reps(const Options& opt,
              const std::function<Rep(bool traced, bool capture)>& run_rep,
              Result& result) {
  std::vector<Rep> plain, traced;
  const int64_t started = wall_ns();
  for (int k = 0;; ++k) {
    const bool trace_this = opt.trace && k % 2 == 1;
    const Rep rep = run_rep(trace_this, trace_this && traced.empty());
    std::printf("rep %d%s: setup %.3f s, %.0f ops/s, %.0f agreed msgs/s, "
                "wall latency p50 %.0f us p99 %.0f us\n",
                k, trace_this ? " (traced)" : "", rep.setup_s, rep.ops_per_s,
                rep.agreed_per_s, rep.p50_us, rep.p99_us);
    (trace_this ? traced : plain).push_back(rep);
    const bool enough = plain.size() + traced.size() >= 2 &&
                        (!opt.trace || !traced.empty());
    if (enough && static_cast<double>(wall_ns() - started) >= opt.seconds * 1e9) {
      break;
    }
  }

  auto collect = [](const std::vector<Rep>& reps, double Rep::*field) {
    std::vector<double> v;
    for (const Rep& r : reps) v.push_back(r.*field);
    return v;
  };
  std::vector<double> setups = collect(plain, &Rep::setup_s);
  for (const Rep& r : traced) setups.push_back(r.setup_s);
  result.add_e2e("setup_s", median(setups), "s");
  result.add_e2e("sim_ops_per_s", median(collect(plain, &Rep::ops_per_s)), "1/s");
  result.add_e2e("agreed_msgs_per_s", median(collect(plain, &Rep::agreed_per_s)), "1/s");
  result.add_e2e("agreed_p50_us", median(collect(plain, &Rep::p50_us)), "us");
  result.add_e2e("agreed_p99_us", median(collect(plain, &Rep::p99_us)), "us");
  if (opt.trace) {
    result.add_layer("trace.overhead",
                     median(collect(plain, &Rep::ops_per_s)) /
                             median(collect(traced, &Rep::ops_per_s)) -
                         1.0,
                     "ratio");
  }

  const Rep& first = plain.front();
  bool same = true;
  for (const auto* reps : {&plain, &traced}) {
    for (const Rep& r : *reps) {
      same = same && r.fingerprint == first.fingerprint &&
             r.attempted == first.attempted && r.failed == first.failed;
      result.attempted += r.attempted;
      result.failed += r.failed;
    }
  }
  result.check(same, "reps of one seed differ in model metrics or counts");
  result.fingerprint = first.fingerprint;
}

}  // namespace perfbench
