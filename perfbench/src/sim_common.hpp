// The rep loop shared by the simulator workloads.
//
// A simulator workload runs whole, deterministic repetitions ("reps") of one
// seed until the run's time is used up. Each rep builds the system (timed as
// set-up), then the bench steps the shared EventQueue itself, slice by slice
// of virtual time, recording (virtual time, wall time) at each slice
// boundary. The wall clock at any virtual instant is interpolated from that
// table, which turns virtual timestamps of an operation into the real time
// the simulator took to carry it. Every rep of a seed must produce the same
// fingerprint: that is the exact-repeat check, and since traced and untraced
// reps alternate in a traced run, it also checks that tracing does not
// perturb the simulation.
#pragma once

#include <functional>
#include <vector>

#include "common.hpp"
#include "simnet/event_queue.hpp"
#include "trace.hpp"

namespace perfbench {

class Stepper {
 public:
  Stepper(accelring::simnet::EventQueue& eq, Tracer& tracer)
      : eq_(eq), tracer_(tracer), span_(tracer.intern("simnet.step")) {}

  /// Step the queue to virtual time `end` in slices of `slice`.
  void run_until(accelring::util::Nanos end, accelring::util::Nanos slice);

  /// Wall ns at virtual time `vt` (linear between slice boundaries).
  [[nodiscard]] double wall_at(accelring::util::Nanos vt) const;

  [[nodiscard]] int64_t wall_ns_spent() const { return wall_spent_; }
  [[nodiscard]] uint64_t events() const { return events_; }

 private:
  accelring::simnet::EventQueue& eq_;
  Tracer& tracer_;
  uint32_t span_;
  std::vector<accelring::util::Nanos> vts_;
  std::vector<int64_t> walls_;
  int64_t wall_spent_ = 0;
  uint64_t events_ = 0;
};

/// What one rep reports to the rep loop.
struct Rep {
  double setup_s = 0;
  double ops_per_s = 0;     ///< operations completed per wall second
  double agreed_per_s = 0;  ///< agreed messages at every member per wall s
  double p50_us = 0;        ///< wall µs per operation, median
  double p99_us = 0;
  uint64_t fingerprint = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

/// Run reps until `opt.seconds` of wall time are used (at least two; in a
/// traced run odd reps are traced and the first traced rep captures replay
/// inputs). Fills the end-to-end metrics from the untraced reps, the
/// exact-repeat check, and trace.overhead.
void run_reps(const Options& opt,
              const std::function<Rep(bool traced, bool capture)>& rep,
              Result& result);

/// Wall-time percentiles of operations from their virtual (issue, done)
/// timestamps.
void wall_latency(const Stepper& stepper,
                  const std::vector<std::pair<accelring::util::Nanos,
                                              accelring::util::Nanos>>& ops,
                  Rep& rep);

}  // namespace perfbench
