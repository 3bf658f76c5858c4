// Delivery-side measurement: per-receiver latency and throughput accounting
// over an explicit measurement window, mirroring the paper's methodology
// (§IV-A): latency is the mean time from client injection to client receipt
// across all receivers; throughput counts clean application payload only.
#pragma once

#include <vector>

#include "harness/workload.hpp"
#include "protocol/types.hpp"
#include "util/stats.hpp"

namespace accelring::harness {

class LatencyRecorder {
 public:
  /// Records deliveries whose receipt time falls in [window_start,
  /// window_end), fed by record() from the caller's delivery hook.
  LatencyRecorder(int num_nodes, Nanos window_start, Nanos window_end)
      : window_start_(window_start),
        window_end_(window_end),
        per_node_meter_(num_nodes) {}

  /// Feed one delivery received by `node`'s client at `at`.
  void record(int node, const protocol::Delivery& delivery, Nanos at);

  [[nodiscard]] const util::LatencyStats& latency() const { return latency_; }
  /// Clean payload throughput observed by `node` over the window.
  [[nodiscard]] double node_mbps(int node) const {
    return per_node_meter_[node].mbps(window_end_ - window_start_);
  }
  [[nodiscard]] uint64_t node_messages(int node) const {
    return per_node_meter_[node].messages();
  }
  [[nodiscard]] uint64_t total_messages() const { return total_messages_; }

 private:
  Nanos window_start_;
  Nanos window_end_;
  util::LatencyStats latency_;
  std::vector<util::Meter> per_node_meter_;
  uint64_t total_messages_ = 0;
};

}  // namespace accelring::harness
