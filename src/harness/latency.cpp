#include "harness/latency.hpp"

namespace accelring::harness {

void LatencyRecorder::record(int node, const protocol::Delivery& delivery,
                             Nanos at) {
  ++total_messages_;
  if (at < window_start_ || at >= window_end_) return;
  PayloadStamp stamp;
  if (!parse_payload(delivery.payload, stamp)) return;
  latency_.add(at - stamp.inject_time);
  per_node_meter_[node].add(delivery.payload.size());
}

}  // namespace accelring::harness
