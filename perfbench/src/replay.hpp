// Short replays of inputs captured during a traced run through single
// layers' public APIs: util::crc32, the protocol wire codec, and RecvBuffer.
// Each replay repeats until it has run for a minimum time and reports the
// median per-pass cost, so one preempted pass does not set the figure.
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "common.hpp"

namespace perfbench {

/// Datagrams captured off the wire of a run, by packet type.
class PacketCapture {
 public:
  explicit PacketCapture(size_t per_kind = 4096) : limit_(per_kind) {}

  /// Keep a copy of `packet` if its kind (data / token) is not full yet.
  void offer(std::span<const std::byte> packet);
  [[nodiscard]] bool full() const {
    return data_.size() >= limit_ && tokens_.size() >= limit_;
  }
  [[nodiscard]] const std::vector<std::vector<std::byte>>& data() const {
    return data_;
  }
  [[nodiscard]] const std::vector<std::vector<std::byte>>& tokens() const {
    return tokens_;
  }

 private:
  size_t limit_;
  std::vector<std::vector<std::byte>> data_;
  std::vector<std::vector<std::byte>> tokens_;
};

/// Median wall ns of one call of `pass` over repeated calls (at least 3,
/// and until 20 ms of passes have run). `prepare`, when given, runs untimed
/// before each pass.
double time_pass(const std::function<void()>& pass,
                 const std::function<void()>& prepare = {});

/// Replay the capture through crc32, the data/token codec and RecvBuffer;
/// adds util.*, wire.* and recv_buffer.* layer metrics (0 where the capture
/// holds no packet of that kind). Fails `result` if a captured packet does
/// not decode or does not re-encode to the same bytes.
void replay_packets(const PacketCapture& capture, Result& result);

}  // namespace perfbench
