#include "replay.hpp"

#include <algorithm>
#include <map>
#include <set>

#include "protocol/recv_buffer.hpp"
#include "protocol/wire.hpp"
#include "util/crc32.hpp"

namespace perfbench {

using namespace accelring;

void PacketCapture::offer(std::span<const std::byte> packet) {
  const auto type = protocol::peek_type(packet);
  if (!type) return;
  auto* dst = *type == protocol::PacketType::kData    ? &data_
              : *type == protocol::PacketType::kToken ? &tokens_
                                                      : nullptr;
  if (dst == nullptr || dst->size() >= limit_) return;
  dst->emplace_back(packet.begin(), packet.end());
}

double time_pass(const std::function<void()>& pass,
                 const std::function<void()>& prepare) {
  std::vector<double> samples;
  int64_t spent = 0;
  while (samples.size() < 3 || spent < 20'000'000) {
    if (prepare) prepare();
    const int64_t t0 = wall_ns();
    pass();
    const int64_t dt = wall_ns() - t0;
    spent += dt;
    samples.push_back(static_cast<double>(dt));
  }
  return median(std::move(samples));
}

namespace {

volatile uint64_t g_sink = 0;
/// Fold a replay result into a volatile so the work is not optimized away.
void sink(uint64_t v) { g_sink = g_sink + v; }

template <typename Msg, typename Decode>
void replay_codec(const std::vector<std::vector<std::byte>>& packets,
                  Decode decode, const char* kind, Result& result) {
  const std::string enc = std::string("wire.encode_") + kind + "_ns";
  const std::string dec = std::string("wire.decode_") + kind + "_ns";
  if (packets.empty()) {
    result.add_layer(enc, 0, "ns");
    result.add_layer(dec, 0, "ns");
    return;
  }
  std::vector<Msg> decoded;
  decoded.reserve(packets.size());
  for (const auto& p : packets) {
    auto msg = decode(p);
    if (!msg) {
      result.check(false, std::string("captured ") + kind + " packet fails to decode");
      return;
    }
    if (protocol::encode(*msg) != p) {
      result.check(false, std::string("captured ") + kind + " packet re-encodes differently");
      return;
    }
    decoded.push_back(std::move(*msg));
  }
  const auto n = static_cast<double>(packets.size());
  result.add_layer(enc, time_pass([&] {
                     for (const Msg& m : decoded) sink(protocol::encode(m).size());
                   }) / n,
                   "ns");
  result.add_layer(dec, time_pass([&] {
                     for (const auto& p : packets) sink(decode(p).has_value());
                   }) / n,
                   "ns");
}

}  // namespace

void replay_packets(const PacketCapture& capture, Result& result) {
  size_t bytes = 0;
  for (const auto& p : capture.data()) bytes += p.size();
  for (const auto& p : capture.tokens()) bytes += p.size();
  const double crc_ns =
      bytes == 0 ? 0
                 : time_pass([&] {
                     for (const auto& p : capture.data()) sink(util::crc32(p));
                     for (const auto& p : capture.tokens()) sink(util::crc32(p));
                   });
  result.add_layer("util.crc32_ns_per_kb",
                   bytes == 0 ? 0 : crc_ns / (static_cast<double>(bytes) / 1024.0),
                   "ns");

  replay_codec<protocol::DataMsg>(
      capture.data(),
      [](std::span<const std::byte> p) { return protocol::decode_data(p); },
      "data", result);
  replay_codec<protocol::TokenMsg>(
      capture.tokens(),
      [](std::span<const std::byte> p) { return protocol::decode_token(p); },
      "token", result);

  // RecvBuffer: the distinct data messages of the most common ring
  // incarnation, in capture order, renumbered so the stream starts at
  // sequence 1 (a capture begins mid-run); insert them all, then deliver
  // and discard everything contiguous.
  std::map<protocol::RingId, std::vector<protocol::DataMsg>> by_ring;
  std::set<std::pair<protocol::RingId, protocol::SeqNum>> seen;
  for (const auto& p : capture.data()) {
    auto msg = protocol::decode_data(p);
    if (msg && seen.emplace(msg->ring_id, msg->seq).second) {
      by_ring[msg->ring_id].push_back(std::move(*msg));
    }
  }
  std::vector<protocol::DataMsg>* msgs = nullptr;
  for (auto& [ring, list] : by_ring) {
    if (msgs == nullptr || list.size() > msgs->size()) msgs = &list;
  }
  if (msgs == nullptr) {
    result.add_layer("recv_buffer.ns_per_msg", 0, "ns");
    return;
  }
  protocol::SeqNum first = msgs->front().seq;
  for (const auto& m : *msgs) first = std::min(first, m.seq);
  for (auto& m : *msgs) m.seq -= first - 1;
  const double ns = time_pass([&] {
    protocol::RecvBuffer buffer;
    for (const auto& m : *msgs) buffer.insert(m);
    uint64_t delivered = 0;
    while (buffer.next_deliverable(buffer.high_seq()) != nullptr) {
      buffer.mark_delivered();
      ++delivered;
    }
    buffer.discard_up_to(buffer.delivered_up_to());
    sink(delivered);
  });
  result.add_layer("recv_buffer.ns_per_msg", ns / static_cast<double>(msgs->size()),
                   "ns");
}

}  // namespace perfbench
