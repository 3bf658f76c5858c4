// udp_loopback: three protocol::Engine instances over real UdpTransport
// sockets on one loopback EventLoop thread, agreed service, 1350 B payloads.
//
// Phases (each drains before the next starts):
//  1. open loop — 10,000 msgs/s aggregate on a fixed schedule; latency runs
//     from when a message was due to its delivery at the last member;
//  2. saturation — closed loop: every node's send queue is topped up from
//     its own delivery callback, so submission never waits on a timer;
//  3. (traced runs only) saturation again with span recording on.
//
// The layers are timed from outside: a bench-owned protocol::Host shim
// wraps each UdpTransport (spans around every send) and a bench-owned
// protocol::PacketHandler shim wraps each Engine (spans around every
// datagram and timer the engine handles). Loop-thread CPU not covered by a
// span is the transport's receive/poll residual.
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <stdexcept>

#include <unistd.h>

#include "common.hpp"
#include "protocol/engine.hpp"
#include "replay.hpp"
#include "trace.hpp"
#include "transport/udp_transport.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using namespace accelring;
using protocol::Nanos;

constexpr int kNodes = 3;
constexpr size_t kPayload = 1350;
constexpr double kOpenLoopRate = 10'000;  // msgs/s, aggregate
constexpr size_t kQueueDepth = 200;       // saturation top-up target
constexpr int kSetups = 7;
constexpr uint64_t kWarmupMsgs = 4000;
constexpr Nanos kOpenWindow = util::msec(500);
constexpr Nanos kSatWindow = util::msec(250);
constexpr int kGenTimer = 200;  // loop timer id above the protocol's range

struct SpanNames {
  uint32_t data, token, timer, send, deliver;
};

/// protocol::Host wrapper around UdpTransport: spans (and, in slowed-layer
/// mode, a fixed busy-wait per datagram) around each send; deliveries go to
/// the bench.
class HostShim final : public protocol::Host {
 public:
  using DeliverFn = std::function<void(const protocol::Delivery&)>;

  HostShim(transport::UdpTransport& t, Tracer& tracer, const SpanNames& names,
           int64_t slow_ns, DeliverFn deliver)
      : t_(t), tracer_(tracer), names_(names), slow_ns_(slow_ns),
        deliver_(std::move(deliver)) {}

  void multicast(protocol::SocketId sock,
                 std::span<const std::byte> data) override {
    Tracer::Scope span(tracer_, names_.send);
    spin_for(slow_ns_ * (kNodes - 1));  // one datagram per other member
    t_.multicast(sock, data);
  }
  void unicast(protocol::ProcessId to, protocol::SocketId sock,
               std::span<const std::byte> data, Nanos delay) override {
    Tracer::Scope span(tracer_, names_.send);
    spin_for(slow_ns_);
    t_.unicast(to, sock, data, delay);
  }
  void deliver(const protocol::Delivery& d) override { deliver_(d); }
  void on_configuration(const protocol::ConfigurationChange&) override {}
  void set_timer(protocol::TimerKind kind, Nanos delay) override {
    t_.set_timer(kind, delay);
  }
  void cancel_timer(protocol::TimerKind kind) override { t_.cancel_timer(kind); }
  Nanos now() override { return t_.now(); }
  Nanos cpu_time() override { return t_.cpu_time(); }

 private:
  transport::UdpTransport& t_;
  Tracer& tracer_;
  const SpanNames& names_;
  int64_t slow_ns_;
  DeliverFn deliver_;
};

/// protocol::PacketHandler wrapper around Engine: one span per datagram or
/// timer the engine handles, plus packet capture for the codec replays.
class HandlerShim final : public protocol::PacketHandler {
 public:
  HandlerShim(protocol::Engine& engine, Tracer& tracer, const SpanNames& names)
      : engine_(engine), tracer_(tracer), names_(names) {}

  void on_packet(protocol::SocketId sock,
                 std::span<const std::byte> packet) override {
    if (capture != nullptr) capture->offer(packet);
    Tracer::Scope span(tracer_,
                       sock == protocol::kSockToken ? names_.token : names_.data);
    engine_.on_packet(sock, packet);
  }
  void on_timer(protocol::TimerKind kind) override {
    Tracer::Scope span(tracer_, names_.timer);
    engine_.on_timer(kind);
  }
  [[nodiscard]] protocol::SocketId preferred_socket() const override {
    return engine_.preferred_socket();
  }

  PacketCapture* capture = nullptr;

 private:
  protocol::Engine& engine_;
  Tracer& tracer_;
  const SpanNames& names_;
};

/// One assembled ring plus the bench's delivery bookkeeping.
class Ring {
 public:
  Ring(uint16_t base_port, uint64_t seed, Tracer& tracer,
       const SpanNames& names, int64_t slow_ns)
      : tracer_(tracer), names_(names) {
    std::map<protocol::ProcessId, transport::PeerAddress> peers;
    for (int i = 0; i < kNodes; ++i) {
      peers[static_cast<protocol::ProcessId>(i)] = transport::PeerAddress{
          "127.0.0.1", static_cast<uint16_t>(base_port + i * 2),
          static_cast<uint16_t>(base_port + i * 2 + 1)};
    }
    protocol::RingConfig ring;
    ring.ring_id = 1;
    for (int i = 0; i < kNodes; ++i) {
      ring.members.push_back(static_cast<protocol::ProcessId>(i));
    }
    protocol::ProtocolConfig config;
    config.timeouts.token_retransmit = util::msec(20);
    nodes_.resize(kNodes);
    for (int i = 0; i < kNodes; ++i) {
      Node& n = nodes_[static_cast<size_t>(i)];
      n.transport = std::make_unique<transport::UdpTransport>(
          static_cast<protocol::ProcessId>(i), peers, loop_);
      n.host = std::make_unique<HostShim>(
          *n.transport, tracer_, names_, slow_ns,
          [this, i](const protocol::Delivery& d) { on_deliver(i, d); });
      n.engine = std::make_unique<protocol::Engine>(
          static_cast<protocol::ProcessId>(i), config, *n.host);
      n.handler = std::make_unique<HandlerShim>(*n.engine, tracer_, names_);
      n.transport->bind(*n.handler);
    }
    util::Rng rng(seed);
    payload_.resize(kPayload);
    for (auto& b : payload_) b = static_cast<std::byte>(rng.next());
    for (int i = kNodes - 1; i >= 0; --i) {
      nodes_[static_cast<size_t>(i)].engine->start_with_ring(ring);
    }
  }

  /// Closed-loop warm-up until `count` messages reached every member.
  bool warm_up(uint64_t count) {
    saturating_ = true;
    for (int i = 0; i < kNodes; ++i) top_up(i);
    const Nanos deadline = loop_.now() + util::sec(5);
    while (all_delivered_ < count && loop_.now() < deadline) {
      loop_.run_for(util::msec(1));
    }
    saturating_ = false;
    return drain(util::sec(2)) && all_delivered_ >= count;
  }

  /// Open-loop phase: returns per-window (p50, p99) latency in µs and the
  /// generator's lateness samples.
  void open_loop(Nanos duration, std::vector<double>& p50s,
                 std::vector<double>& p99s, std::vector<double>& late_us) {
    const Nanos interval = static_cast<Nanos>(1e9 * kNodes / kOpenLoopRate);
    open_start_ = loop_.now() + util::msec(1);
    open_windows_.assign(static_cast<size_t>(duration / kOpenWindow), {});
    for (int i = 0; i < kNodes; ++i) {
      next_due_[i] = open_start_ + interval * i / kNodes;
    }
    const Nanos stop = open_start_ + duration;
    std::function<void()> gen = [&, interval, stop] {
      const Nanos now = loop_.now();
      Nanos next = stop;
      for (int i = 0; i < kNodes; ++i) {
        while (next_due_[i] <= now && next_due_[i] < stop) {
          late_us.push_back(util::to_usec(now - next_due_[i]));
          submit(i, next_due_[i]);
          next_due_[i] += interval;
        }
        next = std::min(next, next_due_[i]);
      }
      if (next < stop) loop_.set_timer(kGenTimer, next - loop_.now(), gen);
    };
    loop_.set_timer(kGenTimer, open_start_ - loop_.now(), gen);
    loop_.run_for(stop - loop_.now());
    loop_.cancel_timer(kGenTimer);  // `gen` dies with this frame
    drain(util::sec(2));
    for (auto& w : open_windows_) {
      if (w.empty()) continue;
      p50s.push_back(quantile(w, 0.5));
      p99s.push_back(quantile(w, 0.99));
    }
  }

  /// Saturation phase: per-window all-member delivery rates (msgs/s), and
  /// the loop thread's CPU time over the phase.
  void saturate(Nanos duration, std::vector<double>& rates, int64_t& cpu_ns,
                int64_t& wall) {
    saturating_ = true;
    for (int i = 0; i < kNodes; ++i) top_up(i);
    const int64_t cpu0 = thread_cpu_ns();
    const Nanos t0 = loop_.now();
    const Nanos stop = t0 + duration;
    while (loop_.now() < stop) {
      const Nanos w0 = loop_.now();
      const uint64_t d0 = all_delivered_;
      loop_.run_for(std::min(kSatWindow, stop - w0));
      const Nanos w1 = loop_.now();
      if (w1 - w0 >= kSatWindow / 2) {
        rates.push_back(static_cast<double>(all_delivered_ - d0) /
                        util::to_sec(w1 - w0));
      }
    }
    cpu_ns = thread_cpu_ns() - cpu0;
    wall = loop_.now() - t0;
    saturating_ = false;
  }

  /// Run until every submitted message reached every member (or timeout).
  bool drain(Nanos timeout) {
    const Nanos deadline = loop_.now() + timeout;
    while (all_delivered_ < submitted_ && loop_.now() < deadline) {
      loop_.run_for(util::msec(1));
    }
    return all_delivered_ == submitted_;
  }

  struct Counters {
    uint64_t initiated = 0, tokens = 0, retransmitted = 0, data = 0,
             duplicates = 0, sent = 0, received = 0, drops = 0,
             memberships = 0;
  };
  [[nodiscard]] Counters counters() const {
    Counters c;
    for (const Node& n : nodes_) {
      const auto& s = n.engine->stats();
      c.initiated += s.initiated;
      c.tokens += s.tokens_handled;
      c.retransmitted += s.retransmitted;
      c.data += s.data_handled;
      c.duplicates += s.duplicates;
      c.memberships += s.memberships;
      c.sent += n.transport->datagrams_sent();
      c.received += n.transport->datagrams_received();
      c.drops += n.transport->send_drops();
    }
    return c;
  }

  /// Every member delivered the same (origin, seq) stream: compare order
  /// hashes at every common 1024-delivery mark and at the end.
  [[nodiscard]] bool same_order() const {
    size_t marks = SIZE_MAX;
    for (const Node& n : nodes_) marks = std::min(marks, n.marks.size());
    for (const Node& n : nodes_) {
      for (size_t k = 0; k < marks; ++k) {
        if (n.marks[k] != nodes_[0].marks[k]) return false;
      }
      if (n.delivered == nodes_[0].delivered && n.hash != nodes_[0].hash) {
        return false;
      }
    }
    return true;
  }

  void set_capture(PacketCapture* capture) {
    for (Node& n : nodes_) n.handler->capture = capture;
  }
  [[nodiscard]] bool operational() const {
    for (const Node& n : nodes_) {
      if (!n.engine->operational()) return false;
    }
    return true;
  }
  [[nodiscard]] uint64_t submitted() const { return submitted_; }
  [[nodiscard]] uint64_t refused() const { return refused_; }
  [[nodiscard]] uint64_t all_delivered() const { return all_delivered_; }

 private:
  struct Node {
    std::unique_ptr<transport::UdpTransport> transport;
    std::unique_ptr<HostShim> host;
    std::unique_ptr<protocol::Engine> engine;
    std::unique_ptr<HandlerShim> handler;
    uint64_t delivered = 0;
    uint64_t hash = 0;
    std::vector<uint64_t> marks;  ///< hash after every 1024 deliveries
  };

  void submit(int node, Nanos due) {
    const uint64_t id = members_.size();
    std::vector<std::byte> payload = payload_;
    std::memcpy(payload.data(), &id, sizeof(id));
    std::memcpy(payload.data() + 8, &due, sizeof(due));
    if (nodes_[static_cast<size_t>(node)].engine->submit(
            protocol::Service::kAgreed, std::move(payload))) {
      members_.push_back(0);
      ++submitted_;
    } else {
      ++refused_;
    }
  }

  void top_up(int node) {
    const auto& engine = *nodes_[static_cast<size_t>(node)].engine;
    while (engine.pending() < kQueueDepth) {
      const uint64_t before = submitted_;
      submit(node, -1);
      if (submitted_ == before) break;
    }
  }

  void on_deliver(int node, const protocol::Delivery& d) {
    uint64_t id = 0;
    Nanos due = -1;
    std::memcpy(&id, d.payload.data(), sizeof(id));
    std::memcpy(&due, d.payload.data() + 8, sizeof(due));
    Tracer::Scope span(tracer_, names_.deliver, id);
    Node& n = nodes_[static_cast<size_t>(node)];
    n.hash = mix(n.hash, (static_cast<uint64_t>(d.sender) << 48) ^
                             static_cast<uint64_t>(d.seq));
    if (++n.delivered % 1024 == 0) n.marks.push_back(n.hash);
    if (id < members_.size() && ++members_[id] == kNodes) {
      ++all_delivered_;
      if (due >= open_start_ && !open_windows_.empty()) {
        const auto w = static_cast<size_t>((due - open_start_) / kOpenWindow);
        if (w < open_windows_.size()) {
          open_windows_[w].push_back(util::to_usec(loop_.now() - due));
        }
      }
    }
    if (saturating_ && n.engine->pending() < kQueueDepth / 2) {
      top_up(node);
    }
  }

  // The loop is declared first so it outlives the transports registered
  // with it.
  transport::EventLoop loop_;
  Tracer& tracer_;
  const SpanNames& names_;
  std::vector<Node> nodes_;
  std::vector<std::byte> payload_;
  std::vector<uint8_t> members_;  ///< per message id: members delivered
  uint64_t submitted_ = 0;
  uint64_t refused_ = 0;
  uint64_t all_delivered_ = 0;
  bool saturating_ = false;  ///< top send queues up from deliveries
  Nanos open_start_ = 0;
  Nanos next_due_[kNodes] = {};
  std::vector<std::vector<double>> open_windows_;
};

/// Build a ring on free loopback ports (a port pair in use by another run
/// makes UdpTransport throw; move on to the next block).
std::unique_ptr<Ring> make_ring(int attempt, uint64_t seed, Tracer& tracer,
                                const SpanNames& names, int64_t slow_ns) {
  for (int tries = 0; tries < 64; ++tries, ++attempt) {
    const auto base = static_cast<uint16_t>(
        20000 + ((::getpid() * 7 + attempt * 13) % 3000) * 8);
    try {
      return std::make_unique<Ring>(base, seed, tracer, names, slow_ns);
    } catch (const std::runtime_error&) {
    }
  }
  throw std::runtime_error("no free loopback ports");
}

}  // namespace

Result run_udp_loopback(const Options& opt) {
  Result r;
  Tracer tracer;
  const SpanNames names{tracer.intern("engine.data"), tracer.intern("engine.token"),
                        tracer.intern("engine.timer"), tracer.intern("transport.send"),
                        tracer.intern("bench.deliver")};

  // Set-up: assemble the ring, start it, and push a warm-up batch through
  // every member; repeated, and the median reported.
  std::vector<double> setup_s;
  std::unique_ptr<Ring> ring;
  for (int k = 0; k < kSetups; ++k) {
    ring.reset();
    const int64_t t0 = wall_ns();
    ring = make_ring(k * 64, opt.seed + static_cast<uint64_t>(k), tracer, names,
                     opt.slow_ns);
    r.check(ring->warm_up(kWarmupMsgs), "warm-up did not reach every member");
    setup_s.push_back(static_cast<double>(wall_ns() - t0) / 1e9);
  }
  const uint64_t memberships = ring->counters().memberships;

  const double s = opt.seconds;
  const auto open_ns = static_cast<Nanos>(s * (opt.trace ? 0.3 : 0.4) * 1e9);
  const auto sat_ns = static_cast<Nanos>(s * (opt.trace ? 0.35 : 0.6) * 1e9);

  std::vector<double> p50s, p99s, late_us;
  ring->open_loop(open_ns, p50s, p99s, late_us);

  std::vector<double> rates;
  int64_t cpu_ns = 0, wall = 0;
  ring->saturate(sat_ns, rates, cpu_ns, wall);
  r.check(ring->drain(util::sec(3)), "saturation backlog did not drain");
  const double rate = median(rates);

  r.add_e2e("setup_s", median(setup_s), "s");
  r.add_e2e("agreed_msgs_per_s", rate, "1/s");
  r.add_e2e("sim_ops_per_s", rate, "1/s");
  r.add_e2e("agreed_p50_us", median(p50s), "us");
  r.add_e2e("agreed_p99_us", median(p99s), "us");

  if (opt.trace) {
    PacketCapture capture;
    ring->set_capture(&capture);
    const Ring::Counters c0 = ring->counters();
    std::vector<double> traced_rates;
    int64_t traced_cpu = 0, traced_wall = 0;
    tracer.set_enabled(true);
    ring->saturate(sat_ns, traced_rates, traced_cpu, traced_wall);
    tracer.set_enabled(false);
    ring->set_capture(nullptr);
    const Ring::Counters c1 = ring->counters();
    r.check(ring->drain(util::sec(3)), "traced backlog did not drain");

    const auto all = tracer.totals();
    auto self = [&](uint32_t name) { return static_cast<double>(all[name].self_ns); };
    auto per = [](double num, double den) { return den > 0 ? num / den : 0.0; };
    const double initiated = static_cast<double>(c1.initiated - c0.initiated);
    const double dgrams_out = static_cast<double>((c1.sent - c0.sent) + (c1.drops - c0.drops));
    const double dgrams_in = static_cast<double>(c1.received - c0.received);
    const double spans_ns = static_cast<double>(tracer.root_ns());
    const double residual = static_cast<double>(traced_cpu) - spans_ns;
    std::printf("loop thread CPU %.1f ms over %.1f ms wall; span self time (ms):",
                static_cast<double>(traced_cpu) / 1e6, static_cast<double>(traced_wall) / 1e6);
    for (const char* name : {"engine.data", "engine.token", "engine.timer",
                             "transport.send", "bench.deliver"}) {
      std::printf(" %s=%.1f", name, static_cast<double>(tracer.totals_of(name).self_ns) / 1e6);
    }
    std::printf("; residual (transport recv/poll) %.1f ms\n", residual / 1e6);

    r.add_layer("engine.data_self_ns", per(self(names.data), static_cast<double>(all[names.data].count)), "ns");
    r.add_layer("engine.token_self_ns", per(self(names.token), static_cast<double>(all[names.token].count)), "ns");
    r.add_layer("engine.msgs_per_token", per(initiated, static_cast<double>(c1.tokens - c0.tokens)), "count");
    r.add_layer("engine.retransmits_per_kmsg",
                per(1000.0 * static_cast<double>(c1.retransmitted - c0.retransmitted), initiated), "count");
    const double data_in = static_cast<double>(c1.data - c0.data);
    r.add_layer("engine.useful_data_ratio",
                per(data_in - static_cast<double>(c1.duplicates - c0.duplicates), data_in), "ratio");
    r.add_layer("transport.send_ns_per_dgram", per(self(names.send), dgrams_out), "ns");
    r.add_layer("transport.recv_poll_ns_per_dgram", per(std::max(residual, 0.0), dgrams_in), "ns");
    r.add_layer("transport.datagrams_per_msg", per(dgrams_out, initiated), "count");
    r.add_layer("transport.send_drops", static_cast<double>(c1.drops), "count");
    r.add_layer("loop.idle_share", 1.0 - per(static_cast<double>(cpu_ns), static_cast<double>(wall)), "ratio");
    r.add_layer("gen.late_p99_us", quantile(late_us, 0.99), "us");
    r.add_layer("trace.overhead", per(rate, median(traced_rates)) - 1.0, "ratio");
    replay_packets(capture, r);
    if (!opt.trace_out.empty()) {
      tracer.write(opt.trace_out + "/udp_loopback.spans");
    }
  }

  r.check(ring->same_order(), "members delivered different agreed orders");
  r.check(ring->operational() && ring->counters().memberships == memberships,
          "ring membership changed during the run");
  r.attempted = ring->submitted() + ring->refused();
  r.failed = ring->refused() + (ring->submitted() - ring->all_delivered());
  r.add_e2e("peak_rss_mb", peak_rss_mb(), "MB");
  return r;
}

}  // namespace perfbench
