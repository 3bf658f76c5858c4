// Simulated cluster assembly for the related-work baseline protocols
// (sequencer, U-Ring Paxos). Mirrors harness::SimCluster but is generic over
// the protocol type: same fabric, same process CPU model, same SimHost cost
// model, so cross-protocol comparisons (bench/related_protocols) are
// apples-to-apples with the ring protocols — only the protocol differs.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "membership/membership.hpp"
#include "simnet/event_queue.hpp"
#include "simnet/network.hpp"
#include "simnet/process.hpp"
#include "transport/sim_host.hpp"

namespace accelring::baselines {

/// Protocol must provide: Protocol(pid, RingConfig, Config, Host&),
/// submit(payload), and implement protocol::PacketHandler.
template <typename Protocol, typename Config>
class BaselineCluster {
 public:
  using DeliverFn = std::function<void(int node, const protocol::Delivery&,
                                       protocol::Nanos at)>;

  BaselineCluster(int num_nodes, simnet::FabricParams fabric, Config cfg,
                  uint64_t seed = 1, transport::HostCosts host_costs = {})
      : net_(eq_, fabric, num_nodes, seed) {
    protocol::RingConfig members;
    members.ring_id = membership::make_ring_id(1, 0);
    for (int i = 0; i < num_nodes; ++i) {
      members.members.push_back(static_cast<protocol::ProcessId>(i));
    }
    simnet::ProcessCosts proc_costs;
    proc_costs.mtu = fabric.mtu;
    nodes_.resize(num_nodes);
    for (int i = 0; i < num_nodes; ++i) {
      Node& node = nodes_[i];
      node.process =
          std::make_unique<simnet::Process>(eq_, proc_costs, 4 * 1024 * 1024);
      node.host = std::make_unique<transport::SimHost>(net_, *node.process, i,
                                                       host_costs);
      node.protocol = std::make_unique<Protocol>(
          static_cast<protocol::ProcessId>(i), members, cfg, *node.host);
      node.host->bind(*node.protocol);
      node.process->set_sink(node.host.get());
      net_.attach(i, [proc = node.process.get()](
                         simnet::SocketId sock,
                         const simnet::Network::Payload& p) {
        proc->enqueue(sock, p);
      });
      node.host->set_deliver(
          [this, i](const protocol::Delivery& delivery) {
            if (on_deliver_) {
              on_deliver_(i, delivery, nodes_[i].process->now());
            }
          });
    }
  }

  void submit(int node, std::vector<std::byte> payload) {
    nodes_[node].process->run_soon(
        [protocol = nodes_[node].protocol.get(),
         p = std::move(payload)]() mutable { protocol->submit(std::move(p)); });
  }

  void set_on_deliver(DeliverFn fn) { on_deliver_ = std::move(fn); }

  [[nodiscard]] simnet::EventQueue& eq() { return eq_; }
  [[nodiscard]] simnet::Network& net() { return net_; }
  [[nodiscard]] Protocol& protocol_at(int node) {
    return *nodes_[node].protocol;
  }
  [[nodiscard]] int size() const { return static_cast<int>(nodes_.size()); }
  /// Virtual CPU time `node` has consumed so far.
  [[nodiscard]] protocol::Nanos busy_time(int node) const {
    return nodes_[node].process->busy_time();
  }
  void run_until(protocol::Nanos deadline) { eq_.run_until(deadline); }

 private:
  struct Node {
    std::unique_ptr<simnet::Process> process;
    std::unique_ptr<transport::SimHost> host;
    std::unique_ptr<Protocol> protocol;
  };

  simnet::EventQueue eq_;
  simnet::Network net_;
  std::vector<Node> nodes_;
  DeliverFn on_deliver_;
};

}  // namespace accelring::baselines
