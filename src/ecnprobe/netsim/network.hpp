// The Network owns the node graph: nodes (routers, hosts) joined by
// point-to-point links with delay, jitter, and loss, and per-interface
// middlebox policy chains. `transmit` is the single datapath: egress
// policies -> link loss -> propagation delay -> ingress policies -> the
// peer's on_receive. Routing decisions are delegated to an oracle installed
// by the topology module.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ecnprobe/netsim/policy.hpp"
#include "ecnprobe/netsim/sim.hpp"
#include "ecnprobe/util/rng.hpp"
#include "ecnprobe/wire/datagram.hpp"

namespace ecnprobe::netsim {

using NodeId = std::uint32_t;
inline constexpr NodeId kInvalidNode = 0xffffffffu;
inline constexpr int kNoInterface = -1;

class Network;

/// Base class for anything attached to the network.
class Node {
public:
  explicit Node(std::string name) : name_(std::move(name)) {}
  virtual ~Node() = default;
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  /// Delivery upcall: the datagram as it arrived on `ingress_if` after
  /// ingress policies ran.
  virtual void on_receive(wire::Datagram dgram, int ingress_if) = 0;

  /// Called once when the node is added to a network.
  virtual void on_attached(Network& net, NodeId id);

  /// Epoch boundary (Network::begin_epoch): nodes holding per-node random
  /// streams or transient counters re-derive them from `epoch_seed` so the
  /// upcoming epoch's behaviour is a pure function of the seed, independent
  /// of traffic in earlier epochs. Default: nothing to reset.
  virtual void on_epoch(std::uint64_t epoch_seed) { (void)epoch_seed; }

  NodeId id() const { return id_; }
  const std::string& name() const { return name_; }
  wire::Ipv4Address address() const { return address_; }
  void set_address(wire::Ipv4Address addr);

  Network& network() const { return *net_; }

protected:
  Network* net_ = nullptr;

private:
  NodeId id_ = kInvalidNode;
  std::string name_;
  wire::Ipv4Address address_;
};

struct LinkParams {
  SimDuration delay = SimDuration::millis(1);
  SimDuration jitter;          ///< uniform [0, jitter) added per packet
  double loss_rate = 0.0;      ///< independent per-packet loss, each direction
};

/// One end of a point-to-point link.
struct Interface {
  NodeId peer = kInvalidNode;
  int peer_if = kNoInterface;
  LinkParams link;
  std::vector<PolicyPtr> egress_policies;
  std::vector<PolicyPtr> ingress_policies;
  bool up = true;
};

/// Network-wide datapath counters.
struct NetworkStats {
  std::uint64_t packets_transmitted = 0;
  std::uint64_t dropped_loss = 0;
  std::uint64_t dropped_policy = 0;
  std::uint64_t dropped_link_down = 0;
  std::uint64_t delivered = 0;
  std::uint64_t duplicated = 0;  ///< extra copies injected by duplication faults
};

class Network {
public:
  Network(Simulator& sim, util::Rng rng);
  ~Network();
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Adds a node; the network takes ownership.
  NodeId add_node(std::unique_ptr<Node> node);

  /// Connects two nodes; returns the new interface index on each side.
  std::pair<int, int> connect(NodeId a, NodeId b, const LinkParams& link);

  Node& node(NodeId id) { return *nodes_.at(id); }
  const Node& node(NodeId id) const { return *nodes_.at(id); }
  std::size_t node_count() const { return nodes_.size(); }

  Interface& interface(NodeId id, int if_index);
  std::size_t interface_count(NodeId id) const { return ifaces_.at(id).size(); }

  void add_egress_policy(NodeId id, int if_index, PolicyPtr policy);
  void add_ingress_policy(NodeId id, int if_index, PolicyPtr policy);
  void set_link_up(NodeId id, int if_index, bool up);

  /// Sends a datagram out of `egress_if`, which must be an existing
  /// interface of `from` (unchecked: this is the per-hop path). Consumes
  /// the datagram.
  void transmit(NodeId from, int egress_if, wire::Datagram dgram);

  /// Next-hop decision: returns the egress interface on `at` toward `dst`,
  /// or kNoInterface when unroutable. Installed by the topology layer.
  using RoutingOracle = std::function<int(NodeId at, wire::Ipv4Address dst)>;
  void set_routing_oracle(RoutingOracle oracle) { oracle_ = std::move(oracle); }
  int route(NodeId at, wire::Ipv4Address dst) const;

  /// Address directory (populated by Node::set_address).
  NodeId find_by_address(wire::Ipv4Address addr) const;
  void register_address(wire::Ipv4Address addr, NodeId id);

  Simulator& sim() { return sim_; }
  const NetworkStats& stats() const { return stats_; }

  /// The observability sink every datapath layer reports into: drops and
  /// ECN rewrites are attributed in its ledger, aggregates mirrored into
  /// its registry. Defaults to the process-wide instance; a World installs
  /// its own so parallel worker clones never share one.
  ///
  /// Per-hop counts live only in stats(); their deltas reach the registry's
  /// net_packets_{transmitted,delivered,duplicated}_total counters under
  /// the simulator's publishing rule (Simulator::publish_metrics), and
  /// before set_observability() swaps the registry.
  obs::Observability& obs() const { return *obs_; }
  void set_observability(obs::Observability* obs);

  /// Monotonic IP identification counter shared by all senders.
  std::uint16_t next_ip_id() { return ip_id_++; }

  /// Starts a deterministic epoch: reseeds the datapath stream (loss,
  /// jitter, policy draws) from `epoch_seed`, resets the IP-id counter,
  /// clears behavioural middlebox state (PacketPolicy::reset_state), and
  /// lets every node re-derive its per-node streams (Node::on_epoch).
  /// Called between campaign traces -- from a quiescent simulator -- so a
  /// trace's outcome does not depend on which traces ran before it, which
  /// is what makes sharded parallel campaigns byte-identical to sequential
  /// ones. Aggregate stats() counters are not touched.
  void begin_epoch(std::uint64_t epoch_seed);

private:
  /// Adds the stats() counts gained since the last publish to the
  /// registry counters.
  void publish_metrics();

  Simulator& sim_;
  util::Rng rng_;
  RoutingOracle oracle_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::vector<Interface>> ifaces_;
  std::map<std::uint32_t, NodeId> by_address_;
  NetworkStats stats_;
  NetworkStats published_;  ///< stats_ as of the last publish
  std::uint16_t ip_id_ = 1;
  obs::Observability* obs_;
  obs::Counter* transmitted_counter_ = nullptr;
  obs::Counter* delivered_counter_ = nullptr;
  obs::Counter* duplicated_counter_ = nullptr;
};

}  // namespace ecnprobe::netsim
