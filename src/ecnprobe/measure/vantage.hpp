// A measurement vantage point: one Host bundled with the client machinery
// the paper's measurement application needs -- an NTP prober, a TCP stack
// with an HTTP client, and a traceroute engine. The parallel tcpdump
// session is a netsim::PacketCapture attached to host() by whoever reads
// it (Host::add_capture).
#pragma once

#include <memory>
#include <string>

#include "ecnprobe/http/http_service.hpp"
#include "ecnprobe/netsim/host.hpp"
#include "ecnprobe/ntp/ntp.hpp"
#include "ecnprobe/obs/metrics.hpp"
#include "ecnprobe/tcp/tcp.hpp"
#include "ecnprobe/traceroute/traceroute.hpp"

namespace ecnprobe::measure {

class Vantage {
public:
  Vantage(std::string name, netsim::Host& host, ntp::SimClock clock,
          tcp::TcpConfig tcp_config = {});
  Vantage(const Vantage&) = delete;
  Vantage& operator=(const Vantage&) = delete;

  const std::string& name() const { return name_; }
  netsim::Host& host() { return host_; }
  ntp::NtpClient& ntp() { return ntp_client_; }
  tcp::TcpStack& tcp() { return tcp_stack_; }
  http::HttpGetClient& http() { return http_client_; }
  traceroute::Tracerouter& tracer();

  /// Outcome counters the probe engine (probe.cpp) increments for this
  /// vantage: one cached Counter* per label set, so a probe step costs no
  /// registry lookup. Slots are assigned in probe.cpp.
  obs::CounterCache& probe_counters() { return probe_counters_; }

private:
  std::string name_;
  netsim::Host& host_;
  ntp::NtpClient ntp_client_;
  tcp::TcpStack tcp_stack_;
  http::HttpGetClient http_client_;
  // Lazily constructed: the Tracerouter claims the host's ICMP handler.
  std::unique_ptr<traceroute::Tracerouter> tracer_;
  obs::CounterCache probe_counters_;
};

}  // namespace ecnprobe::measure
