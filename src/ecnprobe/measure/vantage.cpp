#include "ecnprobe/measure/vantage.hpp"

namespace ecnprobe::measure {

Vantage::Vantage(std::string name, netsim::Host& host, ntp::SimClock clock,
                 tcp::TcpConfig tcp_config)
    : name_(std::move(name)),
      host_(host),
      ntp_client_(host, clock),
      tcp_stack_(host, tcp_config),
      http_client_(tcp_stack_) {}

traceroute::Tracerouter& Vantage::tracer() {
  if (!tracer_) tracer_ = std::make_unique<traceroute::Tracerouter>(host_);
  return *tracer_;
}

}  // namespace ecnprobe::measure
