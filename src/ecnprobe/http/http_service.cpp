#include "ecnprobe/http/http_service.hpp"

#include "ecnprobe/util/log.hpp"
#include "ecnprobe/util/strings.hpp"

namespace ecnprobe::http {

// One accepted connection: parse the request, emit the configured response,
// close. Owns itself via the shared_ptr captured in the receive handler,
// which the connection releases when it finishes.
struct HttpServerService::Session : std::enable_shared_from_this<Session> {
  std::shared_ptr<tcp::TcpConnection> conn;
  wire::HttpParser parser{wire::HttpParser::Kind::Request};
  HttpServerService* service;
  bool responded = false;

  Session(std::shared_ptr<tcp::TcpConnection> c, HttpServerService* s)
      : conn(std::move(c)), service(s) {}

  void start() {
    auto self = shared_from_this();
    conn->set_receive_handler([self](std::span<const std::uint8_t> bytes) {
      self->on_bytes(bytes);
    });
  }

  void on_bytes(std::span<const std::uint8_t> bytes) {
    if (responded) return;
    if (!parser.feed(bytes)) {
      conn->abort();
      return;
    }
    if (!parser.complete()) return;
    responded = true;
    ++service->stats_.requests_served;
    if (service->requests_counter_ != nullptr) service->requests_counter_->inc();
    if (conn->ecn_negotiated()) {
      ++service->stats_.ecn_connections;
      if (service->ecn_counter_ != nullptr) service->ecn_counter_->inc();
    }

    wire::HttpResponse response;
    response.status = service->config_.status;
    response.reason = service->config_.reason;
    response.headers["Server"] = service->config_.server_header;
    if (service->config_.status >= 300 && service->config_.status < 400) {
      response.headers["Location"] = service->config_.location;
    }
    response.body = service->config_.body;
    const std::string bytes_out = response.serialize();
    service->stats_.bytes_sent += bytes_out.size();
    if (service->bytes_counter_ != nullptr) {
      service->bytes_counter_->inc(bytes_out.size());
    }
    conn->send(bytes_out);
    conn->close();
  }
};

HttpServerService::HttpServerService(tcp::TcpStack& stack, Config config,
                                     std::uint16_t port)
    : stack_(stack), config_(std::move(config)), port_(port) {
  install_listener();
}

void HttpServerService::install_listener() {
  stack_.listen(port_, [this](std::shared_ptr<tcp::TcpConnection> conn) {
    ++stats_.connections;
    if (connections_counter_ != nullptr) connections_counter_->inc();
    std::make_shared<Session>(std::move(conn), this)->start();
  });
}

void HttpServerService::set_metrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) {
    connections_counter_ = requests_counter_ = ecn_counter_ = bytes_counter_ =
        nullptr;
    return;
  }
  connections_counter_ = registry->counter(
      "http_connections_total", {}, "TCP connections accepted by pool web servers");
  requests_counter_ = registry->counter(
      "http_requests_total", {}, "HTTP requests answered by pool web servers");
  ecn_counter_ = registry->counter(
      "http_ecn_connections_total", {},
      "accepted connections that negotiated ECN");
  bytes_counter_ = registry->counter(
      "http_bytes_sent_total", {}, "HTTP response bytes handed to TCP");
}

void HttpServerService::set_enabled(bool enabled) {
  if (enabled == enabled_) return;
  enabled_ = enabled;
  if (enabled) install_listener();
  else stack_.close_listener(port_);
}

// ---------------------------------------------------------------------------

struct HttpGetClient::Pending : std::enable_shared_from_this<HttpGetClient::Pending> {
  tcp::TcpStack& stack;
  wire::Ipv4Address server;
  std::uint16_t port;
  bool want_ecn;
  Handler handler;

  std::shared_ptr<tcp::TcpConnection> conn;
  wire::HttpParser parser{wire::HttpParser::Kind::Response};
  netsim::EventHandle deadline_timer;
  HttpGetResult result;
  bool done = false;

  Pending(tcp::TcpStack& s, wire::Ipv4Address addr, std::uint16_t p, bool ecn, Handler cb)
      : stack(s), server(addr), port(p), want_ecn(ecn), handler(std::move(cb)) {}

  void start(util::SimDuration deadline) {
    auto self = shared_from_this();
    deadline_timer = stack.host().network().sim().schedule(deadline, [self]() {
      if (self->done) return;
      if (self->conn) self->conn->abort();
      self->finish();
    });
    conn = stack.connect(server, port, want_ecn, [self](bool established) {
      self->on_connect(established);
    });
    conn->set_receive_handler(
        [self](std::span<const std::uint8_t> bytes) { self->on_bytes(bytes); });
    conn->set_close_handler([self](tcp::CloseReason reason) { self->on_close(reason); });
  }

  void on_connect(bool established) {
    if (done) return;
    result.connected = established;
    if (!established) {
      finish();
      return;
    }
    result.ecn_negotiated = conn->ecn_negotiated();
    wire::HttpRequest request;
    request.target = "/";
    request.headers["Host"] = server.to_string();
    request.headers["User-Agent"] = "ecnprobe/1.0";
    conn->send(request.serialize());
  }

  void on_bytes(std::span<const std::uint8_t> bytes) {
    if (done) return;
    if (!parser.feed(bytes)) {
      conn->abort();
      finish();
      return;
    }
    if (!parser.complete()) return;
    result.got_response = true;
    result.status = parser.response().status;
    const auto it = parser.response().headers.find("Location");
    if (it != parser.response().headers.end()) result.location = it->second;
    conn->close();
    finish();
  }

  void on_close(tcp::CloseReason reason) {
    if (done) return;
    result.close_reason = reason;
    finish();
  }

  void finish() {
    if (done) return;
    done = true;
    deadline_timer.cancel();
    if (handler) handler(result);
  }
};

void HttpGetClient::get(wire::Ipv4Address server, bool want_ecn, Handler handler,
                        std::uint16_t port, util::SimDuration deadline) {
  auto pending =
      std::make_shared<Pending>(stack_, server, port, want_ecn, std::move(handler));
  pending->start(deadline);
}

}  // namespace ecnprobe::http
