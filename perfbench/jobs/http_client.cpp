#include "http_client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdlib>

namespace perfbench {
namespace {

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  // Abort on close once the reply is read: the server closes first, so a
  // graceful close would leave every request in TIME_WAIT, and hundreds of
  // them would sit beside the ephemeral bind in later jobs' start().
  const linger abort_on_close{1, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &abort_on_close, sizeof(abort_on_close));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool send_all(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

HttpReply http_request(std::uint16_t port, const std::string& method, const std::string& target,
                       const std::string& body) {
  HttpReply reply;
  const int fd = connect_loopback(port);
  if (fd < 0) return reply;
  std::string request = method + " " + target + " HTTP/1.1\r\nHost: 127.0.0.1\r\n" +
                        "Connection: close\r\n";
  if (!body.empty() || method == "POST") {
    request += "Content-Type: application/json\r\nContent-Length: " +
               std::to_string(body.size()) + "\r\n";
  }
  request += "\r\n" + body;
  std::string response;
  if (send_all(fd, request)) {
    char buf[16384];
    for (;;) {
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n <= 0) break;
      response.append(buf, static_cast<std::size_t>(n));
    }
  }
  ::close(fd);
  const auto head_end = response.find("\r\n\r\n");
  if (head_end == std::string::npos || response.compare(0, 5, "HTTP/") != 0) return reply;
  const auto space = response.find(' ');
  reply.status = std::atoi(response.c_str() + space + 1);
  reply.body = response.substr(head_end + 4);
  return reply;
}

SseReader::~SseReader() {
  if (fd_ >= 0) ::close(fd_);
}

bool SseReader::connect(std::uint16_t port) {
  fd_ = connect_loopback(port);
  if (fd_ < 0) return false;
  if (!send_all(fd_, "GET /events HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n")) return false;
  char buf[4096];
  while (buffer_.find("\r\n\r\n") == std::string::npos) {
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n <= 0) return false;
    buffer_.append(buf, static_cast<std::size_t>(n));
  }
  const auto head_end = buffer_.find("\r\n\r\n");
  const bool ok = buffer_.compare(0, 12, "HTTP/1.1 200") == 0;
  buffer_.erase(0, head_end + 4);
  return ok;
}

bool SseReader::next(SseEvent* event) {
  char buf[16384];
  for (;;) {
    const auto frame_end = buffer_.find("\n\n");
    if (frame_end != std::string::npos) {
      const std::string frame = buffer_.substr(0, frame_end + 1);
      buffer_.erase(0, frame_end + 2);
      SseEvent parsed;
      std::size_t pos = 0;
      while (pos < frame.size()) {
        const auto eol = frame.find('\n', pos);
        const std::string line = frame.substr(pos, eol - pos);
        pos = eol + 1;
        if (line.compare(0, 7, "event: ") == 0) parsed.kind = line.substr(7);
        if (line.compare(0, 6, "data: ") == 0) parsed.data = line.substr(6);
      }
      if (parsed.kind.empty()) continue;  // keep-alive comment
      *event = std::move(parsed);
      return true;
    }
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n <= 0) return false;
    buffer_.append(buf, static_cast<std::size_t>(n));
  }
}

void SseReader::shutdown() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

}  // namespace perfbench
