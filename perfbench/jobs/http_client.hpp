// Minimal loopback HTTP/1.1 client for driving ecnprobed from outside:
// one request per connection (Connection: close), plus a Server-Sent
// Events reader for GET /events.
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

struct HttpReply {
  int status = 0;  ///< 0 when the exchange failed at the socket level
  std::string body;
};

HttpReply http_request(std::uint16_t port, const std::string& method, const std::string& target,
                       const std::string& body = "");

/// One SSE frame: `event:` and `data:` fields.
struct SseEvent {
  std::string kind;
  std::string data;
};

/// Reads frames from GET /events until the stream closes.
class SseReader {
 public:
  SseReader() = default;
  ~SseReader();
  SseReader(const SseReader&) = delete;
  SseReader& operator=(const SseReader&) = delete;

  /// Connects and consumes the response head. False on failure.
  bool connect(std::uint16_t port);
  /// Blocks for the next frame; false once the stream has closed.
  bool next(SseEvent* event);
  /// Unblocks a pending next() from another thread.
  void shutdown();

 private:
  int fd_ = -1;
  std::string buffer_;
};

}  // namespace perfbench
