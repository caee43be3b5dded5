#include "common.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

double since(Clock::time_point start) { return seconds_between(start, Clock::now()); }

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double rss_mb() {
  std::ifstream statm("/proc/self/statm");
  long long pages_total = 0;
  long long pages_resident = 0;
  if (!(statm >> pages_total >> pages_resident)) return 0.0;
  const double page = static_cast<double>(sysconf(_SC_PAGESIZE));
  return static_cast<double>(pages_resident) * page / (1024.0 * 1024.0);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KB
}

std::uint64_t counter_total(const ecnprobe::obs::MetricsSnapshot& snapshot,
                            const std::string& family, const std::string& label_key,
                            const std::string& label_value) {
  const auto it = snapshot.families.find(family);
  if (it == snapshot.families.end()) return 0;
  std::uint64_t total = 0;
  for (const auto& [labels, value] : it->second.samples) {
    if (!label_key.empty()) {
      const auto lit = labels.find(label_key);
      if (lit == labels.end() || lit->second != label_value) continue;
    }
    total += value.counter;
  }
  return total;
}

double prometheus_total(const std::string& text, const std::string& family,
                        const std::string& label) {
  double total = 0;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (line.compare(0, family.size(), family) != 0) continue;
    const char next = line.size() > family.size() ? line[family.size()] : '\0';
    if (next != '{' && next != ' ') continue;
    const auto close = line.find('}');
    const std::string labels =
        next == '{' && close != std::string::npos ? line.substr(family.size(), close) : "";
    if (!label.empty() && labels.find(label) == std::string::npos) continue;
    const auto space = line.rfind(' ');
    if (space == std::string::npos) continue;
    total += std::strtod(line.c_str() + space + 1, nullptr);
  }
  return total;
}

LayerCounts layer_counts(const ecnprobe::obs::ObsSnapshot& snapshot) {
  const auto& m = snapshot.metrics;
  LayerCounts c;
  c.events = counter_total(m, "sim_events_total");
  c.packets = counter_total(m, "net_packets_transmitted_total");
  c.handshakes = counter_total(m, "tcp_handshakes_total", "role", "client");
  c.retransmissions = counter_total(m, "tcp_retransmissions_total");
  c.http_requests = counter_total(m, "http_requests_total");
  c.udp_attempts = counter_total(m, "probe_udp_attempts_total");
  c.ledger_drops = snapshot.ledger.total_drops();
  c.probe_servers = counter_total(m, "probe_servers_total");
  return c;
}

void record_counts(Record& out, const LayerCounts& c) {
  out.integer("events", static_cast<std::int64_t>(c.events));
  out.integer("packets", static_cast<std::int64_t>(c.packets));
  out.integer("handshakes", static_cast<std::int64_t>(c.handshakes));
  out.integer("retransmissions", static_cast<std::int64_t>(c.retransmissions));
  out.integer("http_requests", static_cast<std::int64_t>(c.http_requests));
  out.integer("udp_attempts", static_cast<std::int64_t>(c.udp_attempts));
  out.integer("ledger_drops", static_cast<std::int64_t>(c.ledger_drops));
  out.integer("probe_servers", static_cast<std::int64_t>(c.probe_servers));
}

SpanLog::SpanLog(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

int SpanLog::open(const std::string& name, int parent, const std::string& key) {
  if (!enabled_) return -1;
  const double start = since(epoch_);
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({name, key, start, -1, parent});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::close(int id) {
  if (id < 0) return;
  const double end = since(epoch_);
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(id)].end = end;
}

void SpanLog::discard(int id) {
  if (id < 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(id)].end = -2;
}

int SpanLog::add(const std::string& name, Clock::time_point start, Clock::time_point end,
                 int parent, const std::string& key) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(
      {name, key, seconds_between(epoch_, start), seconds_between(epoch_, end), parent});
  return static_cast<int>(spans_.size()) - 1;
}

bool SpanLog::write(const std::string& path) const {
  std::ostringstream os;
  os.precision(17);
  os << "[";
  std::lock_guard<std::mutex> lock(mutex_);
  bool first = true;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    if (s.end < 0) continue;  // still open or discarded
    os << (first ? "\n" : ",\n") << "{\"id\":" << i << ",\"parent\":" << s.parent
       << ",\"name\":\"" << s.name << "\",\"key\":\"" << s.key << "\",\"start\":" << s.start
       << ",\"end\":" << s.end << "}";
    first = false;
  }
  os << "\n]\n";
  return write_text(path, os.str());
}

namespace {
std::string number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}
}  // namespace

void Record::num(const std::string& key, double value) { fields_[key] = number(value); }

void Record::integer(const std::string& key, std::int64_t value) {
  fields_[key] = std::to_string(value);
}

void Record::text(const std::string& key, const std::string& value) {
  std::string quoted = "\"";
  for (const char c : value) {
    if (c == '"' || c == '\\') quoted += '\\';
    if (c == '\n') {
      quoted += "\\n";
      continue;
    }
    quoted += c;
  }
  fields_[key] = quoted + "\"";
}

void Record::nums(const std::string& key, const std::vector<double>& values) {
  std::string list = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) list += ",";
    list += number(values[i]);
  }
  fields_[key] = list + "]";
}

std::string Record::line() const {
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : fields_) {
    if (!first) out += ",";
    out += "\"" + key + "\":" + value;
    first = false;
  }
  return out + "}";
}

bool write_text(const std::string& path, const std::string& text) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os.is_open()) return false;
  os << text;
  os.flush();
  return os.good();
}

}  // namespace perfbench
