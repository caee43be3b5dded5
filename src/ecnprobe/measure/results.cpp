#include "ecnprobe/measure/results.hpp"

#include <charconv>
#include <istream>
#include <ostream>

#include "ecnprobe/util/strings.hpp"
#include "ecnprobe/util/table.hpp"

namespace ecnprobe::measure {

int Trace::reachable_udp_plain() const {
  int n = 0;
  for (const auto& s : servers) n += s.udp_plain.reachable ? 1 : 0;
  return n;
}

int Trace::reachable_udp_ect0() const {
  int n = 0;
  for (const auto& s : servers) n += s.udp_ect0.reachable ? 1 : 0;
  return n;
}

int Trace::reachable_tcp() const {
  int n = 0;
  for (const auto& s : servers) n += s.tcp_plain.got_response ? 1 : 0;
  return n;
}

int Trace::negotiated_ecn_tcp() const {
  int n = 0;
  for (const auto& s : servers) {
    n += (s.tcp_ecn.connected && s.tcp_ecn.ecn_negotiated) ? 1 : 0;
  }
  return n;
}

double Trace::pct_ect_given_plain() const {
  int plain = 0;
  int both = 0;
  for (const auto& s : servers) {
    if (!s.udp_plain.reachable) continue;
    ++plain;
    if (s.udp_ect0.reachable) ++both;
  }
  return plain == 0 ? 0.0 : 100.0 * both / plain;
}

double Trace::pct_plain_given_ect() const {
  int ect = 0;
  int both = 0;
  for (const auto& s : servers) {
    if (!s.udp_ect0.reachable) continue;
    ++ect;
    if (s.udp_plain.reachable) ++both;
  }
  return ect == 0 ? 0.0 : 100.0 * both / ect;
}

int Trace::unreachable_udp_with_ect() const {
  int n = 0;
  for (const auto& s : servers) {
    n += (s.udp_plain.reachable && !s.udp_ect0.reachable) ? 1 : 0;
  }
  return n;
}

namespace {
void append_int(std::string& out, int value) {
  char text[12];
  const auto end = std::to_chars(text, text + sizeof(text), value).ptr;
  out.append(text, end);
}
}  // namespace

void write_traces_csv(std::ostream& os, const std::vector<Trace>& traces) {
  // Byte-for-byte what util::CsvWriter emits, built in one reused buffer:
  // the vantage is the only cell that can need quoting (the rest are
  // numbers and dotted quads), so it is escaped once per trace.
  constexpr std::size_t kFlushBytes = 1 << 16;
  std::string out =
      "vantage,batch,trace,server,udp_plain,udp_plain_tries,udp_ect0,udp_ect0_tries,"
      "tcp_conn,tcp_resp,tcp_status,tcpecn_conn,tcpecn_negotiated,tcpecn_resp,"
      "tcpecn_status\n";
  out.reserve(kFlushBytes + 256);
  const auto append_flag = [&out](bool flag) {
    out += flag ? '1' : '0';
    out += ',';
  };
  for (const auto& trace : traces) {
    std::string prefix = util::CsvWriter::escape(trace.vantage);
    prefix += ',';
    append_int(prefix, trace.batch);
    prefix += ',';
    append_int(prefix, trace.index);
    prefix += ',';
    for (const auto& s : trace.servers) {
      out += prefix;
      s.server.append_to(out);
      out += ',';
      append_flag(s.udp_plain.reachable);
      append_int(out, s.udp_plain.attempts);
      out += ',';
      append_flag(s.udp_ect0.reachable);
      append_int(out, s.udp_ect0.attempts);
      out += ',';
      append_flag(s.tcp_plain.connected);
      append_flag(s.tcp_plain.got_response);
      append_int(out, s.tcp_plain.http_status);
      out += ',';
      append_flag(s.tcp_ecn.connected);
      append_flag(s.tcp_ecn.ecn_negotiated);
      append_flag(s.tcp_ecn.got_response);
      append_int(out, s.tcp_ecn.http_status);
      out += '\n';
      if (out.size() >= kFlushBytes) {
        os.write(out.data(), static_cast<std::streamsize>(out.size()));
        out.clear();
      }
    }
  }
  os.write(out.data(), static_cast<std::streamsize>(out.size()));
}

util::Expected<std::vector<Trace>> read_traces_csv(std::istream& is) {
  std::string line;
  if (!std::getline(is, line)) return util::make_error("csv", "empty input");
  std::vector<Trace> traces;
  Trace* current = nullptr;
  std::size_t line_no = 1;
  while (std::getline(is, line)) {
    ++line_no;
    if (util::trim(line).empty()) continue;
    const auto cells = util::split(util::trim(line), ',');
    if (cells.size() != 15) {
      return util::make_error("csv", util::strf("line %zu: expected 15 fields, got %zu",
                                                line_no, cells.size()));
    }
    const std::string& vantage = cells[0];
    const int batch = std::atoi(cells[1].c_str());
    const int index = std::atoi(cells[2].c_str());
    if (current == nullptr || current->vantage != vantage || current->index != index ||
        current->batch != batch) {
      traces.push_back(Trace{vantage, batch, index, {}});
      current = &traces.back();
    }
    auto addr = wire::Ipv4Address::parse(cells[3]);
    if (!addr) return util::make_error("csv", util::strf("line %zu: bad address", line_no));
    ServerResult s;
    s.server = *addr;
    s.udp_plain.reachable = cells[4] == "1";
    s.udp_plain.attempts = std::atoi(cells[5].c_str());
    s.udp_ect0.reachable = cells[6] == "1";
    s.udp_ect0.attempts = std::atoi(cells[7].c_str());
    s.tcp_plain.connected = cells[8] == "1";
    s.tcp_plain.got_response = cells[9] == "1";
    s.tcp_plain.http_status = std::atoi(cells[10].c_str());
    s.tcp_ecn.connected = cells[11] == "1";
    s.tcp_ecn.ecn_negotiated = cells[12] == "1";
    s.tcp_ecn.got_response = cells[13] == "1";
    s.tcp_ecn.http_status = std::atoi(cells[14].c_str());
    current->servers.push_back(s);
  }
  return traces;
}

}  // namespace ecnprobe::measure
