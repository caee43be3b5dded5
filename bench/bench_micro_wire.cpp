// Micro-benchmarks of the wire codecs: the per-packet costs that bound the
// simulator's campaign throughput and a live prober's packet rates.
//
// Two modes:
//   bench_micro_wire [google-benchmark flags]   interactive tables
//   bench_micro_wire --bench-json=PATH          BENCH_wire.json metrics:
//     RFC 1624 incremental-vs-full checksum cost, wire-cache encode cost,
//     and the deterministic bytes-per-probe constants.
#include <benchmark/benchmark.h>

#include <algorithm>

#include "bench_common.hpp"
#include "ecnprobe/util/rng.hpp"
#include "ecnprobe/wire/bytes.hpp"
#include "ecnprobe/wire/checksum.hpp"
#include "ecnprobe/wire/datagram.hpp"
#include "ecnprobe/wire/dnsmsg.hpp"
#include "ecnprobe/wire/http.hpp"
#include "ecnprobe/wire/ntp.hpp"
#include "ecnprobe/wire/tcp.hpp"
#include "ecnprobe/wire/udp.hpp"

namespace {

using namespace ecnprobe;

const wire::Ipv4Address kSrc(10, 0, 0, 1);
const wire::Ipv4Address kDst(11, 0, 0, 2);

void BM_InternetChecksum(benchmark::State& state) {
  std::vector<std::uint8_t> data(static_cast<std::size_t>(state.range(0)));
  util::Rng rng(1);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_u64());
  for (auto _ : state) {
    benchmark::DoNotOptimize(wire::internet_checksum(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_InternetChecksum)->Arg(20)->Arg(48)->Arg(576)->Arg(1500);

void BM_Ipv4HeaderEncode(benchmark::State& state) {
  wire::Ipv4Header header;
  header.src = kSrc;
  header.dst = kDst;
  header.total_length = 48;
  for (auto _ : state) {
    wire::ByteWriter out(wire::Ipv4Header::kSize);
    header.encode(out);
    benchmark::DoNotOptimize(out.view().data());
  }
}
BENCHMARK(BM_Ipv4HeaderEncode);

void BM_Ipv4HeaderDecode(benchmark::State& state) {
  wire::Ipv4Header header;
  header.src = kSrc;
  header.dst = kDst;
  header.total_length = 48;
  wire::ByteWriter out(wire::Ipv4Header::kSize);
  header.encode(out);
  const auto bytes = out.take();
  for (auto _ : state) {
    benchmark::DoNotOptimize(wire::decode_ipv4_header(bytes));
  }
}
BENCHMARK(BM_Ipv4HeaderDecode);

void BM_UdpDatagramBuild(benchmark::State& state) {
  const std::vector<std::uint8_t> payload(48, 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        wire::make_udp_datagram(kSrc, kDst, 40000, 123, payload, wire::Ecn::Ect0));
  }
}
BENCHMARK(BM_UdpDatagramBuild);

void BM_TcpSegmentRoundTrip(benchmark::State& state) {
  wire::TcpHeader header;
  header.src_port = 40000;
  header.dst_port = 80;
  header.flags.ack = true;
  const std::vector<std::uint8_t> payload(static_cast<std::size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    const auto segment = wire::encode_tcp_segment(kSrc, kDst, header, payload);
    benchmark::DoNotOptimize(wire::decode_tcp_segment(kSrc, kDst, segment));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_TcpSegmentRoundTrip)->Arg(0)->Arg(512)->Arg(1400);

void BM_NtpPacketRoundTrip(benchmark::State& state) {
  const auto packet = wire::NtpPacket::make_client_request(
      wire::NtpTimestamp::from_unix_nanos(1'428'883'200'000'000'000));
  for (auto _ : state) {
    const auto bytes = packet.encode();
    benchmark::DoNotOptimize(wire::NtpPacket::decode(bytes));
  }
}
BENCHMARK(BM_NtpPacketRoundTrip);

void BM_DnsResponseRoundTrip(benchmark::State& state) {
  const auto query = wire::DnsMessage::make_query(1, "europe.pool.ntp.org");
  std::vector<wire::DnsRecord> answers;
  for (int i = 0; i < 4; ++i) {
    answers.push_back(wire::DnsRecord::make_a(
        "europe.pool.ntp.org", wire::Ipv4Address(11, 0, 0, static_cast<std::uint8_t>(i)),
        150));
  }
  const auto response = wire::DnsMessage::make_response(query, wire::DnsRcode::NoError,
                                                        answers);
  for (auto _ : state) {
    const auto bytes = response.encode();
    benchmark::DoNotOptimize(wire::DnsMessage::decode(bytes));
  }
}
BENCHMARK(BM_DnsResponseRoundTrip);

void BM_IcmpQuotationRoundTrip(benchmark::State& state) {
  const auto probe = wire::make_udp_datagram(kSrc, kDst, 44001, 33435,
                                             std::vector<std::uint8_t>(8, 0),
                                             wire::Ecn::Ect0, 3);
  const auto error = wire::make_time_exceeded(wire::Ipv4Address(12, 0, 0, 1), probe);
  for (auto _ : state) {
    const auto decoded = wire::decode_icmp_message(error.payload);
    benchmark::DoNotOptimize(wire::parse_quotation(decoded->message.body));
  }
}
BENCHMARK(BM_IcmpQuotationRoundTrip);

void BM_HttpResponseParse(benchmark::State& state) {
  wire::HttpResponse response;
  response.status = 302;
  response.headers["Location"] = "http://www.pool.ntp.org/";
  response.headers["Server"] = "nginx";
  const auto text = response.serialize();
  for (auto _ : state) {
    wire::HttpParser parser(wire::HttpParser::Kind::Response);
    parser.feed(text);
    benchmark::DoNotOptimize(parser.complete());
  }
}
BENCHMARK(BM_HttpResponseParse);

// -- --bench-json mode --------------------------------------------------------

/// Nanoseconds per operation for `op` run `iters` times, best of three.
template <typename Fn>
double ns_per_op(std::uint64_t iters, Fn&& op) {
  // Min over many reps: the minimum is the least-interference estimate.
  double best = 1e300;
  for (int rep = 0; rep < 9; ++rep) {
    const ecnprobe::bench::Stopwatch timer;
    for (std::uint64_t i = 0; i < iters; ++i) op(i);
    best = std::min(best, timer.seconds() * 1e9 / static_cast<double>(iters));
  }
  return best;
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2.0;
}

/// Per-side median ns per op, and the median of the per-round ratios a / b.
struct PairedTiming {
  double a_ns = 0.0;
  double b_ns = 0.0;
  double ratio = 0.0;
};

/// Times `a` and `b` back to back in `rounds` rounds of `iters` ops,
/// alternating which goes first. Both sides of each round's ratio see the
/// same machine state, so a load burst or a frequency change on the host
/// moves the two together instead of landing in one side's best-of-N.
template <typename A, typename B>
PairedTiming paired_ns_per_op(std::uint64_t iters, int rounds, A&& a, B&& b) {
  const auto time = [iters](auto& op) {
    const ecnprobe::bench::Stopwatch timer;
    for (std::uint64_t i = 0; i < iters; ++i) op(i);
    return timer.seconds() * 1e9 / static_cast<double>(iters);
  };
  std::vector<double> a_ns, b_ns, ratios;
  for (int round = 0; round < rounds; ++round) {
    double ta = 0.0;
    double tb = 0.0;
    if (round % 2 == 0) {
      ta = time(a);
      tb = time(b);
    } else {
      tb = time(b);
      ta = time(a);
    }
    a_ns.push_back(ta);
    b_ns.push_back(tb);
    ratios.push_back(tb > 0.0 ? ta / tb : 0.0);
  }
  return {median(a_ns), median(b_ns), median(ratios)};
}

int run_bench_json(const std::string& path) {
  using namespace ecnprobe;

  // A router TTL rewrite: full 20-byte header recompute vs RFC 1624 patch.
  std::vector<std::uint8_t> header(wire::Ipv4Header::kSize);
  util::Rng rng(1);
  header[0] = 0x45;
  for (std::size_t i = 1; i < header.size(); ++i) {
    header[i] = static_cast<std::uint8_t>(rng.next_u64());
  }
  volatile std::uint16_t sink = 0;
  std::uint16_t check = wire::internet_checksum(header);
  const auto full = [&](std::uint64_t i) {
    header[8] = static_cast<std::uint8_t>(i);  // the TTL byte
    sink = wire::internet_checksum(header);
  };
  const auto incremental = [&](std::uint64_t i) {
    const auto old_word = static_cast<std::uint16_t>((header[8] << 8) | header[9]);
    header[8] = static_cast<std::uint8_t>(i);
    const auto new_word = static_cast<std::uint16_t>((header[8] << 8) | header[9]);
    check = wire::checksum_update(check, old_word, new_word);
    sink = check;
  };
  const PairedTiming rewrite = paired_ns_per_op(200'000, 45, full, incremental);
  const double full_ns = rewrite.a_ns;
  const double incr_ns = rewrite.b_ns;

  // Probe encode cost: cold (full encode) vs wire-cache hit, and the
  // deterministic on-the-wire size of a four-way probe exchange.
  const std::vector<std::uint8_t> payload(48, 0xab);
  const double encode_cold_ns = ns_per_op(200'000, [&](std::uint64_t) {
    auto dgram = wire::make_udp_datagram(kSrc, kDst, 40000, 123, payload,
                                         wire::Ecn::Ect0);
    sink = static_cast<std::uint16_t>(dgram.wire_view().size());
  });
  auto cached = wire::make_udp_datagram(kSrc, kDst, 40000, 123, payload,
                                        wire::Ecn::Ect0);
  (void)cached.wire_view();
  const double encode_cached_ns = ns_per_op(2'000'000, [&](std::uint64_t i) {
    cached.set_ttl(static_cast<std::uint8_t>(i | 1));  // patch, not re-encode
    sink = static_cast<std::uint16_t>(cached.wire_view().size());
  });
  const double probe_wire_bytes = static_cast<double>(cached.wire_view().size());

  bench::BenchJson json("wire");
  json.add("checksum_full_ns_per_rewrite", full_ns, "ns");
  json.add("checksum_incremental_ns_per_rewrite", incr_ns, "ns");
  json.add("incremental_checksum_speedup", rewrite.ratio, "x", /*guarded=*/true);
  json.add("probe_encode_cold_ns", encode_cold_ns, "ns");
  json.add("probe_patch_and_view_ns", encode_cached_ns, "ns");
  json.add("udp_probe_wire_bytes", probe_wire_bytes, "bytes", /*guarded=*/true);
  std::printf("checksum rewrite: full %.1fns, incremental %.1fns (%.1fx); "
              "probe encode: cold %.0fns, cached patch %.1fns\n",
              full_ns, incr_ns, rewrite.ratio,
              encode_cold_ns, encode_cached_ns);
  return json.write(path) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = ecnprobe::bench::take_bench_json_arg(&argc, argv);
  if (!json_path.empty()) return run_bench_json(json_path);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
