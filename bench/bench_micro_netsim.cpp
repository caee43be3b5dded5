// Micro-benchmarks of the simulation engine: event throughput, end-to-end
// datagram forwarding, policy overhead, and full four-way probe cost --
// the numbers that size a paper-scale campaign run.
//
// Two modes:
//   bench_micro_netsim [google-benchmark flags]   interactive tables
//   bench_micro_netsim --bench-json=PATH          BENCH_netsim.json metrics
//     (docs/performance.md).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <functional>
#include <utility>

#include "bench_common.hpp"
#include "ecnprobe/measure/probe.hpp"
#include "ecnprobe/netsim/host.hpp"
#include "ecnprobe/netsim/network.hpp"
#include "ecnprobe/netsim/router.hpp"
#include "ecnprobe/ntp/ntp.hpp"
#include "ecnprobe/scenario/world.hpp"

namespace {

using namespace ecnprobe;
using namespace ecnprobe::util::literals;

void BM_EventScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    netsim::Simulator sim;
    for (int i = 0; i < 1000; ++i) {
      sim.schedule(util::SimDuration::micros(i), [] {});
    }
    sim.run();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 1000);
}
BENCHMARK(BM_EventScheduleRun);

// One UDP datagram across an N-router chain, including ICMP-free forwarding
// and delivery.
void BM_ChainForwarding(benchmark::State& state) {
  const int n_routers = static_cast<int>(state.range(0));
  netsim::Simulator sim;
  netsim::Network net(sim, util::Rng(1));

  auto host_a = std::make_unique<netsim::Host>("a", netsim::Host::Params{}, util::Rng(2));
  auto host_b = std::make_unique<netsim::Host>("b", netsim::Host::Params{}, util::Rng(3));
  netsim::Host* a = host_a.get();
  netsim::Host* b = host_b.get();
  const auto ida = net.add_node(std::move(host_a));
  std::vector<netsim::NodeId> routers;
  netsim::NodeId prev = ida;
  for (int i = 0; i < n_routers; ++i) {
    auto router = std::make_unique<netsim::Router>(
        "r", netsim::Router::Params{}, util::Rng(10 + static_cast<unsigned>(i)));
    const auto id = net.add_node(std::move(router));
    net.node(id).set_address(wire::Ipv4Address(12, 0, 1, static_cast<std::uint8_t>(i)));
    net.connect(prev, id, netsim::LinkParams{});
    routers.push_back(id);
    prev = id;
  }
  const auto idb = net.add_node(std::move(host_b));
  a->set_address(wire::Ipv4Address(10, 0, 0, 1));
  b->set_address(wire::Ipv4Address(11, 0, 0, 1));
  net.connect(prev, idb, netsim::LinkParams{});
  net.set_routing_oracle([&](netsim::NodeId at, wire::Ipv4Address dst) -> int {
    (void)at;
    return dst == b->address() ? 1 : 0;
  });
  auto sink = b->open_udp(9);

  const std::vector<std::uint8_t> payload(48, 0);
  for (auto _ : state) {
    auto socket = a->open_udp();
    socket->send(b->address(), 9, payload, wire::Ecn::Ect0);
    sim.run();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          (n_routers + 1));
}
BENCHMARK(BM_ChainForwarding)->Arg(4)->Arg(16);

void BM_PolicyChainApplication(benchmark::State& state) {
  netsim::EcnBleachPolicy bleach(0.5);
  netsim::EctUdpDropPolicy drop(0.0);  // match but never drop
  netsim::TosSensitiveDropPolicy tos(0.0);
  util::Rng rng(7);
  auto dgram = wire::make_udp_datagram(wire::Ipv4Address(1, 1, 1, 1),
                                       wire::Ipv4Address(2, 2, 2, 2), 1, 2,
                                       std::vector<std::uint8_t>(48, 0),
                                       wire::Ecn::Ect0);
  for (auto _ : state) {
    auto copy = dgram;
    benchmark::DoNotOptimize(bleach.apply(copy, rng));
    benchmark::DoNotOptimize(drop.apply(copy, rng));
    benchmark::DoNotOptimize(tos.apply(copy, rng));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 3);
}
BENCHMARK(BM_PolicyChainApplication);

// Full four-way probe of one server through the small calibrated world --
// the unit of campaign work.
void BM_FourWayServerProbe(benchmark::State& state) {
  auto params = scenario::WorldParams::small(77);
  params.server_count = 16;
  params.offline_prob = 0.0;
  scenario::World world(params);
  auto& vantage = world.vantage("UGla wired");
  std::size_t cursor = 0;
  for (auto _ : state) {
    const auto server = world.server_addresses()[cursor++ % 16];
    bool done = false;
    measure::probe_server(vantage, server, measure::ProbeOptions{},
                          [&](const measure::ServerResult&) { done = true; });
    world.sim().run();
    benchmark::DoNotOptimize(done);
  }
}
BENCHMARK(BM_FourWayServerProbe);

// World construction cost at increasing scale.
void BM_WorldBuild(benchmark::State& state) {
  for (auto _ : state) {
    auto params = scenario::WorldParams::paper().scaled(
        static_cast<double>(state.range(0)) / 100.0);
    scenario::World world(params);
    benchmark::DoNotOptimize(world.net().node_count());
  }
}
BENCHMARK(BM_WorldBuild)->Arg(5)->Arg(20)->Unit(benchmark::kMillisecond);

// -- --bench-json mode --------------------------------------------------------

/// Steady-state timer throughput of the scheduler: self-rescheduling timers
/// at the 100us..50ms pacing/link/retry timescales, submitted through the
/// allocation-free post() path packet delivery uses. Returns events/second.
double timer_events_per_sec(std::uint64_t budget) {
  netsim::Simulator sim;

  util::Rng rng(7);
  std::vector<util::SimDuration> delays;
  for (int i = 0; i < 1024; ++i) {
    delays.push_back(util::SimDuration::nanos(
        100'000 + static_cast<std::int64_t>(rng.next_below(49'900'000))));
  }

  // Self-rescheduling timer state shared by reference: the per-event
  // closure is one pointer, so it rides the inline storage and the
  // measurement isolates the scheduling machinery itself.
  struct TickState {
    netsim::Simulator& sim;
    const std::vector<util::SimDuration>& delays;
    std::uint64_t remaining;
    std::uint64_t cursor = 0;
    void fire() {
      if (remaining == 0) return;
      --remaining;
      sim.post(delays[cursor++ & 1023], [this] { fire(); });
    }
  };
  TickState tick{sim, delays, budget};
  // A paper-scale campaign shard peaks at ~124 pending events (mostly 1 s
  // retransmit and deadline timers), so the bench holds that many.
  constexpr int kTimers = 128;
  for (int i = 0; i < kTimers; ++i) {
    sim.post(delays[static_cast<std::size_t>(i) & 1023], [&tick] { tick.fire(); });
  }

  const bench::Stopwatch timer;
  sim.run();
  const double seconds = timer.seconds();
  return seconds > 0.0 ? static_cast<double>(sim.events_processed()) / seconds : 0.0;
}

/// Full four-way probes through the small calibrated world; returns
/// {probes/sec, sim events per probe}. The event count is a pure function
/// of the seed -- machine-independent, so it is a guarded metric.
std::pair<double, double> probe_throughput(int probes) {
  auto params = scenario::WorldParams::small(77);
  params.server_count = 16;
  params.offline_prob = 0.0;
  scenario::World world(params);
  auto& vantage = world.vantage("UGla wired");
  const auto servers = world.server_addresses();
  const std::uint64_t events_before = world.sim().events_processed();
  const bench::Stopwatch timer;
  for (int i = 0; i < probes; ++i) {
    measure::probe_server(vantage, servers[static_cast<std::size_t>(i) % servers.size()],
                          measure::ProbeOptions{}, [](const measure::ServerResult&) {});
    world.sim().run();
  }
  const double seconds = timer.seconds();
  const auto events = world.sim().events_processed() - events_before;
  return {seconds > 0.0 ? probes / seconds : 0.0,
          static_cast<double>(events) / probes};
}

int run_bench_json(const std::string& path) {
  constexpr std::uint64_t kBudget = 1'000'000;
  double events_per_sec = 0.0;
  for (int rep = 0; rep < 3; ++rep) {  // best-of-three squeezes out noise
    events_per_sec = std::max(events_per_sec, timer_events_per_sec(kBudget));
  }
  const auto [probes_per_sec, events_per_probe] = probe_throughput(400);

  bench::BenchJson json("netsim");
  json.add("sim_events_per_sec", events_per_sec, "events/s");
  json.add("probes_per_sec", probes_per_sec, "probes/s");
  json.add("sim_events_per_probe", events_per_probe, "events",
           /*guarded=*/true);
  std::printf("scheduler %.3g ev/s, %.3g probes/s, %.1f events/probe\n",
              events_per_sec, probes_per_sec, events_per_probe);
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
