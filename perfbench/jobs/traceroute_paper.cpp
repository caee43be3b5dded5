// traceroute_paper: the Figure 4 pipeline on one thread --
// World::run_traceroutes at paper shape (13 vantages x 2500 servers x
// repetitions) followed by analysis::analyze_hops. One job builds the
// world `setups` times (timing each build, keeping the last), then runs
// one traceroute pass on it.
#include <memory>
#include <sstream>

#include "common.hpp"
#include "ecnprobe/analysis/hops.hpp"
#include "ecnprobe/scenario/world.hpp"
#include "ecnprobe/util/rng.hpp"

namespace perfbench {
namespace {

constexpr int kRepetitions = 2;  ///< the paper's traceroutes per (vantage, server)
constexpr int kSetups = 9;       ///< world builds per job, each timed

}  // namespace

int run_traceroute_paper(const Args& args, Record& out) {
  SpanLog spans(args.trace);
  auto params = ecnprobe::scenario::WorldParams::paper();
  params.seed =
      ecnprobe::util::derive_seed(args.seed, "traceroute_paper/" + std::to_string(args.index));

  const int job = spans.open("job", -1, "traceroute_paper");
  std::vector<double> setup_s;
  std::unique_ptr<ecnprobe::scenario::World> world;
  for (int i = 0; i < kSetups; ++i) {
    world.reset();
    const auto start = Clock::now();
    const int span = spans.open("scenario.world_build", job, "setup=" + std::to_string(i));
    world = std::make_unique<ecnprobe::scenario::World>(params);
    spans.close(span);
    setup_s.push_back(since(start));
  }
  if (args.setup_only) {
    out.nums("setup_s", setup_s);
    return 0;
  }
  const double rss_after_setup = rss_mb();

  world->mark_obs_baseline();
  const std::size_t events_before = world->sim().events_processed();
  const auto start = Clock::now();
  const int pass = spans.open("traceroute.pass", job);
  std::vector<ecnprobe::measure::TracerouteObservation> observations;
  std::int64_t stalled = 0;
  try {
    observations = world->run_traceroutes(kRepetitions);
  } catch (const std::exception&) {
    // A stalled simulation loses the whole pass.
    stalled = 1;
  }
  spans.close(pass);
  const auto traced = Clock::now();
  const int analysis = spans.open("analysis.hops", job);
  const auto hops = ecnprobe::analysis::analyze_hops(observations, world->ip2as());
  spans.close(analysis);
  const auto end = Clock::now();
  spans.close(job);
  const auto delta = world->collect_obs_delta();

  std::int64_t responding = 0;
  for (const auto& observation : observations) responding += observation.path.responding_hops();

  // The analysis summary is the artefact the correctness gate digests.
  std::ostringstream summary;
  summary << "paths " << hops.paths << "\ntotal_hops " << hops.total_hops << "\npass_hops "
          << hops.pass_hops << "\nstrip_hops " << hops.strip_hops << "\nsometimes_strip "
          << hops.sometimes_strip << "\nce_marks_seen " << hops.ce_marks_seen
          << "\necn_unknown_hops " << hops.ecn_unknown_hops << "\nstrip_locations "
          << hops.strip_locations << "\nstrip_locations_at_boundary "
          << hops.strip_locations_at_boundary << "\nstrip_locations_unattributed "
          << hops.strip_locations_unattributed << "\nases_observed " << hops.ases_observed
          << "\nresponding_hops " << responding << "\n";
  if (!write_text(args.out + "/hops.txt", summary.str())) return 1;

  const auto vantages = static_cast<std::int64_t>(world->vantage_names().size());
  const auto servers = static_cast<std::int64_t>(params.server_count);
  const std::int64_t expected = vantages * servers * kRepetitions;
  out.integer("planned_items", expected);
  out.integer("items", static_cast<std::int64_t>(observations.size()));
  out.integer("stalled", stalled);
  out.integer("total_hops", static_cast<std::int64_t>(hops.total_hops));
  out.integer("responding_hops", responding);
  out.nums("setup_s", setup_s);
  out.nums("build_s", setup_s);
  out.integer("timed_items", static_cast<std::int64_t>(observations.size()));
  out.num("timed_s", seconds_between(start, end));
  out.num("latency_s", seconds_between(start, end));
  out.num("sim_s", seconds_between(start, traced));
  out.num("export_s", seconds_between(traced, end));
  out.num("rss_after_setup_mb", rss_after_setup);
  out.num("rss_end_mb", rss_mb());
  out.num("peak_rss_mb", peak_rss_mb());
  record_counts(out, layer_counts(delta));
  out.integer("sim_events_processed",
              static_cast<std::int64_t>(world->sim().events_processed() - events_before));
  out.integer("queue_high_water", static_cast<std::int64_t>(world->sim().events_high_water()));
  if (args.trace && !spans.write(args.out + "/spans.json")) return 1;
  return 0;
}

}  // namespace perfbench
