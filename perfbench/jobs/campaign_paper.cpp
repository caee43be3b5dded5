// campaign_paper: the paper-shape campaign through the public executor --
// WorldParams::paper(), CampaignPlan::for_scale(1.0, N), ParallelCampaign
// over world_shard_factory, then write_traces_csv and write_metrics_files
// as the CLI runs them. One job is one campaign in a fresh process.
//
// Traced jobs wrap every worker's scenario::WorldShard in a forwarding
// measure::CampaignShard that records spans around each call the executor
// makes into it.
#include <algorithm>
#include <fstream>
#include <memory>
#include <sstream>

#include "common.hpp"
#include "ecnprobe/measure/parallel_campaign.hpp"
#include "ecnprobe/measure/results.hpp"
#include "ecnprobe/obs/export.hpp"
#include "ecnprobe/scenario/world.hpp"
#include "ecnprobe/util/rng.hpp"

namespace perfbench {
namespace {

using ecnprobe::measure::CampaignShard;
using ecnprobe::measure::ParallelCampaign;

constexpr int kTraces = 13;       ///< one per vantage: for_scale(1.0, 13)
constexpr int kWorkers = 2;
constexpr int kSetups = 5;        ///< set-up samples per job
constexpr int kSliceTraces = 2;   ///< exact-count self-check slice

/// Shard-side accounting shared by the factory and the traced shards.
struct ShardStats {
  std::mutex mutex;
  int built = 0;
  Clock::time_point last_built;
  std::vector<double> build_s;
  double rss_after_setup_mb = 0;
  std::size_t events_processed = 0;
  std::size_t queue_high_water = 0;
};

/// Forwards every CampaignShard call to the worker's WorldShard and records
/// spans around them. The executor's call order per trace is begin_trace,
/// (simulation), collect_trace_metrics, collect_trace_events, so:
///   measure.trace          begin_trace entry .. collect_trace_events exit
///     scenario.begin_trace   the begin_trace call
///     measure.trace_sim      begin_trace exit .. collect_trace_metrics entry
///     obs.collect            collect_trace_metrics + collect_trace_events
///   measure.between_traces collect_trace_events exit .. next begin_trace
///                          (journal, commit/merge, claim)
class TracedShard final : public CampaignShard {
 public:
  TracedShard(std::unique_ptr<CampaignShard> inner, SpanLog& spans, ShardStats& stats,
              int parent, int worker)
      : inner_(std::move(inner)),
        spans_(spans),
        stats_(stats),
        parent_(parent),
        worker_key_("worker=" + std::to_string(worker)) {}
  /// The executor destroys each worker's shard before run() returns; the
  /// simulator counts are handed over here.
  ~TracedShard() override {
    spans_.discard(between_);
    std::lock_guard<std::mutex> lock(stats_.mutex);
    stats_.events_processed += events_processed_;
    stats_.queue_high_water = std::max(stats_.queue_high_water, queue_high_water_);
  }
  TracedShard(const TracedShard&) = delete;
  TracedShard& operator=(const TracedShard&) = delete;

  ecnprobe::netsim::Simulator& sim() override { return inner_->sim(); }
  std::map<std::string, ecnprobe::measure::Vantage*> vantages() override {
    return inner_->vantages();
  }
  std::vector<ecnprobe::wire::Ipv4Address> servers() override { return inner_->servers(); }

  void begin_trace(const std::string& vantage, int batch, int index) override {
    spans_.close(between_);
    between_ = -1;
    const std::string key = "trace=" + std::to_string(index);
    trace_ = spans_.open("measure.trace", parent_, key);
    const int begin = spans_.open("scenario.begin_trace", trace_, key);
    inner_->begin_trace(vantage, batch, index);
    spans_.close(begin);
    events_at_begin_ = inner_->sim().events_processed();
    sim_ = spans_.open("measure.trace_sim", trace_, key);
  }

  ecnprobe::obs::ObsSnapshot collect_trace_metrics() override {
    spans_.close(sim_);
    sim_ = -1;
    events_processed_ += inner_->sim().events_processed() - events_at_begin_;
    queue_high_water_ = std::max(queue_high_water_, inner_->sim().events_high_water());
    collect_ = spans_.open("obs.collect", trace_);
    return inner_->collect_trace_metrics();
  }

  std::vector<ecnprobe::obs::FlightEvent> collect_trace_events() override {
    auto events = inner_->collect_trace_events();
    spans_.close(collect_);
    spans_.close(trace_);
    collect_ = trace_ = -1;
    between_ = spans_.open("measure.between_traces", parent_, worker_key_);
    return events;
  }

  void quarantine_trace(const std::string& vantage, int batch, int index) override {
    inner_->quarantine_trace(vantage, batch, index);
  }
  ecnprobe::sched::GroupResolver breaker_group() override { return inner_->breaker_group(); }

 private:
  std::unique_ptr<CampaignShard> inner_;
  SpanLog& spans_;
  ShardStats& stats_;
  int parent_;
  std::string worker_key_;
  int trace_ = -1;
  int sim_ = -1;
  int collect_ = -1;
  int between_ = -1;
  std::size_t events_at_begin_ = 0;
  std::size_t events_processed_ = 0;
  std::size_t queue_high_water_ = 0;
};

ecnprobe::scenario::WorldParams campaign_params(const Args& args) {
  auto params = ecnprobe::scenario::WorldParams::paper();
  params.seed =
      ecnprobe::util::derive_seed(args.seed, "campaign_paper/" + std::to_string(args.index));
  return params;
}

struct CampaignOutcome {
  std::vector<ecnprobe::measure::Trace> traces;
  ecnprobe::obs::ObsSnapshot metrics;
  ecnprobe::obs::MetricsSnapshot runtime;
  std::size_t failures = 0;
};

/// Runs `plan` on `workers` shards built from `params`. With `spans`
/// enabled the shards are traced; `stats` receives build times and the
/// traced shards' simulator counts.
CampaignOutcome run_campaign(const ecnprobe::scenario::WorldParams& params,
                             const ecnprobe::measure::CampaignPlan& plan, int workers,
                             SpanLog& spans, int parent, ShardStats& stats) {
  ParallelCampaign::Options exec;
  exec.workers = workers;
  exec.telemetry = params.telemetry.resolved(params.seed);
  auto base = ecnprobe::scenario::world_shard_factory(params);
  auto factory = [&](int worker) -> std::unique_ptr<CampaignShard> {
    const auto start = Clock::now();
    const int span =
        spans.open("scenario.world_build", parent, "worker=" + std::to_string(worker));
    auto shard = base(worker);
    spans.close(span);
    {
      std::lock_guard<std::mutex> lock(stats.mutex);
      stats.build_s.push_back(since(start));
      stats.last_built = Clock::now();
      if (++stats.built == workers) stats.rss_after_setup_mb = rss_mb();
    }
    if (!spans.enabled()) return shard;
    return std::make_unique<TracedShard>(std::move(shard), spans, stats, parent, worker);
  };
  ParallelCampaign campaign(factory, exec);
  CampaignOutcome outcome;
  outcome.traces = campaign.run(plan);
  outcome.metrics = campaign.metrics();
  outcome.runtime = campaign.runtime_metrics();
  outcome.failures = campaign.failures().size();
  return outcome;
}

}  // namespace

int run_campaign_paper(const Args& args, Record& out) {
  SpanLog spans(args.trace);
  const auto params = campaign_params(args);
  const auto plan = ecnprobe::measure::CampaignPlan::for_scale(1.0, kTraces);

  // Extra set-up samples: run() on an empty plan builds every worker's
  // shard and returns.
  std::vector<double> setup_s;
  std::vector<double> build_s;
  for (int i = 0; i + 1 < kSetups; ++i) {
    SpanLog off(false);
    ShardStats setup;
    const auto start = Clock::now();
    run_campaign(params, {}, kWorkers, off, -1, setup);
    setup_s.push_back(seconds_between(start, setup.last_built));
    build_s.insert(build_s.end(), setup.build_s.begin(), setup.build_s.end());
  }
  if (args.setup_only) {
    out.nums("setup_s", setup_s);
    return 0;
  }

  ShardStats stats;
  const auto run_start = Clock::now();
  const int job = spans.open("job", -1, "campaign_paper");
  const int run = spans.open("measure.campaign_run", job);
  auto outcome = run_campaign(params, plan, kWorkers, spans, run, stats);
  spans.close(run);
  const auto run_end = Clock::now();

  // Exports exactly as `ecnprobe campaign --workers N --out --metrics-out`.
  const int csv_span = spans.open("measure.csv_write", job);
  {
    std::ofstream os(args.out + "/traces.csv", std::ios::binary | std::ios::trunc);
    ecnprobe::measure::write_traces_csv(os, outcome.traces);
    os.flush();
    if (!os.good()) return 1;
  }
  spans.close(csv_span);
  const int export_span = spans.open("obs.export", job);
  if (!ecnprobe::obs::write_metrics_files(args.out + "/metrics.json", outcome.metrics,
                                          &outcome.runtime)) {
    return 1;
  }
  spans.close(export_span);
  const auto export_end = Clock::now();
  spans.close(job);
  // The runtime section is wall-clock noise; the correctness gate digests
  // the deterministic campaign document.
  if (!write_text(args.out + "/metrics.campaign.json",
                  ecnprobe::obs::render_metrics_report_json(outcome.metrics, nullptr))) {
    return 1;
  }
  const double rss_end = rss_mb();

  const auto servers = static_cast<std::int64_t>(params.server_count);
  const auto planned = static_cast<std::int64_t>(plan.total_traces());
  out.integer("servers", servers);
  out.integer("planned_traces", planned);
  out.integer("traces", static_cast<std::int64_t>(outcome.traces.size()));
  out.integer("quarantined", static_cast<std::int64_t>(outcome.failures));
  out.integer("items", static_cast<std::int64_t>(outcome.traces.size()) * servers);
  std::int64_t rows_ok = 1;
  for (const auto& trace : outcome.traces) {
    if (static_cast<std::int64_t>(trace.servers.size()) != servers) rows_ok = 0;
  }
  out.integer("servers_per_trace_ok", rows_ok);
  setup_s.push_back(seconds_between(run_start, stats.last_built));
  build_s.insert(build_s.end(), stats.build_s.begin(), stats.build_s.end());
  out.nums("setup_s", setup_s);
  out.nums("build_s", build_s);
  out.integer("timed_items", static_cast<std::int64_t>(outcome.traces.size()) * servers);
  out.num("timed_s", seconds_between(stats.last_built, export_end));
  out.num("latency_s", seconds_between(run_start, export_end));
  out.num("export_s", seconds_between(run_end, export_end));
  out.num("rss_after_setup_mb", stats.rss_after_setup_mb);
  out.num("rss_end_mb", rss_end);
  out.num("peak_rss_mb", peak_rss_mb());
  record_counts(out, layer_counts(outcome.metrics));
  if (args.trace) {
    out.integer("sim_events_processed", static_cast<std::int64_t>(stats.events_processed));
    out.integer("queue_high_water", static_cast<std::int64_t>(stats.queue_high_water));
    if (!spans.write(args.out + "/spans.json")) return 1;
  }
  return 0;
}

int run_campaign_slice(const Args& args, Record& out) {
  // Self-check of the exact counts: the same small paper-world slice at 1
  // and at 2 workers must agree on every count, the CSV and the metrics.
  const auto params = campaign_params(args);
  const auto plan = ecnprobe::measure::CampaignPlan::for_scale(1.0, kSliceTraces);
  std::string documents[2];
  LayerCounts counts[2];
  std::size_t high_water[2] = {0, 0};
  for (int workers = 1; workers <= 2; ++workers) {
    SpanLog spans(true);
    ShardStats stats;
    auto outcome = run_campaign(params, plan, workers, spans, -1, stats);
    std::ostringstream csv;
    ecnprobe::measure::write_traces_csv(csv, outcome.traces);
    documents[workers - 1] =
        csv.str() + ecnprobe::obs::render_metrics_report_json(outcome.metrics, nullptr);
    counts[workers - 1] = layer_counts(outcome.metrics);
    high_water[workers - 1] = stats.queue_high_water;
  }
  const bool same_counts = counts[0] == counts[1] && high_water[0] == high_water[1];
  out.integer("slice_traces", plan.total_traces());
  out.integer("counts_equal", same_counts ? 1 : 0);
  out.integer("artefacts_equal", documents[0] == documents[1] ? 1 : 0);
  record_counts(out, counts[0]);
  out.integer("queue_high_water", static_cast<std::int64_t>(high_water[0]));
  return 0;
}

}  // namespace perfbench
