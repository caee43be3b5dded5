// Determinism regression harness for the campaign executor: the whole
// point of ParallelCampaign is that sharding traces across isolated
// per-worker worlds changes wall-clock time and nothing else.
// World::run_campaign (one worker on a lent, already-used world) and fresh
// clones at 1, 2, and 8 workers must agree to the byte, and a worker whose
// trace throws must neither lose nor duplicate anyone else's traces. The
// executor's own shape is pinned too: worker 0 is the calling thread, and
// an exception escaping any worker is rethrown from run() after every
// worker joined.
#include "ecnprobe/measure/parallel_campaign.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "ecnprobe/analysis/reachability.hpp"
#include "ecnprobe/measure/results.hpp"
#include "ecnprobe/obs/export.hpp"
#include "ecnprobe/scenario/world.hpp"

namespace ecnprobe::measure {
namespace {

scenario::WorldParams determinism_params() {
  auto p = scenario::WorldParams::small(77);
  p.server_count = 24;
  p.ect_udp_firewalled_servers = 2;
  p.ect_required_servers = 1;
  p.ec2_sensitive_servers = 1;
  p.offline_prob = 0.06;
  return p;
}

CampaignPlan mixed_plan() {
  CampaignPlan plan;
  plan.entries.push_back({"Perkins home", 1, 2});
  plan.entries.push_back({"McQuistin home", 1, 1});
  plan.entries.push_back({"UGla wless", 1, 1});
  plan.entries.push_back({"Perkins home", 2, 1});
  plan.entries.push_back({"EC2 Vir", 2, 2});
  plan.entries.push_back({"EC2 Tok", 2, 2});
  return plan;
}

std::string to_csv(const std::vector<Trace>& traces) {
  std::ostringstream os;
  write_traces_csv(os, traces);
  return os.str();
}

TEST(ParallelCampaign, ByteIdenticalToSequentialAt1And2And8Workers) {
  const auto params = determinism_params();
  const auto plan = mixed_plan();
  const ProbeOptions options;

  // The lent world has already run another campaign: the begin-trace epoch
  // reset must make that history invisible.
  scenario::World sequential_world(params);
  CampaignPlan warm_up;
  warm_up.entries.push_back({"EC2 Sao", 2, 2});
  ASSERT_EQ(sequential_world.run_campaign(warm_up, options).size(), 2u);
  const auto sequential = sequential_world.run_campaign(plan, options);
  ASSERT_EQ(static_cast<int>(sequential.size()), plan.total_traces());
  const auto sequential_csv = to_csv(sequential);
  const auto sequential_summary = analysis::summarize_reachability(sequential);

  for (const int workers : {1, 2, 8}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    const auto parallel = scenario::run_parallel_campaign(params, plan, options, workers);
    ASSERT_EQ(parallel.size(), sequential.size());

    // Plan-order merge: index, vantage, and batch line up trace for trace.
    for (std::size_t i = 0; i < parallel.size(); ++i) {
      EXPECT_EQ(parallel[i].index, sequential[i].index);
      EXPECT_EQ(parallel[i].vantage, sequential[i].vantage);
      EXPECT_EQ(parallel[i].batch, sequential[i].batch);
    }

    // The strong contract: the merged results CSV is byte-identical.
    EXPECT_EQ(to_csv(parallel), sequential_csv);

    // And so are the paper's headline numbers (Table 1 / Figure 2a inputs).
    const auto summary = analysis::summarize_reachability(parallel);
    EXPECT_DOUBLE_EQ(summary.mean_reachable_udp_plain,
                     sequential_summary.mean_reachable_udp_plain);
    EXPECT_DOUBLE_EQ(summary.mean_pct_ect_given_plain,
                     sequential_summary.mean_pct_ect_given_plain);
    EXPECT_DOUBLE_EQ(summary.mean_pct_plain_given_ect,
                     sequential_summary.mean_pct_plain_given_ect);
    EXPECT_DOUBLE_EQ(summary.pct_tcp_negotiating_ecn,
                     sequential_summary.pct_tcp_negotiating_ecn);
  }
}

TEST(ParallelCampaign, RepeatedParallelRunsAreIdentical) {
  const auto params = determinism_params();
  const auto plan = mixed_plan();
  const auto first = scenario::run_parallel_campaign(params, plan, {}, 4);
  const auto second = scenario::run_parallel_campaign(params, plan, {}, 4);
  EXPECT_EQ(to_csv(first), to_csv(second));
}

TEST(ParallelCampaign, ProgressCounterAndSerializedObserver) {
  const auto params = determinism_params();
  const auto plan = mixed_plan();

  ParallelCampaign::Options options;
  options.workers = 4;
  ParallelCampaign campaign(scenario::world_shard_factory(params), options);

  // The observer is serialized: with the mutex held by the executor, a
  // non-atomic counter must still end up exact.
  int observed = 0;
  std::set<int> observed_indices;
  campaign.set_observer([&](const std::string&, int, int index) {
    ++observed;
    observed_indices.insert(index);
  });

  EXPECT_EQ(campaign.traces_completed(), 0);
  const auto traces = campaign.run(plan);
  EXPECT_EQ(static_cast<int>(traces.size()), plan.total_traces());
  EXPECT_EQ(campaign.traces_completed(), plan.total_traces());
  EXPECT_EQ(observed, plan.total_traces());
  EXPECT_EQ(static_cast<int>(observed_indices.size()), plan.total_traces());
  EXPECT_TRUE(campaign.failures().empty());
}

// The observability half of the determinism contract: the campaign-scoped
// metrics + drop-ledger snapshot -- merged from per-trace shard deltas in
// plan order -- must encode to the same JSON bytes as the sequential
// World's accumulation, at any worker count.
TEST(ParallelCampaign, MetricsByteIdenticalToSequential) {
  const auto params = determinism_params();
  const auto plan = mixed_plan();
  const ProbeOptions options;

  scenario::World sequential_world(params);
  sequential_world.run_campaign(plan, options);
  const auto& sequential_obs = sequential_world.campaign_obs();
  const auto sequential_json = obs::to_json(sequential_obs);

  // The campaign must actually have produced substance to compare: packet
  // counters, probe counters, and attributed drops.
  ASSERT_TRUE(sequential_obs.metrics.families.contains("net_packets_transmitted_total"));
  ASSERT_TRUE(sequential_obs.metrics.families.contains("probe_udp_total"));
  ASSERT_GT(sequential_obs.ledger.total_drops(), 0u);

  for (const int workers : {1, 2, 8}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    ParallelCampaign::Options exec;
    exec.workers = workers;
    exec.probe = options;
    ParallelCampaign campaign(scenario::world_shard_factory(params), exec);
    campaign.run(plan);
    ASSERT_TRUE(campaign.failures().empty());
    EXPECT_EQ(obs::to_json(campaign.metrics()), sequential_json);
  }
}

// Loss-autopsy reconciliation: every failed probe in the merged traces has
// exactly one measure-layer probe-timeout ledger entry, so the autopsy
// table's bottom line explains Figure 2's unreachable cells one for one.
TEST(ParallelCampaign, ProbeTimeoutsReconcileWithFailedProbes) {
  const auto params = determinism_params();
  const auto plan = mixed_plan();

  ParallelCampaign::Options exec;
  exec.workers = 4;
  ParallelCampaign campaign(scenario::world_shard_factory(params), exec);
  const auto traces = campaign.run(plan);
  ASSERT_TRUE(campaign.failures().empty());

  std::uint64_t failed_probes = 0;
  for (const auto& trace : traces) {
    for (const auto& server : trace.servers) {
      failed_probes += !server.udp_plain.reachable;
      failed_probes += !server.udp_ect0.reachable;
      failed_probes += !server.tcp_plain.connected;
      failed_probes += !server.tcp_ecn.connected;
    }
  }
  ASSERT_GT(failed_probes, 0u);
  EXPECT_EQ(campaign.metrics().ledger.drops_for_cause("probe-timeout"), failed_probes);
}

// Runtime (executor) metrics are intentionally separate from the
// deterministic campaign snapshot, but their totals must still add up.
TEST(ParallelCampaign, RuntimeMetricsAccountForEveryTrace) {
  const auto params = determinism_params();
  const auto plan = mixed_plan();

  ParallelCampaign::Options exec;
  exec.workers = 4;
  ParallelCampaign campaign(scenario::world_shard_factory(params), exec);
  campaign.run(plan);

  const auto progress = campaign.progress();
  EXPECT_EQ(progress.total, plan.total_traces());
  EXPECT_EQ(progress.completed, plan.total_traces());
  EXPECT_EQ(progress.failed, 0);
  EXPECT_EQ(progress.in_flight, 0);
  int by_vantage = 0;
  for (const auto& [vantage, count] : progress.completed_by_vantage) by_vantage += count;
  EXPECT_EQ(by_vantage, plan.total_traces());

  const auto runtime = campaign.runtime_metrics();
  ASSERT_TRUE(runtime.families.contains("worker_traces_total"));
  std::uint64_t claimed = 0;
  for (const auto& [labels, value] : runtime.families.at("worker_traces_total").samples) {
    claimed += value.counter;
  }
  EXPECT_EQ(claimed, static_cast<std::uint64_t>(plan.total_traces()));
}

// Concurrency stress: a world where the greylisting and rate-limiting
// failure-injection machinery fires constantly, plus traces that throw
// mid-campaign from several workers at once. No trace may be lost or
// duplicated, and the failed ones must be reported, not silently dropped.
TEST(ParallelCampaign, StressNoLostOrDuplicatedTracesWhenWorkersThrow) {
  auto params = scenario::WorldParams::small(91);
  params.server_count = 16;
  params.greylist_flaky_prob = 0.25;  // constant warm-up churn (Figure 2b)
  params.greylist_dead_prob = 0.05;   // wedged firewalls
  params.rate_limited_fraction = 0.3; // heavy NTP rate limiting
  params.offline_prob = 0.15;         // heavy failure injection
  CampaignPlan plan;
  plan.entries.push_back({"Perkins home", 1, 4});
  plan.entries.push_back({"UGla wired", 1, 4});
  plan.entries.push_back({"EC2 Sin", 2, 4});
  plan.entries.push_back({"EC2 Sao", 2, 4});
  const int total = plan.total_traces();

  const std::set<int> poisoned = {1, 5, 11};
  ParallelCampaign::Options options;
  options.workers = 8;
  ParallelCampaign campaign(scenario::world_shard_factory(params), options);
  campaign.set_observer([&](const std::string&, int, int index) {
    if (poisoned.contains(index)) {
      throw std::runtime_error("injected failure for trace " + std::to_string(index));
    }
  });

  const auto traces = campaign.run(plan);
  EXPECT_EQ(static_cast<int>(traces.size()), total - static_cast<int>(poisoned.size()));
  EXPECT_EQ(campaign.traces_completed(), total - static_cast<int>(poisoned.size()));

  // No duplicates, no resurrections of poisoned traces, order preserved.
  std::set<int> seen;
  int last_index = -1;
  for (const auto& trace : traces) {
    EXPECT_TRUE(seen.insert(trace.index).second) << "duplicate trace " << trace.index;
    EXPECT_FALSE(poisoned.contains(trace.index)) << "poisoned trace survived";
    EXPECT_GT(trace.index, last_index) << "merge order broken";
    last_index = trace.index;
    EXPECT_EQ(trace.servers.size(), static_cast<std::size_t>(params.server_count));
  }

  ASSERT_EQ(campaign.failures().size(), poisoned.size());
  for (const auto& failure : campaign.failures()) {
    EXPECT_TRUE(poisoned.contains(failure.index));
    EXPECT_NE(failure.message.find("injected failure"), std::string::npos);
  }

  // The surviving traces still match a clean sequential run of the same
  // seed: a neighbour's crash must not perturb anyone else's results.
  scenario::World reference_world(params);
  const auto reference = reference_world.run_campaign(plan);
  ASSERT_EQ(static_cast<int>(reference.size()), total);
  std::ostringstream expected;
  std::vector<Trace> kept;
  for (const auto& trace : reference) {
    if (!poisoned.contains(trace.index)) kept.push_back(trace);
  }
  write_traces_csv(expected, kept);
  EXPECT_EQ(to_csv(traces), expected.str());
}

// Lending a world: worker 0 runs on the caller's own world, the other
// workers on clones of it. The merged outputs equal a run over fresh
// clones only, to the byte.
TEST(ParallelCampaign, LentWorldByteIdenticalToClones) {
  const auto params = determinism_params();
  const auto plan = mixed_plan();

  obs::ObsSnapshot cloned_obs;
  const auto cloned =
      scenario::run_parallel_campaign(params, plan, {}, 2, nullptr, &cloned_obs);
  ASSERT_EQ(static_cast<int>(cloned.size()), plan.total_traces());

  scenario::World world(params);
  ParallelCampaign lent(scenario::world_shard_factory(world),
                        scenario::campaign_options(params, {}, 2));
  const auto traces = lent.run(plan);
  ASSERT_TRUE(lent.failures().empty());
  EXPECT_EQ(to_csv(traces), to_csv(cloned));
  EXPECT_EQ(obs::to_json(lent.metrics()), obs::to_json(cloned_obs));
}

/// Forwards to a WorldShard and records the thread of every call the
/// executor makes into it.
class ThreadRecordingShard final : public CampaignShard {
public:
  ThreadRecordingShard(std::unique_ptr<CampaignShard> inner, std::vector<std::thread::id>& seen)
      : inner_(std::move(inner)), seen_(seen) {}

  netsim::Simulator& sim() override { return inner_->sim(); }
  std::map<std::string, Vantage*> vantages() override { return inner_->vantages(); }
  std::vector<wire::Ipv4Address> servers() override { return inner_->servers(); }
  void begin_trace(const std::string& vantage, int batch, int index) override {
    seen_.push_back(std::this_thread::get_id());
    inner_->begin_trace(vantage, batch, index);
  }
  obs::ObsSnapshot collect_trace_metrics() override {
    seen_.push_back(std::this_thread::get_id());
    return inner_->collect_trace_metrics();
  }

private:
  std::unique_ptr<CampaignShard> inner_;
  std::vector<std::thread::id>& seen_;
};

TEST(ParallelCampaign, OneWorkerRunsOnTheCallingThread) {
  const auto params = determinism_params();
  const auto plan = mixed_plan();
  auto base = scenario::world_shard_factory(params);
  std::vector<std::thread::id> seen;
  int built = 0;
  ParallelCampaign::Options exec;
  exec.workers = 1;
  ParallelCampaign campaign(
      [&](int worker) -> std::unique_ptr<CampaignShard> {
        ++built;
        seen.push_back(std::this_thread::get_id());
        return std::make_unique<ThreadRecordingShard>(base(worker), seen);
      },
      exec);
  const auto traces = campaign.run(plan);
  EXPECT_EQ(static_cast<int>(traces.size()), plan.total_traces());
  EXPECT_EQ(built, 1);
  // The factory call, then begin_trace and collect_trace_metrics per trace.
  ASSERT_EQ(seen.size(), 1u + 2u * static_cast<std::size_t>(plan.total_traces()));
  for (const auto& id : seen) EXPECT_EQ(id, std::this_thread::get_id());
}

/// Not derived from std::exception: the executor cannot quarantine it as a
/// trace failure and must hand it to run()'s caller.
struct NotAStdException {
  int worker;
};

/// Worker 0's shard throws NotAStdException from its first begin_trace;
/// every other worker's shard stays busy a while on each trace. Live shards
/// are counted, so a test can see whether every worker had finished (and
/// destroyed its shard) by the time run() threw.
class NonStdThrowingShard final : public CampaignShard {
public:
  NonStdThrowingShard(std::unique_ptr<CampaignShard> inner, int worker, std::atomic<int>& live)
      : inner_(std::move(inner)), worker_(worker), live_(live) {
    live_.fetch_add(1);
  }
  ~NonStdThrowingShard() override { live_.fetch_sub(1); }
  NonStdThrowingShard(const NonStdThrowingShard&) = delete;
  NonStdThrowingShard& operator=(const NonStdThrowingShard&) = delete;

  netsim::Simulator& sim() override { return inner_->sim(); }
  std::map<std::string, Vantage*> vantages() override { return inner_->vantages(); }
  std::vector<wire::Ipv4Address> servers() override { return inner_->servers(); }
  void begin_trace(const std::string& vantage, int batch, int index) override {
    if (worker_ == 0) throw NotAStdException{worker_};
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    inner_->begin_trace(vantage, batch, index);
  }

private:
  std::unique_ptr<CampaignShard> inner_;
  int worker_;
  std::atomic<int>& live_;
};

TEST(ParallelCampaign, NonStdExceptionRethrownAfterEveryWorkerJoined) {
  const auto params = determinism_params();
  const auto plan = mixed_plan();
  for (const int workers : {1, 2}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    auto base = scenario::world_shard_factory(params);
    std::atomic<int> live{0};
    ParallelCampaign::Options exec;
    exec.workers = workers;
    ParallelCampaign campaign(
        [&](int worker) -> std::unique_ptr<CampaignShard> {
          return std::make_unique<NonStdThrowingShard>(base(worker), worker, live);
        },
        exec);
    bool caught = false;
    try {
      campaign.run(plan);
    } catch (const NotAStdException& e) {
      caught = true;
      EXPECT_EQ(e.worker, 0);
      // Worker 1 was still working through the rest of the plan when
      // worker 0 threw; run() must have waited for it.
      EXPECT_EQ(live.load(), 0) << "run() threw before every worker finished";
    }
    EXPECT_TRUE(caught);
    // The survivor finished every trace it claimed; only the poisoned
    // claim is missing.
    EXPECT_EQ(campaign.traces_completed(), workers == 1 ? 0 : plan.total_traces() - 1);
  }
}

// An unknown vantage is one failed trace, not a failed campaign: it lands
// in failures() and yields no trace result.
TEST(ParallelCampaign, UnknownVantageIsQuarantined) {
  auto params = scenario::WorldParams::small(12);
  params.server_count = 4;
  CampaignPlan plan;
  plan.entries.push_back({"UGla wired", 1, 1});
  plan.entries.push_back({"Atlantis", 1, 1});
  ParallelCampaign campaign(scenario::world_shard_factory(params),
                            scenario::campaign_options(params, {}, 1));
  const auto traces = campaign.run(plan);
  ASSERT_EQ(traces.size(), 1u);
  EXPECT_EQ(traces[0].vantage, "UGla wired");
  ASSERT_EQ(campaign.failures().size(), 1u);
  EXPECT_EQ(campaign.failures()[0].index, 1);
  EXPECT_EQ(campaign.failures()[0].vantage, "Atlantis");
  EXPECT_NE(campaign.failures()[0].message.find("unknown vantage"), std::string::npos);
}

}  // namespace
}  // namespace ecnprobe::measure
