// Tentpole robustness properties: fault-injected campaigns stay
// byte-identical across executors, checkpointed campaigns resume
// byte-identically after a simulated crash, and poisoned traces are
// quarantined with drop-ledger attribution instead of aborting the run.
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "ecnprobe/analysis/hops.hpp"
#include "ecnprobe/measure/journal.hpp"
#include "ecnprobe/obs/codec.hpp"
#include "ecnprobe/scenario/world.hpp"

namespace ecnprobe::scenario {
namespace {

std::string campaign_csv(const std::vector<measure::Trace>& traces) {
  std::ostringstream os;
  measure::write_traces_csv(os, traces);
  return os.str();
}

WorldParams chaos_params() {
  auto params = WorldParams::small(77);
  params.server_count = 8;
  params.faults = *chaos::FaultPlan::parse("wan-chaos,chaos-links=2");
  return params;
}

measure::CampaignPlan plan_of(int per_vantage) {
  measure::CampaignPlan plan;
  plan.entries.push_back({"UGla wired", 1, per_vantage});
  plan.entries.push_back({"EC2 Vir", 1, per_vantage});
  plan.entries.push_back({"McQuistin home", 2, per_vantage});
  return plan;
}

measure::JournalMeta meta_for(const WorldParams& params,
                              const measure::CampaignPlan& plan) {
  measure::JournalMeta meta;
  meta.plan = measure::plan_fingerprint(plan);
  meta.faults = params.faults.fingerprint();
  meta.seed = params.seed;
  meta.total_traces = plan.total_traces();
  meta.server_count = params.server_count;
  return meta;
}

struct TempFile {
  std::string path;
  explicit TempFile(const std::string& name) {
    path = ::testing::TempDir() + "/" + name;
    std::remove(path.c_str());
  }
  ~TempFile() { std::remove(path.c_str()); }
};

TEST(WorldChaos, FaultedCampaignByteIdenticalAcrossWorkers) {
  const auto params = chaos_params();
  const auto plan = plan_of(2);

  World world(params);
  const auto seq = world.run_campaign(plan);
  const auto seq_csv = campaign_csv(seq);
  const auto seq_obs = obs::encode_obs(world.campaign_obs());

  // Same (profile, seed) reruns to the same bytes...
  World again(params);
  EXPECT_EQ(campaign_csv(again.run_campaign(plan)), seq_csv);
  EXPECT_EQ(obs::encode_obs(again.campaign_obs()), seq_obs);

  // ...and sharding must not change a single byte, results or metrics.
  for (const int workers : {2, 8}) {
    obs::ObsSnapshot par_obs;
    const auto par = run_parallel_campaign(params, plan, {}, workers, nullptr, &par_obs);
    EXPECT_EQ(campaign_csv(par), seq_csv) << workers << " workers";
    EXPECT_EQ(obs::encode_obs(par_obs), seq_obs) << workers << " workers";
  }
}

TEST(WorldChaos, SequentialResumeAfterCrashByteIdentical) {
  const auto params = chaos_params();
  const auto plan = plan_of(10);  // 30 traces
  const auto meta = meta_for(params, plan);

  World baseline_world(params);
  const auto baseline = baseline_world.run_campaign(plan);
  const auto baseline_csv = campaign_csv(baseline);
  const auto baseline_obs = obs::encode_obs(baseline_world.campaign_obs());

  for (const int kill_after : {1, 13, 29}) {
    TempFile file("chaos_seq_resume_" + std::to_string(kill_after));
    std::string error;
    {
      // The "crashed" run: journals every completed trace, halts mid-plan.
      measure::CampaignJournal journal;
      ASSERT_TRUE(journal.open(file.path, meta, &error)) << error;
      World world(params);
      const auto partial =
          world.run_campaign(plan, {}, &journal, kill_after);
      EXPECT_EQ(partial.size(), static_cast<std::size_t>(kill_after));
      EXPECT_EQ(journal.entries().size(), static_cast<std::size_t>(kill_after));
    }
    // The resumed run: replays the journal, runs the remainder live.
    measure::CampaignJournal journal;
    ASSERT_TRUE(journal.open(file.path, meta, &error)) << error;
    EXPECT_EQ(journal.entries().size(), static_cast<std::size_t>(kill_after));
    World world(params);
    const auto resumed = world.run_campaign(plan, {}, &journal);
    EXPECT_EQ(campaign_csv(resumed), baseline_csv) << "kill after " << kill_after;
    EXPECT_EQ(obs::encode_obs(world.campaign_obs()), baseline_obs)
        << "kill after " << kill_after;
  }
}

TEST(WorldChaos, ParallelResumeAfterCrashByteIdentical) {
  const auto params = chaos_params();
  const auto plan = plan_of(10);  // 30 traces
  const auto meta = meta_for(params, plan);
  const int workers = 4;

  obs::ObsSnapshot baseline_obs;
  const auto baseline =
      run_parallel_campaign(params, plan, {}, workers, nullptr, &baseline_obs);
  const auto baseline_csv = campaign_csv(baseline);

  for (const int kill_after : {1, 13, 29}) {
    TempFile file("chaos_par_resume_" + std::to_string(kill_after));
    std::string error;
    {
      measure::CampaignJournal journal;
      ASSERT_TRUE(journal.open(file.path, meta, &error)) << error;
      (void)run_parallel_campaign(params, plan, {}, workers, nullptr, nullptr,
                                  &journal, kill_after);
      // Which traces got claimed before the halt is scheduling-dependent,
      // but at least the halt quota must have been journaled.
      EXPECT_GE(journal.entries().size(), static_cast<std::size_t>(kill_after));
      EXPECT_LT(journal.entries().size(), static_cast<std::size_t>(plan.total_traces()));
    }
    measure::CampaignJournal journal;
    ASSERT_TRUE(journal.open(file.path, meta, &error)) << error;
    obs::ObsSnapshot resumed_obs;
    const auto resumed = run_parallel_campaign(params, plan, {}, workers, nullptr,
                                               &resumed_obs, &journal);
    EXPECT_EQ(campaign_csv(resumed), baseline_csv) << "kill after " << kill_after;
    EXPECT_EQ(obs::encode_obs(resumed_obs), obs::encode_obs(baseline_obs))
        << "kill after " << kill_after;
  }
}

TEST(WorldChaos, PoisonedTraceQuarantinedOthersUnaffected) {
  auto params = WorldParams::small(91);
  params.server_count = 10;
  const auto plan = plan_of(2);  // 6 traces

  World clean_world(params);
  const auto clean = clean_world.run_campaign(plan);
  ASSERT_EQ(clean.size(), 6u);

  auto poisoned_params = params;
  poisoned_params.faults = *chaos::FaultPlan::parse("none,poison=3");
  World world(poisoned_params);
  std::vector<measure::TraceFailure> failures;
  const auto traces = world.run_campaign(plan, {}, nullptr, 0, &failures);

  // The poisoned trace is quarantined and attributed, not fatal.
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_EQ(failures[0].index, 3);
  EXPECT_NE(failures[0].message.find("poison"), std::string::npos);
  EXPECT_EQ(world.campaign_obs().ledger.drops_for_cause("trace-quarantined"), 1u);

  // Every surviving trace is byte-identical to its fault-free counterpart.
  ASSERT_EQ(traces.size(), clean.size() - 1);
  std::vector<measure::Trace> clean_minus;
  for (const auto& trace : clean) {
    if (trace.index != 3) clean_minus.push_back(trace);
  }
  EXPECT_EQ(campaign_csv(traces), campaign_csv(clean_minus));

  // The sharded executor quarantines the same trace and produces the same
  // bytes, results and observability alike.
  std::vector<measure::TraceFailure> par_failures;
  obs::ObsSnapshot par_obs;
  const auto par = run_parallel_campaign(poisoned_params, plan, {}, 2, &par_failures,
                                         &par_obs);
  EXPECT_EQ(campaign_csv(par), campaign_csv(traces));
  ASSERT_EQ(par_failures.size(), 1u);
  EXPECT_EQ(par_failures[0].index, 3);
  EXPECT_EQ(obs::encode_obs(par_obs), obs::encode_obs(world.campaign_obs()));
}

TEST(WorldChaos, TruncatedQuotesReadAsUnknownNotBleached) {
  auto params = WorldParams::small(5);
  params.server_count = 10;
  params.faults = *chaos::FaultPlan::parse(
      "icmp-degraded,icmp-blackhole-routers=0,quote-truncate-links=12,"
      "quote-truncate-prob=1.0");
  World world(params);
  const auto observations = world.run_traceroutes(1);

  int truncated_hops = 0;
  for (const auto& obs : observations) {
    for (const auto& hop : obs.path.hops) {
      if (!hop.responded || !hop.quote_truncated) continue;
      ++truncated_hops;
      // A truncated quote means the ECN field was never observed: the hop
      // must not read as intact *or* bleached.
      EXPECT_FALSE(hop.ecn_known);
      EXPECT_FALSE(hop.ecn_intact());
    }
  }
  ASSERT_GT(truncated_hops, 0) << "fault plan injected no truncations";

  const auto hops = analysis::analyze_hops(observations, world.ip2as());
  EXPECT_GT(hops.ecn_unknown_hops, 0u);
  EXPECT_GT(hops.total_hops, 0u);
}

}  // namespace
}  // namespace ecnprobe::scenario
