#include "ecnprobe/measure/campaign.hpp"

#include <gtest/gtest.h>

#include "ecnprobe/scenario/world.hpp"

namespace ecnprobe::measure {
namespace {

TEST(CampaignPlan, PaperLayoutTotals210) {
  const auto plan = CampaignPlan::paper_layout();
  EXPECT_EQ(plan.total_traces(), 210);
  // 4 home/campus vantages appear in both batches; 9 EC2 in batch 2 only.
  int batch1 = 0;
  int batch2 = 0;
  for (const auto& entry : plan.entries) {
    (entry.batch == 1 ? batch1 : batch2) += entry.count;
  }
  EXPECT_EQ(batch1, 36);
  EXPECT_EQ(batch2, 174);
}

TEST(CampaignPlan, VantageNamesMatchFigureOrder) {
  const auto& names = paper_vantage_names();
  ASSERT_EQ(names.size(), 13u);
  EXPECT_EQ(names.front(), "Perkins home");
  EXPECT_EQ(names.back(), "EC2 Vir");
}

TEST(CampaignPlan, ScheduleInterleavesVantagesBatchByBatch) {
  CampaignPlan plan;
  plan.entries.push_back({"EC2 Sin", 2, 1});
  plan.entries.push_back({"UGla wired", 1, 2});
  plan.entries.push_back({"Perkins home", 1, 1});
  const auto schedule = expand_schedule(plan);
  ASSERT_EQ(schedule.size(), 4u);
  EXPECT_EQ(schedule[0].vantage, "UGla wired");
  EXPECT_EQ(schedule[1].vantage, "Perkins home");
  EXPECT_EQ(schedule[2].vantage, "UGla wired");
  EXPECT_EQ(schedule[3].vantage, "EC2 Sin");
  EXPECT_EQ(schedule[2].batch, 1);
  EXPECT_EQ(schedule[3].batch, 2);
}

TEST(RunCampaign, RunsPlanAndStampsTraces) {
  auto params = scenario::WorldParams::small(11);
  params.server_count = 8;
  params.offline_prob = 0.0;
  scenario::World world(params);

  CampaignPlan plan;
  plan.entries.push_back({"UGla wired", 1, 2});
  plan.entries.push_back({"EC2 Sin", 2, 1});
  const auto traces = world.run_campaign(plan);

  ASSERT_EQ(traces.size(), 3u);
  EXPECT_EQ(traces[0].vantage, "UGla wired");
  EXPECT_EQ(traces[0].batch, 1);
  EXPECT_EQ(traces[1].vantage, "UGla wired");
  EXPECT_EQ(traces[2].vantage, "EC2 Sin");
  EXPECT_EQ(traces[2].batch, 2);
  // Indices are sequential.
  EXPECT_EQ(traces[0].index, 0);
  EXPECT_EQ(traces[1].index, 1);
  EXPECT_EQ(traces[2].index, 2);
  // The begin-trace epoch ran once per trace: its start counter is in the
  // campaign snapshot, per vantage.
  const auto& started = world.campaign_obs().metrics.families.at("campaign_traces_total");
  std::uint64_t total = 0;
  for (const auto& [labels, value] : started.samples) total += value.counter;
  EXPECT_EQ(total, 3u);
}

}  // namespace
}  // namespace ecnprobe::measure
