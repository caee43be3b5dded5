#include "ecnprobe/measure/campaign.hpp"

#include <algorithm>
#include <stdexcept>

namespace ecnprobe::measure {

int CampaignPlan::total_traces() const {
  int total = 0;
  for (const auto& entry : entries) total += entry.count;
  return total;
}

const std::vector<std::string>& paper_vantage_names() {
  static const std::vector<std::string> kNames = {
      "Perkins home", "McQuistin home", "UGla wired", "UGla wless",
      "EC2 Cal",      "EC2 Fra",        "EC2 Ire",    "EC2 Ore",
      "EC2 Sao",      "EC2 Sin",        "EC2 Syd",    "EC2 Tok",
      "EC2 Vir",
  };
  return kNames;
}

CampaignPlan CampaignPlan::paper_layout(int home_batch1, int home_batch2, int ec2_traces) {
  // 4 home/campus vantages x (9 + 12) + 9 EC2 regions x 14 = 84 + 126 = 210.
  CampaignPlan plan;
  const auto& names = paper_vantage_names();
  for (int i = 0; i < 4; ++i) {
    plan.entries.push_back({names[static_cast<std::size_t>(i)], 1, home_batch1});
  }
  for (int i = 0; i < 4; ++i) {
    plan.entries.push_back({names[static_cast<std::size_t>(i)], 2, home_batch2});
  }
  for (std::size_t i = 4; i < names.size(); ++i) {
    plan.entries.push_back({names[i], 2, ec2_traces});
  }
  return plan;
}

CampaignPlan CampaignPlan::for_scale(double scale, int traces_override) {
  if (traces_override > 0) {
    // Uniform override: N traces spread over the 13 vantage points, the
    // first four (home/campus) in batch 1, the EC2 regions in batch 2.
    CampaignPlan plan;
    const auto& names = paper_vantage_names();
    for (std::size_t i = 0; i < names.size(); ++i) {
      const int share =
          traces_override / static_cast<int>(names.size()) +
          (static_cast<int>(i) < traces_override % static_cast<int>(names.size())
               ? 1
               : 0);
      if (share > 0) plan.entries.push_back({names[i], i < 4 ? 1 : 2, share});
    }
    return plan;
  }
  return paper_layout(std::max(1, static_cast<int>(9 * scale)),
                      std::max(1, static_cast<int>(12 * scale)),
                      std::max(1, static_cast<int>(14 * scale)));
}

std::vector<PlannedTrace> expand_schedule(const CampaignPlan& plan) {
  std::vector<PlannedTrace> schedule;
  for (int batch = 1; batch <= 2; ++batch) {
    bool added = true;
    int round = 0;
    while (added) {
      added = false;
      for (const auto& entry : plan.entries) {
        if (entry.batch != batch || round >= entry.count) continue;
        schedule.push_back({entry.vantage, batch});
        added = true;
      }
      ++round;
    }
  }
  return schedule;
}

Campaign::Campaign(std::map<std::string, Vantage*> vantages,
                   std::vector<wire::Ipv4Address> servers, ProbeOptions options)
    : vantages_(std::move(vantages)), servers_(std::move(servers)), options_(options) {}

void Campaign::run(const CampaignPlan& plan, DoneHandler done) {
  done_ = std::move(done);
  schedule_ = expand_schedule(plan);
  results_.clear();
  failures_.clear();
  cursor_ = 0;
  live_started_ = 0;
  pending_commit_ = -1;
  for (const auto& planned : schedule_) {
    if (!vantages_.contains(planned.vantage)) {
      throw std::invalid_argument("Campaign: unknown vantage " + planned.vantage);
    }
  }
  next_trace();
}

void Campaign::next_trace() {
  if (vantages_.empty()) {
    throw std::logic_error("Campaign: no vantages");
  }
  // Quiescence barrier: the next trace begins only after every event of the
  // previous one (late responses, retransmission timers, TIME_WAIT) has
  // fired, so each trace starts from a settled world. The done handler is
  // also deferred to this barrier: the final trace commits (and journals)
  // from a quiescent simulator, same as every other trace.
  auto& sim = vantages_.begin()->second->host().network().sim();
  sim.schedule_when_idle([this] { start_trace(); });
}

void Campaign::commit_pending() {
  if (pending_commit_ < 0) return;
  const int committed = pending_commit_;
  pending_commit_ = -1;
  if (commit_) commit_(results_[static_cast<std::size_t>(committed)]);
}

void Campaign::start_trace() {
  // The previous trace's stragglers have settled: its delta is complete.
  commit_pending();
  if (cursor_ >= schedule_.size()) {
    if (done_) {
      auto done = std::move(done_);
      done_ = nullptr;
      done(std::move(results_));
    }
    return;
  }
  const auto& planned = schedule_[cursor_];
  const int index = static_cast<int>(cursor_);
  ++cursor_;
  if (replay_) {
    if (auto replayed = replay_(index)) {
      // Checkpoint replay: the journal already holds this trace's result
      // and delta; take it as-is without touching the simulator.
      results_.push_back(std::move(*replayed));
      if (after_trace_) after_trace_(planned.vantage, planned.batch, index);
      next_trace();
      return;
    }
  }
  if ((halt_after_ > 0 && live_started_ >= halt_after_) ||
      (halt_check_ && halt_check_())) {
    // Simulated crash or external cancel: abandon the rest of the schedule
    // and finish with what completed. A later --resume run replays those
    // and runs the rest.
    cursor_ = schedule_.size();
    next_trace();
    return;
  }
  ++live_started_;
  try {
    if (before_trace_) before_trace_(planned.vantage, planned.batch, index);
    Vantage* vantage = vantages_.at(planned.vantage);
    runner_ = std::make_unique<TraceRunner>(*vantage, servers_, options_);
    runner_->run(planned.batch, index,
                 [this, vantage_name = planned.vantage, batch = planned.batch,
                  index](Trace trace) {
                   results_.push_back(std::move(trace));
                   pending_commit_ = static_cast<int>(results_.size()) - 1;
                   if (after_trace_) after_trace_(vantage_name, batch, index);
                   next_trace();
                 });
  } catch (const std::exception& e) {
    // Quarantine: scrap whatever the failed trace managed to schedule,
    // attribute the loss, and carry on with the next trace.
    vantages_.begin()->second->host().network().sim().clear_pending();
    failures_.push_back({index, planned.vantage, planned.batch, e.what()});
    if (quarantine_) quarantine_(planned.vantage, planned.batch, index, e.what());
    next_trace();
  }
}

}  // namespace ecnprobe::measure
