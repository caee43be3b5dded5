// perfbench_job: runs one benchmark job in this process and prints one
// JSON line of raw measurements for perfbench/run.py to aggregate.
//
//   perfbench_job <workload> --seed N --index I --out DIR [--trace] [--setup-only]
//
// with <workload> one of campaign_paper, campaign_slice, traceroute_paper,
// daemon_chaos. A job's inputs derive from (seed, index) alone; its sizes
// are constants of each workload's file. --setup-only takes the job's
// set-up samples and stops before the timed phase.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "common.hpp"

namespace {

bool parse(int argc, char** argv, perfbench::Args* args) {
  if (argc < 2) return false;
  args->workload = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--trace") {
      args->trace = true;
      continue;
    }
    if (flag == "--setup-only") {
      args->setup_only = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--out") {
      args->out = value;
    } else if (flag == "--index") {
      args->index = std::atoi(value);
    } else {
      return false;
    }
  }
  return !args->out.empty();
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!parse(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_job <campaign_paper|campaign_slice|traceroute_paper|"
                 "daemon_chaos> --seed N --out DIR [--trace] [--setup-only] [options]\n");
    return 2;
  }
  std::filesystem::create_directories(args.out);
  perfbench::Record record;
  record.text("workload", args.workload);
  int status = 2;
  try {
    if (args.workload == "campaign_paper") {
      status = perfbench::run_campaign_paper(args, record);
    } else if (args.workload == "campaign_slice") {
      status = perfbench::run_campaign_slice(args, record);
    } else if (args.workload == "traceroute_paper") {
      status = perfbench::run_traceroute_paper(args, record);
    } else if (args.workload == "daemon_chaos") {
      status = perfbench::run_daemon_chaos(args, record);
    } else {
      std::fprintf(stderr, "perfbench_job: unknown workload '%s'\n", args.workload.c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_job: %s\n", e.what());
    return 1;
  }
  if (status != 0) {
    std::fprintf(stderr, "perfbench_job: %s job failed\n", args.workload.c_str());
    return status;
  }
  std::printf("%s\n", record.line().c_str());
  return 0;
}
