// Shared plumbing for the benchmark's job binary: wall clocks, process memory
// probes, counter lookups on public obs snapshots, an in-memory span log,
// and the flat JSON record each job prints for perfbench/run.py.
//
// A job measures the library from outside: every span opens and
// closes in benchmark code around a call into a public function, and every
// count comes from an accessor the library already exposes.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "ecnprobe/obs/ledger.hpp"
#include "ecnprobe/obs/metrics.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since `start`.
double since(Clock::time_point start);
/// Seconds between two instants.
double seconds_between(Clock::time_point a, Clock::time_point b);

/// Current resident set size of this process (VmRSS), in MB.
double rss_mb();
/// Peak resident set size of this process (ru_maxrss), in MB.
double peak_rss_mb();

/// Sum of every sample of counter `family` whose labels contain
/// `label_key=label_value` (all samples when `label_key` is empty).
std::uint64_t counter_total(const ecnprobe::obs::MetricsSnapshot& snapshot,
                            const std::string& family, const std::string& label_key = "",
                            const std::string& label_value = "");

/// Sum of every sample of `family` in a Prometheus text exposition whose
/// label block contains `label` (all samples when `label` is empty).
double prometheus_total(const std::string& text, const std::string& family,
                        const std::string& label = "");

/// The per-layer counts every workload reports, taken from one
/// campaign-scoped (or pass-scoped) obs snapshot.
struct LayerCounts {
  std::uint64_t events = 0;           ///< sim_events_total
  std::uint64_t packets = 0;          ///< net_packets_transmitted_total
  std::uint64_t handshakes = 0;       ///< tcp_handshakes_total{role=client}
  std::uint64_t retransmissions = 0;  ///< tcp_retransmissions_total
  std::uint64_t http_requests = 0;    ///< http_requests_total
  std::uint64_t udp_attempts = 0;     ///< probe_udp_attempts_total
  std::uint64_t ledger_drops = 0;     ///< drop-ledger rows
  std::uint64_t probe_servers = 0;    ///< probe_servers_total

  bool operator==(const LayerCounts&) const = default;
};
LayerCounts layer_counts(const ecnprobe::obs::ObsSnapshot& snapshot);

class Record;
/// Adds every LayerCounts field to `out` under its own name.
void record_counts(Record& out, const LayerCounts& counts);

/// Spans recorded around calls into the library: name, start, end (seconds
/// since the log was created), parent span and a key naming the trace,
/// worker or campaign. Kept in memory, written once when the job ends.
/// Thread-safe; a disabled log records nothing and returns id -1.
class SpanLog {
 public:
  explicit SpanLog(bool enabled);

  bool enabled() const { return enabled_; }
  int open(const std::string& name, int parent = -1, const std::string& key = "");
  void close(int id);
  /// Forgets an open span (work that was cut off, not finished).
  void discard(int id);
  /// Records an already-finished interval.
  int add(const std::string& name, Clock::time_point start, Clock::time_point end,
          int parent = -1, const std::string& key = "");
  bool write(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    std::string key;
    double start = 0;
    double end = -1;  ///< -1 while open; -2 once discarded
    int parent = -1;
  };
  bool enabled_;
  Clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Flat JSON object written as one line. Numbers keep every digit.
class Record {
 public:
  void num(const std::string& key, double value);
  void integer(const std::string& key, std::int64_t value);
  void text(const std::string& key, const std::string& value);
  void nums(const std::string& key, const std::vector<double>& values);
  std::string line() const;

 private:
  std::map<std::string, std::string> fields_;
};

/// Command-line arguments of one job.
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  bool trace = false;
  std::string out;       ///< job directory for artefacts and spans
  int index = 0;         ///< which of the run's inputs this job takes
  bool setup_only = false;  ///< take the set-up samples only, then stop
};

int run_campaign_paper(const Args& args, Record& out);
int run_campaign_slice(const Args& args, Record& out);
int run_traceroute_paper(const Args& args, Record& out);
int run_daemon_chaos(const Args& args, Record& out);

/// Writes `text` to `path`; false on any I/O error.
bool write_text(const std::string& path, const std::string& text);

}  // namespace perfbench
