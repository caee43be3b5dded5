// ecnprobed: the multi-tenant campaign daemon. Clients POST a
// CampaignSpec to /campaigns; the daemon admits it (or sheds it), runs it
// through the unchanged ParallelCampaign with its own write-ahead
// journal, and publishes the same artifacts the batch CLI would write --
// so a daemon campaign is byte-identical to the CLI invocation with the
// same spec, including across a daemon crash and restart.
//
// Robustness posture:
//   * Bounded admission: at most `queue_depth` campaigns wait; beyond
//     that, POSTs are shed with 429 + Retry-After, never queued
//     unboundedly. Per-tenant budgets cap how much of the daemon one
//     tenant can hold (queued + running).
//   * Crash-safe admission: the spec is persisted to
//     <state_dir>/<id>.spec.json before the 201 goes out. On restart the
//     daemon rescans the state dir and re-enqueues every campaign without
//     a completion marker; their journals replay, so an admitted campaign
//     survives any number of SIGKILLs and still finishes byte-identically.
//   * Watchdog: a campaign running longer than `watchdog` wall-clock is
//     cancelled cooperatively (workers stop claiming traces) and marked
//     "campaign-cancelled" -- a runaway tenant cannot pin a runner slot.
//   * Graceful drain: drain() refuses new admissions (503), halts running
//     campaigns at their next trace boundary (each halted trace is
//     already journaled write-ahead), and returns once runners exit.
//     Queued specs stay on disk; a restarted daemon picks them up.
//
// HTTP surface (mounted on http::ObsHttpServer's handler hook, riding
// its hardening, /metrics, /progress and /events SSE plane):
//   POST /campaigns                 spec JSON -> 201 {"id":...} | 400/429/503
//   GET  /campaigns                 all campaigns, JSON
//   GET  /campaigns/<id>            one campaign's status, JSON
//   GET  /campaigns/<id>/metrics    per-campaign Prometheus text
//                                   (live snapshot while running, the
//                                   exported .prom once done)
//   GET  /campaigns/<id>/result     traces CSV once done
//   POST /campaigns/<id>/cancel     cooperative cancel -> 202
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "ecnprobe/daemon/spec.hpp"
#include "ecnprobe/http/obs_server.hpp"
#include "ecnprobe/measure/parallel_campaign.hpp"

namespace ecnprobe::daemon {

class CampaignDaemon {
 public:
  struct Options {
    /// Directory for specs, journals, and result artifacts. Required;
    /// created if missing.
    std::string state_dir;
    std::string bind_address = "127.0.0.1";
    std::uint16_t port = 0;  ///< 0 = ephemeral; see port() after start()
    /// Campaigns admitted but not yet running. Admissions beyond this
    /// shed with 429.
    int queue_depth = 8;
    /// Campaigns running concurrently (runner threads).
    int concurrency = 2;
    /// Per-tenant budget: queued + running campaigns one tenant may hold.
    int tenant_max_active = 2;
    /// Per-campaign trace budget; a spec whose plan exceeds it is
    /// rejected at admission (400). 0 = unlimited.
    int max_traces = 0;
    /// Cap on a spec's requested workers (a tenant cannot grab every
    /// core by asking for workers=256).
    int max_workers = 8;
    /// Retry-After value sent with 429 sheds.
    int retry_after_seconds = 2;
    /// Wall-clock runtime ceiling per campaign; exceeding it cancels the
    /// campaign ("campaign-cancelled"). Zero = no watchdog.
    std::chrono::milliseconds watchdog{0};
    /// Hardening knobs forwarded to the HTTP listener.
    std::chrono::milliseconds read_deadline{5000};
    std::size_t max_body_bytes = 256 * 1024;
  };

  /// One campaign's externally visible state.
  struct Status {
    std::string id;
    std::string tenant;
    std::string state;  ///< "queued" | "running" | "done" | "cancelled" | "failed"
    std::string detail; ///< failure/cancellation reason, empty otherwise
    int total_traces = 0;
    int completed_traces = 0;  ///< includes journal-replayed traces
  };

  explicit CampaignDaemon(Options options);
  ~CampaignDaemon();
  CampaignDaemon(const CampaignDaemon&) = delete;
  CampaignDaemon& operator=(const CampaignDaemon&) = delete;

  /// Creates the state dir if needed, rescans it for unfinished
  /// campaigns (re-enqueued in admission order), binds the HTTP listener
  /// and starts the runner/watchdog threads. False + *error on failure.
  bool start(std::string* error);

  /// Graceful shutdown: refuse new admissions, halt running campaigns at
  /// their next trace boundary (journals already hold every finished
  /// trace), join all threads, stop the listener. Queued and halted
  /// campaigns remain on disk for the next start(). Idempotent.
  void drain();

  std::uint16_t port() const { return server_ ? server_->port() : 0; }
  bool running() const { return started_; }

  /// Point-in-time view of every known campaign, id-ordered.
  std::vector<Status> statuses() const;

  /// Admission outcome counters (monotonic since start).
  struct Stats {
    std::uint64_t admitted = 0;
    std::uint64_t shed_queue_full = 0;
    std::uint64_t shed_tenant_budget = 0;
    std::uint64_t rejected_invalid = 0;
    std::uint64_t completed = 0;
    std::uint64_t cancelled = 0;
    std::uint64_t failed = 0;
  };
  Stats stats() const;

 private:
  struct Campaign;

  http::ObsHttpServer::Response handle(const wire::HttpRequest& request);
  http::ObsHttpServer::Response admit(const std::string& body);
  http::ObsHttpServer::Response campaign_status(const std::string& id);
  http::ObsHttpServer::Response campaign_metrics(const std::string& id);
  http::ObsHttpServer::Response campaign_result(const std::string& id);
  http::ObsHttpServer::Response campaign_cancel(const std::string& id);

  void runner_loop();
  void watchdog_loop();
  void run_campaign(const std::shared_ptr<Campaign>& campaign);
  bool rescan_state_dir(std::string* error);

  std::string spec_path(const std::string& id) const;
  std::string marker_path(const std::string& id, const char* kind) const;
  std::string daemon_metrics_text() const;
  std::string daemon_progress_json() const;

  Options options_;
  std::unique_ptr<http::ObsHttpServer> server_;
  bool started_ = false;

  mutable std::mutex mutex_;
  /// Runners wait here for queued work or drain. The watchdog waits on its
  /// own `drain_cv_`, so a queue push can never wake it instead of a runner.
  std::condition_variable work_cv_;
  std::condition_variable drain_cv_;
  bool draining_ = false;
  std::uint64_t next_seq_ = 1;
  std::map<std::string, std::shared_ptr<Campaign>> campaigns_;
  std::deque<std::shared_ptr<Campaign>> queue_;
  std::vector<std::thread> runners_;
  std::thread watchdog_;

  std::atomic<std::uint64_t> admitted_{0};
  std::atomic<std::uint64_t> shed_queue_full_{0};
  std::atomic<std::uint64_t> shed_tenant_budget_{0};
  std::atomic<std::uint64_t> rejected_invalid_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> cancelled_{0};
  std::atomic<std::uint64_t> failed_{0};
};

}  // namespace ecnprobe::daemon
