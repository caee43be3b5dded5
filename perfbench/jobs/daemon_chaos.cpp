// daemon_chaos: an in-process daemon::CampaignDaemon (concurrency 2) on
// loopback, driven by one closed-loop client that keeps one campaign
// outstanding per tenant (tenant-a/b/c): three outstanding against two
// runners, so one campaign is always queued and no tenant budget sheds.
// Completion is read from the SSE /events stream (campaign-done), never by
// polling; the result CSV is then fetched from /campaigns/<id>/result.
#include <sys/stat.h>

#include <algorithm>
#include <condition_variable>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "common.hpp"
#include "ecnprobe/daemon/daemon.hpp"
#include "ecnprobe/scenario/world.hpp"
#include "ecnprobe/util/rng.hpp"
#include "http_client.hpp"

namespace perfbench {
namespace {

constexpr double kScale = 0.1;
constexpr int kTraces = 13;
constexpr int kCampaigns = 15;  ///< campaigns per job (one daemon process)
constexpr int kSetupBatches = 4;  ///< start() samples per job: batches x batch size
constexpr int kSetupBatch = 10;
const char* const kTenants[] = {"tenant-a", "tenant-b", "tenant-c"};

std::uint64_t campaign_seed(std::uint64_t seed, int number) {
  // Spec seeds travel as JSON numbers; keep them well inside 2^53.
  return ecnprobe::util::derive_seed(seed, "daemon_chaos/" + std::to_string(number)) %
         1000000007ULL;
}

std::string spec_json(const std::string& tenant, std::uint64_t seed) {
  return "{\"tenant\":\"" + tenant + "\",\"scale\":0.1,\"seed\":" + std::to_string(seed) +
         ",\"traces\":" + std::to_string(kTraces) +
         ",\"workers\":1,\"faults\":\"wan-chaos\",\"sched\":\"backoff\"}";
}

/// Extracts the `key=` token from an event's data ("id=c3 traces=13").
std::string field(const std::string& data, const std::string& key) {
  const std::string needle = key + "=";
  std::size_t pos = 0;
  while ((pos = data.find(needle, pos)) != std::string::npos) {
    if (pos == 0 || data[pos - 1] == ' ') {
      const auto start = pos + needle.size();
      return data.substr(start, data.find(' ', start) - start);
    }
    pos += needle.size();
  }
  return "";
}

/// The "id" member of a 201 body ({"id":"c3","state":"queued",...}).
std::string json_id(const std::string& body) {
  const std::string needle = "\"id\":\"";
  const auto pos = body.find(needle);
  if (pos == std::string::npos) return "";
  const auto start = pos + needle.size();
  const auto end = body.find('"', start);
  return end == std::string::npos ? "" : body.substr(start, end - start);
}

/// What the SSE reader has seen of each campaign id.
struct EventBoard {
  struct Seen {
    Clock::time_point started{};
    Clock::time_point finished{};
    std::string outcome;  ///< "", or the terminal event kind
  };
  std::mutex mutex;
  std::condition_variable cv;
  std::map<std::string, Seen> campaigns;
  int checkpoints = 0;  ///< journaled traces, across all campaigns
  bool closed = false;
};

ecnprobe::daemon::CampaignDaemon::Options daemon_options(const std::string& state_dir) {
  ecnprobe::daemon::CampaignDaemon::Options options;
  options.state_dir = state_dir;
  options.concurrency = 2;
  options.queue_depth = 8;
  options.tenant_max_active = 2;
  return options;
}

struct Outstanding {
  int number = 0;
  std::string id;
  Clock::time_point posted;    ///< POST sent
  Clock::time_point admitted;  ///< 201 received
};

}  // namespace

int run_daemon_chaos(const Args& args, Record& out) {
  SpanLog spans(args.trace);
  std::filesystem::create_directories(args.out + "/results");

  // Set-up samples: start() on fresh, already created state directories
  // (a mkdir inside the timed call waits on the file system's journal). A
  // drain waits out the listener's poll interval, so each batch is drained
  // in parallel.
  std::vector<double> setup_s;
  for (int batch = 0; batch < kSetupBatches; ++batch) {
    std::vector<std::unique_ptr<ecnprobe::daemon::CampaignDaemon>> probes;
    for (int i = 0; i < kSetupBatch; ++i) {
      const std::string dir = args.out + "/setup-" + std::to_string(batch * kSetupBatch + i);
      std::filesystem::create_directories(dir);
      probes.push_back(std::make_unique<ecnprobe::daemon::CampaignDaemon>(daemon_options(dir)));
      std::string error;
      const auto start = Clock::now();
      if (!probes.back()->start(&error)) return 1;
      setup_s.push_back(since(start));
    }
    std::vector<std::jthread> drains;  // joined when the batch ends
    for (auto& probe : probes) drains.emplace_back([&probe] { probe->drain(); });
  }
  if (args.setup_only) {
    out.nums("setup_s", setup_s);
    return 0;
  }
  if (args.trace) {
    // The daemon builds its worlds internally; time the same construction
    // from outside on the first campaign's parameters.
    auto params = ecnprobe::scenario::WorldParams::paper().scaled(kScale);
    params.seed = campaign_seed(args.seed, args.index * kCampaigns);
    params.faults = *ecnprobe::chaos::FaultPlan::parse("wan-chaos");
    const auto start = Clock::now();
    const int span = spans.open("scenario.world_build", -1, "probe");
    { ecnprobe::scenario::World world(params); }
    spans.close(span);
    out.nums("build_s", {since(start)});
  }

  const std::string state_dir = args.out + "/state";
  std::filesystem::create_directories(state_dir);
  ecnprobe::daemon::CampaignDaemon daemon(daemon_options(state_dir));
  std::string error;
  const auto start = Clock::now();
  if (!daemon.start(&error)) return 1;
  setup_s.push_back(since(start));
  const double rss_after_setup = rss_mb();
  const std::uint16_t port = daemon.port();

  EventBoard board;
  SseReader sse;
  if (!sse.connect(port)) return 1;
  std::thread reader([&] {
    SseEvent event;
    while (sse.next(&event)) {
      const auto now = Clock::now();
      if (event.kind == "checkpoint") {
        std::lock_guard<std::mutex> lock(board.mutex);
        ++board.checkpoints;
        board.cv.notify_all();
        continue;
      }
      const std::string id = field(event.data, "id");
      if (id.empty()) continue;
      spans.add("sse." + event.kind, now, now, -1, id);
      std::lock_guard<std::mutex> lock(board.mutex);
      auto& seen = board.campaigns[id];
      if (event.kind == "campaign-started") {
        seen.started = now;
      } else if (event.kind == "campaign-done" || event.kind == "campaign-failed" ||
                 event.kind == "campaign-cancelled") {
        seen.finished = now;
        seen.outcome = event.kind;
        board.cv.notify_all();
      }
    }
    std::lock_guard<std::mutex> lock(board.mutex);
    board.closed = true;
    board.cv.notify_all();
  });
  // Stops and joins the reader on every way out of this function.
  struct ReaderStop {
    SseReader& sse;
    std::thread& reader;
    void stop() {
      if (!reader.joinable()) return;
      sse.shutdown();
      reader.join();
    }
    ~ReaderStop() { stop(); }
  } reader_stop{sse, reader};

  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> latency_s, admit_ms, queue_wait_s, run_s, fetch_ms, rss_samples,
      journal_bytes;
  std::vector<double> done_numbers;
  std::int64_t submitted = 0, failed = 0, items = 0;
  LayerCounts counts;
  std::map<std::string, Outstanding> outstanding;  // by tenant
  const auto session_start = Clock::now();
  auto window_end = session_start;
  std::int64_t window_items = 0, window_campaigns = 0;
  // Campaign numbers, and with them the spec seeds, continue across the
  // run's inputs: input I submits campaigns I*K .. I*K+K-1.
  const int first_number = args.index * kCampaigns;
  int next_number = first_number;
  auto may_submit = [&] { return next_number < first_number + kCampaigns; };

  // Tenants b and c join once tenant-a's first campaign has journaled half
  // its traces, so the two runners work half a campaign out of phase.
  // Started together they would stay in lockstep: every round one new
  // campaign would find a free runner and the other wait a whole run, and
  // the latency median would flip between those two clusters.
  bool ramped = false;
  for (;;) {
    for (const char* tenant : kTenants) {
      if (outstanding.count(tenant) > 0 || !may_submit()) continue;
      if (!ramped && tenant != kTenants[0]) continue;
      const int number = next_number++;
      ++submitted;
      const auto posted = Clock::now();
      const auto reply = http_request(port, "POST", "/campaigns",
                                      spec_json(tenant, campaign_seed(args.seed, number)));
      const auto admitted = Clock::now();
      const std::string id = reply.status == 201 ? json_id(reply.body) : "";
      if (id.empty()) {
        spans.add("http.post_campaign", posted, admitted, -1, "rejected");
        // Shed (429) or refused: the attempt misses every latency limit.
        ++failed;
        latency_s.push_back(inf);
        continue;
      }
      admit_ms.push_back(1e3 * seconds_between(posted, admitted));
      outstanding[tenant] = {number, id, posted, admitted};
    }
    if (outstanding.empty()) break;

    // Wait for any outstanding campaign to reach a terminal event (or for
    // the ramp-up point).
    std::string tenant_done;
    bool ramp_now = false;
    EventBoard::Seen seen;
    {
      std::unique_lock<std::mutex> lock(board.mutex);
      board.cv.wait(lock, [&] {
        if (board.closed) return true;
        for (const auto& [tenant, pending] : outstanding) {
          const auto it = board.campaigns.find(pending.id);
          if (it != board.campaigns.end() && !it->second.outcome.empty()) {
            tenant_done = tenant;
            return true;
          }
        }
        ramp_now = !ramped && board.checkpoints >= kTraces / 2;
        return ramp_now;
      });
      if (!tenant_done.empty()) seen = board.campaigns[outstanding[tenant_done].id];
    }
    if (ramp_now) {
      ramped = true;
      continue;
    }
    if (tenant_done.empty()) break;  // event stream closed under us
    const Outstanding pending = outstanding[tenant_done];
    outstanding.erase(tenant_done);
    const int campaign_span =
        spans.add("daemon.campaign", pending.posted, seen.finished, -1, pending.id);
    spans.add("http.post_campaign", pending.posted, pending.admitted, campaign_span, pending.id);
    spans.add("daemon.queue_wait", pending.admitted, seen.started, campaign_span, pending.id);
    spans.add("daemon.run", seen.started, seen.finished, campaign_span, pending.id);
    if (seen.outcome != "campaign-done") {
      ++failed;
      latency_s.push_back(inf);
      continue;
    }
    latency_s.push_back(seconds_between(pending.posted, seen.finished));
    queue_wait_s.push_back(seconds_between(pending.admitted, seen.started));
    run_s.push_back(seconds_between(seen.started, seen.finished));

    const auto fetch_start = Clock::now();
    const auto result = http_request(port, "GET", "/campaigns/" + pending.id + "/result");
    const auto fetch_end = Clock::now();
    spans.add("http.get_result", fetch_start, fetch_end, -1, pending.id);
    if (result.status != 200 ||
        !write_text(args.out + "/results/campaign-" + std::to_string(pending.number) + ".csv",
                    result.body)) {
      ++failed;
      continue;
    }
    fetch_ms.push_back(1e3 * seconds_between(fetch_start, fetch_end));
    const auto rows = std::count(result.body.begin(), result.body.end(), '\n');
    items += rows > 0 ? rows - 1 : 0;  // minus the header
    done_numbers.push_back(pending.number);
    if (may_submit()) {
      // Throughput counts the steady state only: the window closes at the
      // last completion that still triggers a new submission, before the
      // loop drains with fewer than three campaigns outstanding.
      window_end = seen.finished;
      window_items = items;
      window_campaigns = static_cast<std::int64_t>(done_numbers.size());
    }
    rss_samples.push_back(rss_mb());
    struct stat st {};
    if (::stat((state_dir + "/" + pending.id + ".journal").c_str(), &st) == 0) {
      journal_bytes.push_back(static_cast<double>(st.st_size));
    }
    if (args.trace) {
      const auto m0 = Clock::now();
      const auto metrics = http_request(port, "GET", "/campaigns/" + pending.id + "/metrics");
      spans.add("http.get_metrics", m0, Clock::now(), -1, pending.id);
      const auto& text = metrics.body;
      counts.events += static_cast<std::uint64_t>(prometheus_total(text, "sim_events_total"));
      counts.packets +=
          static_cast<std::uint64_t>(prometheus_total(text, "net_packets_transmitted_total"));
      counts.handshakes += static_cast<std::uint64_t>(
          prometheus_total(text, "tcp_handshakes_total", "role=\"client\""));
      counts.retransmissions +=
          static_cast<std::uint64_t>(prometheus_total(text, "tcp_retransmissions_total"));
      counts.http_requests +=
          static_cast<std::uint64_t>(prometheus_total(text, "http_requests_total"));
      counts.udp_attempts +=
          static_cast<std::uint64_t>(prometheus_total(text, "probe_udp_attempts_total"));
      counts.ledger_drops += static_cast<std::uint64_t>(prometheus_total(text, "ecn_drops_total"));
      counts.probe_servers +=
          static_cast<std::uint64_t>(prometheus_total(text, "probe_servers_total"));
    }
  }
  const auto session_end = Clock::now();
  for (std::size_t i = 0; i < outstanding.size(); ++i) {
    // Never reached a terminal event before the stream closed.
    ++failed;
    latency_s.push_back(inf);
  }
  const auto stats = daemon.stats();
  daemon.drain();
  reader_stop.stop();

  out.integer("servers", ecnprobe::scenario::WorldParams::paper().scaled(kScale).server_count);
  out.integer("traces_per_campaign", kTraces);
  out.integer("submitted", submitted);
  out.integer("failed", failed);
  out.integer("shed_total",
              static_cast<std::int64_t>(stats.shed_queue_full + stats.shed_tenant_budget));
  out.integer("items", items);
  out.nums("done_numbers", done_numbers);
  out.nums("setup_s", setup_s);
  out.num("session_s", seconds_between(session_start, session_end));
  out.num("timed_s", seconds_between(session_start, window_end));
  out.integer("timed_items", window_items);
  out.integer("timed_campaigns", window_campaigns);
  out.nums("latency_s", latency_s);
  out.nums("admit_ms", admit_ms);
  out.nums("queue_wait_s", queue_wait_s);
  out.nums("run_s", run_s);
  out.nums("fetch_ms", fetch_ms);
  out.nums("rss_after_campaign_mb", rss_samples);
  out.nums("journal_bytes", journal_bytes);
  out.num("rss_after_setup_mb", rss_after_setup);
  out.num("rss_end_mb", rss_mb());
  out.num("peak_rss_mb", peak_rss_mb());
  if (args.trace) {
    record_counts(out, counts);
    if (!spans.write(args.out + "/spans.json")) return 1;
  }
  return 0;
}

}  // namespace perfbench
