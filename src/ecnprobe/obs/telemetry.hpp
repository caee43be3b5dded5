// Budgeted telemetry: the campaign-selectable fidelity knob between the
// exact observability pipeline (every drop an exact ledger count, every
// probe a flight) and a sketched one whose memory is O(servers), not
// O(servers x traces).
//
// Two-level design, mirroring the metrics/ledger delta machinery:
//
//  * TelemetryRecorder lives in each world's Observability and observes
//    drop/rewrite/RTT events for the CURRENT trace into a TelemetryDelta
//    -- small sparse exact maps, cleared at each trace epoch. Recording
//    is observation-only: it makes no simulation RNG draws (the exemplar
//    reservoir runs its own Rng keyed on (config.seed, trace)), so
//    arming it cannot perturb outcomes.
//
//  * TelemetryAggregate lives at the campaign level and folds each
//    trace's delta -- in plan order -- into a CountMinSketch (keyed
//    cause/hop/AS counters with epsilon/delta bounds), a LogHistogram
//    (RTT quantiles with relative-error alpha), a budget-capped tracked
//    key directory, and reservoir exemplars. Every fold is commutative
//    integer addition applied in a deterministic order, so sequential
//    and --workers N campaigns produce bit-identical aggregates.
//
// Head-based trace sampling: every sample_every-th trace keeps exact
// records (ledger counts, flight events); the rest fold into the sketches
// only. Exact mode (the default) leaves the recorder disarmed -- one
// bool test on the hot path, zero deltas, byte-identical output to a
// build without this layer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "ecnprobe/obs/budget.hpp"
#include "ecnprobe/obs/loghist.hpp"
#include "ecnprobe/obs/sketch.hpp"
#include "ecnprobe/util/expected.hpp"
#include "ecnprobe/util/rng.hpp"
#include "ecnprobe/util/time.hpp"

namespace ecnprobe::obs {

enum class TelemetryMode { Exact, Sketched };

std::string_view to_string(TelemetryMode mode);

// Parsed from --telemetry "exact" | "sketched[,key=value...]". All
// estimator behaviour is a pure function of this config plus the seed and
// the trace index.
struct TelemetryConfig {
  TelemetryMode mode = TelemetryMode::Exact;
  double epsilon = 0.001;      // CMS overcount bound, fraction of stream total
  double delta = 0.01;         // probability any one estimate exceeds the bound
  double alpha = 0.01;         // RTT histogram relative quantile error
  int sample_every = 64;       // trace kept exact iff index % sample_every == 0
  int reservoir = 8;           // exemplar drop records kept per folded trace
  std::size_t budget_bytes = std::size_t{1} << 20;  // key directory + exemplars
  std::uint64_t seed = 0;      // 0 = inherit the campaign seed

  bool sketched() const { return mode == TelemetryMode::Sketched; }
  bool keeps_exact_trace(int trace) const {
    return !sketched() || sample_every <= 1 || trace % sample_every == 0;
  }
  // The sketch/reservoir seed: explicit seed if set, else the campaign's.
  TelemetryConfig resolved(std::uint64_t campaign_seed) const;
  std::string summary() const;

  // Spec grammar: "exact" or "sketched" optionally followed by
  // ",eps=F,delta=F,alpha=F,sample-every=N,reservoir=N,budget-kb=N,seed=N".
  static util::Expected<TelemetryConfig> parse(const std::string& spec);
};

// One drop record kept verbatim from a folded (not exactly-sampled)
// trace, chosen by the per-trace reservoir: enough to show a concrete
// victim in reports whose exact ledger counts were sketched away.
struct TelemetryExemplar {
  int trace = -1;
  std::string layer;
  std::string cause;
  std::string node;

  bool operator==(const TelemetryExemplar&) const = default;
};

// Per-trace telemetry observations: sparse, exact, small. Journaled with
// the rest of the ObsSnapshot delta so kill-and-resume folds identically.
struct TelemetryDelta {
  // Composite keys: "cause:<layer>/<cause>", "hop:<node>/<cause>",
  // "as:<AS>/<cause>", "rewrite:<layer>/<cause>".
  std::map<std::string, std::uint64_t> counts;
  std::map<std::int32_t, std::uint64_t> rtt_buckets;
  std::uint64_t rtt_count = 0;
  std::int64_t rtt_sum_nanos = 0;
  std::uint64_t folded_records = 0;  // drops represented only in sketches
  std::uint64_t sampled_exact = 0;   // 1 when this trace kept exact records
  std::vector<TelemetryExemplar> exemplars;

  bool empty() const;
  void clear();
  void merge(const TelemetryDelta& other);

  bool operator==(const TelemetryDelta&) const = default;
};

// The per-world observer. Disarmed (exact mode) every hook is a single
// bool test.
class TelemetryRecorder {
 public:
  // Maps a ledger node name (usually an IPv4 address string) to an AS
  // label ("AS3320"); empty result skips the per-AS key.
  using AsLabeler = std::function<std::string(std::string_view node)>;

  void arm(const TelemetryConfig& config);
  void disarm();
  bool armed() const { return armed_; }
  int rtt_subbits() const { return rtt_subbits_; }

  void set_as_labeler(AsLabeler labeler) { as_labeler_ = std::move(labeler); }

  // Starts a trace epoch: clears the delta, decides head-based sampling,
  // reseeds the private exemplar reservoir from (config.seed, trace).
  void begin_trace(int trace);
  // True when the current trace keeps exact ledger/flight records.
  bool trace_sampled_exact() const { return !armed_ || sampled_; }

  void on_drop(std::string_view layer, std::string_view cause, std::string_view node);
  void on_rewrite(std::string_view layer, std::string_view cause);
  void observe_rtt(util::SimDuration rtt);

  // Non-destructive copy of the current trace's delta (mirrors the
  // metrics baseline/delta convention).
  TelemetryDelta collect_delta() const { return current_; }

 private:
  bool armed_ = false;
  bool sampled_ = true;
  int trace_ = -1;
  int rtt_subbits_ = 0;
  TelemetryConfig config_;
  TelemetryDelta current_;
  util::Rng reservoir_rng_{0};
  AsLabeler as_labeler_;
};

// The campaign-level estimator state: fold per-trace deltas in plan
// order; read estimates, quantiles, and budget self-metrics at the end.
class TelemetryAggregate {
 public:
  // Inactive aggregate: fold() ignores (empty) deltas, exports nothing.
  TelemetryAggregate() = default;
  // config must already be resolved() -- a zero seed here is a bug.
  explicit TelemetryAggregate(const TelemetryConfig& config);

  bool active() const { return active_; }
  const TelemetryConfig& config() const { return config_; }

  void fold(const TelemetryDelta& delta);

  std::uint64_t estimate(std::string_view key) const {
    return counts_.estimate(key);
  }
  // ceil(epsilon * stream total): the one-sided overcount bound.
  std::uint64_t error_bound() const { return counts_.error_bound(); }

  const CountMinSketch& counts() const { return counts_; }
  const LogHistogram& rtt() const { return rtt_; }
  const TelemetryBudget& budget() const { return budget_; }
  // Budget-capped directory of keys seen (for export enumeration; the
  // sketch itself answers any key).
  const std::set<std::string>& tracked_keys() const { return tracked_keys_; }
  std::uint64_t untracked_keys() const { return untracked_keys_; }
  const std::vector<TelemetryExemplar>& exemplars() const {
    return exemplars_;
  }
  // Campaign-level exemplar capacity: a fixed multiple of the per-trace
  // reservoir, so exemplar memory is O(1) in the trace count.
  std::size_t exemplar_capacity() const;
  std::uint64_t exemplars_seen() const { return exemplar_seen_; }

  std::uint64_t traces_folded() const { return traces_folded_; }
  std::uint64_t sampled_exact_traces() const { return sampled_exact_; }
  std::uint64_t folded_records() const { return folded_records_; }
  std::size_t memory_bytes() const;

 private:
  bool active_ = false;
  TelemetryConfig config_;
  CountMinSketch counts_;
  LogHistogram rtt_;
  TelemetryBudget budget_;
  std::set<std::string> tracked_keys_;
  std::uint64_t untracked_keys_ = 0;
  std::vector<TelemetryExemplar> exemplars_;
  util::Rng exemplar_rng_{0};
  std::uint64_t exemplar_seen_ = 0;
  std::uint64_t traces_folded_ = 0;
  std::uint64_t sampled_exact_ = 0;
  std::uint64_t folded_records_ = 0;
};

}  // namespace ecnprobe::obs
