#!/usr/bin/env python3
"""End-to-end benchmark of the ecnprobe library.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run builds the library and the
job binary (perfbench/CMakeLists.txt) in $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that is unset. Each job runs in a fresh
process of that binary; jobs repeat until the run has lasted about
--seconds (it ends within about half a job of it). The inputs of each job
derive from --seed and the job's input index alone. With --trace 0
every job takes the next input, so a run averages over several worlds;
with --trace 1 jobs take each input twice, untraced then traced, and the
two must produce byte-identical artefacts and exact counts. Before the
jobs, a few more processes of the binary take set-up samples only.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
and the tracing overhead. Human-readable lines come first; the last line of
stdout is one JSON object. A failed correctness check prints that object
with "correct": false and exits 1.

    python3 perfbench/run.py --write-references

regenerates perfbench/reference/ at the default seed: digests of the
artefacts of the first inputs of every workload.

See perfbench/RATIONALE.md for the workloads and what each metric means.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_SEED = 1
REFERENCE = os.path.join(HERE, "reference", "seed-%d.json" % DEFAULT_SEED)
JOB_TIMEOUT_S = 150
# Set-up is sampled in this many extra processes per run, besides the jobs.
# Samples agree within a process but differ by up to half between
# processes, so each process counts as one draw.
SETUP_PROCESSES = 5
BUILD_TIMEOUT_S = 840

# Workloads, each with the number of its inputs the reference digests cover.
WORKLOADS = {"campaign_paper": 12, "traceroute_paper": 6, "daemon_chaos": 12}

END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "scenario.world_build_s": "s",
    "netsim.sim_us_per_item": "us",
    "export.ms": "ms",
    "executor.busy_fraction": "fraction",
    "netsim.events_per_item": "count",
    "netsim.packets_per_item": "count",
    "tcp.handshakes_per_item": "count",
    "tcp.retransmissions_per_item": "count",
    "http.requests_per_item": "count",
    "measure.udp_attempts_per_item": "count",
    "obs.ledger_drops_per_item": "count",
    "daemon.shed_total": "count",
    "journal.bytes_per_trace": "bytes",
    "memory.rss_after_setup_mb": "MB",
    "memory.retained_kb_per_item": "KB",
    "tracing.overhead_fraction": "fraction",
}

COUNTS = ["events", "packets", "handshakes", "retransmissions", "http_requests",
          "udp_attempts", "ledger_drops", "probe_servers"]


class BenchError(Exception):
    """The benchmark could not run (build or job failure)."""


# -- build -------------------------------------------------------------------

def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "perfbench")


def build():
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        raise BenchError("no library sources under ./src; run from the repository root")
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", out, "-j", jobs])
    for step in steps:
        proc = subprocess.run(step, capture_output=True, text=True, timeout=BUILD_TIMEOUT_S)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
            raise BenchError("build step failed: " + " ".join(step))
    return os.path.join(out, "perfbench_job")


def run_job(binary, args):
    proc = subprocess.run([binary] + args, stdout=subprocess.PIPE, text=True,
                          timeout=JOB_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("job %s exited %d" % (" ".join(args[:1]), proc.returncode))
    return json.loads(lines[-1])


# -- statistics ----------------------------------------------------------------

def tail(samples):
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile, sample count). With fewer than eleven
    samples no percentile has ten beyond it, and the median stands in."""
    ordered = sorted(samples)
    n = len(ordered)
    if n >= 11:
        index = n - 11
        return ordered[index], 100.0 * (index + 1) / n, n
    return statistics.median(ordered), 50.0, n


def finite(value, fallback):
    """A failed attempt counts as missing every latency limit: it enters the
    sample as infinity, and an infinite percentile is reported as the whole
    measured time, the longest wait the run could observe."""
    return value if value != float("inf") else fallback


def self_times(spans):
    """Per span name: (count, total seconds, self seconds), where self time
    is the duration minus the union of the intervals its children cover."""
    children = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(span)
    out = {}
    for span in spans:
        start, end = span["start"], span["end"]
        covered = 0.0
        cursor = start
        for lo, hi in sorted((max(c["start"], start), min(c["end"], end))
                             for c in children.get(span["id"], [])):
            if hi <= cursor:
                continue
            covered += hi - max(lo, cursor)
            cursor = hi
        count, total, self_s = out.get(span["name"], (0, 0.0, 0.0))
        out[span["name"]] = (count + 1, total + end - start, self_s + end - start - covered)
    return out


def slope(values):
    """Least-squares slope of values against their index."""
    n = len(values)
    if n < 2:
        return 0.0
    mean_x = (n - 1) / 2.0
    mean_y = sum(values) / n
    num = sum((i - mean_x) * (v - mean_y) for i, v in enumerate(values))
    den = sum((i - mean_x) ** 2 for i in range(n))
    return num / den


def sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


# -- correctness ---------------------------------------------------------------

def artefacts(workload, job, job_dir):
    """Digests of the artefacts the correctness gate compares, keyed by
    "<input index>/<file>"."""
    if workload == "daemon_chaos":
        return {"%d/campaign-%d.csv" % (job["index"], number): sha256(
                    os.path.join(job_dir, "results", "campaign-%d.csv" % number))
                for number in sorted(int(k) for k in job["done_numbers"])}
    names = ("traces.csv", "metrics.campaign.json") if workload == "campaign_paper" \
        else ("hops.txt",)
    return {"%d/%s" % (job["index"], name): sha256(os.path.join(job_dir, name))
            for name in names}


def structural_errors(workload, job, job_dir):
    errors = []

    def expect(ok, message):
        if not ok:
            errors.append(message)

    if workload == "campaign_paper":
        expect(job["traces"] + job["quarantined"] == job["planned_traces"],
               "trace count %d + %d quarantined != planned %d"
               % (job["traces"], job["quarantined"], job["planned_traces"]))
        expect(job["servers_per_trace_ok"] == 1, "a trace does not hold every server")
        expect(job["probe_servers"] == job["traces"] * job["servers"],
               "probe_servers_total %d != traces x servers %d"
               % (job["probe_servers"], job["traces"] * job["servers"]))
    elif workload == "traceroute_paper":
        expect(job["stalled"] == 1 or job["items"] == job["planned_items"],
               "traceroutes %d != planned %d" % (job["items"], job["planned_items"]))
        expect(job["stalled"] == 1 or job["total_hops"] > 0, "no hops measured")
    else:
        per_campaign = job["traces_per_campaign"] * job["servers"]
        for number in job["done_numbers"]:
            path = os.path.join(job_dir, "results", "campaign-%d.csv" % int(number))
            with open(path, "rb") as f:
                rows = f.read().count(b"\n") - 1
            expect(rows == per_campaign, "campaign %d result has %d rows, expected %d"
                   % (int(number), rows, per_campaign))
        expect(job["items"] == len(job["done_numbers"]) * per_campaign,
               "server-traces %d != campaigns x traces x servers" % job["items"])
        if "probe_servers" in job:
            expect(job["probe_servers"] == job["items"],
                   "probe_servers_total %d != server-traces %d"
                   % (job["probe_servers"], job["items"]))
    return errors


def load_reference():
    if not os.path.isfile(REFERENCE):
        return None
    with open(REFERENCE) as f:
        return json.load(f)


class Gate:
    """Accumulates correctness failures across the jobs of one run."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.errors = []
        self.digests = {}
        self.counts = {}
        reference = load_reference() if seed == DEFAULT_SEED else None
        self.reference = reference.get(workload) if reference else None
        if seed == DEFAULT_SEED and self.reference is None:
            self.errors.append("no reference digests for %s at seed %d" % (workload, seed))

    def check(self, number, job, job_dir):
        tag = "job %d%s" % (number, " (traced)" if job.get("traced") else "")
        self.errors += ["%s: %s" % (tag, e) for e in structural_errors(self.workload, job, job_dir)]
        for name, digest in artefacts(self.workload, job, job_dir).items():
            # Jobs that take the same input repeat it, traced or not.
            first = self.digests.setdefault(name, digest)
            if first != digest:
                self.errors.append("%s: %s differs from an earlier job of this run" % (tag, name))
            if self.reference is not None:
                expected = self.reference.get(name)
                if expected is not None and expected != digest:
                    self.errors.append("%s: %s digest differs from the reference" % (tag, name))
        if all(key in job for key in COUNTS):
            counts = [job[key] for key in COUNTS]
            if self.counts.setdefault(job["index"], counts) != counts:
                self.errors.append("%s: exact layer counts differ from an earlier job" % tag)


# -- aggregation -----------------------------------------------------------------

def e2e_metrics(workload, jobs, setup_probes):
    setup = [s for job in jobs + setup_probes for s in job["setup_s"]]
    timed = sum(job["timed_s"] for job in jobs)
    if workload == "daemon_chaos":
        latencies = [float("inf") if v is None else v for job in jobs for v in job["latency_s"]]
    else:
        latencies = [job["latency_s"] for job in jobs]
    tail_value, tail_pct, n = tail(latencies)
    return {
        "setup_s": statistics.median(setup),
        "throughput_per_s": statistics.median(j["timed_items"] / j["timed_s"] for j in jobs),
        "latency_p50_s": finite(statistics.median(latencies), timed),
        "latency_tail_s": finite(tail_value, timed),
        "peak_rss_mb": statistics.median(job["peak_rss_mb"] for job in jobs),
    }, (tail_pct, n)


def read_spans(job_dir):
    with open(os.path.join(job_dir, "spans.json")) as f:
        return json.load(f)


def span_durations(spans, name):
    return [s["end"] - s["start"] for s in spans if s["name"] == name]


def layer_metrics(workload, traced, untraced):
    """Per-layer metrics from the traced jobs."""
    items = sum(job["items"] for job in traced)
    spans = [read_spans(job["dir"]) for job in traced]
    per_item = lambda key: sum(job[key] for job in traced) / items
    layer = {
        "scenario.world_build_s": statistics.median(v for job in traced for v in job["build_s"]),
        "netsim.events_per_item": per_item("events"),
        "netsim.packets_per_item": per_item("packets"),
        "tcp.handshakes_per_item": per_item("handshakes"),
        "tcp.retransmissions_per_item": per_item("retransmissions"),
        "http.requests_per_item": per_item("http_requests"),
        "measure.udp_attempts_per_item": per_item("udp_attempts"),
        "obs.ledger_drops_per_item": per_item("ledger_drops"),
        "memory.rss_after_setup_mb": statistics.median(j["rss_after_setup_mb"] for j in traced),
        "memory.retained_kb_per_item": statistics.median(
            (j["rss_end_mb"] - j["rss_after_setup_mb"]) * 1024.0 / j["items"] for j in traced),
        "tracing.overhead_fraction":
            statistics.median(j["timed_items"] / j["timed_s"] for j in untraced)
            / statistics.median(j["timed_items"] / j["timed_s"] for j in traced) - 1.0,
        "daemon.shed_total": 0,
        "journal.bytes_per_trace": 0,
    }
    extra = {}
    if workload == "campaign_paper":
        sim = sum(sum(span_durations(s, "measure.trace_sim")) for s in spans)
        busy = sum(sum(span_durations(s, "measure.trace")) for s in spans)
        available = 0.0
        for s in spans:
            run_end = max(x["end"] for x in s if x["name"] == "measure.campaign_run")
            available += sum(run_end - x["end"] for x in s if x["name"] == "scenario.world_build")
        layer["netsim.sim_us_per_item"] = 1e6 * sim / items
        layer["export.ms"] = 1e3 * statistics.median(j["export_s"] for j in traced)
        layer["executor.busy_fraction"] = busy / available
        trace_sim = [1e3 * v for s in spans for v in span_durations(s, "measure.trace_sim")]
        sim_tail = tail(trace_sim)
        extra = {
            "scenario.begin_trace_ms": (1e3 * statistics.median(
                v for s in spans for v in span_durations(s, "scenario.begin_trace")), "ms"),
            "measure.trace_sim_ms_p50": (statistics.median(trace_sim), "ms"),
            "measure.trace_sim_ms_tail": (sim_tail[0], "ms (p%.0f of %d traces)" % sim_tail[1:]),
            "measure.between_traces_ms": (1e3 * statistics.median(
                v for s in spans for v in span_durations(s, "measure.between_traces")), "ms"),
            "measure.worker_busy_fraction": (layer["executor.busy_fraction"], "fraction"),
            "obs.collect_ms": (1e3 * statistics.median(
                v for s in spans for v in span_durations(s, "obs.collect")), "ms"),
            "obs.export_ms": (1e3 * statistics.median(
                v for s in spans for v in span_durations(s, "obs.export")), "ms"),
            "measure.csv_write_ms": (1e3 * statistics.median(
                v for s in spans for v in span_durations(s, "measure.csv_write")), "ms"),
            "netsim.queue_high_water": (max(j["queue_high_water"] for j in traced), "events"),
            "netsim.events_processed_per_server_trace": (per_item("sim_events_processed"), "count"),
        }
    elif workload == "traceroute_paper":
        layer["netsim.sim_us_per_item"] = 1e6 * sum(j["sim_s"] for j in traced) / items
        layer["export.ms"] = 1e3 * statistics.median(j["export_s"] for j in traced)
        layer["executor.busy_fraction"] = statistics.median(j["sim_s"] / j["timed_s"] for j in traced)
        extra = {
            "traceroute.hops_per_traceroute": (per_item("responding_hops"), "count"),
            "analysis.total_hops": (traced[0]["total_hops"], "count"),
            "analysis.hops_ms": (layer["export.ms"], "ms"),
            "netsim.queue_high_water": (max(j["queue_high_water"] for j in traced), "events"),
        }
    else:
        run_s = [v for j in traced for v in j["run_s"]]
        layer["netsim.sim_us_per_item"] = 1e6 * sum(run_s) / items
        layer["export.ms"] = statistics.median(v for j in traced for v in j["fetch_ms"])
        layer["executor.busy_fraction"] = sum(run_s) / (2.0 * sum(j["session_s"] for j in traced))
        layer["daemon.shed_total"] = sum(j["shed_total"] for j in traced)
        layer["journal.bytes_per_trace"] = statistics.median(
            v for j in traced for v in j["journal_bytes"]) / traced[0]["traces_per_campaign"]
        extra = {
            "daemon.admit_ms": (statistics.median(v for j in traced for v in j["admit_ms"]), "ms"),
            "daemon.queue_wait_s": (statistics.median(
                v for j in traced for v in j["queue_wait_s"]), "s"),
            "daemon.run_s": (statistics.median(run_s), "s"),
            "daemon.result_fetch_ms": (layer["export.ms"], "ms"),
            "daemon.events_per_server_trace": (layer["netsim.events_per_item"], "count"),
            "daemon.journal_bytes_per_trace": (layer["journal.bytes_per_trace"], "bytes"),
            "daemon.rss_growth_mb_per_campaign": (statistics.median(
                slope(j["rss_after_campaign_mb"]) for j in traced), "MB"),
            "daemon.shed_total": (layer["daemon.shed_total"], "count"),
        }
    totals = {}
    for s in spans:
        for name, (count, total, self_s) in self_times(s).items():
            c, t, f = totals.get(name, (0, 0.0, 0.0))
            totals[name] = (c + count, t + total, f + self_s)
    return layer, extra, totals


def failures(workload, jobs):
    if workload == "campaign_paper":
        return (sum(j["planned_traces"] for j in jobs), sum(j["quarantined"] for j in jobs))
    if workload == "traceroute_paper":
        return (sum(j["planned_items"] for j in jobs),
                sum(j["planned_items"] - j["items"] for j in jobs))
    return (sum(j["submitted"] for j in jobs), sum(j["failed"] for j in jobs))


def workload_named_e2e(workload, jobs, metrics, tail_info):
    """The end-to-end figures under their workload-specific names."""
    attempted, failed = failures(workload, jobs)
    lines = [("setup_s", metrics["setup_s"], "s"), ("peak_rss_mb", metrics["peak_rss_mb"], "MB"),
             ("failed_fraction", failed / attempted, "fraction")]
    if workload == "traceroute_paper":
        lines.append(("traceroutes_per_s", metrics["throughput_per_s"], "1/s"))
    else:
        lines.append(("server_traces_per_s", metrics["throughput_per_s"], "1/s"))
    if workload == "daemon_chaos":
        campaigns = sum(j["timed_campaigns"] for j in jobs)
        lines += [
            ("campaigns_per_s", campaigns / sum(j["timed_s"] for j in jobs), "1/s"),
            ("campaign_latency_p50_s", metrics["latency_p50_s"], "s"),
            ("campaign_latency_tail_s", metrics["latency_tail_s"],
             "s (p%.0f of %d campaigns)" % tail_info),
        ]
    else:
        lines.append(("job_latency_p50_s", metrics["latency_p50_s"], "s"))
    return lines


# -- runs --------------------------------------------------------------------------

def more_jobs(done, elapsed, seconds, trace):
    """Whether to start another job. One is started while it would end
    nearer --seconds than stopping now, judged by the mean job so far, so a
    run ends within about half a job of --seconds, not up to a whole job past."""
    if done == 0 or (trace and done < 2):
        return True
    return elapsed + 0.5 * elapsed / done < seconds


def run(workload, seed, seconds, trace):
    binary = build()
    gate = Gate(workload, seed)
    base = os.path.join(build_dir(), "runs", "%s-%d" % (workload, os.getpid()))
    shutil.rmtree(base, ignore_errors=True)
    jobs = []
    try:
        if trace and workload == "campaign_paper":
            # Exact-count self-check: one paper-world slice at 1 and 2 workers.
            check = run_job(binary, ["campaign_slice", "--seed", str(seed), "--index", "0",
                                        "--out", os.path.join(base, "slice")])
            if check["counts_equal"] != 1 or check["artefacts_equal"] != 1:
                gate.errors.append("slice at 1 and 2 workers disagrees on counts or artefacts")
        setup_probes = [run_job(binary, [workload, "--seed", str(seed), "--index", str(i),
                                         "--out", os.path.join(base, "setup-%d" % i),
                                         "--setup-only"])
                        for i in range(SETUP_PROCESSES)]
        start = time.monotonic()
        while more_jobs(len(jobs), time.monotonic() - start, seconds, trace):
            traced = trace and len(jobs) % 2 == 1
            index = len(jobs) // 2 if trace else len(jobs)
            job_dir = os.path.join(base, "job-%d" % len(jobs))
            args = [workload, "--seed", str(seed), "--index", str(index), "--out", job_dir]
            job = run_job(binary, args + (["--trace"] if traced else []))
            job.update(traced=traced, index=index, dir=job_dir)
            gate.check(len(jobs), job, job_dir)
            jobs.append(job)
        untraced = [j for j in jobs if not j["traced"]]
        traced_jobs = [j for j in jobs if j["traced"]]
        metrics, tail_info = e2e_metrics(workload, untraced, setup_probes)
        attempted, failed = failures(workload, jobs)
        print("workload %s  seed %d  jobs %d (%d traced)  measured %.1f s"
              % (workload, seed, len(jobs), len(traced_jobs), time.monotonic() - start))
        for name, value, unit in workload_named_e2e(workload, untraced, metrics, tail_info):
            print("  %-40s %14.6g %s" % (name, value, unit))
        if trace:
            layer, extra, totals = layer_metrics(workload, traced_jobs, untraced)
            print("  per-layer (traced jobs):")
            for name in PER_LAYER:
                print("  %-40s %14.6g %s" % (name, layer[name], PER_LAYER[name]))
            for name, (value, unit) in extra.items():
                print("  %-40s %14.6g %s" % (name, value, unit))
            print("  spans (count, total s, self s):")
            for name, (count, total, self_s) in sorted(totals.items()):
                print("  %-40s %8d %12.4f %12.4f" % (name, count, total, self_s))
            values, units = layer, PER_LAYER
        else:
            values, units = metrics, END_TO_END
    finally:
        shutil.rmtree(base, ignore_errors=True)
    for error in gate.errors:
        sys.stderr.write("perfbench: correctness: %s\n" % error)
    result = {
        "correct": not gate.errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if not gate.errors else 1


def write_references():
    binary = build()
    reference = {"seed": DEFAULT_SEED}
    base = os.path.join(build_dir(), "runs", "reference-%d" % os.getpid())
    try:
        for workload, inputs in WORKLOADS.items():
            reference[workload] = {}
            for index in range(inputs):
                job_dir = os.path.join(base, "%s-%d" % (workload, index))
                job = run_job(binary, [workload, "--seed", str(DEFAULT_SEED), "--index",
                                          str(index), "--out", job_dir])
                job["index"] = index
                errors = structural_errors(workload, job, job_dir)
                if errors:
                    raise BenchError("; ".join(errors))
                reference[workload].update(artefacts(workload, job, job_dir))
                shutil.rmtree(job_dir)
    finally:
        shutil.rmtree(base, ignore_errors=True)
    os.makedirs(os.path.dirname(REFERENCE), exist_ok=True)
    with open(REFERENCE, "w") as f:
        json.dump(reference, f, indent=1, sort_keys=True)
        f.write("\n")
    print("wrote " + REFERENCE)
    return 0


def main():
    # A terminated run unwinds like any other exit: subprocess.run kills and
    # reaps the running job, and run() removes its job directories.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-references", action="store_true")
    args = parser.parse_args()
    try:
        if args.write_references:
            return write_references()
        if args.workload is None:
            parser.error("--workload is required")
        return run(args.workload, args.seed, args.seconds, args.trace == 1)
    except (BenchError, subprocess.TimeoutExpired, OSError, KeyError, ValueError) as e:
        sys.stderr.write("perfbench: %s\n" % e)
        return 2


if __name__ == "__main__":
    sys.exit(main())
