#!/usr/bin/env python3
"""The CAPsim benchmark.

    python3 perfbench/run.py --workload static-study|interval-study|serve-replay
                             [--seed N] [--seconds S] [--trace 0|1]

Builds the simulator, the harness and the daemon launcher from the
checkout's sources (into .bench_build/), runs one workload for --seconds,
checks its outputs, and prints every metric by name with its unit and
direction.  The last stdout line is one JSON object: {"correct",
"attempted", "failed", "metrics"}.
--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1 is
a separate traced run that reports the per-layer metrics and writes the
spans to .bench_out/spans-<workload>.json (Chrome trace_event format).
See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import benchlib  # noqa: E402
import serve_replay  # noqa: E402

BUILD_DIR = ".bench_build"
OUT_DIR = ".bench_out"
DIGESTS = os.path.join(HERE, "digests.json")
WORKLOADS = ("static-study", "interval-study", "serve-replay")
# Set-up is short next to a run: measure it this many times in a run
# (harness spawns, or daemon restarts on the spill) and report the median.
SETUP_REPS = 60
# Every run ends well inside the 180 s a run may take.
RUN_DEADLINE_S = 170.0
# CPU seconds one host probe sample takes (per thread) on the reference
# host, the 4-vCPU VM of README.md's HEAD figures.  Gated times are
# stated at this probe speed: the run's median time x PROBE_REF_S / the
# median CPU seconds of the probe samples taken between its passes (see
# HostProbe in harness.cc).
PROBE_REF_S = 0.030
STATIC_PARTS = ("cache_study_s", "dram_study_s", "iq_study_s",
                "sampled_study_s")
INTERVAL_PARTS = ("interval_iq_s", "interval_cache_s")


class BenchError(RuntimeError):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


def worker_count():
    """Study pool and daemon width: the host's cores, at most 4 (the
    load is sized for a 4-core host)."""
    return max(1, min(4, os.cpu_count() or 1))


def split_cpus():
    """(client CPUs, daemon CPUs) for serve-replay: the first CPU this
    process may use for the load generator, up to worker_count() of the
    others for the daemon, so the clients never take the daemon's CPU
    (on one CPU, both share it)."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return set(cpus), set(cpus)
    return {cpus[0]}, set(cpus[1:1 + worker_count()])


def build(jobs):
    """Configure (a no-op when nothing changed, and it picks up new
    targets), then (re)build the harness, the launcher and `capsim`."""
    build_dir = os.path.join(ROOT, BUILD_DIR)
    fresh = not os.path.exists(os.path.join(build_dir, "CMakeCache.txt"))
    step = ["cmake", "-S", HERE, "-B", build_dir,
            "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
        if fresh:
            shutil.rmtree(build_dir, ignore_errors=True)
        raise BenchError("configuring the benchmark build failed")
    step = ["cmake", "--build", build_dir, "-j", str(jobs), "--target",
            "perfbench_harness", "perfbench_launch", "capsim"]
    if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
        raise BenchError("building the benchmark failed")
    return (os.path.join(build_dir, "perfbench_harness"),
            os.path.join(build_dir, "perfbench_launch"),
            os.path.join(build_dir, "capsim-tools", "capsim"))


class Context:
    def __init__(self, args):
        self.args = args
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = args.trace == 1
        self.jobs = worker_count()
        self.started = time.monotonic()
        self.out = os.path.join(ROOT, OUT_DIR)
        self.harness = self.launcher = self.capsim = None
        self.cpus = os.sched_getaffinity(0)
        self.daemon_cpus = None

    def time_left(self):
        return RUN_DEADLINE_S - (time.monotonic() - self.started)

    def spans_path(self, workload):
        return os.path.join(self.out, "spans-%s.json" % workload)

    def run_harness(self, mode, *extra, trace=False):
        """Run the harness; returns its JSON report."""
        cmd = [self.harness, mode, "--seed", str(self.seed), "--seconds",
               str(self.seconds), "--jobs", str(self.jobs),
               "--trace", "1" if trace else "0"]
        cmd += list(extra)
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=sys.stderr,
                                  timeout=max(10.0, self.time_left()))
        except subprocess.TimeoutExpired:
            raise BenchError("harness %s ran past the run deadline" % mode)
        if proc.returncode != 0:
            raise BenchError("harness %s exited with %d"
                             % (mode, proc.returncode))
        lines = proc.stdout.decode().strip().splitlines()
        if not lines:
            raise BenchError("harness %s printed no report" % mode)
        return json.loads(lines[-1])

    def probe(self):
        """Per-thread CPU seconds of host probe samples as wide as the
        pool, on every CPU the run may use."""
        pinned = os.sched_getaffinity(0)
        os.sched_setaffinity(0, self.cpus)
        try:
            return self.run_harness("probe")["cpu"]["probe"]
        finally:
            os.sched_setaffinity(0, pinned)

    def setup_seconds(self, mode):
        """The harness's set-up alone (its main() entry to ready, timed
        inside it), SETUP_REPS times."""
        return [self.run_harness(mode, "--setup-only")["setup_s"]
                for _ in range(SETUP_REPS)]


def load_digests():
    with open(DIGESTS) as f:
        return json.load(f)


def check_digests(ctx, workload, digests, failures):
    """At the default seed every study's rendered bytes match the
    committed digests."""
    if ctx.seed != benchlib.DEFAULT_SEED:
        return 0
    want = load_digests().get(workload, {})
    bad = 0
    for name, digest in sorted(digests.items()):
        if want.get(name) != digest:
            failures.append("%s output digest %s != committed %s"
                            % (name, digest, want.get(name)))
            bad += 1
    if set(want) != set(digests):
        failures.append("%s digest set differs from digests.json" % workload)
        bad += 1
    return bad


def at_probe_ref(seconds, probes):
    """The median of @p seconds stated at the reference probe speed:
    times the reference probe CPU seconds over the median probe
    sample's."""
    return benchlib.median(seconds) * PROBE_REF_S / benchlib.median(probes)


def spread_line(name, values, unit):
    q1, q2, q3 = benchlib.quartiles(values)
    return "  %-20s median %.5g %s  (q1 %.5g, q3 %.5g, n=%d)" % (
        name, q2, unit, q1, q3, len(values))


def harness_workload(ctx, workload, mode, parts):
    """static-study and interval-study: the harness does the work."""
    lines, failures = [], []
    if ctx.trace:
        report = ctx.run_harness(mode, "--spans", ctx.spans_path(workload),
                                 trace=True)
        failures += report["failures"]
        failed = report["failed"] + check_digests(
            ctx, workload, report["digests"], failures)
        attempted = report["attempted"]
        layers = dict(report["per_layer"])
        layers["fail_ratio"] = failed / attempted
        lines.append("spans: %s" % ctx.spans_path(workload))
        return lines, layers, attempted, failed, failures

    setups = ctx.setup_seconds(mode)
    report = ctx.run_harness(mode)
    setups.append(report["setup_s"])
    failures += report["failures"]
    failed = report["failed"] + check_digests(ctx, workload,
                                              report["digests"], failures)
    attempted = report["attempted"]
    times, cpu = report["times"], report["cpu"]
    n = report["passes"]
    walls = [sum(times[p][i] for p in parts) for i in range(n)]
    cpus = [sum(cpu[p][i] for p in parts) for i in range(n)]
    probes = cpu["probe"]
    values = {
        "setup_s": at_probe_ref(setups, probes),
        "pass_ref_s": at_probe_ref(walls, probes),
        "cpu_ref_s": at_probe_ref(cpus, probes),
        "peak_rss_mb": report["peak_rss_mb"],
    }
    lines.append("%s: %d passes at --jobs %d, seed %d; wall (CPU) seconds"
                 % (workload, n, report["jobs"], ctx.seed))
    for part in parts:
        lines.append(spread_line(part, times[part], "s"))
        lines.append(spread_line("  cpu", cpu[part], "s"))
    lines.append(spread_line("pass wall", walls, "s"))
    lines.append(spread_line("  cpu", cpus, "s"))
    lines.append(spread_line("probe cpu", probes, "s"))
    lines.append(spread_line("setup", setups, "s"))
    lines.append("  at probe CPU %g s: pass_ref_s %.5g s, cpu_ref_s %.5g s, "
                 "setup_s %.5g s" % (PROBE_REF_S, values["pass_ref_s"],
                                     values["cpu_ref_s"], values["setup_s"]))
    lines.append("  fail_ratio           %d / %d = %.4f"
                 % (failed, attempted, failed / attempted))
    for acc in report.get("accuracy", []):
        lines.append(
            "  modelled (seed %d), calibration residuals, unvalidated: "
            "mean TPI reduction cache %.2f%% (paper 9%%, diff %+.2f), "
            "IQ %.2f%% (paper 7%%, diff %+.2f), mean TPImiss reduction "
            "%.2f%% (paper 26%%, diff %+.2f)"
            % (acc["seed"], acc["cache_tpi_reduction_pct"],
               acc["cache_tpi_reduction_pct"] - 9.0,
               acc["iq_tpi_reduction_pct"],
               acc["iq_tpi_reduction_pct"] - 7.0,
               acc["tpimiss_reduction_pct"],
               acc["tpimiss_reduction_pct"] - 26.0))
    return lines, values, attempted, failed, failures


def static_study(ctx):
    return harness_workload(ctx, "static-study", "static", STATIC_PARTS)


def interval_study(ctx):
    return harness_workload(ctx, "interval-study", "interval",
                            INTERVAL_PARTS)


def serve_round(ctx, run_dir, sock, jobs, sequence, small_cache, log_file):
    """One replay of the mix: pass 1 from an empty spill, then a daemon
    restart on that spill with an in-memory cache below the key space.
    Returns one record per pass.  Untraced, host probes run just before
    and after the gated pass 2, with no daemon up."""
    spill = os.path.join(run_dir, "spill.jsonl")
    if os.path.exists(spill):
        os.unlink(spill)
    passes, offset = [], 0
    for cache in (None, small_cache):
        probes = ctx.probe() if cache and not ctx.trace else []
        daemon = serve_replay.Daemon(ctx.launcher, ctx.capsim, sock, spill,
                                     len(ctx.daemon_cpus), cache, log_file,
                                     ctx.daemon_cpus)
        try:
            setup = daemon.start()
            samples, wall, errors = serve_replay.replay(
                sock, jobs, sequence, ctx.jobs)
            stats = daemon.request("stats")
            rss = daemon.peak_rss_mb()
            cpu = daemon.stop()
        finally:
            daemon.kill()
        if probes:
            probes += ctx.probe()
        for s in samples:
            if s is not None:
                s.req += offset
        offset += len(samples)
        passes.append({"setup": setup, "samples": samples, "wall": wall,
                       "errors": errors, "stats": stats, "rss": rss,
                       "cpu": cpu, "probe": probes})
    return passes


def restart_setups(ctx, run_dir, sock, small_cache, log_file, count):
    """Set-up times (Daemon.start) of @p count more daemon restarts on
    the last round's spill, each stopped once it has answered `stats`."""
    spill = os.path.join(run_dir, "spill.jsonl")
    setups = []
    for _ in range(count):
        daemon = serve_replay.Daemon(ctx.launcher, ctx.capsim, sock, spill,
                                     len(ctx.daemon_cpus), small_cache,
                                     log_file, ctx.daemon_cpus)
        try:
            setups.append(daemon.start())
            daemon.request("stats")
            daemon.stop()
        finally:
            daemon.kill()
    return setups


def serve_workload(ctx):
    mix = benchlib.make_mix(ctx.seed)
    jobs, sequence = mix["jobs"], mix["sequence"]
    cells = len({cid for job in jobs for cid in benchlib.cell_ids(job)})
    small_cache = max(1, cells // 4)
    run_dir = os.path.join(ctx.out, "serve-%d" % os.getpid())
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    sock = os.path.relpath(os.path.join(run_dir, "d.sock"))
    lines, failures = [], []

    # A traced run replays two rounds, enough requests for req_p99_ms.
    # The load generator keeps to its own CPU while the rounds run.
    rounds = []
    client_cpus, ctx.daemon_cpus = split_cpus()
    own = os.sched_getaffinity(0)
    os.sched_setaffinity(0, client_cpus)
    with open(os.path.join(run_dir, "daemon.log"), "wb") as log_file:
        start = time.monotonic()
        while True:
            rounds.append(serve_round(ctx, run_dir, sock, jobs, sequence,
                                      small_cache, log_file))
            if ctx.trace and len(rounds) == 2:
                break
            if not ctx.trace and time.monotonic() - start >= ctx.seconds:
                break
        restarts = [r[1]["setup"] for r in rounds]
        if not ctx.trace:
            restarts += restart_setups(ctx, run_dir, sock, small_cache,
                                       log_file, SETUP_REPS)
    os.sched_setaffinity(0, own)

    # Outside the timed region: the offline render of every distinct job
    # (and, traced, the replay of the key sequence through the layers).
    plan = {"requests": [benchlib.submit_line(job) for job in jobs],
            "passes": [sequence, sequence],
            "capacity": [4096, small_cache],
            "spill": os.path.join(run_dir, "replay-spill.jsonl")}
    plan_path = os.path.join(run_dir, "plan.json")
    with open(plan_path, "w") as f:
        json.dump(plan, f)
    harness_spans = os.path.join(run_dir, "harness-spans.json")
    extra = ["--plan", plan_path]
    if ctx.trace:
        extra += ["--spans", harness_spans]
    offline = ctx.run_harness("serve-check", *extra, trace=ctx.trace)
    if ctx.trace:
        with open(harness_spans) as f:
            harness_events = json.load(f)
    failures += offline["failures"]
    renders = offline["renders"]

    passes = [p for r in rounds for p in r]
    attempted = failed = 0
    for p in passes:
        failures += p["errors"]
        failed += len(p["errors"])
        for s in p["samples"]:
            attempted += 1
            if s is None or not s.ok():
                failed += 1
                if s is not None:
                    failures.append("request %d (job %d): %s"
                                    % (s.req, s.job, s.status))
            elif s.output != renders[s.job]:
                failed += 1
                failures.append("request %d (job %d): served output differs "
                                "from the offline render" % (s.req, s.job))
    failed += offline["failed"]
    attempted += offline["attempted"]
    if failed == 0:
        shutil.rmtree(run_dir, ignore_errors=True)

    ok = [s for p in passes for s in p["samples"] if s is not None and s.ok()]
    latencies = [s.latency_ms() for s in ok]
    requests = sum(len(p["samples"]) for p in passes)
    wall = sum(p["wall"] for p in passes)
    shares = benchlib.repeat_share(sequence)
    cells_seen = sum(p["stats"]["counters"]["serve.cells"] for p in passes)
    cell_hits = sum(p["stats"]["counters"]["serve.cache_hits"]
                    for p in passes)
    first = [r[0] for r in rounds]
    second = [r[1] for r in rounds]
    lines.append("serve-replay: %d rounds x 2 passes x %d requests, %d "
                 "clients on CPU %s, daemon --jobs %d on CPUs %s, seed %d"
                 % (len(rounds), len(sequence), ctx.jobs,
                    ",".join(map(str, sorted(client_cpus))),
                    len(ctx.daemon_cpus),
                    ",".join(map(str, sorted(ctx.daemon_cpus))), ctx.seed))
    lines.append("  distinct jobs %d, cells %d, restart cache %d; repeat "
                 "share pass 1 %.3f, both passes %.3f"
                 % (len(jobs), cells, small_cache, shares,
                    benchlib.repeat_share(sequence + sequence)))
    try:
        p50 = benchlib.percentile(latencies, 50)
        p99 = benchlib.percentile(latencies, 99)
        lines.append("  req_p50_ms %.3f  req_p99_ms %.3f  (n=%d)  req_per_s "
                     "%.1f" % (p50, p99, len(latencies), requests / wall))
    except benchlib.TooFewSamples as exc:
        if ctx.trace:
            raise
        # Failed requests left too few latencies; the failures print below.
        lines.append("  req_p50_ms / req_p99_ms refused: %s" % exc)
    lines.append(spread_line("pass1_s", [p["wall"] for p in first], "s"))
    lines.append(spread_line("  daemon cpu", [p["cpu"] for p in first], "s"))
    lines.append(spread_line("pass2_s", [p["wall"] for p in second], "s"))
    lines.append(spread_line("  daemon cpu", [p["cpu"] for p in second],
                             "s"))
    lines.append(spread_line("setup fresh", [p["setup"] for p in first],
                             "s"))
    lines.append(spread_line("setup restart", restarts, "s"))
    if not ctx.trace:
        probes = [x for p in second for x in p["probe"]]
        pass_ref = at_probe_ref([p["wall"] for p in second], probes)
        cpu_ref = at_probe_ref([p["cpu"] for p in second], probes)
        setup_ref = at_probe_ref(restarts, probes)
        lines.append(spread_line("probe cpu", probes, "s"))
        lines.append("  at probe CPU %g s: pass_ref_s %.5g s, cpu_ref_s "
                     "%.5g s, setup_s %.5g s" % (PROBE_REF_S, pass_ref,
                                                 cpu_ref, setup_ref))
    lines.append("  cell hit ratio %.4f; fail_ratio %d / %d = %.4f"
                 % (cell_hits / cells_seen if cells_seen else 0.0, failed,
                    attempted, failed / attempted))

    if not ctx.trace:
        # Gated: the restarted daemon's pass, every request a hit served
        # from memory or the spill, so the queue, ResultCache, the spill,
        # the codec and render are its work.  The cold pass is mostly
        # simulation, which static-study times.
        values = {
            "setup_s": setup_ref,
            "pass_ref_s": pass_ref,
            "cpu_ref_s": cpu_ref,
            "peak_rss_mb": benchlib.median([p["rss"] for p in second]),
        }
        return lines, values, attempted, failed, failures

    # Per-layer: the request split from the client timestamps, the cache,
    # codec and render layers and the tracing overhead from the harness
    # replay of the same key sequence.
    def pct(fn, p):
        return benchlib.percentile([fn(s) for s in ok], p)

    layers = dict(offline.get("per_layer", {}))
    layers["req_p50_ms"] = p50
    layers["req_p99_ms"] = p99
    layers["req_per_s"] = requests / wall
    layers["req_samples"] = len(latencies)
    layers["serve.admit_p50_ms"] = pct(lambda s: (s.ack - s.submit) / 1e6,
                                       50)
    layers["serve.queue_wait_p50_ms"] = pct(
        lambda s: (s.cell - s.ack) / 1e6, 50)
    layers["serve.queue_wait_p99_ms"] = pct(
        lambda s: (s.cell - s.ack) / 1e6, 99)
    layers["serve.exec_p50_ms"] = pct(lambda s: (s.result - s.cell) / 1e6,
                                      50)
    layers["serve.hit_ratio"] = cell_hits / max(1, cells_seen)
    layers["serve.shed"] = sum(p["stats"]["counters"]["serve.shed"]
                               for p in passes)
    layers["serve.errors"] = sum(p["stats"]["counters"]["serve.errors"]
                                 for p in passes)
    layers["serve.repeat_share"] = shares
    layers["fail_ratio"] = failed / attempted

    # One trace file: client request spans (pid 3) next to the harness's
    # replay spans (pid 2) and the program's own spans (pid 1).
    events = serve_replay.chrome_events(
        [s for p in passes for s in p["samples"]],
        min(s.submit for s in ok))
    events += harness_events
    with open(ctx.spans_path("serve-replay"), "w") as f:
        json.dump(events, f)
    lines.append("spans: %s" % ctx.spans_path("serve-replay"))
    return lines, layers, attempted, failed, failures


RUNNERS = {"static-study": static_study, "interval-study": interval_study,
           "serve-replay": serve_workload}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[1])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=benchlib.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        ctx = Context(args)
        ctx.harness, ctx.launcher, ctx.capsim = build(ctx.jobs)
        os.makedirs(ctx.out, exist_ok=True)
        lines, values, attempted, failed, failures = \
            RUNNERS[args.workload](ctx)
    except (BenchError, serve_replay.DaemonError, OSError,
            benchlib.TooFewSamples, ValueError, KeyError) as exc:
        log("perfbench: %s" % exc)
        return 2

    section = "per_layer" if ctx.trace else "end_to_end"
    for spec in bench[section]:
        values.setdefault(spec["name"], 0.0)
    for line in lines:
        print(line)
    for failure in failures:
        print("FAILED: %s" % failure)
    print("%s metrics (%s):" % (args.workload, section))
    for line in benchlib.report_lines(bench, section, values):
        print("  " + line)
    print(benchlib.result_json(bench, section, values, attempted, failed))
    sys.stdout.flush()
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
