"""Pure helpers of the CAPsim benchmark: the serve request mix, the
order statistics, and the metric report.  Nothing here starts a process,
so test_benchlib.py covers it without a build."""

import json
import math
import random
import statistics

# --seed value that keeps the suite's own profile seeds; the committed
# output digests (digests.json) hold at this seed only.
DEFAULT_SEED = 0

# The workload suite (trace/workloads.cc).  go sits out the cache study.
CACHE_APPS = [
    "m88ksim", "gcc", "compress", "li", "ijpeg", "perl", "vortex",
    "airshed", "stereo", "radar", "appcg", "tomcatv", "swim", "su2cor",
    "hydro2d", "mgrid", "applu", "turb3d", "apsi", "fpppp", "wave5",
]
IQ_APPS = ["go"] + CACHE_APPS

# serve-replay traffic.  Nothing in the repository records how the
# study server is used, so the mix generalises the one study it is sent:
# the CI server smoke (.github/workflows/ci.yml) submits
#     {"kind": "cache-sweep", "apps": "all", "refs": 40000}
#     {"kind": "iq-sweep", "apps": "all", "instrs": 30000}
#     {"kind": "interval-run", "apps": "li", "instrs": 200000,
#      "trigger": "hybrid"}
# once cold and once warm.  The job classes are those three jobs plus a
# sampled variant of each sweep, with the sampling knobs of the sampled
# jobs in tests/serve_test.cc.  Every seed gets the same number of jobs
# and of requests of each class (equal cost; see make_mix).
_CLASSES = [
    {"kind": "cache-sweep", "apps": "all", "refs": 40000},
    {"kind": "iq-sweep", "apps": "all", "instrs": 30000},
    {"kind": "interval-run", "apps": "li", "instrs": 200000,
     "trigger": "hybrid"},
    {"kind": "cache-sweep", "apps": "all", "refs": 40000, "sampled": True,
     "sample": {"clusters": 4, "interval": 500, "warmup": 1000}},
    {"kind": "iq-sweep", "apps": "all", "instrs": 30000, "sampled": True,
     "sample": {"clusters": 3, "interval": 400, "warmup": 800}},
]
# The seed makes a class's jobs distinct by lengthening its run by
# LENGTH_STEP times one of LENGTH_STEPS steps (at most +15%; the smoke's
# lengths are the shortest).  An assumption, like the two below.
LENGTH_STEP = 500
LENGTH_STEPS = 10

# Requests per pass and the share of them that repeat an earlier request
# of the pass; the second pass replays the first, so all of its requests
# repeat.  Assumptions with nothing recorded behind them: 10 distinct
# jobs (two per class, about 2.6 CPU seconds of simulation) keep the
# cold first pass short, and 500 requests make the all-hit second pass,
# whose daemon the end-to-end metrics time, about half a second of
# lookups, spill reads, codec and render.
MIX_REQUESTS = 500
MIX_REPEAT_SHARE = 0.98


def _make_job(rng, template):
    job = json.loads(json.dumps(template))
    length = "refs" if "refs" in job else "instrs"
    job[length] += LENGTH_STEP * rng.randrange(LENGTH_STEPS)
    return job


def job_apps(job):
    """The applications a job's cells run: "all" expands as the server
    expands it (the cache study leaves go out)."""
    if job["apps"] != "all":
        return [job["apps"]] if isinstance(job["apps"], str) else job["apps"]
    return CACHE_APPS if job["kind"] == "cache-sweep" else IQ_APPS


def cell_ids(job):
    """The identities of a job's cells: everything the server keys a
    cell on that this mix varies (the application's profile is fixed
    by its name, since the daemon resolves names in its own suite)."""
    length = job.get("refs", job.get("instrs"))
    base = (job["kind"], bool(job.get("sampled")), length, job.get("trigger"))
    return [base + (app,) for app in job_apps(job)]


def make_mix(seed, requests=MIX_REQUESTS, repeat_share=MIX_REPEAT_SHARE):
    """The serve-replay request mix for @p seed.

    Returns {"jobs": [distinct job objects, in order of first sighting],
    "sequence": [job index per request]}.  Exactly round(requests *
    repeat_share) requests repeat a job seen earlier in the sequence; the
    rest are first sightings.  Every class has the same number of jobs
    and of requests whatever the seed, so seeds differ in order and run
    length, not in the amount of serving.
    """
    rng = random.Random("capsim-serve-mix:%d" % seed)
    distinct = requests - round(requests * repeat_share)
    classes = len(_CLASSES)
    if distinct < classes or distinct % classes or requests % classes:
        raise ValueError("requests and distinct jobs must split evenly "
                         "over the %d job classes" % classes)
    class_jobs, class_requests = distinct // classes, requests // classes
    pool = []
    for template in _CLASSES:
        jobs = []
        while len(jobs) < class_jobs:
            job = _make_job(rng, template)
            if job not in jobs:
                jobs.append(job)
        pool.append(jobs)
    # The class of each request, in a seeded order; within a class, its
    # first request and class_jobs - 1 seeded others sight a new job and
    # every other request repeats one of the class's jobs sighted so far.
    order = [c for c in range(classes) for _ in range(class_requests)]
    rng.shuffle(order)
    firsts = [set([0] + rng.sample(range(1, class_requests), class_jobs - 1))
              for _ in range(classes)]
    seen = [0] * classes
    sighted = [[] for _ in range(classes)]
    jobs, sequence = [], []
    for c in order:
        if seen[c] in firsts[c]:
            sighted[c].append(len(jobs))
            jobs.append(pool[c][len(sighted[c]) - 1])
            sequence.append(sighted[c][-1])
        else:
            sequence.append(rng.choice(sighted[c]))
        seen[c] += 1
    return {"jobs": jobs, "sequence": sequence}


def repeat_share(sequence):
    """Share of the requests whose job appeared earlier in @p sequence."""
    seen, repeats = set(), 0
    for index in sequence:
        repeats += index in seen
        seen.add(index)
    return repeats / len(sequence) if sequence else 0.0


def submit_line(job):
    """The protocol line that submits @p job (docs/SERVER.md)."""
    return json.dumps({"op": "submit", "job": job}, sort_keys=True)


class TooFewSamples(ValueError):
    """A percentile was asked of too few samples to report it."""


MIN_BEYOND = 10


def percentile(values, pct, min_beyond=MIN_BEYOND):
    """Nearest-rank percentile; refuses unless at least @p min_beyond
    samples lie beyond it, so a tail figure never rests on a handful of
    requests."""
    n = len(values)
    rank = max(1, math.ceil(pct / 100.0 * n))
    if n - rank < min_beyond:
        raise TooFewSamples(
            "p%g of %d samples has %d beyond it (need %d)"
            % (pct, n, n - rank, min_beyond))
    return sorted(values)[rank - 1]


def median(values):
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them; one
    value stands for all three."""
    if len(values) < 2:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def report_lines(bench, section, values):
    """One human-readable line per metric of @p section: name, value,
    unit and direction.  @p values maps every metric name to a number."""
    lines = []
    for spec in bench[section]:
        name = spec["name"]
        lines.append("%-26s %16.6g %-9s (%s is better)"
                     % (name, values[name], spec["unit"], spec["better"]))
    return lines


def result_json(bench, section, values, attempted, failed):
    """The result line (the last stdout line): every metric of @p section
    once, with its unit."""
    metrics = {}
    for spec in bench[section]:
        metrics[spec["name"]] = {"value": values[spec["name"]],
                                 "unit": spec["unit"]}
    return json.dumps({"correct": failed == 0, "attempted": attempted,
                       "failed": failed, "metrics": metrics})
