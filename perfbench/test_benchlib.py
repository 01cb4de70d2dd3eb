"""Tests of the benchmark's own logic.  Run from the repository root:

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import re
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import benchlib  # noqa: E402
import run  # noqa: E402


def load_bench():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        return json.load(f)


class RequestMixTest(unittest.TestCase):
    def test_same_seed_same_mix(self):
        self.assertEqual(benchlib.make_mix(11), benchlib.make_mix(11))

    def test_other_seed_other_mix(self):
        a, b = benchlib.make_mix(11), benchlib.make_mix(12)
        self.assertNotEqual(a["jobs"], b["jobs"])
        self.assertNotEqual(a["sequence"], b["sequence"])

    def test_hits_stated_repeat_share(self):
        for seed in (0, 1, 7):
            mix = benchlib.make_mix(seed)
            self.assertEqual(len(mix["sequence"]), benchlib.MIX_REQUESTS)
            self.assertAlmostEqual(benchlib.repeat_share(mix["sequence"]),
                                   benchlib.MIX_REPEAT_SHARE, places=12)
        mix = benchlib.make_mix(3, requests=50, repeat_share=0.5)
        self.assertEqual(benchlib.repeat_share(mix["sequence"]), 0.5)

    def test_jobs_are_distinct_and_sighted_in_order(self):
        mix = benchlib.make_mix(5)
        keys = [json.dumps(job, sort_keys=True) for job in mix["jobs"]]
        self.assertEqual(len(keys), len(set(keys)))
        firsts = []
        for index in mix["sequence"]:
            if index not in firsts:
                firsts.append(index)
        # Every repeat names a job already sighted; every job is sighted.
        self.assertEqual(firsts, list(range(len(mix["jobs"]))))

    def test_equal_class_counts_for_every_seed(self):
        """Seeds differ in order and run length, not in how many jobs and
        requests of each class (so how many cells) a pass serves."""
        def classes(mix):
            def cls(j):
                return (j["kind"], bool(j.get("sampled")),
                        len(benchlib.job_apps(j)))
            return (sorted(cls(j) for j in mix["jobs"]),
                    sorted(cls(mix["jobs"][i]) for i in mix["sequence"]))
        for seed in (2, 3, 9):
            self.assertEqual(classes(benchlib.make_mix(1)),
                             classes(benchlib.make_mix(seed)))

    def test_jobs_are_the_smoke_shapes(self):
        """Each job is a class template with only its run length changed,
        by at most LENGTH_STEP * (LENGTH_STEPS - 1)."""
        for job in benchlib.make_mix(4)["jobs"]:
            length = "refs" if "refs" in job else "instrs"
            matches = [t for t in benchlib._CLASSES
                       if dict(t, **{length: job[length]}) == job]
            self.assertEqual(len(matches), 1, job)
            extra = job[length] - matches[0][length]
            self.assertIn(extra, range(0, benchlib.LENGTH_STEP *
                                       benchlib.LENGTH_STEPS,
                                       benchlib.LENGTH_STEP))


class PercentileTest(unittest.TestCase):
    def test_refuses_fewer_than_ten_beyond(self):
        with self.assertRaises(benchlib.TooFewSamples):
            benchlib.percentile(list(range(100)), 99)
        with self.assertRaises(benchlib.TooFewSamples):
            benchlib.percentile(list(range(999)), 99)
        with self.assertRaises(benchlib.TooFewSamples):
            benchlib.percentile(list(range(19)), 50)

    def test_nearest_rank_with_enough_beyond(self):
        values = list(range(1, 1001))
        self.assertEqual(benchlib.percentile(values, 99), 990)
        self.assertEqual(benchlib.percentile(values, 50), 500)
        self.assertEqual(benchlib.percentile(list(reversed(values)), 99),
                         990)

    def test_quartiles_match_statistics_module(self):
        q1, q2, q3 = benchlib.quartiles([5.0, 1.0, 3.0, 2.0, 4.0])
        self.assertEqual((q1, q2, q3), (1.5, 3.0, 4.5))


class HostProbeTest(unittest.TestCase):
    TIMES = [2.0, 2.2, 1.9, 2.1]
    PROBES = [0.024, 0.026, 0.025, 0.023, 0.027]

    def test_host_slowdown_cancels(self):
        """A host that slows the passes and the probe alike leaves the
        figure where it was."""
        base = run.at_probe_ref(self.TIMES, self.PROBES)
        for k in (0.6, 1.3, 1.75):
            self.assertAlmostEqual(
                run.at_probe_ref([t * k for t in self.TIMES],
                                 [p * k for p in self.PROBES]), base,
                places=12)

    def test_program_slowdown_shows(self):
        """Slower passes beside an unchanged probe read slower, in
        proportion."""
        base = run.at_probe_ref(self.TIMES, self.PROBES)
        self.assertAlmostEqual(
            run.at_probe_ref([t * 2 for t in self.TIMES], self.PROBES),
            2 * base, places=12)

    def test_reference_speed_reads_the_median(self):
        probes = [run.PROBE_REF_S] * 3
        self.assertEqual(run.at_probe_ref(self.TIMES, probes),
                         benchlib.median(self.TIMES))


class MetricOutputTest(unittest.TestCase):
    def setUp(self):
        self.bench = load_bench()

    def test_every_metric_once_with_unit_and_direction(self):
        for section in ("end_to_end", "per_layer"):
            specs = self.bench[section]
            values = {spec["name"]: 1.5 for spec in specs}
            lines = benchlib.report_lines(self.bench, section, values)
            self.assertEqual(len(lines), len(specs))
            for spec in specs:
                hits = [line for line in lines
                        if line.split()[0] == spec["name"]]
                self.assertEqual(len(hits), 1, spec["name"])
                self.assertIn(" %s " % spec["unit"], hits[0] + " ")
                self.assertIn("(%s is better)" % spec["better"], hits[0])
            result = json.loads(benchlib.result_json(
                self.bench, section, values, 3, 0))
            self.assertEqual(set(result), {"correct", "attempted", "failed",
                                           "metrics"})
            self.assertEqual(list(result["metrics"]),
                             [spec["name"] for spec in specs])
            for spec in specs:
                self.assertEqual(result["metrics"][spec["name"]],
                                 {"value": 1.5, "unit": spec["unit"]})

    def test_missing_metric_is_an_error(self):
        with self.assertRaises(KeyError):
            benchlib.result_json(self.bench, "end_to_end", {}, 1, 0)

    def test_declared_per_layer_metrics_are_produced(self):
        """Each per-layer metric is set by the harness or by run.py, and
        each name they set is declared, so none reads 0 by a typo."""
        with open(os.path.join(HERE, "harness.cc")) as f:
            harness = f.read()
        order = harness[harness.index("kLayerOrder = {"):]
        order = order[:order.index("};")]
        produced = set(re.findall(r'"([^"]+)"', order))
        with open(os.path.join(HERE, "run.py")) as f:
            produced |= set(re.findall(r'layers\["([^"]+)"\]', f.read()))
        declared = {spec["name"] for spec in self.bench["per_layer"]}
        self.assertEqual(declared, produced)

    def test_declared_end_to_end_metrics_are_produced(self):
        """run.py sets every end-to-end metric on every workload (the
        study workloads share one dict, serve-replay has its own)."""
        with open(os.path.join(HERE, "run.py")) as f:
            source = f.read()
        blocks = re.findall(r"values = \{(.*?)\n\s*\}", source, re.S)
        self.assertEqual(len(blocks), 2)
        declared = {spec["name"] for spec in self.bench["end_to_end"]}
        for block in blocks:
            self.assertEqual(set(re.findall(r'"([^"]+)":', block)),
                             declared)

    def test_benchmark_json_shape(self):
        self.assertEqual(set(self.bench), {"command", "paths", "run_seconds",
                                           "workloads", "end_to_end",
                                           "per_layer"})
        names = [s["name"] for s in self.bench["end_to_end"]]
        self.assertIn("setup_s", names)
        for spec in self.bench["end_to_end"]:
            self.assertLessEqual(spec["bound"], 0.25)
        all_names = names + [s["name"] for s in self.bench["per_layer"]]
        self.assertEqual(len(all_names), len(set(all_names)))


if __name__ == "__main__":
    unittest.main()
