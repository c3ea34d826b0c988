#!/usr/bin/env python3
"""Smoke tests of the hcsim benchmark itself.

Run from the repository root (builds into .bench_build/ on first use):

    python3 perfbench/test_bench.py

Each workload runs at a tiny length, untraced and traced. The tests check
that every metric BENCHMARK.json names is printed with its unit, that the
outputs pass the benchmark's own correctness checks, that trace spans nest
(a child lies inside its parent, on the parent's thread), that per-layer
self times sum to no more than the traced CPU time, and that a directory
holding only the benchmark's files makes it fail without a result.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

ROOT = os.getcwd()
RUN = [sys.executable, os.path.join("perfbench", "run.py")]
TINY = ["--seconds", "0", "--len", "60000", "--cumulative-len", "40000"]
WORKLOADS = ("fig12_full", "fig12_sampled", "daemon_mix")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_bench(workload, trace, seed=3, cwd=ROOT):
    out = subprocess.run(RUN + ["--workload", workload, "--seed", str(seed),
                                "--trace", str(trace), *TINY],
                         cwd=cwd, capture_output=True, text=True, timeout=900)
    return out


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


class BenchmarkSmoke(unittest.TestCase):
    def check_result(self, workload, trace, metric_list, seed=3):
        """The result line, checked; returns it with the full record line."""
        out = run_bench(workload, trace, seed)
        self.assertEqual(out.returncode, 0, out.stderr[-3000:])
        res = last_json(out.stdout)
        self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(res["correct"], out.stderr[-3000:])
        self.assertEqual(res["failed"], 0)
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual(set(res["metrics"]), {m["name"] for m in metric_list})
        for m in metric_list:
            got = res["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
        return res, json.loads(out.stdout.strip().splitlines()[-2])

    def test_end_to_end_metrics(self):
        # fig12_sampled runs the same four-seed grid at the default seed 0 as
        # at any other, and counts covered µops from the grid it ran.
        for w, seed in [*((w, 3) for w in WORKLOADS), ("fig12_sampled", 0)]:
            with self.subTest(workload=w, seed=seed):
                res, record = self.check_result(w, 0, spec()["end_to_end"], seed)
                for name, m in res["metrics"].items():
                    self.assertGreater(m["value"], 0, f"{w} {name}")
                if w == "fig12_sampled":
                    self.assertEqual(res["attempted"], 4 * 24 * record["samples"]["reps"])
                    self.assertEqual(record["samples"]["covered_uops_per_rep"], 4 * 36 * 60000)

    def test_traced_run(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                res = self.check_result(w, 1, spec()["per_layer"])[0]["metrics"]
                spans = load_spans(os.path.join(ROOT, ".bench_build", "traces", f"{w}-seed3",
                                                "spans.jsonl"))
                self.assertTrue(spans)
                check_nesting(self, spans)
                # The replayed sweep jobs' spans (job >= 0) cover the phase
                # whose process CPU time trace.cpu_s reports.
                jobs = {i: s for i, s in spans.items() if s["job"] >= 0}
                cpu = res["trace.cpu_s"]["value"]
                self.assertLessEqual(sum(self_times(jobs).values()), cpu + 0.01)
                layers = ("wload.gen_s", "core.feed_s", "power.analyze_s", "sample.self_s")
                self.assertLessEqual(sum(res[k]["value"] for k in layers), cpu + 0.01)
                self.assertGreater(res["core.feed_s"]["value"], 0)
                if w == "daemon_mix":
                    self.assertGreater(res["svc.remote_jobs"]["value"], 0)
                    self.assertEqual(res["svc.local_jobs"]["value"], 0)
                    self.assertGreater(res["rv.exec_s"]["value"], 0)
                if w == "fig12_sampled":
                    self.assertGreater(res["sample.windows"]["value"], 0)

    def test_fails_without_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for p in spec()["paths"]:
            shutil.copytree(os.path.join(ROOT, p), os.path.join(bare, p))
        out = run_bench("fig12_full", 0, cwd=bare)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(out.returncode, 0)
        self.assertNotIn('"metrics"', out.stdout)

    def test_tables_match_benchmark_json(self):
        sys.path.insert(0, os.path.join(ROOT, "perfbench"))
        import run  # noqa: E402  (the benchmark module itself)
        s = spec()
        self.assertEqual({m["name"]: m["unit"] for m in s["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in s["per_layer"]}, run.PER_LAYER)
        self.assertEqual(tuple(w["name"] for w in s["workloads"]), run.WORKLOADS)


def load_spans(path):
    with open(path) as f:
        return {s["id"]: s for s in map(json.loads, f)}


def check_nesting(test, spans):
    for s in spans.values():
        test.assertLessEqual(s["start"], s["end"], s["name"])
        test.assertLessEqual(s["cpu_start"], s["cpu_end"], s["name"])
        if s["parent"] < 0:
            continue
        p = spans[s["parent"]]
        test.assertEqual(p["thread"], s["thread"])
        test.assertLessEqual(p["start"], s["start"], (p["name"], s["name"]))
        test.assertLessEqual(s["end"], p["end"], (p["name"], s["name"]))
        test.assertLessEqual(p["cpu_start"], s["cpu_start"], (p["name"], s["name"]))
        test.assertLessEqual(s["cpu_end"], p["cpu_end"], (p["name"], s["name"]))


def self_times(spans):
    child = {}
    for s in spans.values():
        if s["parent"] >= 0:
            child[s["parent"]] = child.get(s["parent"], 0.0) + s["cpu_end"] - s["cpu_start"]
    out = {}
    for i, s in spans.items():
        layer = s["name"].split(".")[0]
        out[layer] = out.get(layer, 0.0) + s["cpu_end"] - s["cpu_start"] - child.get(i, 0.0)
    return out


if __name__ == "__main__":
    unittest.main()
