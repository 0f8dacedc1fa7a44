#!/usr/bin/env python3
"""Self-tests of the benchmark itself.

    python3 perfbench/test_perfbench.py

Builds the runner if needed, then checks that the forwarding wrappers are
inert (the runner's own --selftest), that every metric name printed is
declared in BENCHMARK.json and the other way round, and that the failure
accounting and the correctness gate count what they should.
"""

import copy
import json
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (the benchmark script)

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
E2E_NAMES = {m["name"] for m in BENCHMARK["end_to_end"]}
LAYER_NAMES = {m["name"] for m in BENCHMARK["per_layer"]}


def serve_record(**ops):
    base = {"offered": 1000, "admitted": 300, "shed": 700, "expired": 20,
            "served": 280, "late": 30, "window_s": 60}
    base.update(ops)
    return {"ops": base}


class FailureAccounting(unittest.TestCase):
    def test_shed_expired_and_late_requests_miss_their_slo(self):
        rec = serve_record()
        self.assertEqual(run.slo_missed(rec), 700 + 20 + 30)
        self.assertEqual(run.slo_offered(rec), 1000)

    def test_each_kind_of_miss_counts(self):
        for field in ("shed", "expired", "late"):
            quiet = serve_record(shed=0, expired=0, late=0)
            quiet["ops"][field] = 5
            self.assertEqual(run.slo_missed(quiet), 5, field)

    def test_dl_and_pod_misses(self):
        self.assertEqual(run.slo_missed({"ops": {"dli_total": 50,
                                                 "dli_violations": 3}}), 3)
        self.assertEqual(run.slo_missed({"ops": {"queries": 90,
                                                 "qos_violations": 4}}), 4)

    @staticmethod
    def printed(records, errors=()):
        runs = run.Runs(len(records))
        runs.first[:] = records
        return run.result(runs, list(errors), {})

    def test_shed_expired_and_late_requests_are_failed(self):
        quiet = serve_record(shed=0, expired=0, late=0)
        self.assertEqual(self.printed([quiet])["failed"], 0)
        for field in ("shed", "expired", "late"):
            rec = copy.deepcopy(quiet)
            rec["ops"][field] = 5
            line = self.printed([quiet, rec])
            self.assertEqual((line["attempted"], line["failed"]), (2000, 5),
                             field)

    def test_unfinished_dl_jobs_and_dli_misses_are_failed(self):
        rec = {"ops": {"dlt_total": 10, "dlt_completed": 8, "dli_total": 50,
                       "dli_violations": 3}}
        line = self.printed([rec])
        self.assertEqual((line["attempted"], line["failed"]), (60, 5))

    def test_unfinished_pods_are_failed(self):
        rec = {"ops": {"pods_total": 90, "pods_completed": 89, "queries": 40,
                       "qos_violations": 4}}
        self.assertEqual(self.printed([rec])["failed"], 1)

    def test_failed_check_counts_every_operation_as_failed(self):
        line = self.printed([serve_record()], errors=["digest differs"])
        self.assertEqual((line["correct"], line["attempted"], line["failed"]),
                         (False, 1000, 1000))


class RunnerBacked(unittest.TestCase):
    """Tests that run the built runner on cheap draws."""

    @classmethod
    def setUpClass(cls):
        cls.runner = run.build()
        cls.cache = {}

    def draws(self, workload):
        if workload not in self.cache:
            seed = run.sub_seed(1, 0)
            self.cache[workload] = (
                run.run_draw(self.runner, workload, seed),
                run.run_draw(self.runner, workload, seed, "traced"),
            )
        return self.cache[workload]

    def runs_of(self, workload):
        first, traced = self.draws(workload)
        runs = run.Runs(1)
        runs.first[0] = first
        runs.repeats.append(copy.deepcopy(first))
        runs.traced.append(traced)
        return runs

    def test_wrappers_are_inert(self):
        proc = subprocess.run([str(self.runner), "--selftest"],
                              stdout=subprocess.PIPE, text=True)
        self.assertEqual(proc.returncode, 0, proc.stdout)

    def test_metric_names_match_benchmark_json(self):
        for workload in ("testbed-overcommit", "serve-flash-crowd",
                         "dl-fabric"):
            runs = self.runs_of(workload)
            self.assertEqual(set(run.end_to_end_metrics(runs)), E2E_NAMES,
                             workload)
            self.assertEqual(set(run.per_layer_metrics(runs)), LAYER_NAMES,
                             workload)

    def test_units_match_benchmark_json(self):
        units = {m["name"]: m["unit"]
                 for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
        runs = self.runs_of("serve-flash-crowd")
        printed = {**run.end_to_end_metrics(runs), **run.per_layer_metrics(runs)}
        for name, metric in printed.items():
            self.assertEqual(metric["unit"], units[name], name)

    def test_disjoint_shares_add_up_to_100(self):
        for workload in ("testbed-overcommit", "serve-flash-crowd",
                         "dl-fabric"):
            layers = run.per_layer_metrics(self.runs_of(workload))
            shares = sum(layers[name]["value"] for name in run.SHARES)
            self.assertAlmostEqual(shares, 100.0, delta=1.0, msg=workload)

    def test_gate_catches_a_changed_digest(self):
        runs = self.runs_of("testbed-overcommit")
        self.assertEqual(run.check_runs(runs), [])
        runs.traced[0] = copy.deepcopy(runs.traced[0])
        runs.traced[0]["digest"] = "0" * 16
        self.assertTrue(run.check_runs(runs))

    def test_gate_catches_violations_and_unfinished_work(self):
        for field in ("invariant_violations", "unfinished"):
            runs = self.runs_of("testbed-overcommit")
            runs.repeats[0] = copy.deepcopy(runs.repeats[0])
            runs.repeats[0][field] = 1
            self.assertTrue(run.check_runs(runs), field)


if __name__ == "__main__":
    unittest.main()
