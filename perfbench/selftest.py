"""Fast self-test of the benchmark harness at tiny problem sizes.

    python3 perfbench/selftest.py

Checks the harness, not igamotor's performance: BENCHMARK.json agrees with
the metrics the harness emits, the result line has the required shape,
the tracer wraps the names callers look up and restores them, traced counts
repeat exactly, the checks reject wrong outputs, and the benchmark refuses
to run without the package sources.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest

import run  # sets the BLAS thread count before numpy loads

run.import_igamotor()

import igamotor  # noqa: E402
import numpy as np  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from igamotor import geometry, optim  # noqa: E402

TINY = dict(refinement=0, n_harmonics=12, n_angles=60)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def tiny(cls):
    workload = cls(**TINY)
    workload.n_setup = 2
    return workload


class BenchmarkFile(unittest.TestCase):
    def test_metric_names_and_units_match_the_harness(self):
        doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in doc["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in doc["per_layer"]},
                         tracer.layer_metrics())
        self.assertEqual([w["name"] for w in doc["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual(set(doc["paths"]), {run.HERE.name})


class UntracedRun(unittest.TestCase):
    def test_result_shape_and_checks_pass(self):
        for cls in (workloads.SweepR2, workloads.DesignR4):
            result, env, _ = run.run(tiny(cls), seed=3, seconds=0.05, trace=False)
            self.assertEqual(set(result), RESULT_KEYS)
            self.assertTrue(result["correct"], cls.name)
            self.assertEqual(result["failed"], 0)
            self.assertGreaterEqual(result["attempted"], 1)
            self.assertEqual(set(result["metrics"]), set(run.END_TO_END))
            for name, metric in result["metrics"].items():
                self.assertEqual(metric["unit"], run.END_TO_END[name])
                self.assertGreater(metric["value"], 0.0, name)
            self.assertEqual(env["n_angles"], TINY["n_angles"])

    def test_same_seed_gives_same_inputs(self):
        a, b = tiny(workloads.SweepR2), tiny(workloads.SweepR2)
        for w in (a, b):
            w.prepare(w.setup(tracer.Tracer()), np.random.default_rng(7))
        ra, rb = np.random.default_rng(7), np.random.default_rng(7)
        self.assertEqual([a.next_input(ra) for _ in range(5)],
                         [b.next_input(rb) for _ in range(5)])


class Tracing(unittest.TestCase):
    def test_wrappers_reach_caller_namespaces_and_are_restored(self):
        original = geometry.check_mesh_validity
        evaluate = optim.MachineSolver.__dict__["evaluate"]
        t = tracer.Tracer()
        t.install()
        try:
            self.assertIsNot(geometry.check_mesh_validity, original)
            self.assertIs(optim.check_mesh_validity, geometry.check_mesh_validity)
            self.assertIs(igamotor.check_mesh_validity, geometry.check_mesh_validity)
            self.assertIsNot(optim.MachineSolver.__dict__["evaluate"], evaluate)
        finally:
            t.uninstall()
        self.assertIs(geometry.check_mesh_validity, original)
        self.assertIs(optim.check_mesh_validity, original)
        self.assertIs(optim.MachineSolver.__dict__["evaluate"], evaluate)

    def test_traced_counts_repeat_and_self_times_cover_the_operation(self):
        path = run.HERE / "out" / "selftest-trace.jsonl"
        path.parent.mkdir(exist_ok=True)
        runs = []
        for seed in (1, 2):
            result, _, _ = run.run(tiny(workloads.DesignR4), seed=seed, seconds=0.05,
                                trace=True, trace_path=path)
            self.assertTrue(result["correct"])
            self.assertEqual(set(result["metrics"]), set(tracer.layer_metrics()))
            runs.append({k: v["value"] for k, v in result["metrics"].items()})
        counts = [{k: v for k, v in r.items() if k.endswith(".calls")} for r in runs]
        self.assertEqual(counts[0], counts[1])
        self.assertEqual(counts[0]["optim.MachineSolver.evaluate.calls"], 1.0)
        self.assertEqual(counts[0]["coupling.reconstruct_state.calls"], TINY["n_angles"])
        self.assertEqual(counts[0]["setup.optim.MachineSolver.evaluate.calls"], 1.0)
        values = runs[0]
        self_total = sum(v for k, v in values.items()
                         if k.endswith(".s") and not k.startswith("setup."))
        self.assertAlmostEqual(self_total / values["op.traced_s_p50"], 1.0, delta=0.5)
        self.assertTrue(0.0 < values["trace.covered_frac"] <= 1.0)

        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        self.assertEqual(header["workload"], "design-r4")
        spans = [json.loads(line) for line in lines[1:]]
        for idx, name, start, end, parent, unit, phase in spans:
            self.assertLessEqual(start, end)
            if parent >= 0:
                self.assertLessEqual(spans[parent][2], start)
                self.assertEqual(spans[parent][5], unit)
            else:
                self.assertTrue(name.startswith("bench."))
        path.unlink()

    def test_line_search_counts(self):
        t = tracer.Tracer()
        t.install()
        try:
            cfg = geometry.MachineConfig(**TINY, harmonics_multiple_of_poles=True)
            with t.unit("op", True):
                optim.run_optimization(cfg, optim.OptimizerConfig(max_iterations=2))
        finally:
            t.uninstall()
        values = t.layer_values([(1.0, False)], [(1.0, False), (1.0, True)])
        trials = values["optim.line_search.trials"]
        self.assertGreater(trials, 0)
        self.assertLessEqual(values["optim.line_search.mesh_rejects"], trials)
        self.assertLessEqual(trials, values["geometry.check_mesh_validity.calls"])
        self.assertTrue(0.0 < values["optim.line_search.accept_ratio"] <= 1.0)


class Calibration(unittest.TestCase):
    def test_times_are_rescaled_by_the_latest_calibration(self):
        cal = speed.SpeedCalibration()
        cal.before_operation()                  # the first operation calibrates
        self.assertEqual(len(cal.kernel_s), 1)
        self.assertAlmostEqual(cal.scale(cal.kernel_s[-1]), speed.REFERENCE_S)
        cal.before_operation()                  # too soon for another one
        self.assertEqual(len(cal.kernel_s), 1)
        cal.scale(speed.CALIBRATE_EVERY_S)
        cal.before_operation()
        self.assertEqual(len(cal.kernel_s), 2)
        self.assertAlmostEqual(cal.scale(2.0) / cal.scale(1.0), 2.0)


class Checks(unittest.TestCase):
    def test_sweep_check_rejects_a_wrong_flux_sample(self):
        w = tiny(workloads.SweepR2)
        machine = w.prepare(w.setup(tracer.Tracer()), np.random.default_rng(0))
        inp = w.next_input(np.random.default_rng(0))
        out = w.operation(machine, inp)
        self.assertTrue(w.check(machine, inp, out))
        out.psi[inp[2]] *= 1.0 + 1e-8
        self.assertFalse(w.check(machine, inp, out))

    def test_folded_rotor_counts_as_failed(self):
        w = tiny(workloads.DesignR4)
        w.next_input = lambda rng: 1e3 * w.amplitude * w._field(rng)
        result, _, _ = run.run(w, seed=0, seconds=0.01, trace=False)
        self.assertEqual(result["failed"], result["attempted"])
        self.assertFalse(result["correct"])

    def test_refuses_to_run_without_package_sources(self):
        bare = run.HERE / "out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(run.HERE, bare / run.HERE.name,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        try:
            proc = subprocess.run(
                [sys.executable, "%s/run.py" % run.HERE.name, "--workload", "sweep-r2",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=120)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
