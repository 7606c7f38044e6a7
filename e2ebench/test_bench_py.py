"""Tests of the benchmark's Python parts: run with `python3 e2ebench/run.py --selftest`."""
import io
import json
import os
import statistics
import sys
import tempfile
import unittest
from contextlib import redirect_stdout

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_diff  # noqa: E402
import run  # noqa: E402


def record(workload, trace, **metrics):
    return {"correct": True, "attempted": 10, "failed": 0,
            "metrics": {k: {"value": v, "unit": "u"} for k, v in metrics.items()},
            "meta": {"workload": workload, "trace": trace}}


SPEC = {
    "workloads": [{"name": "w", "why": "x"}],
    "end_to_end": [{"name": "lat", "unit": "ms", "better": "lower", "bound": 0.1},
                   {"name": "tput", "unit": "1/s", "better": "higher", "bound": 0.1}],
    "per_layer": [{"name": "scan", "unit": "rows", "better": "lower"}],
}


class SpreadTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [10, 11, 9, 10.5, 12, 9.5, 10, 10.2, 9.8, 11]
        q = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(bench_diff.spread(values),
                               (q[2] - q[0]) / statistics.median(values))

    def test_single_value_has_no_spread(self):
        self.assertEqual(bench_diff.spread([5.0]), 0.0)


class VerdictTest(unittest.TestCase):
    base = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95]

    def test_regression_in_bad_direction(self):
        v, change = bench_diff.verdict(self.base, [x * 1.2 for x in self.base], "lower", 0.1)
        self.assertEqual(v, "REGRESSION")
        self.assertAlmostEqual(change, 0.2)
        v, _ = bench_diff.verdict(self.base, [x * 0.8 for x in self.base], "higher", 0.1)
        self.assertEqual(v, "REGRESSION")

    def test_within_bound_is_same(self):
        v, _ = bench_diff.verdict(self.base, [x * 1.005 for x in self.base], "lower", 0.1)
        self.assertEqual(v, "same")

    def test_improvement_beyond_noise_is_better(self):
        v, _ = bench_diff.verdict(self.base, [x * 0.8 for x in self.base], "lower", 0.1)
        self.assertEqual(v, "better")

    def test_noisy_base_is_unresolved(self):
        noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 20.0]
        v, _ = bench_diff.verdict(noisy, [x * 1.3 for x in noisy], "lower", 0.1)
        self.assertEqual(v, "unresolved")


class DiffScriptTest(unittest.TestCase):
    def write(self, directory, recs):
        os.makedirs(directory)
        for i, rec in enumerate(recs):
            with open(os.path.join(directory, "r%d.json" % i), "w") as f:
                json.dump(rec, f)

    def test_end_to_end_regression_sets_exit_code(self):
        with tempfile.TemporaryDirectory() as tmp:
            spec = os.path.join(tmp, "spec.json")
            with open(spec, "w") as f:
                json.dump(SPEC, f)
            base = [record("w", 0, lat=10 + i * 0.01, tput=100) for i in range(5)]
            base += [record("w", 1, scan=1000)]
            slow = [record("w", 0, lat=13 + i * 0.01, tput=100) for i in range(5)]
            slow += [record("w", 1, scan=2000)]
            self.write(os.path.join(tmp, "a"), base)
            self.write(os.path.join(tmp, "b"), slow)
            out = io.StringIO()
            with redirect_stdout(out):
                code = bench_diff.main([os.path.join(tmp, "a"), os.path.join(tmp, "b"),
                                        "--spec", spec])
            self.assertEqual(code, 1)
            self.assertIn("REGRESSION", out.getvalue())
            self.assertIn("+100.0%", out.getvalue())  # per-layer delta of scan
            with redirect_stdout(io.StringIO()):
                self.assertEqual(bench_diff.main([os.path.join(tmp, "a"),
                                                  os.path.join(tmp, "a"), "--spec", spec]), 0)


class ContractLineTest(unittest.TestCase):
    def test_keeps_exactly_the_declared_metrics(self):
        rec = record("w", 0, lat=1.5, tput=2.0, extra=3.0)
        line = run.contract_line(rec, ["lat", "tput"])
        self.assertEqual(sorted(line), ["attempted", "correct", "failed", "metrics"])
        self.assertEqual(list(line["metrics"]), ["lat", "tput"])

    def test_missing_metric_is_an_error(self):
        with self.assertRaises(KeyError):
            run.contract_line(record("w", 0, lat=1.0), ["lat", "tput"])


if __name__ == "__main__":
    unittest.main()
