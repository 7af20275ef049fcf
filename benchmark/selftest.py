"""Quick tests of the benchmark itself (about 20 s).

    python3 benchmark/selftest.py

The file name does not match ``test_*.py``, so the repository's pytest
run does not collect it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import spans  # noqa: E402
import spectral_ref as ref  # noqa: E402
import workloads  # noqa: E402


def _span(i, name, parent, start, end):
    return {"id": i, "name": name, "parent": parent, "start": start,
            "end": end, "fft_calls": 0, "fft_points": 0, "fft_bytes": 0}


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self):
        recorded = [
            _span(0, spans.ROOT, None, 0.0, 10.0),
            _span(1, "driver.run_level", 0, 1.0, 5.0),
            _span(2, "spectral.SpectralField.product", 1, 2.0, 3.0),
            _span(3, "spectral.SpectralField.product", 1, 3.5, 4.0),
            _span(4, "driver.separation_report", 0, 6.0, 9.0),
        ]
        selfs = spans.self_times(recorded)
        self.assertEqual(selfs, {0: 3.0, 1: 2.5, 2: 1.0, 3: 0.5, 4: 3.0})
        m = spans.layer_metrics(recorded)
        self.assertEqual(m["driver.self_s"], 5.5)
        self.assertEqual(m["spectral.product.self_s"], 1.5)
        self.assertEqual(m["spectral.product.calls"], 2)
        self.assertEqual(m["trace.unattributed_s"], 3.0)
        self.assertEqual(m["trace.wall_s"], 10.0)

    def test_tracer_records_and_restores(self):
        from torusns import spectral
        original = spectral.SpectralField.product
        grid = spectral.Grid(16)
        f = spectral.SpectralField.from_modes(grid, {(1, 0): 1.0})
        with spans.Tracer() as tracer:
            f.product(f)
        self.assertIs(spectral.SpectralField.product, original)
        names = [s["name"] for s in tracer.spans]
        self.assertEqual(names, [spans.ROOT, "spectral.SpectralField.product"])
        product = tracer.spans[1]
        self.assertEqual(product["parent"], 0)
        # unpadded product on grid 16: two inverse and one forward transform
        self.assertEqual(product["fft_calls"], 3)
        self.assertEqual(product["fft_points"], 3 * 16 * 16)
        total = sum(spans.self_times(tracer.spans).values())
        self.assertAlmostEqual(total, tracer.wall_s, places=12)


class ManufacturedSolutionTest(unittest.TestCase):
    def test_exact_solution_of_forced_equation(self):
        """u*' - Delta u* + P div(u* (x) u*) + P F = 0 at several times."""
        n = 32
        inputs = workloads.march_prepare(7, None, n=n, band=6)
        for t in (0.0, 0.05, 0.3):
            u = [sum(math.exp(-r * t) * v[c]
                     for r, v in zip(inputs["rhos"], inputs["vs"]))
                 for c in (0, 1)]
            du = [sum(-r * math.exp(-r * t) * v[c]
                      for r, v in zip(inputs["rhos"], inputs["vs"]))
                  for c in (0, 1)]
            adv = ref.leray(*[0.5 * c for c in
                              ref.flux_divergence(u[0], u[1], u[0], u[1])])
            pf = ref.leray(*ref.series_at(inputs["forcing"], t, n))
            resid = [a - ref.laplacian(b) + c + d
                     for a, b, c, d in zip(du, u, adv, pf)]
            scale = max(ref.l1(ref.laplacian(c)) for c in u)
            self.assertLess(max(ref.l1(c) for c in resid), 1e-13 * scale)


class MetricNamesTest(unittest.TestCase):
    def test_layers_and_workloads_match_benchmark_json(self):
        names = {m["name"] for m in run.SPEC["per_layer"]}
        # layer_metrics counts the calls of every layer; BENCHMARK.json
        # prints the counts of some of them
        computed = spans.layer_metrics([_span(0, spans.ROOT, None, 0.0, 1.0)])
        self.assertLessEqual(names - {"trace.overhead_s"}, set(computed))
        self.assertEqual({w["name"] for w in run.SPEC["workloads"]},
                         set(workloads.WORKLOADS))

    def test_printed_metrics_match_benchmark_json(self):
        spec = run.SPEC
        expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                    1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
        for trace in (0, 1):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = run.main(["--workload", "march", "--seed", "1",
                                 "--seconds", "0", "--trace", str(trace)])
            self.assertEqual(code, 0)
            result = json.loads(out.getvalue().strip().splitlines()[-1])
            self.assertEqual(set(result),
                             {"correct", "attempted", "failed", "metrics"})
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            self.assertEqual(printed, expected[trace])
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)


if __name__ == "__main__":
    unittest.main()
