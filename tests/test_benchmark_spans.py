"""The benchmark's tracer patches the program's entry points by name."""

import importlib.util
import pathlib

import numpy as np

from torusns.spectral import Grid, SpectralField, VectorField

SPANS = pathlib.Path(__file__).resolve().parents[1] / "benchmark" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_wraps_and_restores_every_entry_point():
    spans = _load_spans()
    product = SpectralField.product
    sup = VectorField.__dict__["sup_norm"]
    grid = Grid(16)
    f = SpectralField.from_modes(grid, {(1, 0): 0.5, (-1, 0): 0.5})
    # entering fails if an entry point listed in spans.ENTRY_POINTS was
    # renamed or moved
    with spans.Tracer() as tracer:
        f.product(f)
        VectorField(f, f).sup_norm()
        np.fft.fft2(np.ones((16, 16)))
    names = [s["name"] for s in tracer.spans]
    assert names == [spans.ROOT, "spectral.SpectralField.product",
                     "spectral.VectorField.sup_norm"]
    assert tracer.spans[0]["fft_calls"] == 1
    assert SpectralField.product is product
    assert VectorField.__dict__["sup_norm"] is sup
    metrics = spans.layer_metrics(tracer.spans)
    assert metrics["spectral.product.calls"] == 1
    assert metrics["spectral.sup_norm.calls"] == 1
