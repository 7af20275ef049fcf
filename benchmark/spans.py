"""Spans and counts around the program's public entry points.

The benchmark records spans from its own files: during a traced round
:class:`Tracer` replaces each entry point in :data:`ENTRY_POINTS` (every
module binding of it, so ``from .spaces import besov_norm`` is covered)
with a wrapper that opens a span, and wraps numpy's and scipy's 2-D
transform entry points to count transforms.  Everything is restored when
the round ends, so untraced rounds run the program untouched.

A span's self time is its duration minus the durations of its child
spans.  Each transform is charged to the module of the innermost open
span.  Transform points (sum of m^2 over the transforms of a call) and
bytes (input plus output array sizes) are computed from array shapes,
not measured.  Around ``assemble_forcing`` the tracer also runs
:mod:`tracemalloc` and records the peak of the memory allocated within
the span (numpy registers its array buffers with it).
"""

from __future__ import annotations

import importlib
import os
import resource
import sys
import time
import tracemalloc

#: (module, attribute path, layer) of each traced entry point; the
#: self times of spans that share a layer add up to one metric
ENTRY_POINTS = (
    ("torusns.driver", "build_solution_pair", "driver"),
    ("torusns.driver", "run_level", "driver"),
    ("torusns.driver", "leading_corrector_norm", "driver"),
    ("torusns.driver", "separation_report", "driver"),
    ("torusns.driver", "write_ledger", "driver"),
    ("torusns.driver", "BranchState.partial_sum", "driver"),
    ("torusns.construction", "seed_level", "construction.build"),
    ("torusns.construction", "EvenLevelBuilder.build", "construction.build"),
    ("torusns.construction", "EvenLevelBuilder.assemble_forcing",
     "construction.forcing"),
    ("torusns.construction", "check_divergence", "construction.checks"),
    ("torusns.construction", "check_split", "construction.checks"),
    ("torusns.construction", "check_ws_forms", "construction.checks"),
    ("torusns.construction", "check_initial_match", "construction.checks"),
    ("torusns.construction", "check_lift", "construction.checks"),
    ("torusns.construction", "pressure_contract_residual",
     "construction.pressure"),
    ("torusns.profile", "CutoffSystem.area_fractions",
     "profile.area_fractions"),
    ("torusns.timefield", "ExpSeries.at", "timefield.at"),
    ("torusns.solver", "solve_forced_ns", "solver.solve"),
    ("torusns.solver", "heat_duhamel", "solver.heat_duhamel"),
    ("torusns.spaces", "block_lp_norms", "spaces.block_lp_norms"),
    ("torusns.spaces", "chemin_lerner_norm", "spaces.chemin_lerner"),
    ("torusns.spaces", "besov_norm", "spaces.besov"),
    ("torusns.spectral", "SpectralField.product", "spectral.product"),
    ("torusns.spectral", "SpectralField.sup_norm", "spectral.sup_norm"),
    ("torusns.spectral", "VectorField.sup_norm", "spectral.sup_norm"),
    ("torusns.spectral", "MatrixField.sup_norm", "spectral.sup_norm"),
    ("torusns.nsf2", "write_vector", "nsf2.write"),
    ("torusns.nsf2", "read_vector", "nsf2.read"),
)

#: span name (module without package, then attribute path) -> layer
LAYER_OF = {f"{mod.rsplit('.', 1)[1]}.{path}": layer
            for mod, path, layer in ENTRY_POINTS}

FFT_MODULES = ("spectral", "solver", "spaces", "construction", "driver")

#: 2-D and n-D transform entry points wrapped for counting
_FFT_NAMES = ("fft2", "ifft2", "fftn", "ifftn",
              "rfft2", "irfft2", "rfftn", "irfftn")
_FFT_LIBS = ("numpy.fft", "scipy.fft")

ROOT = "round"


def max_rss_mb() -> float:
    """High-water resident set of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Span recorder for one traced round; a context manager.

    Spans are kept in memory as dicts with ``id``, ``name``, ``parent``
    (id or None), ``start`` and ``end`` (seconds from the round start),
    plus the counts recorded at their boundary.
    """

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._patches: list = []
        self._fft_depth = 0
        self._t0 = 0.0

    # -- spans -------------------------------------------------------------
    def _open(self, name: str) -> dict:
        span = {"id": len(self.spans), "name": name,
                "parent": self._stack[-1]["id"] if self._stack else None,
                "start": time.perf_counter() - self._t0, "end": None,
                "fft_calls": 0, "fft_points": 0, "fft_bytes": 0}
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter() - self._t0
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError("spans closed out of order")

    def _wrap(self, fn, name: str):
        tracer = self

        def wrapper(*args, **kwargs):
            measure = name == "construction.EvenLevelBuilder.assemble_forcing"
            if measure:
                tracemalloc.start()
            span = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(span)
                if measure:
                    peak = tracemalloc.get_traced_memory()[1]
                    span["peak_mb"] = peak / 2**20
                    tracemalloc.stop()
            if name == "solver.solve_forced_ns":
                span["steps"] = len(out.step_times) - 1
            elif name == "nsf2.write_vector":
                span["bytes"] = os.path.getsize(
                    args[0] if args else kwargs["path"])
            elif name == "nsf2.read_vector":
                span["bytes"] = 16 * sum(f.coef.size for f in out[0])
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_fft(self, fn):
        tracer = self

        def wrapper(a, *args, **kwargs):
            tracer._fft_depth += 1
            try:
                out = fn(a, *args, **kwargs)
            finally:
                tracer._fft_depth -= 1
            if tracer._fft_depth == 0 and tracer._stack:
                span = tracer._stack[-1]
                plane = a.shape[-2] * a.shape[-1]
                per = max(plane, out.shape[-2] * out.shape[-1])
                span["fft_calls"] += 1
                span["fft_points"] += per * (a.size // plane)
                span["fft_bytes"] += a.nbytes + out.nbytes
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching ----------------------------------------------------------
    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch_entry(self, modname: str, path: str) -> None:
        mod = importlib.import_module(modname)
        short = modname.rsplit(".", 1)[-1]
        name = f"{short}.{path}"
        if "." in path:
            cls_name, meth = path.split(".")
            cls = getattr(mod, cls_name)
            self._set(cls, meth, self._wrap(cls.__dict__[meth], name))
            return
        orig = getattr(mod, path)
        wrapped = self._wrap(orig, name)
        for other in list(sys.modules.values()):
            if getattr(other, "__name__", "").startswith("torusns") \
                    and getattr(other, path, None) is orig:
                self._set(other, path, wrapped)

    def __enter__(self) -> "Tracer":
        for modname, path, _ in ENTRY_POINTS:
            self._patch_entry(modname, path)
        for lib in _FFT_LIBS:
            mod = importlib.import_module(lib)
            for fname in _FFT_NAMES:
                self._set(mod, fname, self._wrap_fft(getattr(mod, fname)))
        self._t0 = time.perf_counter()
        self._root = self._open(ROOT)
        return self

    def __exit__(self, *exc) -> None:
        self._close(self._root)
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    @property
    def wall_s(self) -> float:
        return self._root["end"] - self._root["start"]


def self_times(spans: list) -> dict:
    """Self time of every span by id: duration minus its children's."""
    out = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def layer_metrics(spans: list) -> dict:
    """Per-layer figures of one traced round, keyed by metric name."""
    selfs = self_times(spans)
    m = {}
    for prefix in set(LAYER_OF.values()):
        m[f"{prefix}.self_s"] = 0.0
        m[f"{prefix}.calls"] = 0
    for mod in FFT_MODULES:
        m[f"{mod}.fft_calls"] = 0
        m[f"{mod}.fft_points"] = 0
    m["fft.bytes"] = 0
    m["solver.steps"] = 0
    m["nsf2.bytes"] = 0
    m["construction.forcing.peak_mb"] = 0.0
    solve_total = 0.0
    for s in spans:
        name = s["name"]
        mod = name.split(".", 1)[0]
        if mod in FFT_MODULES:
            m[f"{mod}.fft_calls"] += s["fft_calls"]
            m[f"{mod}.fft_points"] += s["fft_points"]
        m["fft.bytes"] += s["fft_bytes"]
        if name == ROOT:
            m["trace.unattributed_s"] = selfs[s["id"]]
            m["trace.wall_s"] = s["end"] - s["start"]
            continue
        prefix = LAYER_OF[name]
        m[f"{prefix}.self_s"] += selfs[s["id"]]
        m[f"{prefix}.calls"] += 1
        m["solver.steps"] += s.get("steps", 0)
        m["nsf2.bytes"] += s.get("bytes", 0)
        if "peak_mb" in s:
            m["construction.forcing.peak_mb"] = max(
                m["construction.forcing.peak_mb"], s["peak_mb"])
        if name == "solver.solve_forced_ns":
            solve_total += s["end"] - s["start"]
    m["solver.step_s"] = solve_total / m["solver.steps"] \
        if m["solver.steps"] else 0.0
    m["nsf2.write_s"] = m.pop("nsf2.write.self_s")
    m["nsf2.read_s"] = m.pop("nsf2.read.self_s")
    return m
