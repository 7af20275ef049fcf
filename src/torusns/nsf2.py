"""Binary snapshot format for spectral fields ("NSF2").

Layout (little endian):
    magic   4 bytes  b"NSF2"
    version u32      1
    n       u32      grid size
    ncomp   u8       number of components: 1 scalar, 2 vector, 4 matrix
    time    f64      snapshot time
    data    ncomp * n * n complex coefficients, each stored as two f64
            (re, im), in standard DFT order: the field's stacked
            coefficients row-major, so a vector is u1 then u2 and a
            matrix a11, a12, a21, a22.

Writes are atomic (temp file + rename); ``atomic_write`` is the one
writer, which the run ledger uses too.
"""

from __future__ import annotations

import os
import struct
import tempfile

import numpy as np

from .spectral import Grid, SpectralField, VectorField

MAGIC = b"NSF2"
VERSION = 1
#: magic, version, n, ncomp and time
HEADER_BYTES = 4 + 17

__all__ = ["write_nsf2", "read_nsf2", "write_vector", "read_vector",
           "atomic_write"]


#: component shape of the field kind each component count stores
_SHAPES = {1: (), 2: (2,), 4: (2, 2)}


def write_nsf2(path: str, field: SpectralField, time: float) -> None:
    """Write one scalar, vector or matrix field at ``time``."""
    header = MAGIC + struct.pack("<IIBd", VERSION, field.grid.n,
                                 field.coef[..., 0, 0].size, float(time))
    payload = np.ascontiguousarray(field.coef.astype("<c16")).tobytes()
    atomic_write(path, header + payload)


def read_nsf2(path: str):
    """Returns (field, time): a scalar, vector or matrix field, as the
    header's component count gives."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != MAGIC:
        raise ValueError("bad magic; not an NSF2 file")
    if len(raw) < HEADER_BYTES:
        raise ValueError("truncated NSF2 header")
    version, n, ncomp, time = struct.unpack("<IIBd", raw[4:HEADER_BYTES])
    if version != VERSION:
        raise ValueError(f"unsupported NSF2 version {version}")
    if ncomp not in _SHAPES:
        raise ValueError(f"no field kind has {ncomp} components")
    grid = Grid(n)
    if len(raw) != HEADER_BYTES + ncomp * n * n * 16:
        raise ValueError("truncated or oversized NSF2 payload")
    arr = np.frombuffer(raw, dtype="<c16", offset=HEADER_BYTES)
    return SpectralField(grid, arr.reshape(_SHAPES[ncomp] + (n, n))
                         .astype(np.complex128)), time


def write_vector(path: str, v: VectorField, time: float) -> None:
    write_nsf2(path, v, time)


def read_vector(path: str):
    field, time = read_nsf2(path)
    if field.coef.ndim != 3:
        raise ValueError(
            f"expected 2 components, found {field.coef[..., 0, 0].size}")
    return field, time


def atomic_write(path: str, data: bytes) -> None:
    """Write ``data`` to ``path`` through a temp file in the same
    directory and a rename, so no reader sees a partial file."""
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
