"""Binary snapshot format for spectral fields ("NSF2").

Layout (little endian):
    magic   4 bytes  b"NSF2"
    version u32      1
    n       u32      grid size
    ncomp   u8       number of components
    time    f64      snapshot time
    data    ncomp * n * n complex coefficients, each stored as two f64
            (re, im), in standard DFT order, row-major.

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


def write_nsf2(path: str, fields: list[SpectralField], time: float) -> None:
    if not fields:
        raise ValueError("need at least one component")
    n = fields[0].grid.n
    for f in fields:
        if f.grid.n != n:
            raise ValueError("components must share a grid")
    header = MAGIC + struct.pack("<IIBd", VERSION, n, len(fields), float(time))
    payload = b"".join(
        np.ascontiguousarray(f.coef.astype("<c16")).tobytes() for f in fields
    )
    atomic_write(path, header + payload)


def read_nsf2(path: str):
    """Returns (fields, time)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != MAGIC:
        raise ValueError("bad magic; not an NSF2 file")
    if len(raw) < HEADER_BYTES:
        raise ValueError("truncated NSF2 header")
    version, n, ncomp, time = struct.unpack("<IIBd", raw[4:HEADER_BYTES])
    if version != VERSION:
        raise ValueError(f"unsupported NSF2 version {version}")
    grid = Grid(n)
    need = HEADER_BYTES + ncomp * n * n * 16
    if len(raw) != need:
        raise ValueError("truncated or oversized NSF2 payload")
    out = []
    off = HEADER_BYTES
    for _ in range(ncomp):
        arr = np.frombuffer(raw, dtype="<c16", count=n * n, offset=off)
        out.append(SpectralField(grid, arr.reshape(n, n).astype(np.complex128)))
        off += n * n * 16
    return out, time


def write_vector(path: str, v: VectorField, time: float) -> None:
    write_nsf2(path, [v.u1, v.u2], time)


def read_vector(path: str):
    fields, time = read_nsf2(path)
    if len(fields) != 2:
        raise ValueError(f"expected 2 components, found {len(fields)}")
    return VectorField(fields[0], fields[1]), time


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
