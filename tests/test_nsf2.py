"""Binary field container: roundtrips and atomicity."""

import os
import struct

import numpy as np
import pytest

from torusns.nsf2 import (HEADER_BYTES, read_nsf2, read_vector, write_nsf2,
                          write_vector)
from torusns.spectral import Grid, MatrixField, SpectralField, VectorField

GRID = Grid(64)


def rand_field(rng):
    modes = {}
    for _ in range(6):
        k = (int(rng.integers(-8, 9)), int(rng.integers(-8, 9)))
        c = complex(rng.standard_normal(), rng.standard_normal())
        modes[k] = modes.get(k, 0) + c
        modes[(-k[0], -k[1])] = modes.get((-k[0], -k[1]), 0) + np.conj(c)
    return SpectralField.from_modes(GRID, modes)


def test_scalar_roundtrip_bitwise(tmp_path):
    rng = np.random.default_rng(2)
    f = rand_field(rng)
    path = str(tmp_path / "f.nsf2")
    write_nsf2(path, f, time=0.25)
    back, t = read_nsf2(path)
    assert t == 0.25
    assert back.coef.shape == f.coef.shape
    assert np.array_equal(back.coef, f.coef)


def test_vector_roundtrip_bitwise(tmp_path):
    rng = np.random.default_rng(3)
    v = VectorField(rand_field(rng), rand_field(rng))
    path = str(tmp_path / "v.nsf2")
    write_vector(path, v, 1.5)
    back, t = read_vector(path)
    assert t == 1.5
    assert np.array_equal(back.u1.coef, v.u1.coef)
    assert np.array_equal(back.u2.coef, v.u2.coef)


@pytest.mark.parametrize("kind", [SpectralField, VectorField, MatrixField])
def test_stack_roundtrip_bitwise(tmp_path, kind):
    # a scalar, vector or matrix stack comes back as the same kind, with
    # its components in their places
    rng = np.random.default_rng(8)
    ncomp = {SpectralField: 1, VectorField: 2, MatrixField: 4}[kind]
    parts = [rand_field(rng) for _ in range(ncomp)]
    f = parts[0] if kind is SpectralField else kind(*parts)
    path = str(tmp_path / "s.nsf2")
    write_nsf2(path, f, time=0.5)
    back, t = read_nsf2(path)
    assert t == 0.5
    assert type(back) is kind
    assert back.grid == f.grid
    assert np.array_equal(back.coef, f.coef)


def test_vector_file_is_header_then_u1_then_u2(tmp_path):
    rng = np.random.default_rng(9)
    v = VectorField(rand_field(rng), rand_field(rng))
    path = str(tmp_path / "v.nsf2")
    write_vector(path, v, 0.0)
    data = open(path, "rb").read()
    header = b"NSF2" + struct.pack("<IIBd", 1, GRID.n, 2, 0.0)
    assert data == (header + v.u1.coef.astype("<c16").tobytes()
                    + v.u2.coef.astype("<c16").tobytes())
    assert len(header) == HEADER_BYTES


def test_component_count_without_field_kind_rejected(tmp_path):
    # three components are neither a scalar, a vector nor a matrix
    n = GRID.n
    path = tmp_path / "f.nsf2"
    path.write_bytes(b"NSF2" + struct.pack("<IIBd", 1, n, 3, 0.0)
                     + bytes(3 * n * n * 16))
    with pytest.raises(ValueError, match="3 components"):
        read_nsf2(str(path))


def test_read_vector_rejects_a_scalar_file(tmp_path):
    path = str(tmp_path / "f.nsf2")
    write_nsf2(path, rand_field(np.random.default_rng(10)), time=0.0)
    with pytest.raises(ValueError, match="expected 2 components"):
        read_vector(path)


def test_write_is_deterministic(tmp_path):
    rng = np.random.default_rng(4)
    f = rand_field(rng)
    p1, p2 = str(tmp_path / "a.nsf2"), str(tmp_path / "b.nsf2")
    write_nsf2(p1, f, time=0.0)
    write_nsf2(p2, f, time=0.0)
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_no_partial_file_on_failure(tmp_path):
    blocker = tmp_path / "sub"
    blocker.write_bytes(b"")
    path = str(blocker / "f.nsf2")
    # the parent path is a file: the atomic writer must fail cleanly
    with pytest.raises(OSError):
        write_nsf2(path, rand_field(np.random.default_rng(5)), time=0.0)
    assert not os.path.exists(path)


def test_corrupt_magic_rejected(tmp_path):
    path = str(tmp_path / "f.nsf2")
    write_nsf2(path, rand_field(np.random.default_rng(6)), time=0.0)
    data = bytearray(open(path, "rb").read())
    data[0] ^= 0xFF
    open(path, "wb").write(bytes(data))
    with pytest.raises(ValueError):
        read_nsf2(path)


def test_truncated_header_rejected(tmp_path):
    path = tmp_path / "f.nsf2"
    path.write_bytes(b"NSF2" + bytes(5))
    with pytest.raises(ValueError, match="header"):
        read_nsf2(str(path))


def test_truncated_payload_rejected(tmp_path):
    path = str(tmp_path / "f.nsf2")
    write_nsf2(path, rand_field(np.random.default_rng(7)), time=0.0)
    data = open(path, "rb").read()
    open(path, "wb").write(data[:-16])
    with pytest.raises(ValueError, match="payload"):
        read_nsf2(path)
