"""Binary field container: roundtrips and atomicity."""

import os

import numpy as np
import pytest

from torusns.nsf2 import read_nsf2, read_vector, write_nsf2, write_vector
from torusns.spectral import Grid, SpectralField, VectorField

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
    write_nsf2(path, [f], time=0.25)
    fields, t = read_nsf2(path)
    assert t == 0.25
    assert len(fields) == 1
    assert np.array_equal(fields[0].coef, f.coef)


def test_vector_roundtrip_bitwise(tmp_path):
    rng = np.random.default_rng(3)
    v = VectorField(rand_field(rng), rand_field(rng))
    path = str(tmp_path / "v.nsf2")
    write_vector(path, v, 1.5)
    back, t = read_vector(path)
    assert t == 1.5
    assert np.array_equal(back.u1.coef, v.u1.coef)
    assert np.array_equal(back.u2.coef, v.u2.coef)


def test_write_is_deterministic(tmp_path):
    rng = np.random.default_rng(4)
    f = rand_field(rng)
    p1, p2 = str(tmp_path / "a.nsf2"), str(tmp_path / "b.nsf2")
    write_nsf2(p1, [f], time=0.0)
    write_nsf2(p2, [f], time=0.0)
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_no_partial_file_on_failure(tmp_path):
    blocker = tmp_path / "sub"
    blocker.write_bytes(b"")
    path = str(blocker / "f.nsf2")
    # the parent path is a file: the atomic writer must fail cleanly
    with pytest.raises(OSError):
        write_nsf2(path, [rand_field(np.random.default_rng(5))], time=0.0)
    assert not os.path.exists(path)


def test_corrupt_magic_rejected(tmp_path):
    path = str(tmp_path / "f.nsf2")
    write_nsf2(path, [rand_field(np.random.default_rng(6))], time=0.0)
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
    write_nsf2(path, [rand_field(np.random.default_rng(7))], time=0.0)
    data = open(path, "rb").read()
    open(path, "wb").write(data[:-16])
    with pytest.raises(ValueError, match="payload"):
        read_nsf2(path)
