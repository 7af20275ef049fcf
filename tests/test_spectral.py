"""Core transform layer: exactness of derivatives, products, projections."""

import ast
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from torusns.spaces import LittlewoodPaley
from torusns.spectral import (Grid, MatrixField, SpectralField, VectorField,
                              _pad, _truncate, calderon_lift, fit_grid,
                              leray_project, modulus, padded_physical,
                              padded_spectral)

GRID = Grid(64)


def random_field(rng, grid=GRID, band=10, real=True):
    modes = {}
    for _ in range(8):
        k1 = int(rng.integers(-band, band + 1))
        k2 = int(rng.integers(-band, band + 1))
        c = complex(rng.standard_normal(), rng.standard_normal())
        modes[(k1, k2)] = modes.get((k1, k2), 0) + c
        if real:
            modes[(-k1, -k2)] = modes.get((-k1, -k2), 0) + np.conj(c)
    return SpectralField.from_modes(grid, modes)


def mode_sum(f, m=96):
    """Brute-force samples of f on the m x m grid: the explicit sum of its
    modes, each at the frequency ``Grid.k`` gives its index (no FFT)."""
    x = np.arange(m) * (2 * np.pi / m)
    p = np.zeros((m, m), dtype=complex)
    for (i, j), c in np.ndenumerate(f.coef):
        if c != 0:
            k1, k2 = f.grid.k[i], f.grid.k[j]
            p += c * np.exp(1j * (k1 * x[:, None] + k2 * x[None, :]))
    return p


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def test_single_mode_derivative_exact():
    f = SpectralField.from_modes(GRID, {(3, -2): 1.0, (-3, 2): 1.0})
    d = f.dx(0)
    expect = SpectralField.from_modes(GRID, {(3, -2): 3j, (-3, 2): -3j})
    assert np.abs(d.coef - expect.coef).max() == 0.0


def test_gradient_of_product_leibniz(rng):
    f = random_field(rng)
    g = random_field(rng)
    lhs = f.product(g).gradient()
    rhs_1 = f.dx(0).product(g) + f.product(g.dx(0))
    rhs_2 = f.dx(1).product(g) + f.product(g.dx(1))
    scale = max(lhs.u1.sup_norm(), 1.0)
    assert (lhs.u1 - rhs_1).sup_norm() <= 1e-12 * scale
    assert (lhs.u2 - rhs_2).sup_norm() <= 1e-12 * scale


def test_product_matches_physical_multiplication(rng):
    f = random_field(rng, band=10)
    g = random_field(rng, band=10)
    prod = f.product(g)
    # oracle: multiply on a grid large enough that no aliasing occurs
    big = Grid(256)
    pf = f.regrid(big).to_physical()
    pg = g.regrid(big).to_physical()
    oracle = np.fft.fft2(pf * pg) / big.n ** 2
    got = prod.regrid(big).coef
    assert np.abs(got - oracle).max() <= 1e-12 * max(np.abs(oracle).max(), 1)


def test_product_unpadded_equals_padded(rng):
    # band sum below the alias-free threshold: both paths must agree
    f = random_field(rng, band=5)
    g = random_field(rng, band=5)
    small = f.regrid(Grid(32)).product(g.regrid(Grid(32)))
    large = f.product(g)
    assert (small.regrid(GRID) - large).sup_norm() <= 1e-12


def test_laplacian_heat_consistency(rng):
    f = random_field(rng)
    t = 1e-3
    heated = f.heat(t)
    # d/dt e^{t Delta} f = Delta e^{t Delta} f via a centred difference
    dt = 1e-6
    fd = (1.0 / (2 * dt)) * (f.heat(t + dt) - f.heat(t - dt))
    lap = heated.laplacian()
    assert (fd - lap).sup_norm() <= 1e-4 * max(lap.sup_norm(), 1.0)


def test_heat_semigroup(rng):
    f = random_field(rng)
    a = f.heat(1e-3).heat(2e-3)
    b = f.heat(3e-3)
    assert (a - b).sup_norm() <= 1e-13 * max(b.sup_norm(), 1.0)


def test_inverse_laplacian_roundtrip(rng):
    # inv_laplacian is (-Delta)^{-1}
    f = random_field(rng)
    f = f - SpectralField.from_modes(GRID, {(0, 0): f.mean()})
    back = (-1.0) * f.inv_laplacian().laplacian()
    assert (back - f).sup_norm() <= 1e-11 * max(f.sup_norm(), 1.0)


def test_shift_is_modulation(rng):
    f = random_field(rng, band=8)
    shifted = f.shift(5, -3)
    big = Grid(256)
    x = big.points()
    oracle = f.regrid(big).to_physical() * np.exp(1j * (5 * x[0] - 3 * x[1]))
    got = shifted.regrid(big).to_physical()
    assert np.abs(got - oracle).max() <= 1e-12 * max(np.abs(oracle).max(), 1)


def test_shift_band_guard():
    f = SpectralField.from_modes(GRID, {(20, 0): 1.0, (-20, 0): 1.0})
    with pytest.raises(ValueError):
        f.shift(20, 0)


def test_regrid_roundtrip_exact(rng):
    f = random_field(rng, band=10)
    back = f.regrid(Grid(256)).regrid(GRID)
    assert np.abs(back.coef - f.coef).max() == 0.0


def test_fit_grid_preserves_field(rng):
    f = random_field(rng, band=10).regrid(Grid(512))
    small = fit_grid(f)
    assert small.grid.n < 512
    assert (small.regrid(Grid(512)) - f).sup_norm() <= 1e-13


def test_fit_grid_vector_and_matrix(rng):
    big = Grid(512)
    a = random_field(rng, grid=Grid(128), band=10)
    b = random_field(rng, grid=Grid(128), band=40)
    v = VectorField(a, b).regrid(big)
    m = MatrixField(a, b, b, a).regrid(big)
    for field in (v, m):
        small = fit_grid(field)
        # the widest component (band 40) sets the grid
        assert small.grid.n == 128
        for got, want in zip(small.regrid(big), field):
            assert np.abs(got.coef - want.coef).max() == 0.0


def test_is_real_detects_hermitian(rng):
    f = random_field(rng, real=True)
    assert f.is_real()
    g = SpectralField.from_modes(GRID, {(1, 0): 1.0})
    assert not g.is_real()


def test_sup_norm_oversampling():
    # a pure mode's sup norm is its coefficient mass
    f = SpectralField.from_modes(GRID, {(7, 0): 0.5, (-7, 0): 0.5})
    assert abs(f.sup_norm() - 1.0) <= 1e-12


def test_matrix_sup_norm_is_pointwise_modulus(rng):
    m = MatrixField(random_field(rng), random_field(rng, real=False),
                    random_field(rng), random_field(rng, band=20))
    # brute force: each component sampled on the 3/2 grid, 96 x 96 here
    tot = sum(np.abs(mode_sum(comp)) ** 2 for comp in m)
    expect = np.sqrt(tot).max()
    assert abs(m.sup_norm() - expect) <= 1e-12 * expect


def test_modulus_of_a_multiple_is_that_of_the_formed_field(rng):
    # a block weight is real and even: a real field's multiple is sampled
    # without being formed, any other field's is formed and tests its own
    # reality; either way the samples are the formed field's, bit for bit
    w = LittlewoodPaley(GRID).weight(3)
    real = VectorField(random_field(rng), random_field(rng))
    mixed = VectorField(random_field(rng), random_field(rng, real=False))
    for f in (real, mixed, real.u1):
        assert np.array_equal(modulus(f, w), modulus(f.apply_symbol(w)))


def test_real_field_takes_real_samples(rng):
    f = random_field(rng, band=31)
    p = padded_physical(f)
    assert p.dtype == np.float64
    ref = np.fft.ifft2(_pad(f.coef, 96)) * 96 ** 2
    assert np.abs(p - ref.real).max() <= 1e-14 * np.abs(ref).max()


def test_nyquist_content_keeps_complex_samples():
    # Hermitian, but _pad embeds the Nyquist row on one side only, so the
    # samples on the 3/2 grid are not real
    c = SpectralField.from_modes(GRID, {(3, 1): 1 + 1j, (-3, -1): 1 - 1j}).coef
    c[32, 0] = 0.7
    f = SpectralField(GRID, c)
    assert f.is_real()
    assert np.iscomplexobj(padded_physical(f))
    expect = np.abs(mode_sum(f)).max()
    assert abs(f.sup_norm() - expect) <= 1e-12 * expect


def test_anti_hermitian_part_keeps_complex_samples(rng):
    c = random_field(rng).coef
    c[5, 2] += 1e-9 * np.abs(c).max()
    f = SpectralField(GRID, c)
    assert np.iscomplexobj(padded_physical(f))
    expect = np.abs(mode_sum(f)).max()
    assert abs(f.sup_norm() - expect) <= 1e-12 * expect


@pytest.mark.parametrize("m", [64, 96])
def test_padded_spectral_of_float_samples(rng, m):
    phys = rng.standard_normal((m, m))
    ref = _truncate(np.fft.fft2(phys) / m ** 2, 64)
    got = padded_spectral(phys, 64)
    assert np.abs(got - ref).max() <= 1e-15 * np.abs(ref).max()


@pytest.mark.parametrize("band", [15, 31])
def test_real_product_matches_complex_path(rng, band):
    # band 15: the product fits unpadded (m = n); band 31: 3/2 padding
    f, g = random_field(rng, band=band), random_field(rng, band=band)
    got = f.product(g)
    ref = SpectralField(GRID, f.coef, real=False).product(
        SpectralField(GRID, g.coef, real=False))
    assert got.band == ref.band
    assert np.abs(got.coef - ref.coef).max() <= 1e-14 * np.abs(ref.coef).max()


def test_mixed_vector_sup_norm_takes_the_complex_path(rng):
    # one real and one complex component: the stack is sampled on the
    # complex transforms, and its sup is that of the pointwise modulus
    v = VectorField(random_field(rng), random_field(rng, real=False))
    assert v.u1.real_samples and not v.real_samples
    assert np.iscomplexobj(padded_physical(v))
    expect = np.sqrt(sum(np.abs(mode_sum(c)) ** 2 for c in v)).max()
    assert abs(v.sup_norm() - expect) <= 1e-12 * expect


def test_outer_of_unequal_bands_matches_scalar_products(rng):
    # bands 20 and 4: the stack is padded (40 > 31) although the product of
    # the two narrow components would fit unpadded
    a = VectorField(random_field(rng, band=20), random_field(rng, band=4))
    b = VectorField(random_field(rng, band=20), random_field(rng, band=4))
    got = a.outer(b)
    for (i, j), g in zip(np.ndindex(2, 2), got):
        want = list(a)[i].product(list(b)[j])
        scale = np.abs(want.coef).max()
        assert np.abs(g.coef - want.coef).max() <= 1e-15 * scale


def test_l2_norm_parseval(rng):
    f = random_field(rng)
    amp = np.sqrt(np.sum(np.abs(f.coef) ** 2) * (2 * np.pi) ** 2)
    assert abs(f.l2_norm() - amp) <= 1e-10 * amp


def test_leray_removes_divergence(rng):
    v = VectorField(random_field(rng), random_field(rng))
    p = leray_project(v)
    assert p.divergence().sup_norm() <= 1e-11 * max(p.sup_norm(), 1.0)
    # idempotent
    assert (leray_project(p) - p).sup_norm() <= 1e-12 * max(p.sup_norm(), 1)


def test_leray_keeps_solenoidal(rng):
    w = random_field(rng).perp_gradient()
    assert (leray_project(w) - w).sup_norm() <= 1e-12 * max(w.sup_norm(), 1)


def test_calderon_lift_divergence_identity(rng):
    for _ in range(100):
        w = random_field(rng).perp_gradient()
        r = calderon_lift(w)
        resid = (r.divergence() - w).sup_norm()
        assert resid <= 1e-12 * max(w.sup_norm(), 1.0)


def test_calderon_lift_shear_closed_form():
    # w = lam sin(lam x1) e2 lifts to the symbolic closed form with
    # off-diagonal entries -cos(lam x1) / 1 and zero diagonal
    lam = 8
    w2 = SpectralField.from_modes(GRID, {(lam, 0): -0.5j * lam,
                                         (-lam, 0): 0.5j * lam})
    w = VectorField(SpectralField.zero(GRID), w2)
    r = calderon_lift(w)
    cos = SpectralField.from_modes(GRID, {(lam, 0): -0.5, (-lam, 0): -0.5})
    assert (r.a11).sup_norm() <= 1e-13
    assert (r.a22).sup_norm() <= 1e-13
    assert (r.a12 - cos).sup_norm() <= 1e-13
    assert (r.a21 - cos).sup_norm() <= 1e-13


def test_calderon_lift_rejects_divergent(rng):
    v = VectorField(random_field(rng), random_field(rng))
    with pytest.raises(ValueError):
        calderon_lift(v)


def test_matrix_row_divergence_transpose(rng):
    a = random_field(rng)
    m = MatrixField(a, a.dx(0), a.dx(1), a)
    d = m.divergence()
    expect1 = a.dx(0) + a.dx(0).dx(1)
    expect2 = a.dx(1).dx(0) + a.dx(1)
    assert (d.u1 - expect1).sup_norm() <= 1e-11 * max(expect1.sup_norm(), 1)
    assert (d.u2 - expect2).sup_norm() <= 1e-11 * max(expect2.sup_norm(), 1)


@settings(max_examples=25, deadline=None)
@given(k1=st.integers(-20, 20), k2=st.integers(-20, 20),
       t=st.floats(0.0, 1.0))
def test_heat_multiplier_property(k1, k2, t):
    f = SpectralField.from_modes(GRID, {(k1, k2): 1.0})
    h = f.heat(t)
    expect = np.exp(-(k1 * k1 + k2 * k2) * t)
    got = h.coef[k1 % 64, k2 % 64]
    assert abs(got - expect) <= 1e-13


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 30))
def test_perp_gradient_is_solenoidal(seed):
    rng = np.random.default_rng(seed)
    w = random_field(rng).perp_gradient()
    assert w.divergence().sup_norm() <= 1e-11 * max(w.sup_norm(), 1.0)


#: numpy.fft / scipy.fft transforms; only spectral.py may call them
TRANSFORMS = {f"{lib}.{fn}" for lib in ("numpy.fft", "scipy.fft")
              for fn in ("fft2", "ifft2", "rfft2", "irfft2",
                         "fftn", "ifftn", "rfftn", "irfftn")}
#: (module, function) allowed its own unpadded transforms
TRANSFORM_ALLOWED = {("spaces.py", "bmo_inv_norm")}


def _transform_uses(path):
    """(function, dotted name) of every transform or _pad/_truncate use."""
    tree = ast.parse(path.read_text())
    alias = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                alias[a.asname or a.name.split(".")[0]] = \
                    a.name if a.asname else a.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            for a in node.names:
                alias[a.asname or a.name] = f"{base}.{a.name}"

    def dotted(node):
        if isinstance(node, ast.Name):
            return alias.get(node.id, node.id)
        if isinstance(node, ast.Attribute):
            head = dotted(node.value)
            return head and f"{head}.{node.attr}"
        return None

    uses = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = func or node.name
        name = dotted(node) if isinstance(node, (ast.Name, ast.Attribute)) \
            else None
        if name in TRANSFORMS:
            uses.append((func, name))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    for name in alias.values():
        if name.endswith(("spectral._pad", "spectral._truncate")):
            uses.append((None, name))
    return uses


#: the field classes; no module asks a field for its class
FIELD_CLASSES = {"SpectralField", "VectorField", "MatrixField"}


def _field_internals(path):
    """Reads of the private caches ``_band``/``_real``, and isinstance
    calls naming a field class, in one source file."""
    hits = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Attribute) and node.attr in ("_band", "_real"):
            hits.append((node.lineno, node.attr))
        elif isinstance(node, ast.Call) and getattr(node.func, "id", "") \
                == "isinstance" and len(node.args) == 2:
            names = {getattr(n, "id", getattr(n, "attr", None))
                     for n in ast.walk(node.args[1])}
            if names & FIELD_CLASSES:
                hits.append((node.lineno, "isinstance"))
    return hits


def test_field_internals_are_owned_by_spectral():
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "torusns"
    stray = [(path.name, line, what)
             for path in sorted(src.glob("*.py"))
             for line, what in _field_internals(path)
             if path.name != "spectral.py" or what == "isinstance"]
    assert stray == []
    assert _field_internals(src / "spectral.py")


def test_transforms_are_owned_by_spectral():
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "torusns"
    assert (src / "spectral.py").is_file()
    stray = [(path.name, func, name)
             for path in sorted(src.glob("*.py")) if path.name != "spectral.py"
             for func, name in _transform_uses(path)
             if (path.name, func) not in TRANSFORM_ALLOWED]
    assert stray == []
    assert _transform_uses(src / "spectral.py")
