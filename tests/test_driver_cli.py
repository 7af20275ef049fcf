"""Orchestration, configuration files, and the command line."""

import json
import shlex
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from torusns import cli, driver
from torusns import construction as cons
from torusns import solver as slv
from torusns.config import load_config, save_config
from torusns.spaces import besov_norm
from torusns.spectral import VectorField
from torusns.timefield import ExpSeries


def one_level_config(tmp_path, **kw):
    return driver.RunConfig(levels=1, grid_n=1024,
                            out_dir=str(tmp_path), **kw)


def test_runconfig_ini_roundtrip(tmp_path):
    cfg = driver.RunConfig(levels=3, grid_n=256, profile_band=16,
                           seed=42, out_dir="x")
    path = str(tmp_path / "run.ini")
    save_config(path, cfg)
    assert load_config(path) == cfg


def _other_value(f):
    """A value of field ``f``'s type that differs from its default."""
    v = f.default
    if f.type.startswith("tuple"):
        return tuple(x + 5 for x in v)
    if f.type == "int":
        return v + 1
    assert f.type == "str", f"no test value for field type {f.type!r}"
    return f"{v}-other"


def test_every_runconfig_field_roundtrips_through_ini(tmp_path):
    # a field type the INI loader cannot parse fails here, not in a run
    changed = {f.name: _other_value(f) for f in fields(driver.RunConfig)}
    cfg = driver.RunConfig(**changed)
    assert all(getattr(cfg, k) != getattr(driver.RunConfig(), k)
               for k in changed)
    path = str(tmp_path / "run.ini")
    save_config(path, cfg)
    assert load_config(path) == cfg


def test_unknown_config_key_rejected(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[run]\nlevles = 3\n")
    with pytest.raises(ValueError):
        load_config(str(path))


def test_missing_section_rejected(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[other]\nlevels = 3\n")
    with pytest.raises(ValueError):
        load_config(str(path))


def test_schedule_shorter_than_levels_rejected():
    with pytest.raises(ValueError, match="length 3"):
        driver.RunConfig(levels=4).schedule()


def test_single_level_branches_and_separation(tmp_path):
    # levels=1: the even branch is empty, the gap IS the seed, ratio 1;
    # with no level 2 there is no fast branch to decay, so the ratio
    # asserts nothing
    cfg = one_level_config(tmp_path)
    branch = driver.build_solution_pair(cfg)
    report = driver.separation_report(branch)
    t_star = report["t_star"]
    gap = branch.partial_sum("odd", t_star, branch.grid)
    direct = besov_norm(gap, -1.0, np.inf, np.inf)
    assert abs(report["gap_norm"] - direct) <= 1e-12 * max(direct, 1.0)
    assert abs(report["M0"] - direct) <= 1e-10 * max(direct, 1.0)
    assert not report["assertable"]
    entry, = [e for e in branch.ledger if e["name"] == "separation/gap-ratio"]
    assert entry["status"] == "report-only"


def _duhamel_modes(modes: dict, r: float, t: float) -> dict:
    """-int_0^t e^{(t-s) Delta} P F e^{-rs} ds for F = sum of the modes
    {xi: c}, mode by mode: -P c (e^{-rt} - e^{-|xi|^2 t}) / (|xi|^2 - r),
    or -P c t e^{-rt} on a resonant mode |xi|^2 = r."""
    out = {}
    for xi, c in modes.items():
        k = np.array(xi, dtype=float)
        ksq = float(k @ k)
        pc = c - k * (k @ c) / ksq
        if ksq == r:
            factor = t * np.exp(-r * t)
        else:
            factor = (np.exp(-r * t) - np.exp(-ksq * t)) / (ksq - r)
        out[xi] = -factor * pc
    return out


def test_separation_of_a_one_term_forcing_is_the_duhamel_formula(tmp_path):
    # level 2 holds no perturbation, a one-term F1 and a zero F2, so the
    # even branch at t* is the linear corrector in closed form; one mode
    # is resonant and one shares the seed's frequency, so the gap's norm
    # also checks the sign with which the corrector enters
    cfg = driver.RunConfig(levels=1, grid_n=64, out_dir=str(tmp_path))
    branch = driver.build_solution_pair(cfg)
    grid = branch.grid
    lam1 = branch.schedule.lam(1)
    t_star = 1.0 / float(lam1) ** 2
    r = 50.0
    half = {(1, 7): np.array([300.0 + 200.0j, -100.0j]),
            (3, -2): np.array([-150.0, 400.0 + 50.0j]),
            (lam1, 0): np.array([80.0j, 900.0 - 300.0j])}
    modes = {**half, **{(-a, -b): np.conj(c) for (a, b), c in half.items()}}
    zero = ExpSeries({0.0: VectorField.zero(grid)})
    branch.levels[2] = cons.LevelState(
        m=2, lam=branch.schedule.lam(2), w_p=zero, R_wp=None, C0=1000.0,
        F1=ExpSeries({r: VectorField.from_modes(grid, modes)}), F2=zero)
    report = driver.separation_report(branch)

    w_l = VectorField.from_modes(grid, _duhamel_modes(modes, r, t_star))
    got = branch.levels[2].parts(t_star, grid)["w_L"]
    assert np.abs((got - w_l).coef).max() <= 1e-12 * np.abs(w_l.coef).max()
    seed = branch.levels[1].w_p.at(t_star).regrid(grid)
    direct = besov_norm(seed - w_l, -1.0, np.inf, np.inf)
    assert abs(report["gap_norm"] - direct) <= 1e-12 * direct
    assert report["part"] == "linear-duhamel"
    assert set(report["parts"]) == {"seed", "w_p(2)", "w_L(2)"}


def test_separation_records_the_size_of_each_part(tmp_path):
    # the benchmark's small schedule: seed, w_p, w_s and w_L of level 2
    cfg = driver.RunConfig(lams=(5, 10), levels=2, grid_n=256,
                           out_dir=str(tmp_path))
    branch = driver.build_solution_pair(cfg)
    report = driver.separation_report(branch)
    grid = branch.grid
    t_star = report["t_star"]
    seed, state = branch.levels[1], branch.levels[2]
    parts = {"seed": seed.w_p.at(t_star).regrid(grid),
             "w_p(2)": state.w_p.at(t_star).regrid(grid),
             "w_s(2)": state.w_s.at(t_star).regrid(grid),
             "w_L(2)": slv.heat_duhamel(state.F1 + state.F2, t_star, grid)}
    m0 = report["M0"]
    assert set(report["parts"]) == set(parts)
    for name, part in parts.items():
        size = besov_norm(part, -1.0, np.inf, np.inf) / m0
        assert report["parts"][name] == pytest.approx(size, rel=1e-12), name
    # the seed decays by e^{-1} at t*, which M0 already carries
    assert report["parts"]["seed"] == pytest.approx(1.0, rel=1e-12)
    gap = branch.partial_sum("odd", t_star, grid) - branch.partial_sum(
        "even", t_star, grid)
    direct = besov_norm(gap, -1.0, np.inf, np.inf) / m0
    assert report["ratio"] == pytest.approx(direct, rel=1e-12)


def test_single_level_telescoping(tmp_path):
    cfg = one_level_config(tmp_path)
    branch = driver.build_solution_pair(cfg)
    entry = [e for e in branch.ledger
             if e["name"] == "branches/initial-telescoping"][0]
    assert entry["status"] == "pass"


def test_ledger_deterministic_bytes(tmp_path):
    payloads = []
    for run in range(2):
        cfg = one_level_config(tmp_path)
        branch = driver.build_solution_pair(cfg)
        driver.separation_report(branch)
        path = str(tmp_path / f"ledger{run}.json")
        driver.write_ledger(path, branch)
        payloads.append(open(path, "rb").read())
    assert payloads[0] == payloads[1]
    data = json.loads(payloads[0])
    assert data["version"] == driver.LEDGER_VERSION
    assert data["entries"]


def test_run_level_requires_previous():
    cfg = driver.RunConfig(levels=2)
    branch = driver.new_branch(cfg)
    with pytest.raises(ValueError):
        driver.run_level(branch, 2)


def test_cli_verify_geometry_exit_zero(tmp_path, capsys):
    rc = cli.main(["--out", str(tmp_path), "verify-geometry"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "passed" in out


def test_cli_bad_config_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[run]\nnope = 1\n")
    rc = cli.main(["--config", str(bad), "verify-geometry"])
    assert rc == 2


def test_cli_unparsable_schedule_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    for key, raw in (("lams", "25, x"), ("levels", "two")):
        bad.write_text(f"[run]\n{key} = {raw}\n")
        rc = cli.main(["--config", str(bad), "verify-geometry"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "unknown config key" not in err
        assert repr(key) in err and str(bad) in err


def test_cli_missing_config_file_exit_two(tmp_path):
    rc = cli.main(["--config", str(tmp_path / "none.ini"),
                   "verify-geometry"])
    assert rc == 2


def test_cli_build_level_seed(tmp_path, capsys):
    rc = cli.main(["--out", str(tmp_path), "--grid", "1024",
                   "build-level", "--m", "1"])
    assert rc == 0
    assert (tmp_path / "ledger.json").exists()


def test_cli_export_json_levels_one(tmp_path):
    rc = cli.main(["--out", str(tmp_path), "--grid", "1024",
                   "build-pair", "--levels", "1"])
    assert rc == 0
    data = json.loads((tmp_path / "ledger.json").read_text())
    assert data["schedule"]["lams"][0] == 25


def test_cli_export_json_equals_the_ledger(tmp_path):
    ini = tmp_path / "one.ini"
    ini.write_text("[run]\nlevels = 1\n")
    args = ["--config", str(ini), "--out", str(tmp_path), "--grid", "256"]
    assert cli.main(args + ["build-pair"]) == 0
    assert cli.main(args + ["export", "--format", "json"]) == 0
    assert (tmp_path / "export.json").read_bytes() == \
        (tmp_path / "ledger.json").read_bytes()


def test_cli_check_identities_seed_level_exit_two(tmp_path, capsys):
    rc = cli.main(["--out", str(tmp_path), "--grid", "256",
                   "check-identities", "--m", "1"])
    assert rc == 2
    assert "seed level" in capsys.readouterr().err


def test_cli_zero_levels_in_config_exit_two(tmp_path, capsys):
    ini = tmp_path / "zero.ini"
    ini.write_text("[run]\nlevels = 0\n")
    rc = cli.main(["--config", str(ini), "--out", str(tmp_path),
                   "build-pair"])
    assert rc == 2
    assert "levels=0" in capsys.readouterr().err
    with pytest.raises(ValueError, match="at least 1"):
        driver.RunConfig(levels=0).schedule()


def test_cli_build_level_zero_exit_two(tmp_path, capsys):
    rc = cli.main(["--out", str(tmp_path), "build-level", "--m", "0"])
    assert rc == 2
    assert "level 0" in capsys.readouterr().err
    assert not (tmp_path / "ledger.json").exists()


def test_cli_zero_flags_are_not_ignored(tmp_path, capsys):
    # a zero --levels or --grid is a value, not an absent flag
    for args in (["build-pair", "--levels", "0"],
                 ["--grid", "0", "build-pair", "--levels", "1"]):
        rc = cli.main(["--out", str(tmp_path)] + args)
        assert rc == 2, args
        assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "ledger.json").exists()


def _readme_usage_lines():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    block = readme.read_text().split("## Usage", 1)[1].split("```")[1]
    return [line for line in block.splitlines()
            if line.startswith("torusns ")]


def test_readme_usage_lines_parse(monkeypatch):
    lines = _readme_usage_lines()
    assert lines
    for name in dir(cli):
        if name.startswith("cmd_"):
            monkeypatch.setattr(cli, name, lambda args: 0)
    for line in lines:
        try:
            rc = cli.main(shlex.split(line, comments=True)[1:])
        except SystemExit as exc:  # argparse rejected the line
            rc = exc.code
        assert rc == 0, line
