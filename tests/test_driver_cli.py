"""Orchestration, configuration files, and the command line."""

import json
import shlex
from pathlib import Path

import numpy as np
import pytest

from torusns import cli, driver
from torusns.config import load_config, save_config
from torusns.spaces import besov_norm


def one_level_config(tmp_path, **kw):
    return driver.RunConfig(levels=1, grid_n=1024,
                            out_dir=str(tmp_path), **kw)


def test_runconfig_ini_roundtrip(tmp_path):
    cfg = driver.RunConfig(levels=3, grid_n=256, profile_band=16,
                           seed=42, out_dir="x")
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


def test_strict_schedule_guard():
    cfg = driver.RunConfig(toy_mode=False, a=100, b=100)
    with pytest.raises(ValueError):
        cfg.schedule()


def test_single_level_branchES_and_separation(tmp_path):
    # levels=1: the even branch is empty, the gap IS the seed, ratio 1
    cfg = one_level_config(tmp_path)
    branch = driver.build_solution_pair(cfg)
    report = driver.separation_report(branch)
    t_star = report["t_star"]
    seed = branch.levels[1]
    gap = branch.partial_sum("odd", t_star, branch.grid)
    direct = besov_norm(gap, -1.0, np.inf, np.inf)
    assert abs(report["gap_norm"] - direct) <= 1e-12 * max(direct, 1.0)
    assert abs(report["M0"] - direct) <= 1e-10 * max(direct, 1.0)
    assert not report["assertable"] or report["ratio"] >= 0.5


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


def test_cli_check_identities_seed_level_exit_two(tmp_path, capsys):
    rc = cli.main(["--out", str(tmp_path), "--grid", "256",
                   "check-identities", "--m", "1"])
    assert rc == 2
    assert "seed level" in capsys.readouterr().err


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
