"""INI-file round-tripping for run configurations.

A single ``[run]`` section maps one-to-one onto the fields of
``RunConfig``; unknown keys are rejected so typos fail loudly.  Tuple
fields (the schedule's ``lams``) are written and read as comma-separated
integers.
"""

from __future__ import annotations

import configparser
from dataclasses import asdict, fields

from .driver import RunConfig

_SECTION = "run"


def load_config(path: str) -> RunConfig:
    parser = configparser.ConfigParser()
    with open(path) as fh:
        parser.read_file(fh)
    if not parser.has_section(_SECTION):
        raise ValueError(f"config file {path} has no [{_SECTION}] section")
    known = {f.name: f.type for f in fields(RunConfig)}
    kwargs = {}
    for key, raw in parser.items(_SECTION):
        if key not in known:
            raise ValueError(f"unknown config key {key!r} in {path}")
        tp = known[key]
        try:
            if tp.startswith("tuple"):
                kwargs[key] = tuple(int(x) for x in raw.split(","))
            elif tp == "int":
                kwargs[key] = parser.getint(_SECTION, key)
            else:
                kwargs[key] = raw
        except ValueError as exc:
            raise ValueError(
                f"cannot parse config key {key!r} = {raw!r} in {path}: "
                f"{exc}") from exc
    return RunConfig(**kwargs)


def save_config(path: str, config: RunConfig) -> None:
    parser = configparser.ConfigParser()
    parser[_SECTION] = {
        k: ", ".join(map(str, v)) if isinstance(v, tuple) else str(v)
        for k, v in asdict(config).items()}
    with open(path, "w") as fh:
        parser.write(fh)
