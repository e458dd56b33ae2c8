"""Scenario files: a strict INI schema over the runner defaults.

Every key overrides one scenario field and is named after it, except
`scale_us`, `location_us`, `loads` and `spans_km`.  Fields that no runner
reads have no key.  Unknown sections or keys, and values in a `[DEFAULT]`
section, are hard errors so a typo cannot silently skew a calibrated run;
values are read literally, without `%` interpolation.  Example:

    [pon]
    split_ratio = 16
    dba_cycle_us = 125

    [grid]
    loads = 0.1, 0.5, 0.9
    spans_km = 10, 20, 30
    seeds = 1, 2, 3
    n_loops = 10000

    [traffic.control]
    shape = 0.1
    scale_us = 900
    location_us = 0

    [glad]
    kind_pool_size = 1
    total_machines = 8
"""

from __future__ import annotations

import configparser
import math
from dataclasses import MISSING, fields, replace
from pathlib import Path
from typing import get_type_hints

from .errors import ConfigError
from .experiments import ScenarioConfig

__all__ = ["load_scenario", "default_scenario_text"]


def _float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


def _floats(text: str) -> tuple[float, ...]:
    return tuple(_float(v.strip()) for v in text.split(",") if v.strip())


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(v.strip()) for v in text.split(",") if v.strip())


# field annotation -> parser of its value
_PARSERS = {float: _float, int: int, tuple[float, ...]: _floats, tuple[int, ...]: _ints}

# Fields whose key is not the field name.
_KEYS = {"scale": "scale_us", "location": "location_us",
         "load_grid": "loads", "span_grid_km": "spans_km"}

# Fields that change no report, so that a file setting them is refused: they
# are wired or deleted at the next ARTIFACT_VERSION bump (ROADMAP items 10, 20).
# Nothing in the model reads span_km: the sweep takes its spans from the grid.
_UNREAD = {"haptic_traffic", "span_km", "local_ais", "min_updates_for_upload"}

# section -> the ScenarioConfig field it overrides; [grid] overrides the
# ScenarioConfig fields that no other section covers.
_SECTIONS = {"pon": "pon", "traffic.control": "control_traffic", "grid": None,
             "glad": "glad"}


def _keys(cls, names=None) -> dict:
    """key -> (field, parser) for the read fields of `cls` in `names` (all by default)."""
    hints = get_type_hints(cls)
    return {_KEYS.get(f.name, f.name): (f.name, _PARSERS[hints[f.name]])
            for f in fields(cls)
            if f.name not in _UNREAD and (names is None or f.name in names)}


# ScenarioConfig field -> its default, taken from the field so that no
# default scenario is built and checked.
_DEFAULTS = {f.name: f.default_factory() if f.default is MISSING else f.default
             for f in fields(ScenarioConfig)}

_GRID = [f.name for f in fields(ScenarioConfig) if f.name not in _SECTIONS.values()]

# section -> key -> (target dataclass attribute, parser)
_SCHEMA = {section: _keys(get_type_hints(ScenarioConfig)[name]) if name
           else _keys(ScenarioConfig, _GRID) for section, name in _SECTIONS.items()}


def _collect(parser: configparser.ConfigParser, section: str) -> dict:
    """Parsed overrides for one section; unknown keys raise ConfigError."""
    if not parser.has_section(section):
        return {}
    schema = _SCHEMA[section]
    out = {}
    for key, raw in parser.items(section):
        if key not in schema:
            raise ConfigError(f"unknown key '{key}' in section [{section}]")
        attr, parse = schema[key]
        try:
            out[attr] = parse(raw)
        except ValueError as exc:
            raise ConfigError(
                f"bad value for '{key}' in section [{section}]: {raw!r}"
            ) from exc
    return out


def load_scenario(path) -> ScenarioConfig:
    """Parse a scenario file into a fully-validated ScenarioConfig."""
    path = Path(path)
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8 text: {exc.reason}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc

    # configparser would copy [DEFAULT] values into every section.
    if parser.defaults():
        raise ConfigError(f"unknown section [{parser.default_section}] in {path}")
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}] in {path}")

    try:
        # Each nested section is built, and so checked, before the next is
        # read, and [grid] last; the scenario itself is built once.
        nested = {name: replace(_DEFAULTS[name], **_collect(parser, section))
                  for section, name in _SECTIONS.items() if name}
        return ScenarioConfig(**nested, **_collect(parser, "grid"))
    except ConfigError:
        raise
    except Exception as exc:  # dataclass validation errors carry the detail
        raise ConfigError(f"invalid scenario in {path}: {exc}") from exc


def default_scenario_text() -> str:
    """A commented scenario file showing every supported key at its default."""
    lines = ["# gladsim scenario file; every key is optional and overrides a default\n"]
    for section, name in _SECTIONS.items():
        lines.append(f"[{section}]")
        for key, (attr, _) in _SCHEMA[section].items():
            value = getattr(_DEFAULTS[name], attr) if name else _DEFAULTS[attr]
            if isinstance(value, tuple):
                value = ", ".join(str(v) for v in value)
            lines.append(f"{key} = {value}")
        lines.append("")
    return "\n".join(lines)
