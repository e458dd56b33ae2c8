"""Scenario files: a strict INI schema over the runner defaults.

Every key overrides one scenario field; unknown sections or keys are hard
errors so a typo cannot silently skew a calibrated run.  Example:

    [pon]
    span_km = 20
    split_ratio = 16

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
from dataclasses import replace
from pathlib import Path

from .coordination import GladParams
from .errors import ConfigError
from .experiments import ScenarioConfig
from .pon import PonConfig
from .traffic import CONTROL_TRAFFIC_DEFAULT

__all__ = ["load_scenario", "default_scenario_text"]


def _float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


def _int(text: str) -> int:
    return int(text)


def _floats(text: str) -> tuple[float, ...]:
    return tuple(_float(v.strip()) for v in text.split(",") if v.strip())


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(v.strip()) for v in text.split(",") if v.strip())


# section -> key -> (target dataclass attribute, parser)
_SCHEMA = {
    "pon": {
        "downstream_rate_bps": ("downstream_rate_bps", _float),
        "upstream_rate_bps": ("upstream_rate_bps", _float),
        "split_ratio": ("split_ratio", _int),
        "span_km": ("span_km", _float),
        "fiber_delay_us_per_km": ("fiber_delay_us_per_km", _float),
        "dba_cycle_us": ("dba_cycle_us", _float),
        "wireless_hop_us": ("wireless_hop_us", _float),
        "ai_inference_us": ("ai_inference_us", _float),
        "packet_bytes": ("packet_bytes", _int),
        "background_packet_bytes": ("background_packet_bytes", _int),
    },
    "traffic.control": {
        "shape": ("shape", _float),
        "scale_us": ("scale", _float),
        "location_us": ("location", _float),
    },
    "traffic.haptic": {
        "shape": ("shape", _float),
        "scale_us": ("scale", _float),
        "location_us": ("location", _float),
    },
    "grid": {
        "loads": ("load_grid", _floats),
        "spans_km": ("span_grid_km", _floats),
        "seeds": ("seeds", _ints),
        "n_loops": ("n_loops", _int),
        "deadline_us": ("deadline_us", _float),
    },
    "glad": {
        "accuracy_target": ("accuracy_target", _float),
        "window": ("window", _int),
        "epsilon": ("epsilon", _float),
        "onboarding_alpha": ("onboarding_alpha", _float),
        "alpha_grid": ("alpha_grid", _floats),
        "kind_pool_size": ("kind_pool_size", _int),
        "total_machines": ("total_machines", _int),
        "local_ais": ("local_ais", _int),
        "profiling_samples": ("profiling_samples", _int),
        "min_updates_for_upload": ("min_updates_for_upload", _int),
        "match_threshold": ("match_threshold", _float),
        "quant_bands": ("quant_bands", _int),
        "texture_freq_max_hz": ("texture_freq_max_hz", _float),
        "add_every": ("add_every", _int),
        "additions": ("additions", _int),
        "machines_grid": ("machines_grid", _ints),
    },
}


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
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser()
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc

    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}] in {path}")

    try:
        pon_cfg = replace(PonConfig(), **_collect(parser, "pon"))
        control = replace(CONTROL_TRAFFIC_DEFAULT, **_collect(parser, "traffic.control"))
        haptic_p = replace(CONTROL_TRAFFIC_DEFAULT, **_collect(parser, "traffic.haptic"))
        glad = replace(GladParams(), **_collect(parser, "glad"))
        grid = _collect(parser, "grid")
        return ScenarioConfig(
            pon=pon_cfg,
            control_traffic=control,
            haptic_traffic=haptic_p,
            glad=glad,
            **grid,
        )
    except ConfigError:
        raise
    except Exception as exc:  # dataclass validation errors carry the detail
        raise ConfigError(f"invalid scenario in {path}: {exc}") from exc


def default_scenario_text() -> str:
    """A commented scenario file showing every supported key at its default."""
    lines = ["# gladsim scenario file; every key is optional and overrides a default\n"]
    defaults = {
        "pon": PonConfig(),
        "traffic.control": CONTROL_TRAFFIC_DEFAULT,
        "traffic.haptic": CONTROL_TRAFFIC_DEFAULT,
        "grid": ScenarioConfig(),
        "glad": GladParams(),
    }
    for section, schema in _SCHEMA.items():
        lines.append(f"[{section}]")
        source = defaults[section]
        for key, (attr, _) in schema.items():
            value = getattr(source, attr)
            if isinstance(value, tuple):
                value = ", ".join(str(v) for v in value)
            lines.append(f"{key} = {value}")
        lines.append("")
    return "\n".join(lines)
