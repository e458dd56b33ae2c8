"""The public surface agrees with itself and with the README's library table.

A deleted name must leave no `__all__` entry, no package re-export and no
README row behind.  Every public entry that takes a seed, a count or a real
number checks it, and the signatures say which arguments those are.
"""

import ast
import dataclasses
import functools
import importlib
import importlib.util
import inspect
import math
import re
import sys
import types
import typing
from pathlib import Path

import numpy as np
import pytest

import gladsim
from gladsim import coordination, experiments, haptic, pon, traffic
from gladsim.errors import GladsimError, ParameterError

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gladsim"


def _modules():
    return [importlib.import_module(f"gladsim.{path.stem}")
            for path in sorted(PACKAGE.glob("*.py")) if path.stem != "__init__"]


def _library_table():
    """(module, names) per row of the README's library table."""
    section = (ROOT / "README.md").read_text().split("## Library layout", 1)[1]
    rows = []
    for line in section.splitlines():
        match = re.fullmatch(r"\| `(gladsim\.\w+)` \| (.*) \|", line.strip())
        if match:
            rows.append((match.group(1), re.findall(r"`(\w+)`", match.group(2))))
    return rows


def test_every_all_entry_exists():
    missing = [f"{module.__name__}.{name}" for module in _modules()
               for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []


def test_package_reexports_resolve():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    reexports = [(node.module, alias.name) for node in tree.body
                 if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert reexports
    for module_name, name in reexports:
        module = importlib.import_module(f"gladsim.{module_name}")
        assert getattr(gladsim, name) is getattr(module, name), name
        # A module that declares its public names must declare this one.
        assert name in getattr(module, "__all__", (name,)), f"{module_name}.{name}"


def test_readme_library_table_names_exist():
    rows = _library_table()
    assert {module for module, _ in rows} >= {
        "gladsim.traffic", "gladsim.pon", "gladsim.haptic",
        "gladsim.coordination", "gladsim.experiments",
    }
    missing = [f"{module}.{name}" for module, names in rows for name in names
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []


def test_readme_library_table_lists_every_public_name():
    declared = {module.__name__: sorted(module.__all__)
                for module in _modules() if hasattr(module, "__all__")}
    listed = {module: sorted(names) for module, names in _library_table() if module in declared}
    assert listed == declared


def test_benchmark_trace_targets_resolve():
    # The benchmark wraps these functions by name; a rename must fail here,
    # not only as `trace.missing` in a benchmark run.
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    missing = [f"{module}.{name}" for _, module, name, _ in tracing.TARGETS
               if not (module.startswith("gladsim.")
                       and callable(getattr(importlib.import_module(module), name, None)))]
    assert missing == []


def _runtime_imports(tree):
    """Top-level module names of every import in `tree`, nested ones included;
    a relative import counts as gladsim."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "gladsim" if node.level else node.module.split(".")[0]


def test_runtime_imports_only_numpy_and_the_standard_library():
    # scipy and hypothesis are test dependencies; the package needs numpy alone.
    allowed = {"numpy", "gladsim"} | set(sys.stdlib_module_names)
    stray = [f"{path.name}: {name}" for path in sorted(PACKAGE.glob("*.py"))
             for name in _runtime_imports(ast.parse(path.read_text()))
             if name not in allowed]
    assert stray == []


def _seeded_entries():
    """name -> a call of each public entry that takes a seed, returning arrays or numbers."""
    ball = haptic.standard_profile(haptic.ObjectKind.RUBBER_BALL)
    controls, _ = haptic.generate_session(ball, 3e5, traffic.CONTROL_TRAFFIC_DEFAULT, 5)
    labels = haptic.label_touch(controls, ball)
    return {
        "generate_stream": lambda seed: traffic.generate_stream(
            traffic.CONTROL_TRAFFIC_DEFAULT, 1e4, seed),
        "round_trips": lambda seed: pon.round_trips(
            pon.PonConfig(), pon.LoadPoint(0.5), seed, n_loops=10)[pon.NO_AI][0],
        "queueing_cross_check": lambda seed: list(pon.queueing_cross_check(
            pon.PonConfig(), pon.LoadPoint(0.5), seed, horizon_us=2e3).values()),
        "generate_session": lambda seed: haptic.generate_session(
            ball, 1e4, traffic.CONTROL_TRAFFIC_DEFAULT, seed)[0].t_us,
        "profiling_trace": lambda seed: haptic.profiling_trace(ball, 10, seed).amplitude,
        "train_classifier": lambda seed: haptic.train_classifier(
            controls, labels, 0.7, seed)[1],
        "run_savings_sweep": lambda seed: coordination.run_savings_sweep(
            coordination.GladParams(total_machines=2, profiling_samples=500), seed),
    }


SEEDED = sorted(_seeded_entries())


@pytest.mark.parametrize("bad", [-1, 1.5, True], ids=["negative", "float", "bool"])
@pytest.mark.parametrize("entry", SEEDED)
def test_seeds_are_checked_at_every_public_entry(entry, bad):
    # A negative seed raised numpy's raw ValueError and a float its raw
    # TypeError; a bool ran as seed 1.
    with pytest.raises(ParameterError, match="^seed must be"):
        _seeded_entries()[entry](bad)


@pytest.mark.parametrize("entry", SEEDED)
def test_numpy_integer_seeds_are_accepted(entry):
    call = _seeded_entries()[entry]
    assert np.array_equal(call(np.int64(3)), call(3))


@functools.cache
def _real_arguments():
    """(entry, argument) -> a call of a public entry that passes its one argument there.

    Tuple fields take the value as their one element.
    """
    ball = haptic.standard_profile(haptic.ObjectKind.RUBBER_BALL)
    trace = haptic.profiling_trace(ball, 100, 1)
    controls, _ = haptic.generate_session(ball, 3e5, traffic.CONTROL_TRAFFIC_DEFAULT, 5)
    labels = haptic.label_touch(controls, ball)
    gpd = traffic.CONTROL_TRAFFIC_DEFAULT
    gaps = np.diff(traffic.generate_stream(gpd, 1e5, 1), prepend=0.0)
    calls = {
        ("LoadPoint", "rho"): pon.LoadPoint,
        ("queueing_cross_check", "horizon_us"): lambda v: pon.queueing_cross_check(
            pon.PonConfig(), pon.LoadPoint(0.5), 1, horizon_us=v),
        ("generate_stream", "horizon_us"): lambda v: traffic.generate_stream(gpd, v, 1),
        ("ks_test", "significance"): lambda v: traffic.ks_test(gaps, gpd, v),
        ("generate_session", "duration_us"): lambda v: haptic.generate_session(ball, v, gpd, 1),
        ("train_classifier", "train_fraction"): lambda v: haptic.train_classifier(
            controls, labels, v),
        ("run_forecaster", "alpha"): lambda v: haptic.run_forecaster(trace, v, 0.05),
        ("run_forecaster", "epsilon"): lambda v: haptic.run_forecaster(trace, 0.5, v),
        ("optimize_alpha", "alpha_grid"): lambda v: haptic.optimize_alpha(trace, (0.5, v), 0.05),
        ("optimize_alpha", "epsilon"): lambda v: haptic.optimize_alpha(trace, (0.5,), v),
    }
    for name in ("wobble", "wobble_persistence", "noise_std"):
        calls["profiling_trace", name] = (
            lambda v, name=name: haptic.profiling_trace(ball, 10, 1, **{name: v}))
    return {**calls, **_field_calls({
        pon.PonConfig: ["downstream_rate_bps", "upstream_rate_bps", "span_km",
                        "fiber_delay_us_per_km", "dba_cycle_us", "wireless_hop_us",
                        "ai_inference_us"],
        traffic.GpdParams: ["shape", "scale", "location"],
        haptic.ObjectProfile: ["extent_cm", "stiffness", "texture_freq_hz"],
        coordination.GladParams: ["accuracy_target", "epsilon", "onboarding_alpha",
                                  "match_threshold", "texture_freq_max_hz", "alpha_grid"],
        experiments.ScenarioConfig: ["deadline_us", "load_grid", "span_grid_km"],
    })}


def _field_calls(fields):
    """(class, field) -> a construction of the class that passes its one argument there."""
    profile = dict(kind=haptic.ObjectKind.CUSTOM, center=np.zeros(3), extent_cm=4.0,
                   stiffness=0.5, texture_freq_hz=10.0)
    defaults = {traffic.GpdParams: dict(shape=0.1, scale=900.0), haptic.ObjectProfile: profile,
                coordination.ProfileRecord: dict(descriptor=("rubber_ball", 9, 0),
                                                 profile_estimate=np.zeros(5))}
    return {(cls.__name__, name): functools.partial(_construct, cls, defaults.get(cls, {}), name)
            for cls, names in fields.items() for name in names}


def _construct(cls, base, name, value):
    """`cls` from the keywords `base` and `name=value`; a tuple field takes `(value,)`."""
    tuple_field = typing.get_origin(typing.get_type_hints(cls)[name]) is tuple
    return cls(**{**base, name: (value,) if tuple_field else value})


REAL_ARGUMENTS = sorted(_real_arguments())


@pytest.mark.parametrize("bad", [math.nan, math.inf, "1", True], ids=["nan", "inf", "str", "bool"])
@pytest.mark.parametrize("entry,argument", REAL_ARGUMENTS,
                         ids=[f"{entry}.{argument}" for entry, argument in REAL_ARGUMENTS])
def test_reals_are_checked_at_every_public_entry(entry, argument, bad):
    # A string raised a raw TypeError, a bool ran as 1 and sample_gpd
    # returned nan for a nan uniform.
    with pytest.raises(GladsimError, match=f"^{argument} must be"):
        _real_arguments()[entry, argument](bad)


@functools.cache
def _integer_arguments():
    """(entry, argument) -> a call of a public entry that passes its one count there."""
    ball = haptic.standard_profile(haptic.ObjectKind.RUBBER_BALL)
    calls = {
        ("profiling_trace", "n_samples"): lambda v: haptic.profiling_trace(ball, v, 1),
        ("round_trips", "n_loops"): lambda v: pon.round_trips(
            pon.PonConfig(), pon.LoadPoint(0.5), 1, n_loops=v),
    }
    return {**calls, **_field_calls({
        pon.PonConfig: ["split_ratio", "packet_bytes", "background_packet_bytes"],
        coordination.GladParams: [
            "window", "kind_pool_size", "total_machines", "local_ais", "profiling_samples",
            "min_updates_for_upload", "quant_bands", "add_every", "additions", "machines_grid"],
        coordination.ProfileRecord: ["sample_count"],
        experiments.ScenarioConfig: ["n_loops", "seeds"],
    })}


INTEGER_ARGUMENTS = sorted(_integer_arguments())


@pytest.mark.parametrize("bad", [2.5, math.nan, math.inf, "1", True],
                         ids=["fraction", "nan", "inf", "str", "bool"])
@pytest.mark.parametrize("entry,argument", INTEGER_ARGUMENTS,
                         ids=[f"{entry}.{argument}" for entry, argument in INTEGER_ARGUMENTS])
def test_integers_are_checked_at_every_public_entry(entry, argument, bad):
    with pytest.raises(GladsimError, match=f"^{argument} must be"):
        _integer_arguments()[entry, argument](bad)


# Result records: the package builds them from values it has checked.
RESULT_RECORDS = {"HapticSample", "OnboardResult"}
# The table whose check an annotation needs: a count must refuse a fraction too.
TABLE_OF_ANNOTATION = {int: "integer", tuple[int, ...]: "integer",
                       float: "real", tuple[float, ...]: "real"}


def _numeric_parameters():
    """(entry, argument, table) of every parameter or field of a public function or class
    that is annotated as a number or a tuple of them, or is a seed."""
    for module in _modules():
        for name in sorted(set(getattr(module, "__all__", ())) - RESULT_RECORDS):
            entry = getattr(module, name)
            if isinstance(entry, types.GenericAlias):   # a type alias, a class on Python 3.10
                continue
            if isinstance(entry, type) and not dataclasses.is_dataclass(entry):
                entry = vars(entry).get("__init__")     # a plain class takes its __init__'s
            if inspect.isfunction(entry) or isinstance(entry, type):
                # Resolves the strings that `from __future__ import annotations` leaves.
                hints = typing.get_type_hints(entry)
                yield from ((name, argument,
                             "seed" if argument == "seed" else TABLE_OF_ANNOTATION[hint])
                            for argument, hint in hints.items()
                            if argument != "return"
                            and (hint in TABLE_OF_ANNOTATION or argument == "seed"))


def test_every_numeric_parameter_has_a_row():
    rows = {"real": set(_real_arguments()), "integer": set(_integer_arguments()),
            "seed": {(entry, "seed") for entry in SEEDED}}
    assert [f"{entry}.{argument} ({table})" for entry, argument, table in _numeric_parameters()
            if (entry, argument) not in rows[table]] == []
