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
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import gladsim
from gladsim import coordination, experiments, haptic, pon, traffic
from gladsim.errors import ConfigError, ParameterError

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


@functools.cache
def _integer_arguments():
    """(entry, argument) -> a call of a public entry that passes its one count or seed there."""
    ball = haptic.standard_profile(haptic.ObjectKind.RUBBER_BALL)
    calls = {
        ("profiling_trace", "n_samples"): lambda v: haptic.profiling_trace(ball, v, 1),
        ("round_trips", "n_loops"): lambda v: pon.round_trips(
            pon.PonConfig(), pon.LoadPoint(0.5), 1, n_loops=v),
        **{(entry, "seed"): call for entry, call in _seeded_entries().items()},
    }
    return {**calls, **_field_calls({
        pon.PonConfig: ["split_ratio", "packet_bytes", "background_packet_bytes"],
        coordination.GladParams: [
            "window", "kind_pool_size", "total_machines", "local_ais", "profiling_samples",
            "min_updates_for_upload", "quant_bands", "add_every", "additions", "machines_grid"],
        coordination.ProfileRecord: ["sample_count"],
        experiments.ScenarioConfig: ["n_loops", "seeds"],
    })}


# Each kind's bad values, by id: (value, the rule its refusal states).
REAL_BAD = {"nan": (math.nan, "finite"), "inf": (math.inf, "finite"),
            "-inf": (-math.inf, "finite"), "str": ("1", "a real number"),
            "bool": (True, "a real number"),
            # float() overflowed on it with a raw OverflowError.
            "beyond-float": (Fraction(10**400), "finite")}
# 16.0 is not a split ratio, and 10**400 overflowed the float delays.
INTEGER_BAD = {"fraction": (2.5, "an integer"), "integral-float": (16.0, "an integer"),
               "nan": (math.nan, "finite"), "inf": (math.inf, "finite"),
               "-inf": (-math.inf, "finite"), "beyond-float": (10**400, "finite"),
               "str": ("1", "an integer"), "true": (True, "an integer"),
               "false": (False, "an integer")}

ABOVE_1 = math.nextafter(1.0, 2.0)
_MIN_HORIZON = 1000.0 * pon._transmission_time(1250, pon.PonConfig().downstream_rate_bps)

# (entry, argument) -> (values refused, bound values accepted).  The refused
# values are those just outside each bound and those a past fault was seen
# at; an accepted value is stored or returned unchanged.
BOUNDS = {
    # The Kingman wait takes the load unchecked below 1.
    ("LoadPoint", "rho"): ((-5e-324,), (0.0, math.nextafter(1.0, 0.0))),
    # 1e-9 and 1 us drew only the ten-service tail past the horizon, a
    # handful of events, and read a relative gap of 0.385.
    ("queueing_cross_check", "horizon_us"): (
        (-1e9, -1.0, 0.0, 1e-9, 1.0, math.nextafter(_MIN_HORIZON, 0.0)), (_MIN_HORIZON,)),
    # A nan horizon raised ValueError and an infinite one OverflowError.
    ("generate_stream", "horizon_us"): ((0.0, -1.0), ()),
    ("ks_test", "significance"): ((0.0, -0.1, 0.6, math.nextafter(0.5, 1.0)), (0.5,)),
    ("generate_session", "duration_us"): ((0.0,), ()),
    ("train_classifier", "train_fraction"): ((0.0, 1.0), ()),
    ("run_forecaster", "alpha"): ((0.0, -0.1, 1.5, ABOVE_1), (1.0,)),
    # A nan tolerance scored every step a miss, an infinite one every step a
    # hit, and optimize_alpha then returned the smallest alpha.
    ("run_forecaster", "epsilon"): ((0.0, -0.05), ()),
    ("optimize_alpha", "alpha_grid"): ((0.0, ABOVE_1), (1.0,)),
    ("optimize_alpha", "epsilon"): ((0.0,), ()),
    # A nan noise_std ran as noise 0, and a persistence of 1.5 raised
    # ValueError from math.sqrt.
    ("profiling_trace", "noise_std"): ((-0.1, -5e-324), (0.0,)),
    ("profiling_trace", "wobble_persistence"): (
        (1.5, -1.5, ABOVE_1, math.nextafter(-1.0, -2.0)), (-1.0, 1.0)),
    ("profiling_trace", "wobble"): ((-0.1, -5e-324), (0.0,)),
    # 10.5 samples raised a raw TypeError from numpy, and True ran as one.
    ("profiling_trace", "n_samples"): ((0,), (1,)),
    # 100.5 loops raised a raw TypeError from slicing the probe stream.
    ("round_trips", "n_loops"): ((9,), (10,)),
    # A negative seed raised numpy's raw ValueError and a float its raw
    # TypeError; a bool ran as seed 1.
    **{(entry, "seed"): ((-1,), (0,)) for entry in _seeded_entries()},
    # The delays are computed from these fields unchecked, so a zero packet or
    # a negative span is refused here or not at all.  An infinite span or
    # per-km delay built, and an infinite wireless hop overflowed the event
    # budget; a float split failed inside range() in the upstream leg.
    ("PonConfig", "span_km"): ((-1.0, -5e-324), (0.0,)),
    **{("PonConfig", name): ((0,), (1,))
       for name in ("split_ratio", "packet_bytes", "background_packet_bytes")},
    **{("PonConfig", name): ((0.0,), (5e-324,))
       for name in ("downstream_rate_bps", "upstream_rate_bps", "fiber_delay_us_per_km",
                    "dba_cycle_us", "wireless_hop_us", "ai_inference_us")},
    ("GpdParams", "scale"): ((0.0, -1.0), ()),
    ("GpdParams", "location"): ((-0.5, -5e-324), (0.0,)),
    # A nan texture frequency built, then failed in descriptor_of with a raw
    # ValueError; a nan extent built and onboarded without complaint.
    ("ObjectProfile", "extent_cm"): ((0.0,), ()),
    ("ObjectProfile", "stiffness"): ((0.0, ABOVE_1), (1.0,)),
    ("ObjectProfile", "texture_freq_hz"): ((-5e-324,), (0.0,)),
    # 2.5 and True were stored as sample counts and weighted the fold.
    ("ProfileRecord", "sample_count"): ((0, -3), (1,)),
    # A bad field built and then failed in a runner: total_machines=2.5 raised
    # a raw TypeError from the savings sweep, epsilon=inf failed inside
    # run_forecaster, and min_updates_for_upload=-5 uploaded every profile,
    # as 0 does.  The window and the pool size reach helpers unchecked.
    ("GladParams", "accuracy_target"): ((0.0, 1.0), ()),
    ("GladParams", "epsilon"): ((0.0,), ()),
    ("GladParams", "texture_freq_max_hz"): ((0.0,), ()),
    **{("GladParams", name): ((0.0, 1.5, ABOVE_1), (1.0,))
       for name in ("onboarding_alpha", "match_threshold", "alpha_grid")},
    **{("GladParams", name): ((low - 1,), (low,)) for name, low in (
        ("window", 1), ("total_machines", 2), ("local_ais", 1), ("add_every", 1),
        ("additions", 0), ("quant_bands", 2), ("machines_grid", 1),
        ("profiling_samples", coordination.MIN_ONBOARDING_SAMPLES))},
    ("GladParams", "min_updates_for_upload"): ((-5, -1, 4001), (0, 4000)),
    ("GladParams", "kind_pool_size"): (
        (0, coordination.POOL_CAPACITY + 1), (1, coordination.POOL_CAPACITY)),
    # A nan load failed mid-sweep, an inf span wrote nan cells and a nan
    # deadline raised a bare ValueError.  A float count raised a raw
    # TypeError from the event budget, and a bool ran as seed 1 and wrote
    # `"seeds": [true]` into the manifest.
    ("ScenarioConfig", "deadline_us"): ((0.0,), ()),
    ("ScenarioConfig", "load_grid"): ((-0.1, -5e-324), (0.0,)),
    ("ScenarioConfig", "span_grid_km"): ((-5e-324,), (0.0,)),
    ("ScenarioConfig", "n_loops"): ((5, 9), (10,)),
    ("ScenarioConfig", "seeds"): ((-1,), (0,)),
}
# Where a bound's refusal states another rule than `finite and <bounds>`.
OTHER_RULES = {("queueing_cross_check", "horizon_us"): "at least 1000 background services"}
# The scenario records refuse with the scenario file's error class.
CONFIG_RECORDS = {"GladParams", "ScenarioConfig"}


def _error(entry):
    return ConfigError if entry in CONFIG_RECORDS else ParameterError


def _call(entry, argument):
    return {**_real_arguments(), **_integer_arguments()}[entry, argument]


def _ids(rows):
    return [f"{entry}.{argument}" for entry, argument in rows]


REAL_ARGUMENTS = sorted(_real_arguments())
INTEGER_ARGUMENTS = sorted(_integer_arguments())


@pytest.mark.parametrize("bad", REAL_BAD)
@pytest.mark.parametrize("entry,argument", REAL_ARGUMENTS, ids=_ids(REAL_ARGUMENTS))
def test_reals_are_checked_at_every_public_entry(entry, argument, bad):
    # A string raised a raw TypeError, a bool ran as 1 and sample_gpd
    # returned nan for a nan uniform.
    value, rule = REAL_BAD[bad]
    with pytest.raises(_error(entry), match=f"^{argument} must be {rule}"):
        _real_arguments()[entry, argument](value)


@pytest.mark.parametrize("bad", INTEGER_BAD)
@pytest.mark.parametrize("entry,argument", INTEGER_ARGUMENTS, ids=_ids(INTEGER_ARGUMENTS))
def test_integers_are_checked_at_every_public_entry(entry, argument, bad):
    value, rule = INTEGER_BAD[bad]
    with pytest.raises(_error(entry), match=f"^{argument} must be {rule}"):
        _integer_arguments()[entry, argument](value)


def _bound_cases(which):
    """pytest parameters of each row's refused (0) or accepted (1) values."""
    return [pytest.param(entry, argument, value, id=f"{entry}.{argument}={value!r}")
            for (entry, argument), values in sorted(BOUNDS.items()) for value in values[which]]


@pytest.mark.parametrize("entry,argument,value", _bound_cases(0))
def test_values_outside_a_bound_are_refused(entry, argument, value):
    rule = OTHER_RULES.get((entry, argument), "finite and ")
    with pytest.raises(_error(entry), match=f"^{argument} must be {rule}"):
        _call(entry, argument)(value)


@pytest.mark.parametrize("entry,argument,value", _bound_cases(1))
def test_bound_values_are_accepted(entry, argument, value):
    out = _call(entry, argument)(value)
    if hasattr(out, argument):  # a record stores it
        stored = getattr(out, argument)
        assert stored == ((value,) if isinstance(stored, tuple) else value)


@pytest.mark.parametrize("entry", sorted(_seeded_entries()))
def test_numpy_integer_seeds_are_accepted(entry):
    call = _integer_arguments()[entry, "seed"]
    assert np.array_equal(call(np.int64(3)), call(3))


# Result records: the package builds them from values it has checked.
RESULT_RECORDS = {"HapticSample", "OnboardResult", "TouchClassifier"}
# The table whose check an annotation needs: a count must refuse a fraction too.
TABLE_OF_ANNOTATION = {int: "integer", tuple[int, ...]: "integer",
                       float: "real", tuple[float, ...]: "real"}


def _numeric_parameters():
    """(entry, argument, table) of every parameter or field of a public function or class
    that is annotated as a number or a tuple of them."""
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
                yield from ((name, argument, TABLE_OF_ANNOTATION[hint])
                            for argument, hint in hints.items()
                            if argument != "return" and hint in TABLE_OF_ANNOTATION)


def test_every_numeric_parameter_has_a_row():
    rows = {"real": set(_real_arguments()), "integer": set(_integer_arguments())}
    assert [f"{entry}.{argument} ({table})" for entry, argument, table in _numeric_parameters()
            if (entry, argument) not in rows[table]] == []
    # Every row but the GPD shape's has a bound, and every bound a row.
    assert (rows["real"] | rows["integer"]) ^ set(BOUNDS) == {("GpdParams", "shape")}


def test_array_holding_records_compare_and_hash_by_identity():
    # Compared over their numpy fields, two equal-valued records raised "the
    # truth value of an array ... is ambiguous", and hash() a TypeError.
    def pair(build):
        return build(), build()

    ball = functools.partial(haptic.standard_profile, haptic.ObjectKind.RUBBER_BALL)
    descriptor = coordination.descriptor_of(ball())
    for a, b in [pair(ball),
                 pair(lambda: coordination.ProfileRecord(descriptor, np.full(5, 0.5), 1)),
                 pair(lambda: haptic.profiling_trace(ball(), 2, seed=1)[0])]:
        assert a == a and a != b and a not in [b] and len({a, b, a}) == 2
