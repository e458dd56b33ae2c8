"""The public surface agrees with itself and with the README's library table.

A deleted name must leave no `__all__` entry, no package re-export and no
README row behind.  Every public entry that takes a seed checks it.
"""

import ast
import importlib
import importlib.util
import re
import sys
from pathlib import Path

import numpy as np
import pytest

import gladsim
from gladsim import coordination, haptic, pon, traffic
from gladsim.errors import ParameterError

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
