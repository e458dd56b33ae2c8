"""Tests for scenario runners and report export."""

import importlib.util
import json
import math
import pathlib

import numpy as np
import pytest

from gladsim import coordination, experiments, haptic, pon
from gladsim.coordination import GladParams
from gladsim.errors import ConfigError, ParameterError
from gladsim.traffic import GpdParams
from gladsim.experiments import (
    ARTIFACT_VERSION,
    Report,
    ScenarioConfig,
    Table,
    _accuracy_decay_curve,
    export_report,
    run_latency_sweep,
    run_onboarding_study,
    scenario_hash,
)
from gladsim.pon import NO_AI, WITH_AI

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _small_scenario(**overrides):
    base = dict(
        load_grid=(0.2, 0.8),
        span_grid_km=(10.0, 30.0),
        seeds=(1, 2),
        n_loops=800,
        glad=GladParams(total_machines=3, add_every=300, additions=2,
                        profiling_samples=1500, machines_grid=(1, 4)),
    )
    base.update(overrides)
    return ScenarioConfig(**base)


@pytest.fixture(scope="module")
def latency_report():
    return run_latency_sweep(_small_scenario())


@pytest.fixture(scope="module")
def onboarding_report():
    return run_onboarding_study(_small_scenario())


class TestScenarioConfig:
    def test_defaults_cover_both_deadline_crossings(self):
        config = ScenarioConfig()
        assert 20.0 in config.span_grid_km and 30.0 in config.span_grid_km
        assert 0.8 in config.load_grid and 0.9 in config.load_grid

    @pytest.mark.parametrize("kwargs", [
        dict(load_grid=()),
        dict(span_grid_km=()),
        dict(seeds=()),
        dict(seeds=(1, 2, 1)),
        dict(load_grid=(0.5, 0.5)),
        dict(span_grid_km=(10.0, 20.0, 10.0)),
        dict(control_traffic=GpdParams(1.0, 900.0, 0.0)),
        # Spans whose propagation, or its sum over a point's pooled loops,
        # overflows: the sweep wrote inf means and nan percentiles.
        dict(span_grid_km=(1e308,)),
        dict(span_grid_km=(10.0, 1e303)),
        # A scalar where a sequence belongs raised Python's raw TypeError.
        dict(load_grid=0.5),
        dict(span_grid_km=10.0),
        dict(seeds=1),
    ])
    def test_invalid_rejected(self, kwargs):
        # Each error names its field.
        (name,) = kwargs
        with pytest.raises(ConfigError, match=name):
            ScenarioConfig(**kwargs)

    def test_propagation_overflow_counts_the_per_km_delay(self):
        # Summed over a point's 400000 pooled fiber crossings, a span whose
        # distance stays finite can still overflow at a slow fiber.
        slow = pon.PonConfig(fiber_delay_us_per_km=1e10)
        assert ScenarioConfig(pon=slow, span_grid_km=(1e290,)).span_grid_km == (1e290,)
        with pytest.raises(ConfigError, match=r"^span_grid_km value 1e\+300 overflows the "
                                              r"propagation delay of 400000 fiber crossings$"):
            ScenarioConfig(pon=slow, span_grid_km=(1e300,))

    def test_numpy_integers_become_python_ints(self, tmp_path):
        # numpy seeds used to run the whole study and then fail the manifest's
        # JSON export.
        config = ScenarioConfig(seeds=(np.int64(1), np.uint8(2)), n_loops=np.int32(1000))
        plain = ScenarioConfig(seeds=(1, 2), n_loops=1000)
        assert [type(s) for s in config.seeds] == [int, int]
        assert type(config.n_loops) is int
        assert config == plain and scenario_hash(config) == scenario_hash(plain)
        report = Report("s", {}, experiments._provenance(config))
        (manifest,) = export_report(report, tmp_path)
        assert json.loads(manifest.read_text())["provenance"]["seeds"] == [1, 2]
        with pytest.raises(ConfigError, match="seeds must not repeat"):
            ScenarioConfig(seeds=(np.int64(1), 1))

    @pytest.mark.parametrize("kwargs", [
        dict(pon=pon.PonConfig(split_ratio=np.int64(16))),
        dict(pon=pon.PonConfig(span_km=np.float64(20.0))),
        dict(deadline_us=np.float64(1000.0)),
        dict(load_grid=tuple(np.float64(rho) for rho in ScenarioConfig.load_grid)),
        # Arrays raised "truth value ... is ambiguous" from the emptiness check.
        dict(load_grid=np.array(ScenarioConfig.load_grid)),
        dict(span_grid_km=np.array(ScenarioConfig.span_grid_km)),
        dict(seeds=np.array(ScenarioConfig.seeds)),
    ])
    def test_numpy_scalars_hash_as_python_numbers(self, kwargs):
        # repr reads np.int64(16) under numpy 2, which moved the config_hash
        # of the default scenario.
        config = ScenarioConfig(**kwargs)
        assert scenario_hash(config) == scenario_hash(ScenarioConfig())
        assert config == ScenarioConfig()
        assert all(type(v) is float for v in config.load_grid + config.span_grid_km)

    def test_event_budget_checked_at_load(self):
        # At rho 0.9 the downstream leg draws ~0.896 events per us up to ten
        # services past the first probe horizon, n_loops x 1000 us x 1.1 + 10.
        ScenarioConfig(load_grid=(0.1, 0.9, 1.0), n_loops=50_742)
        with pytest.raises(ConfigError, match="downstream leg needs"):
            ScenarioConfig(load_grid=(0.1, 0.9, 1.0), n_loops=50_743)
        # Only unsaturated loads run legs.
        ScenarioConfig(load_grid=(1.0, 1.5), n_loops=10**7)

    def test_hash_stable_and_sensitive(self):
        a = ScenarioConfig()
        b = ScenarioConfig()
        assert scenario_hash(a) == scenario_hash(b)
        c = ScenarioConfig(n_loops=999)
        assert scenario_hash(a) != scenario_hash(c)

    def test_default_hash_is_pinned(self):
        # The default scenario's hash, which every default report's manifest
        # carries as its config_hash.
        assert scenario_hash(ScenarioConfig()) == (
            "dc7df250c611718d8a6b1c6173edc4b9a8f65c24df2b72e541c83688bd70c688")


class TestLatencySweep:
    def test_serial_sweep_imports_no_thread_pool(self, run_python):
        # The sweep runs on the calling thread; GLADSIM_THREADS, which older
        # harnesses still set, is ignored whatever its value.
        proc = run_python(
            "import sys\n"
            "import gladsim.config, gladsim.experiments as ex\n"
            "report = ex.run_latency_sweep(ex.ScenarioConfig(\n"
            "    load_grid=(0.3, 1.0), span_grid_km=(10.0,), seeds=(1,), n_loops=200))\n"
            "assert len(report.tables['latency'].rows) == 4\n"
            "sys.exit('concurrent.futures' in sys.modules)\n",
            env={"GLADSIM_THREADS": "0"})
        assert proc.returncode == 0, proc.stderr

    def test_complete_grid(self, latency_report):
        table = latency_report.tables["latency"]
        # one row per (span, load, mode)
        assert len(table.rows) == 2 * 2 * 2
        keys = {(r[0], r[1], r[2]) for r in table.rows}
        assert len(keys) == 8

    def test_dominance_in_every_row(self, latency_report):
        for row in latency_report.tables["ai_dominance"].rows:
            assert row[4] is True or row[4] == True  # noqa: E712

    def test_crossing_table_spans_modes(self, latency_report):
        rows = latency_report.tables["deadline_crossing"].rows
        assert {(r[0], r[1]) for r in rows} == {
            (rho, mode) for rho in (0.2, 0.8) for mode in (NO_AI, WITH_AI)
        }
        by_key = {(r[0], r[1]): r[2] for r in rows}
        for rho in (0.2, 0.8):
            assert by_key[(rho, WITH_AI)] >= by_key[(rho, NO_AI)]

    def test_mean_grows_with_span(self, latency_report):
        rows = latency_report.tables["latency"].rows
        by_key = {(r[0], r[1], r[2]): r[3] for r in rows}
        for rho in (0.2, 0.8):
            for mode in (NO_AI, WITH_AI):
                assert by_key[(30.0, rho, mode)] > by_key[(10.0, rho, mode)]

    def test_provenance_traces_config(self, latency_report):
        prov = latency_report.provenance
        assert prov["config_hash"] == scenario_hash(_small_scenario())
        assert prov["seeds"] == [1, 2]
        assert prov["artifact_version"]

    def test_deterministic(self, latency_report):
        again = run_latency_sweep(_small_scenario())
        assert again.tables == latency_report.tables


# A saturated load between two unsaturated ones, out of order.
MIXED_LOADS = (0.9, 1.0, 0.3)


def _mixed_scenario(**overrides):
    return _small_scenario(**{"load_grid": MIXED_LOADS, "n_loops": 300, **overrides})


@pytest.fixture(scope="module")
def mixed_report():
    return run_latency_sweep(_mixed_scenario())


def _rows_at(report, rho):
    """Each table's rows at load `rho`."""
    return {name: [row for row in table.rows if rho in row[:2]]
            for name, table in report.tables.items()}


class TestSweepAssembly:
    def test_saturated_load_is_flagged(self, mixed_report):
        at = _rows_at(mixed_report, 1.0)
        assert at["latency"] == [(span, 1.0, mode, "", "", "", True)
                                 for span in (10.0, 30.0) for mode in (NO_AI, WITH_AI)]
        assert at["deadline_crossing"] == [(1.0, NO_AI, "", True), (1.0, WITH_AI, "", True)]
        assert at["ai_dominance"] == []

    def test_row_order(self, mixed_report):
        tables = mixed_report.tables
        assert [r[:3] for r in tables["latency"].rows] == [
            (span, rho, mode) for span in (10.0, 30.0) for rho in MIXED_LOADS
            for mode in (NO_AI, WITH_AI)]
        assert [r[:2] for r in tables["deadline_crossing"].rows] == [
            (rho, mode) for rho in MIXED_LOADS for mode in (NO_AI, WITH_AI)]
        assert [r[:2] for r in tables["ai_dominance"].rows] == [
            (span, rho) for span in (10.0, 30.0) for rho in (0.9, 0.3)]

    @pytest.mark.parametrize("rho", [0.9, 0.3])
    def test_load_rows_equal_a_sweep_of_that_load(self, mixed_report, rho):
        alone = run_latency_sweep(_mixed_scenario(load_grid=(rho,)))
        assert _rows_at(mixed_report, rho) == _rows_at(alone, rho)

    @pytest.mark.parametrize("rho", [0.9, 0.3])
    def test_cells_match_the_round_trips(self, mixed_report, rho):
        config = _mixed_scenario()
        per_km = config.pon.fiber_delay_us_per_km
        points = [pon.round_trips(config.pon, pon.LoadPoint(rho), seed,
                                  n_loops=config.n_loops, traffic=config.control_traffic)
                  for seed in config.seeds]
        at = _rows_at(mixed_report, rho)
        latency = {(r[0], r[2]): r[3:] for r in at["latency"]}
        crossing = {r[1]: r[2:] for r in at["deadline_crossing"]}
        for mode in (NO_AI, WITH_AI):
            legs = points[0][mode][1]
            for span in config.span_grid_km:
                totals = np.concatenate([p[mode][0] + legs * span * per_km for p in points])
                assert latency[(span, mode)] == (
                    float(totals.mean()), float(np.percentile(totals, 95)),
                    float(np.percentile(totals, 99)), False)
            # The largest span on the 0.5 km grid of [0, 100] whose mean fits.
            spans = [max([0.0] + [k * 0.5 for k in range(201)
                                  if p[mode][0].mean() + legs * (k * 0.5) * per_km
                                  <= config.deadline_us])
                     for p in points]
            assert crossing[mode] == (float(np.mean(spans)), False)


class TestOnboardingStudy:
    def test_initial_machine_holds_perfect_accuracy(self, onboarding_report):
        rows = onboarding_report.tables["accuracy_curve"].rows
        cold = [r for r in rows if r[1] == "cold"]
        before_first_addition = [r for r in cold if r[0] <= 300]
        assert all(r[3] == 1.0 for r in before_first_addition[:-1])

    def test_cold_additions_drop_accuracy(self, onboarding_report):
        rows = onboarding_report.tables["accuracy_curve"].rows
        cold = {r[0]: r for r in rows if r[1] == "cold"}
        for t_add in (301, 601):  # first iteration with the new machine present
            assert cold[t_add][3] < cold[t_add - 1][3]

    def test_glad_drop_not_worse_than_cold(self, onboarding_report):
        rows = onboarding_report.tables["accuracy_curve"].rows
        cold = {r[0]: r[3] for r in rows if r[1] == "cold"}
        glad = {r[0]: r[3] for r in rows if r[1] == "glad"}
        for t_add in (301, 601):
            cold_drop = cold[t_add - 1] - cold[t_add]
            glad_drop = glad[t_add - 1] - glad[t_add]
            assert glad_drop <= cold_drop + 1e-12

    def test_savings_table_non_decreasing(self, onboarding_report):
        rows = onboarding_report.tables["savings_vs_machines"].rows
        values = [r[1] for r in rows]
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))

    def test_alpha_study_in_grid(self, onboarding_report):
        grid = set(GladParams().alpha_grid)
        rows = onboarding_report.tables["alpha_study"].rows
        assert rows
        for m, tau, alpha in rows:
            assert alpha in grid
            assert -1.0 <= tau <= 1.0

    def test_min_updates_above_profiling_samples_rejected(self):
        with pytest.raises(ConfigError, match="min_updates_for_upload"):
            GladParams(total_machines=2, add_every=150, additions=1,
                       profiling_samples=600, min_updates_for_upload=601,
                       machines_grid=(1,))
        equal = GladParams(profiling_samples=600, min_updates_for_upload=600)
        assert equal.min_updates_for_upload == equal.profiling_samples


def _pooled_list_curve(config, mode, seed):
    """The accuracy-decay curve as a per-iteration loop over a pooled hit list."""
    glad_cfg = config.glad
    alpha = glad_cfg.onboarding_alpha
    epsilon = glad_cfg.epsilon
    window = glad_cfg.window

    total_iters = glad_cfg.add_every * (glad_cfg.additions + 1)
    pool = coordination._make_profile_pool(glad_cfg.kind_pool_size)
    seeds = np.random.SeedSequence(seed).generate_state(glad_cfg.additions + 1)

    registry = coordination.GlobalRegistry()

    traces = []
    estimates = []
    for m in range(glad_cfg.additions + 1):
        profile = pool[m % glad_cfg.kind_pool_size]
        trace = haptic.profiling_trace(profile, total_iters, int(seeds[m]))
        signature = np.array([s.amplitude for s in trace]).mean(axis=0)
        traces.append(trace)
        if m == 0:
            estimates.append(np.clip(signature, 0.0, 1.0))
            registry.add_record(coordination.ProfileRecord(
                descriptor=coordination.descriptor_of(profile, glad_cfg),
                profile_estimate=np.clip(signature, 0.0, 1.0),
                sample_count=glad_cfg.profiling_samples,
            ))
        elif mode == coordination.GLAD:
            record, _ = coordination.match_profile(
                registry, coordination.descriptor_of(profile, glad_cfg), glad=glad_cfg
            )
            estimates.append(record.profile_estimate.copy() if record is not None
                             else np.zeros(haptic.N_FINGERS))
        else:
            estimates.append(np.zeros(haptic.N_FINGERS))

    pooled_hits = []
    rows = []
    consumed = [0] * len(traces)
    for t in range(total_iters):
        present = 1 + min(glad_cfg.additions, t // glad_cfg.add_every)
        for m in range(present):
            obs = traces[m][consumed[m]].amplitude
            consumed[m] += 1
            error = float(np.max(np.abs(estimates[m] - obs)))
            pooled_hits.append(error <= epsilon)
            estimates[m] = (1.0 - alpha) * estimates[m] + alpha * obs
        recent = pooled_hits[-window:]
        rows.append((t + 1, mode, present, float(np.mean(recent))))
    return rows


class TestAccuracyDecayCurve:
    # Pooled lengths: 150 with no additions, 1500 with three additions.
    @pytest.mark.parametrize("glad", [
        GladParams(additions=0, add_every=150, window=100),
        GladParams(additions=0, add_every=150, window=400),
        GladParams(additions=3, add_every=150, window=200),
        GladParams(additions=3, add_every=150, window=2000),
        GladParams(additions=3, add_every=150, window=200, kind_pool_size=2),
    ], ids=["none-short", "none-long", "three-short", "three-long", "three-pool2"])
    @pytest.mark.parametrize("mode", [coordination.COLD, coordination.GLAD])
    def test_matches_pooled_list_loop(self, glad, mode):
        config = ScenarioConfig(glad=glad)
        rows = _accuracy_decay_curve(config, mode, seed=5)
        assert rows == _pooled_list_curve(config, mode, seed=5)
        assert len(rows) == glad.add_every * (glad.additions + 1)


class TestExport:
    def test_file_set_and_naming(self, latency_report, tmp_path):
        files = export_report(latency_report, tmp_path)
        names = sorted(f.name for f in files)
        assert names == [
            "latency_sweep__ai_dominance.csv",
            "latency_sweep__deadline_crossing.csv",
            "latency_sweep__latency.csv",
            "latency_sweep__manifest.json",
        ]

    def test_reexport_byte_identical(self, latency_report, tmp_path):
        first = {f.name: f.read_bytes() for f in export_report(latency_report, tmp_path)}
        second = {f.name: f.read_bytes() for f in export_report(latency_report, tmp_path)}
        assert first == second

    def test_empty_report_manifest_only(self, tmp_path):
        report = Report(scenario="empty", tables={}, provenance={"seeds": []})
        files = export_report(report, tmp_path)
        assert [f.name for f in files] == ["empty__manifest.json"]
        manifest = json.loads(files[0].read_text())
        assert manifest["tables"] == []

    def test_json_format(self, latency_report, tmp_path):
        files = export_report(latency_report, tmp_path, "json")
        names = {f.name for f in files}
        assert "latency_sweep__latency.json" in names
        payload = json.loads((tmp_path / "latency_sweep__latency.json").read_text())
        assert payload["columns"][0] == "span_km"

    @pytest.mark.parametrize("failure", ["format", "write"])
    def test_failed_export_leaves_nothing_behind(self, tmp_path, monkeypatch, failure):
        class Unprintable:
            def __str__(self):
                raise OSError("export failed")

        cell = Unprintable() if failure == "format" else 2
        tables = {"a": Table(("x",), ((1,),)), "b": Table(("x",), ((cell,),))}
        target = tmp_path / "report"
        target.mkdir()
        (target / "s__manifest.json").write_text("old\n")
        if failure == "write":
            write_text, calls = pathlib.Path.write_text, []

            def second_write_fails(path, *args, **kwargs):
                calls.append(path)
                if len(calls) == 2:
                    raise OSError("export failed")
                return write_text(path, *args, **kwargs)

            monkeypatch.setattr(pathlib.Path, "write_text", second_write_fails)
        with pytest.raises(OSError, match="export failed"):
            export_report(Report("s", tables, {}), target)
        assert [p.name for p in target.iterdir()] == ["s__manifest.json"]
        assert (target / "s__manifest.json").read_text() == "old\n"

    def test_csv_rows_are_the_joined_cells(self, tmp_path):
        # Subclasses of float, int and str whose own repr and str differ from
        # their values'.  A float or int cell is written from its value and a
        # str cell by its own str, so a dispatch by isinstance (which writes
        # the str subclass's value) or by repr(cell) reads differently.
        class Float(float):
            __repr__ = __str__ = lambda self: "F"

        class Int(int):
            __repr__ = __str__ = lambda self: "I"

        class Str(str):
            __repr__ = __str__ = lambda self: "S"

        # Python and numpy bools, ints and floats, and strings, in one table.
        rows = ((True, np.bool_(False), 3, np.int64(-7), 0.1, np.float64(1e-300), "cold"),
                (np.bool_(True), False, np.int32(0), 2**70, np.float32(0.5), -0.0, ""),
                (1, 2.0, np.uint8(255), math.inf, np.float64(math.nan), "a b", np.str_("glad")),
                (Float(0.25), Int(-4), Str("value"), Float(-0.0), Int(2**70), Str(""), "x"))
        columns = ("a", "b", "c", "d", "e", "f", "g")
        export_report(Report("s", {"t": Table(columns, rows)}, {}), tmp_path)
        assert (tmp_path / "s__t.csv").read_bytes() == (
            b"a,b,c,d,e,f,g\n"
            b"true,false,3,-7,0.1,1e-300,cold\n"
            b"true,false,0,1180591620717411303424,0.5,-0.0,\n"
            b"1,2.0,255,inf,nan,a b,glad\n"
            b"0.25,-4,S,-0.0,1180591620717411303424,S,x\n")

    def test_unknown_format_rejected(self, latency_report, tmp_path):
        target = tmp_path / "report"
        with pytest.raises(ParameterError):
            export_report(latency_report, target, "yaml")
        assert not target.exists()


@pytest.fixture(scope="module")
def benchmark_checks():
    """The benchmark's report checks, loaded by path from its directory."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_checks", ROOT / "perfbench" / "checks.py")
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    return checks


# Each benchmark workload's scenario, built directly at one seed: the default
# onboarding study, and the deep rho 0.9 sweep point at 30k loops (about 2 s),
# which pins the bytes of the PON legs and the probe stream.
_BENCHMARK_REPORTS = {
    "onboarding": lambda seed: run_onboarding_study(ScenarioConfig(seeds=(seed,))),
    "sweep-deep": lambda seed: run_latency_sweep(
        ScenarioConfig(load_grid=(0.9,), seeds=(seed,), n_loops=30_000)),
}


@pytest.mark.parametrize("workload, seed", [
    ("onboarding", 0), ("onboarding", 1), ("onboarding", 10), ("sweep-deep", 1)])
def test_report_bytes_match_the_benchmark_reference(benchmark_checks, tmp_path, workload, seed):
    # The reference holds the sha256 of every report file of each workload
    # at each seed it was made for.
    entry, status = benchmark_checks.reference_entry(
        benchmark_checks.load_reference(), workload, seed, ARTIFACT_VERSION)
    if entry is None:
        pytest.skip(status)
    files = export_report(_BENCHMARK_REPORTS[workload](seed), tmp_path)
    assert benchmark_checks.file_hashes(files) == entry["sha256"]
