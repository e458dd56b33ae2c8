"""Tests for the command line and scenario-file parsing."""

import ast
import configparser
import dataclasses
import errno
import os
from pathlib import Path

import numpy as np
import pytest

from gladsim import cli, pon, validate
from gladsim import config as gconfig
from gladsim.cli import main
from gladsim.config import default_scenario_text, load_scenario
from gladsim.coordination import MIN_ONBOARDING_SAMPLES, POOL_CAPACITY, GladParams
from gladsim.errors import ConfigError
from gladsim.experiments import ScenarioConfig
from gladsim.pon import PonConfig
from gladsim.traffic import GpdParams, generate_stream

SMALL_CONFIG = """
[pon]
wireless_hop_us = 40

[grid]
loads = 0.3, 0.8
spans_km = 10, 30
seeds = 1, 2
n_loops = 500

[glad]
total_machines = 3
profiling_samples = 1200
add_every = 250
additions = 1
machines_grid = 1, 2
"""

# 200 random bytes that do not decode as UTF-8.
NOT_UTF8 = np.random.default_rng(7).integers(0, 256, 200, dtype=np.uint8).tobytes()


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text(SMALL_CONFIG)
    return path


@pytest.fixture()
def stream_calls(monkeypatch):
    """The arguments of every probe-stream draw `pon` makes in the test."""
    calls = []

    def counted(*args):
        calls.append(args)
        return generate_stream(*args)

    monkeypatch.setattr(pon, "generate_stream", counted)
    return calls


class TestConfigFile:
    def test_round_trips_values(self, config_file):
        config = load_scenario(config_file)
        assert config.load_grid == (0.3, 0.8)
        assert config.seeds == (1, 2)
        assert config.n_loops == 500
        assert config.pon.wireless_hop_us == 40.0
        assert config.glad.total_machines == 3

    def test_unknown_key_is_hard_error(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[pon]\nspan_mk = 20\n")
        with pytest.raises(ConfigError, match="span_mk"):
            load_scenario(path)

    def test_unknown_section_is_hard_error(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[pony]\nspan_km = 20\n")
        with pytest.raises(ConfigError, match="pony"):
            load_scenario(path)

    def test_bad_value_names_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[grid]\nn_loops = many\n")
        with pytest.raises(ConfigError, match="n_loops"):
            load_scenario(path)

    @pytest.mark.parametrize("text", [
        # Loaded as the default scenario, neither value checked.
        "[DEFAULT]\nn_loops = 5\nbogus = 1\n",
        # Leaked into [grid] and ran 20 loops.
        "[DEFAULT]\nn_loops = 20\n[grid]\nloads = 0.5\n",
        # Named [pon] as the section holding the unknown key.
        "[DEFAULT]\nseeds = 3\n[pon]\nsplit_ratio = 16\n",
    ])
    def test_default_section_values_are_an_unknown_section(self, tmp_path, text):
        path = tmp_path / "defaults.cfg"
        path.write_text(text)
        with pytest.raises(ConfigError, match=r"^unknown section \[DEFAULT\]"):
            load_scenario(path)

    def test_values_are_read_without_interpolation(self, tmp_path):
        # `%(n_loops)s` used to load as seed 100, the [grid] n_loops value.
        path = tmp_path / "interpolated.cfg"
        path.write_text("[grid]\nn_loops = 100\nseeds = %(n_loops)s\n")
        with pytest.raises(ConfigError, match="bad value for 'seeds'"):
            load_scenario(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_scenario(tmp_path / "nope.cfg")

    def test_schema_maps_every_field_once(self):
        # Each scenario field has exactly one key, and each key one field: a
        # field added without a key, or a key left on a deleted field, fails.
        nested = {"pon", "control_traffic", "haptic_traffic", "glad"}
        sources = {
            "pon": PonConfig,
            "traffic.control": GpdParams,
            "grid": ScenarioConfig,
            "glad": GladParams,
        }
        assert set(gconfig._SCHEMA) == set(sources)
        dump = configparser.ConfigParser()
        dump.read_string(default_scenario_text())
        for section, cls in sources.items():
            fields = {f.name for f in dataclasses.fields(cls)} - gconfig._UNREAD - (
                nested if cls is ScenarioConfig else set())
            targets = [attr for attr, _ in gconfig._SCHEMA[section].values()]
            assert sorted(targets) == sorted(fields), section
            assert set(dump[section]) == set(gconfig._SCHEMA[section]), section

    def test_scenario_keys_are_pinned(self):
        # Keys are derived from the dataclass fields, so renaming a field
        # renames its key; every scenario file written so far would break.
        assert {section: list(keys) for section, keys in gconfig._SCHEMA.items()} == {
            "pon": ["downstream_rate_bps", "upstream_rate_bps", "split_ratio",
                    "fiber_delay_us_per_km", "dba_cycle_us", "wireless_hop_us",
                    "ai_inference_us", "packet_bytes", "background_packet_bytes"],
            "traffic.control": ["shape", "scale_us", "location_us"],
            "grid": ["loads", "spans_km", "seeds", "n_loops", "deadline_us"],
            "glad": ["accuracy_target", "window", "epsilon", "onboarding_alpha", "alpha_grid",
                     "kind_pool_size", "total_machines", "profiling_samples",
                     "match_threshold", "quant_bands", "texture_freq_max_hz", "add_every",
                     "additions", "machines_grid"],
        }

    def test_one_seed_scenario_draws_one_probe_stream(self, tmp_path, stream_calls):
        # The scenario is built once: its event-budget check draws the probe
        # stream of its one seed, and no default scenario's ten.
        path = tmp_path / "one_seed.cfg"
        path.write_text("[grid]\nseeds = 4\nloads = 0.9\n")
        assert load_scenario(path).seeds == (4,)
        assert len(stream_calls) == 1 and stream_calls[0][2] == 4

    def test_default_dump_draws_no_probe_stream(self, stream_calls):
        # The dump reads the field defaults; the text is what the default
        # scenario's own attributes print.
        text = default_scenario_text()
        assert stream_calls == []
        default = ScenarioConfig()
        lines = ["# gladsim scenario file; every key is optional and overrides a default\n"]
        for section, name in gconfig._SECTIONS.items():
            source = getattr(default, name) if name else default
            lines.append(f"[{section}]")
            for key, (attr, _) in gconfig._SCHEMA[section].items():
                value = getattr(source, attr)
                if isinstance(value, tuple):
                    value = ", ".join(str(v) for v in value)
                lines.append(f"{key} = {value}")
            lines.append("")
        assert text == "\n".join(lines)

    def test_default_dump_parses_back(self, tmp_path):
        path = tmp_path / "default.cfg"
        path.write_text(default_scenario_text())
        config = load_scenario(path)
        assert config.n_loops == 10_000


class TestCli:
    def test_no_arguments_prints_usage(self, capsys):
        assert main([]) == 0
        out = capsys.readouterr().out
        assert "latency-sweep" in out
        assert "traffic-fit" in out

    def test_unknown_command_exits_one(self, capsys):
        assert main(["mystery-command"]) == 1

    def test_malformed_config_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[pon]\nspan_mk = 20\n")
        code = main(["latency-sweep", "--config", str(bad),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert "span_mk" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [
        ("window", "0"), ("total_machines", "0"),
        ("profiling_samples", "0"), ("add_every", "0"), ("quant_bands", "0"),
        ("quant_bands", "1"), ("texture_freq_max_hz", "0"), ("match_threshold", "1.5"),
        ("additions", "-1"), ("epsilon", "0"), ("onboarding_alpha", "1.5"),
        ("accuracy_target", "0"), ("alpha_grid", "0.5, 1.2"), ("alpha_grid", ""),
        ("machines_grid", ""), ("machines_grid", "0, 2"), ("machines_grid", "1, 1"),
        ("alpha_grid", "0.5, 0.5"),
        ("accuracy_target", "1.0"), ("total_machines", "1"), ("kind_pool_size", "0"),
        ("kind_pool_size", str(POOL_CAPACITY + 1)),
        ("profiling_samples", str(MIN_ONBOARDING_SAMPLES - 1)),
    ])
    def test_invalid_glad_value_exits_one(self, tmp_path, capsys, key, value):
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"[glad]\n{key} = {value}\n")
        code = main(["onboarding", "--config", str(bad), "--out", str(tmp_path / "out")])
        assert code == 1
        assert key in capsys.readouterr().err

    # (section, key, value, field the error names)
    @pytest.mark.parametrize("section,key,value,field", [
        ("grid", "seeds", "-1", "seeds"), ("grid", "seeds", "1, 2, 1", "seeds"),
        ("grid", "loads", "0.5, 0.5", "load_grid"),
        ("grid", "spans_km", "10, 20, 10", "span_grid_km"),
        ("traffic.control", "shape", "1", "shape"), ("traffic.control", "shape", "1.5", "shape"),
    ])
    @pytest.mark.parametrize("command", ["latency-sweep", "onboarding"])
    def test_invalid_scenario_value_exits_one(self, tmp_path, capsys, command,
                                              section, key, value, field):
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"[{section}]\n{key} = {value}\n")
        code = main([command, "--config", str(bad), "--out", str(tmp_path / "out")])
        assert code == 1
        assert field in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("section,key,value", [
        ("glad", "texture_freq_max_hz", "nan"), ("grid", "loads", "nan"),
        ("grid", "loads", "0.5, inf"), ("grid", "deadline_us", "nan"),
        ("pon", "dba_cycle_us", "nan"), ("pon", "dba_cycle_us", "inf"),
        ("pon", "dba_cycle_us", "-inf"),
    ])
    @pytest.mark.parametrize("command", ["latency-sweep", "onboarding"])
    def test_non_finite_value_exits_one(self, tmp_path, capsys, command, section, key, value):
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"[{section}]\n{key} = {value}\n")
        code = main([command, "--config", str(bad), "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert key in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_overflowing_span_exits_one(self, tmp_path, capsys):
        # 1e308 km at 5 us/km is finite, but its propagation delay is not.
        bad = tmp_path / "far.cfg"
        bad.write_text("[grid]\nspans_km = 1e308\n")
        code = main(["latency-sweep", "--config", str(bad), "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert "span_grid_km" in err and "overflows" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_negative_seed_option_exits_one(self, tmp_path, capsys):
        code = main(["latency-sweep", "--out", str(tmp_path / "out"), "--seed", "-3"])
        assert code == 1
        assert "seeds" in capsys.readouterr().err

    @pytest.mark.parametrize("section,key,value", [
        ("glad", "accuracy_target", repr(float(np.nextafter(1.0, 0.0)))),
        ("glad", "total_machines", "2"),
        ("glad", "kind_pool_size", "1"),
        ("glad", "kind_pool_size", str(POOL_CAPACITY)),
        ("glad", "profiling_samples", str(MIN_ONBOARDING_SAMPLES)),
        ("grid", "seeds", "0"),
        # A grant cap that is not a whole number of bytes (2527.2).
        ("pon", "dba_cycle_us", "130"),
    ])
    def test_first_accepted_value_runs(self, tmp_path, section, key, value):
        tiny = {"grid": {"loads": "0.5", "spans_km": "20", "seeds": "1", "n_loops": "100"},
                "glad": {"total_machines": "3", "profiling_samples": "600", "add_every": "60",
                         "additions": "1", "alpha_grid": "0.05, 0.3", "machines_grid": "1, 2"}}
        tiny.setdefault(section, {})[key] = value
        path = tmp_path / "edge.cfg"
        path.write_text("".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                                for name, keys in tiny.items()))
        for command in ("latency-sweep", "onboarding"):
            assert main([command, "--config", str(path), "--out", str(tmp_path / command)]) == 0

    # Each of these needs more than pon.MAX_EVENTS background events at rho 0.9:
    # the downstream draw of 2-byte packets, or the upstream per-cycle counts of
    # 0.01 us cycles or of 100000 ONUs.
    @pytest.mark.parametrize("key,value,leg", [
        ("background_packet_bytes", "2", "downstream"),
        ("dba_cycle_us", "0.01", "upstream"),
        ("split_ratio", "100000", "upstream"),
    ])
    def test_over_the_event_budget_exits_one_at_load(self, tmp_path, capsys, monkeypatch,
                                                      key, value, leg):
        def never(config):
            raise AssertionError("the runner started")

        monkeypatch.setattr(cli, "run_latency_sweep", never)
        bad = tmp_path / "heavy.cfg"
        bad.write_text(f"[pon]\n{key} = {value}\n[grid]\nloads = 0.1, 0.5, 0.9\nn_loops = 100\n")
        code = main(["latency-sweep", "--config", str(bad), "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert f"{leg} leg needs" in err and "rho = 0.9" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_latency_sweep_end_to_end(self, config_file, tmp_path, capsys):
        out_dir = tmp_path / "report"
        code = main(["latency-sweep", "--config", str(config_file),
                     "--out", str(out_dir)])
        assert code == 0
        names = sorted(p.name for p in out_dir.iterdir())
        assert "latency_sweep__manifest.json" in names
        assert "latency_sweep__latency.csv" in names
        # no stray staging directories
        assert not [n for n in names if n.startswith(".")]

    def test_lists_only_the_files_it_wrote(self, config_file, tmp_path, capsys):
        out_dir = str(tmp_path / "report")
        assert main(["latency-sweep", "--config", str(config_file), "--out", out_dir]) == 0
        capsys.readouterr()
        assert main(["onboarding", "--config", str(config_file), "--out", out_dir]) == 0
        *names, summary = capsys.readouterr().out.splitlines()
        assert names and all(name.startswith("onboarding__") for name in names)
        assert summary.startswith("report 'onboarding' written to")

    def test_seed_override(self, config_file, tmp_path):
        out_dir = tmp_path / "report"
        code = main(["latency-sweep", "--config", str(config_file),
                     "--out", str(out_dir), "--seed", "9"])
        assert code == 0
        manifest = (out_dir / "latency_sweep__manifest.json").read_text()
        assert '"seeds": [\n      9\n    ]' in manifest or '"seeds": [9]' in manifest

    def test_rerun_is_byte_identical(self, config_file, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["latency-sweep", "--config", str(config_file), "--out", str(out_a)]) == 0
        assert main(["latency-sweep", "--config", str(config_file), "--out", str(out_b)]) == 0
        for path in sorted(out_a.iterdir()):
            assert path.read_bytes() == (out_b / path.name).read_bytes()

    def test_traffic_fit(self, tmp_path, capsys):
        stream = generate_stream(GpdParams(0.1, 900.0, 0.0), 2e6, seed=4)
        csv = tmp_path / "gaps.csv"
        csv.write_text("inter_arrival_us\n" +
                       "\n".join(repr(float(g)) for g in np.diff(stream, prepend=0.0)) + "\n")
        assert main(["traffic-fit", "--input", str(csv)]) == 0
        out = capsys.readouterr().out
        assert "shape:" in out and "ks_verdict:" in out
        assert "pass" in out

    def test_traffic_fit_missing_file(self, tmp_path, capsys):
        assert main(["traffic-fit", "--input", str(tmp_path / "none.csv")]) == 1

    def test_traffic_fit_input_directory_exits_one(self, tmp_path, capsys):
        assert main(["traffic-fit", "--input", str(tmp_path)]) == 1
        assert "cannot read input file" in capsys.readouterr().err

    @pytest.mark.parametrize("lines", [["5.0"] * 10, ["7.5"] * 100],
                             ids=["too-few", "constant"])
    def test_traffic_fit_unfittable_input_exits_one(self, tmp_path, capsys, lines):
        csv = tmp_path / "gaps.csv"
        csv.write_text("\n".join(lines) + "\n")
        assert main(["traffic-fit", "--input", str(csv)]) == 1
        err = capsys.readouterr().err
        assert "cannot fit" in err and "Traceback" not in err

    def test_config_directory_exits_one(self, tmp_path, capsys):
        code = main(["latency-sweep", "--config", str(tmp_path), "--out", str(tmp_path / "out")])
        assert code == 1
        assert "cannot read config file" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_config_not_utf8_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "binary.cfg"
        bad.write_bytes(NOT_UTF8)
        code = main(["latency-sweep", "--config", str(bad), "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert str(bad) in err and "not UTF-8" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_traffic_fit_input_not_utf8_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "binary.csv"
        bad.write_bytes(NOT_UTF8)
        assert main(["traffic-fit", "--input", str(bad)]) == 1
        captured = capsys.readouterr()
        assert str(bad) in captured.err and "not UTF-8" in captured.err
        assert "Traceback" not in captured.err and not captured.out

    @pytest.mark.parametrize("command", ["latency-sweep", "onboarding"])
    def test_failed_report_write_exits_two(self, config_file, tmp_path, capsys, monkeypatch,
                                           command):
        # The OSError of a full disk escaped as a traceback, with exit 1.
        def disk_full(*args):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(os, "replace", disk_full)
        out_dir = tmp_path / "out"
        assert main([command, "--config", str(config_file), "--out", str(out_dir)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (f"error: cannot write the report to {out_dir}: "
                                "No space left on device\n")
        assert not captured.out and list(out_dir.iterdir()) == []

    def test_out_naming_a_file_exits_one_before_the_run(self, tmp_path, capsys, monkeypatch):
        def never(config):
            raise AssertionError("the runner started")

        monkeypatch.setattr(cli, "run_onboarding_study", never)
        taken = tmp_path / "taken"
        taken.write_text("")
        assert main(["onboarding", "--out", str(taken)]) == 1
        assert "cannot create output directory" in capsys.readouterr().err

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "-5", "-0.5"])
    def test_traffic_fit_bad_value_exits_one(self, tmp_path, capsys, cell):
        csv = tmp_path / "gaps.csv"
        csv.write_text("inter_arrival_us\n" + "1000.0\n" * 50 + f"{cell}\n" + "1000.0\n" * 50)
        assert main(["traffic-fit", "--input", str(csv)]) == 1
        err = capsys.readouterr().err
        assert "line 52" in err and repr(cell) in err and "Traceback" not in err

    @pytest.mark.parametrize("significance", ["0.7", "0", "-1", "nan", "x"])
    def test_traffic_fit_bad_significance_exits_one(self, tmp_path, capsys, significance):
        csv = tmp_path / "gaps.csv"
        csv.write_text("\n".join(["1000.0"] * 100) + "\n")
        code = main(["traffic-fit", "--input", str(csv), "--significance", significance])
        assert code == 1
        assert "significance" in capsys.readouterr().err

    def test_validate_dump_config(self, capsys):
        assert main(["validate", "--dump-config"]) == 0
        assert "[pon]" in capsys.readouterr().out

    def test_validate_suite_passes(self, capsys):
        assert main(["validate"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.splitlines()[-1] == "10/10 checks passed"

    def test_validate_checks_under_optimize(self, run_python):
        # `python -O` strips assert statements; a broken invariant must still fail.
        proc = run_python("import sys\n"
                          "from gladsim import cli, pon\n"
                          "pon._kingman_wait = lambda *args: 1.0\n"
                          "sys.exit(cli.main(['validate']))\n", "-O")
        assert proc.returncode == 2, proc.stderr
        assert "FAIL kingman-vs-des" in proc.stdout
        assert proc.stdout.splitlines()[-1] == "9/10 checks passed"

    def test_validate_has_no_assert_statement(self):
        tree = ast.parse(Path(validate.__file__).read_text())
        assert not any(isinstance(node, ast.Assert) for node in ast.walk(tree))
