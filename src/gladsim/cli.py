"""Command-line entry point.

Commands:
    latency-sweep   run the round-trip latency grid and export its report
    onboarding      run the accuracy-decay / savings / alpha study
    traffic-fit     fit a generalized Pareto law to a CSV of inter-arrivals
    validate        run the fast invariant self-check suite

Exit codes: 0 success, 1 configuration/usage error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .config import default_scenario_text, load_scenario
from .errors import ConfigError, DegenerateDataError, GladsimError, InsufficientDataError, real
from .experiments import (
    ScenarioConfig,
    export_report,
    run_latency_sweep,
    run_onboarding_study,
)
from .traffic import MAX_SIGNIFICANCE, fit_gpd, ks_test

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2


def _significance(text: str) -> float:
    return real("significance", float(text), above=0, at_most=MAX_SIGNIFICANCE,
                error=argparse.ArgumentTypeError)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gladsim",
        description="H2M/R closed-loop latency and coordinated-learning testbed",
    )
    parser.add_argument("--version", action="version", version=f"gladsim {__version__}")
    sub = parser.add_subparsers(dest="command")

    def add_run_command(name: str, help_text: str) -> None:
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", help="scenario file (INI); defaults apply if omitted")
        cmd.add_argument("--out", required=True, help="output directory for the report")
        cmd.add_argument("--seed", type=int, help="override the scenario seed list with one seed")
        cmd.add_argument("--format", choices=("csv", "json"), default="csv",
                         help="table file format (manifest is always JSON)")

    add_run_command("latency-sweep", "round-trip latency over the span/load grid")
    add_run_command("onboarding", "accuracy decay, training-time savings and alpha study")

    fit = sub.add_parser("traffic-fit", help="fit a GPD to a CSV of inter-arrival times")
    fit.add_argument("--input", required=True, help="CSV with one inter-arrival (us) per row")
    fit.add_argument("--significance", type=_significance, default=0.05,
                     help="KS significance level (default 0.05)")

    val = sub.add_parser("validate", help="run the fast invariant suite")
    val.add_argument("--dump-config", action="store_true",
                     help="print a fully-populated scenario file and exit")
    return parser


def _load_config(args) -> ScenarioConfig:
    config = load_scenario(args.config) if args.config else ScenarioConfig()
    if args.seed is not None:
        config = replace(config, seeds=(args.seed,))
    return config


def _run_report_command(args, runner) -> int:
    config = _load_config(args)
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out_dir}: {exc.strerror}") from exc
    report = runner(config)
    try:
        paths = export_report(report, out_dir, args.format)
    except OSError as exc:
        raise GladsimError(f"cannot write the report to {out_dir}: "
                           f"{exc.strerror or exc}") from exc
    for path in paths:
        print(path.name)
    print(f"report '{report.scenario}' written to {out_dir}")
    return EXIT_OK


def _read_inter_arrivals(path: Path) -> np.ndarray:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read input file {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"input file {path} is not UTF-8 text: {exc.reason}") from exc
    values = []
    for line_no, line in enumerate(lines, start=1):
        cell = line.strip().split(",")[0]
        if not cell:
            continue
        try:
            value = float(cell)
        except ValueError:
            if line_no == 1:
                continue  # header row
            raise ConfigError(f"non-numeric value at line {line_no}: {cell!r}")
        values.append(real(f"inter-arrival {cell!r} at line {line_no}", value, at_least=0,
                           error=ConfigError))
    return np.asarray(values)


def _traffic_fit(args) -> int:
    data = _read_inter_arrivals(Path(args.input))
    try:
        params = fit_gpd(data)
    except (InsufficientDataError, DegenerateDataError) as exc:
        raise ConfigError(f"cannot fit {args.input}: {exc}") from exc
    statistic, passed = ks_test(data, params, args.significance)
    print(f"samples: {data.size}")
    print(f"shape:    {params.shape:.6f}")
    print(f"scale_us: {params.scale:.6f}")
    print(f"location_us: {params.location:.6f}")
    print(f"ks_statistic: {statistic:.6f}")
    verdict = "pass" if passed else "fail"
    print(f"ks_verdict: {verdict} at significance {args.significance}")
    return EXIT_OK


def _validate(args) -> int:
    if args.dump_config:
        print(default_scenario_text())
        return EXIT_OK
    from .validate import run_invariant_suite

    failures = run_invariant_suite(print)
    return EXIT_OK if failures == 0 else EXIT_RUNTIME


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    if not argv:
        parser.print_help()
        return EXIT_OK
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; map to the config/usage code
        return EXIT_OK if exc.code == 0 else EXIT_CONFIG

    try:
        if args.command == "latency-sweep":
            return _run_report_command(args, run_latency_sweep)
        if args.command == "onboarding":
            return _run_report_command(args, run_onboarding_study)
        if args.command == "traffic-fit":
            return _traffic_fit(args)
        if args.command == "validate":
            return _validate(args)
        parser.print_help()
        return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except GladsimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    raise SystemExit(main())
