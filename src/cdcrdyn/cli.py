"""Command-line interface.

Subcommands: ``run`` (one scenario), ``suite`` (all builtin scenarios),
``bench`` (timing report), ``compare`` (two record CSVs -> metrics).
Exit codes: 0 success, 2 configuration error, 3 solver non-convergence,
4 I/O error.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from .config import RunConfig, parse_config, scenario_from_config
from .errors import ConfigurationError, SolverFault
from .galerkin import FIDELITIES
from .recordio import (format_benchmark_table, read_record_csv, record_shapes,
                       write_benchmark_csv, write_record_csv, write_shape_svg)
from .scenarios import (builtin_suite, compare_records, run_benchmark,
                        run_scenario, Scenario)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NC = 3
EXIT_IO = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cdcrdyn",
        description="Planar cable-driven continuum robot dynamics runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", metavar="PATH", help="INI config file")
        p.add_argument("--out", metavar="DIR", help="output directory")
        p.add_argument("--fidelity", choices=FIDELITIES)

    p_run = sub.add_parser("run", help="run one scenario")
    add_common(p_run)
    p_run.add_argument("--scenario", metavar="ID", help="builtin scenario id or 'inline'")
    p_run.add_argument("--solver", choices=("galerkin", "sd", "both"))

    p_suite = sub.add_parser("suite", help="run every builtin scenario")
    add_common(p_suite)
    p_suite.add_argument("--solver", choices=("galerkin", "sd", "both"))

    p_bench = sub.add_parser("bench", help="benchmark Galerkin against SD")
    add_common(p_bench)
    p_bench.add_argument("--repeats", type=int, metavar="N")

    p_cmp = sub.add_parser("compare", help="compare two record CSVs")
    p_cmp.add_argument("record_a")
    p_cmp.add_argument("record_b")
    return parser


def _load_config(args) -> RunConfig:
    if getattr(args, "config", None) is not None:
        with open(args.config) as fh:
            cfg = parse_config(fh.read())
    else:
        cfg = RunConfig()
    for arg, attr in (("scenario", "scenario"), ("solver", "solver"),
                      ("out", "out_dir"), ("repeats", "repeats")):
        if getattr(args, arg, None) is not None:
            setattr(cfg, attr, getattr(args, arg))
    if getattr(args, "fidelity", None) is not None:
        cfg.options = replace(cfg.options, fidelity=args.fidelity)
    return cfg


def _suite(cfg: RunConfig) -> list[Scenario]:
    """The builtin suite under cfg's options, run for its [run] horizon if set.

    The builtins bring their own models and inputs, so a config that sets
    [model] or [profile] is refused here as ``run`` refuses a bad one.
    """
    for section in ("model", "profile"):
        if getattr(cfg, section):
            raise ConfigurationError(f"[{section}] applies to run only: suite and bench "
                                     "run the builtin scenarios")
    return [replace(scenario, horizon=cfg.horizon or scenario.horizon)
            for scenario in builtin_suite(cfg.options)]


def _solvers(cfg: RunConfig):
    return ("galerkin", "sd") if cfg.solver == "both" else (cfg.solver,)


def _emit(record, scenario: Scenario, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    base = os.path.join(out_dir, f"{scenario.id}_{record.solver}")
    write_record_csv(record, base + ".csv")
    shapes = record_shapes(record)
    if shapes:
        write_shape_svg(shapes, base + ".svg", length=scenario.model.length)


def _run_one(scenario: Scenario, cfg: RunConfig) -> int:
    worst = EXIT_OK
    for solver in _solvers(cfg):
        record = run_scenario(scenario, solver)
        _emit(record, scenario, cfg.out_dir)
        status = "ok" if record.ok else f"NC at step {record.nc_step}"
        print(f"{scenario.id} [{solver}]: {record.t.size} samples, "
              f"tip=({record.tip_x[-1]:.4f}, {record.tip_y[-1]:.4f}) m, "
              f"compute={record.compute_seconds:.3f} s ({status})")
        if not record.ok:
            worst = EXIT_NC
    return worst


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "compare":
            rec_a = read_record_csv(args.record_a)
            rec_b = read_record_csv(args.record_b)
            metrics = compare_records(rec_a, rec_b)
            for key, value in metrics.items():
                print(f"{key}: {value:.6g}")
            return EXIT_OK

        cfg = _load_config(args)
        if args.command == "run":
            scenario = scenario_from_config(cfg)
            return _run_one(scenario, cfg)
        if args.command == "suite":
            worst = EXIT_OK
            for scenario in _suite(cfg):
                worst = max(worst, _run_one(scenario, cfg))
            return worst
        if args.command == "bench":
            report = run_benchmark(_suite(cfg), repeats=cfg.repeats)
            os.makedirs(cfg.out_dir, exist_ok=True)
            write_benchmark_csv(report, os.path.join(cfg.out_dir, "benchmark.csv"))
            print(format_benchmark_table(report))
            return EXIT_OK if all(r.speedup is not None for r in report.rows) else EXIT_NC
        raise ConfigurationError(f"unknown command {args.command!r}")
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverFault as exc:
        print(f"solver fault: {exc}", file=sys.stderr)
        return EXIT_NC
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def entry() -> None:
    sys.exit(main())
