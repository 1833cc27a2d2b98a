"""Command-line front end.

One subcommand per experiment kind; the subcommands and their help
lines come from the records of ``config.KINDS``::

    snlslab KIND --config run.cfg [--seed N] [--workers N] [--out DIR] [--strict]
    snlslab selftest [--out DIR]     (selftest's config is optional)

Every run validates its config, echoes the effective settings, executes,
and emits CSV + JSON-manifest + summary-table artifacts into the output
directory. Exit codes: 0 success, 1 configuration or usage error,
2 numerical failure (including a failed selftest), 3 I/O failure.
"""
from __future__ import annotations

import argparse
import sys
from typing import Sequence

from . import __version__
from .analysis import classify_regime, growth_fit, scattering_cauchy
from .config import (GROWTH_MIN_PATHS, KINDS, ConfigError, ExperimentConfig, load_config,
                     make_initial)
from .dynamics import evolve
from .ensemble import EnsembleError, run_ensemble, sample_ensemble_paths
from .noise import make_phi, tail_decay_fit
from .reports import ReportIOError, emit_report, format_float
from .selftest import run_selftest

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERIC = 2
EXIT_IO = 3


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as config errors (exit 1)."""

    def error(self, message: str):  # noqa: D102 - argparse hook
        raise ConfigError(f"usage: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="snlslab",
        description="Simulation and verification lab for a noise-driven "
        "defocusing Schrodinger equation.",
    )
    parser.add_argument("--version", action="version", version=f"snlslab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for kind in KINDS.values():
        p = sub.add_parser(kind.name, help=kind.help)
        p.add_argument("--config", metavar="PATH", default=None,
                       help="experiment config file (key = value lines)")
        p.add_argument("--seed", type=int, default=None, metavar="N",
                       help="override noise.seed")
        p.add_argument("--workers", type=int, default=None, metavar="N",
                       help="override ensemble.workers")
        p.add_argument("--out", default=None, metavar="DIR",
                       help="override output.dir")
        p.add_argument("--strict", action="store_true",
                       help="treat hypothesis warnings as errors")
    return parser


def _load(args: argparse.Namespace) -> ExperimentConfig:
    overrides: dict[str, object] = {}
    if args.seed is not None:
        overrides["noise.seed"] = args.seed
    if args.workers is not None:
        overrides["ensemble.workers"] = args.workers
    if args.out is not None:
        overrides["output.dir"] = args.out
    if args.config is None:
        if args.command != "selftest":
            raise ConfigError(f"--config is required for {args.command!r}")
        config = load_config(text="experiment.kind = selftest\n",
                             strict=args.strict, overrides=overrides)
    else:
        config = load_config(args.config, strict=args.strict, overrides=overrides)
    if config.kind != args.command:
        raise ConfigError(
            f"experiment.kind: config declares {config.kind!r} but the "
            f"subcommand is {args.command!r}"
        )
    return config


def _emit(result, config: ExperimentConfig) -> None:
    written = emit_report(result, config.out_dir, config)
    print(written["summary.txt"].read_text(), end="")
    for name in sorted(written):
        print(f"wrote {written[name]}")


def _print_warnings(lines: Sequence[str]) -> None:
    for line in lines:
        print(f"warning: {line}", file=sys.stderr)


# ---------------------------------------------------------------------------
# Subcommand drivers
# ---------------------------------------------------------------------------


def _run_simulate(config: ExperimentConfig) -> int:
    u0 = make_initial(config.initial, config.grid)
    traj = evolve(config.sim, u0)
    _print_warnings(traj.warnings)
    _emit(traj, config)
    return EXIT_OK


def _run_ensemble(config: ExperimentConfig) -> int:
    result = run_ensemble(config)
    _print_warnings([f"path {i}: {w}" for i, w in result.path_warnings])
    _emit(result, config)
    return EXIT_OK


def _run_tail(config: ExperimentConfig) -> int:
    tail = config.tail
    paths = sample_ensemble_paths(
        config.noise, tail.paths, tail.t_inf, tail.dt, workers=config.workers
    )
    phi = make_phi(config.noise, config.grid)
    fit = tail_decay_fit(paths, phi, fit_window=tail.window, p_space=tail.p_space)
    _emit(fit, config)
    return EXIT_OK


def _run_scatter(config: ExperimentConfig) -> int:
    u0 = make_initial(config.initial, config.grid)
    traj = evolve(config.sim, u0)
    _print_warnings(traj.warnings)
    report = scattering_cauchy(traj, config.scatter.norm_kind,
                               config.scatter.checkpoints)
    _emit(report, config)
    return EXIT_OK


def _run_growth(config: ExperimentConfig) -> int:
    result = run_ensemble(config)
    _print_warnings([f"path {i}: {w}" for i, w in result.path_warnings])
    fit = growth_fit(result.trajectory_views(), config.growth.tau_grid,
                     min_paths=GROWTH_MIN_PATHS)
    _emit(fit, config)
    predicted = max(0.0, 2.0 - config.grid.dim * config.sim.sigma)
    bound = predicted + config.growth.bound_slack
    verdict = "within" if fit.slope <= bound else "EXCEEDS"
    print(f"slope {format_float(fit.slope)} {verdict} predicted exponent "
          f"{predicted:g} + slack {config.growth.bound_slack:g}")
    return EXIT_OK


def _run_regimes(config: ExperimentConfig) -> int:
    q = config.regimes
    report = classify_regime(q.dim, q.two_sigma, q.alpha)
    _emit(report, config)
    return EXIT_OK


def _run_selftest(config: ExperimentConfig) -> int:
    report = run_selftest(points=config.selftest_points)
    _print_warnings(report.warnings)
    _emit(report, config)
    if not report.passed:
        print("selftest FAILED", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


_DRIVERS = {
    "simulate": _run_simulate,
    "ensemble": _run_ensemble,
    "tail-decay": _run_tail,
    "scatter-test": _run_scatter,
    "growth-fit": _run_growth,
    "regimes": _run_regimes,
    "selftest": _run_selftest,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        config = _load(args)
        _print_warnings(config.warnings)
        print("# effective configuration")
        print(config.echo(), end="")
        print(f"# config hash {config.config_hash}")
        return _DRIVERS[config.kind](config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ReportIOError, OSError) as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except EnsembleError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (RuntimeError, ValueError, ArithmeticError, KeyError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
