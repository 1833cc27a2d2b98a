"""Command-line front end.

One subcommand per experiment kind; the subcommands and their help
lines come from the records of ``config.KINDS``::

    snlslab KIND --config run.cfg [--seed N] [--workers N] [--out DIR] [--strict]
    snlslab selftest [--out DIR]     (selftest's config is optional)

--seed and --workers are offered where the kind reads noise.seed and
ensemble.workers. Every run validates its config, echoes the effective
settings and runs its driver; main alone reports what the driver returns
as CSV + JSON-manifest + summary-table artifacts in the output directory.
Exit codes: 0 success, 1 configuration or usage error, 2 numerical
failure (including a failed selftest), 3 I/O failure.
"""
from __future__ import annotations

import argparse
import sys
from typing import Sequence

import numpy as np

from . import __version__
from .analysis import classify_regime, growth_fit, scattering_cauchy
from .config import (GROWTH_MIN_PATHS, KINDS, ConfigError, ExperimentConfig, load_config,
                     make_initial)
from .dynamics import Trajectory, evolve_batch
from .ensemble import run_ensemble, sample_ensemble_paths
from .noise import make_phi, sample_path, tail_decay_fit
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
        # each override flag stores under its key, offered where the kind reads that key
        for flag, key in (("--seed", "noise.seed"), ("--workers", "ensemble.workers")):
            if kind.reads(key):
                p.add_argument(flag, type=int, dest=key, metavar="N", help=f"override {key}")
        p.add_argument("--out", dest="output.dir", metavar="DIR", help="override output.dir")
        p.add_argument("--strict", action="store_true",
                       help="treat hypothesis warnings as errors")
    return parser


def _load(args: argparse.Namespace) -> ExperimentConfig:
    overrides = {key: v for key, v in vars(args).items() if "." in key and v is not None}
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

_Run = tuple[object, Sequence[str], Sequence[str]]  # result, warnings, after-lines


def _run_one(config: ExperimentConfig) -> Trajectory:
    """The one path of simulate and scatter-test, recorded as the kind's plan says."""
    u0, sim = make_initial(config.initial, config.grid), config.sim
    paths = None if sim.noise is None else [sample_path(sim.noise, sim.t_end, sim.dt)]
    return evolve_batch(sim, u0, paths, plan=KINDS[config.kind].plan).trajectory(0)


def _run_simulate(config: ExperimentConfig) -> _Run:
    traj = _run_one(config)
    return traj, traj.warnings, ()


def _run_ensemble(config: ExperimentConfig) -> _Run:
    result = run_ensemble(config)
    return result, result.path_warnings, ()


def _run_tail(config: ExperimentConfig) -> _Run:
    tail = config.tail
    paths = sample_ensemble_paths(
        config.noise, tail.paths, tail.t_inf, tail.dt, workers=config.workers
    )
    phi = make_phi(config.noise, config.grid)
    return tail_decay_fit(paths, phi, fit_window=tail.window, p_space=tail.p_space), (), ()


def _run_scatter(config: ExperimentConfig) -> _Run:
    traj = _run_one(config)
    report = scattering_cauchy(traj, config.scatter.norm_kind,
                               config.scatter.checkpoints)
    return report, traj.warnings, ()


def _run_growth(config: ExperimentConfig) -> _Run:
    result = run_ensemble(config)
    fit = growth_fit(result.trajectory_views(), config.growth.tau_grid,
                     min_paths=GROWTH_MIN_PATHS)
    predicted = max(0.0, 2.0 - config.grid.dim * config.sim.sigma)
    bound = predicted + config.growth.bound_slack
    verdict = "within" if fit.slope <= bound else "EXCEEDS"
    return fit, result.path_warnings, [
        f"slope {format_float(fit.slope)} {verdict} predicted exponent "
        f"{predicted:g} + slack {config.growth.bound_slack:g}"]


def _run_regimes(config: ExperimentConfig) -> _Run:
    q = config.regimes
    return classify_regime(q.dim, q.two_sigma, q.alpha), (), ()


def _run_selftest(config: ExperimentConfig) -> _Run:
    report = run_selftest(points=config.selftest_points)
    return report, report.warnings, ()


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
        # the engine's explicit finite checks decide exit 2; numpy's
        # overflow warnings on the way there would only bury the message
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            config = _load(args)
            _print_warnings(config.warnings)
            print("# effective configuration")
            print(config.echo(), end="")
            print(f"# config hash {config.config_hash}")
            result, warnings, after = _DRIVERS[config.kind](config)
            _print_warnings(warnings)
            _emit(result, config)
            for line in after:
                print(line)
            if not getattr(result, "passed", True):
                print(f"{config.kind} FAILED", file=sys.stderr)
                return EXIT_NUMERIC
            return EXIT_OK
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ReportIOError, OSError) as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (RuntimeError, ValueError, ArithmeticError, KeyError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
