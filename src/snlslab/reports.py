"""Report emission: stable CSV, a JSON manifest, and a plain-text table.

Every experiment result renders to up to three artifacts:

* CSV — the numeric contract. Floats are written with %.17g, which
  round-trips float64 exactly, so a written series can be reloaded
  bit-for-bit.
* JSON manifest — provenance: config hash (SHA-256 of the canonical
  config echo), code version, base seed and per-path seeds, plus the
  emitted file names with their own SHA-256 digests. No timestamps:
  identical configs must produce identical bytes. It is strict JSON:
  a non-finite float in the result detail is written as the string
  "inf", "-inf" or "nan".
* table — a small human-readable summary (also returned as a string).

File writes that fail surface a ReportIOError naming the path.
"""
from __future__ import annotations

import csv
import io
import math
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import GrowthFitResult, RegimeReport, ScatteringReport
from .config import ExperimentConfig
from .dynamics import Trajectory
from .ensemble import EnsembleResult
from .noise import TailFitResult
from .selftest import SelftestReport

__all__ = [
    "ReportIOError",
    "emit_report",
    "load_series_csv",
    "format_float",
]


class ReportIOError(RuntimeError):
    """An artifact could not be written; the message names the path."""


def format_float(x: float) -> str:
    """Render a float so that reading it back reproduces the exact bits."""
    return f"{float(x):.17g}"


def load_series_csv(path: str | Path) -> dict[str, np.ndarray]:
    """Read a series CSV back into column arrays (exact float round-trip)."""
    p = Path(path)
    try:
        with p.open(newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            rows = [row for row in reader]
    except OSError as exc:
        raise ReportIOError(f"cannot read {p}: {exc}") from exc
    columns = {name: np.empty(len(rows)) for name in header}
    for i, row in enumerate(rows):
        for name, cell in zip(header, row):
            columns[name][i] = float(cell)
    return columns


def _write_text(path: Path, text: str) -> None:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    except OSError as exc:
        raise ReportIOError(f"cannot write {path}: {exc}") from exc


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(
            [format_float(c) if isinstance(c, float) else c for c in row]
        )
    return buf.getvalue()


def _table(lines: list[tuple[str, str]]) -> str:
    width = max((len(k) for k, _ in lines), default=0)
    return "\n".join(f"{k.ljust(width)}  {v}" for k, v in lines) + "\n"


# ---------------------------------------------------------------------------
# Per-result serializers: each returns (csv files, manifest extra, table)
# ---------------------------------------------------------------------------


def _serialize_trajectory(traj: Trajectory):
    header = ["time"] + list(traj.series) + [f"budget_{k}" for k in traj.budget]
    rows = []
    for i, t in enumerate(traj.times):
        row = [float(t)]
        row += [float(traj.series[k][i]) for k in traj.series]
        row += [float(traj.budget[k][i]) for k in traj.budget]
        rows.append(row)
    csvs = {"series.csv": _csv_text(header, rows)}
    extra = {
        "steps": traj.steps,
        "warnings": list(traj.warnings),
        "snapshot_times": [float(t) for t in (t for t, _ in traj.snapshots)],
    }
    lines = [("steps", str(traj.steps)), ("recorded times", str(len(traj.times)))]
    for name in traj.series:
        arr = traj.series[name]
        finite = arr[np.isfinite(arr)]
        if len(finite):
            lines.append(
                (name, f"first={format_float(finite[0])} last={format_float(finite[-1])}")
            )
    for w in traj.warnings:
        lines.append(("warning", w))
    return csvs, extra, _table(lines)


def _serialize_ensemble(res: EnsembleResult):
    stats = ("mean", "var", "min", "max", "running_sup_mean")
    header = ["time"] + [
        f"{name}_{stat}" for name in res.functional_names for stat in stats
    ]
    rows = []
    for i, t in enumerate(res.times):
        row = [float(t)]
        for name in res.functional_names:
            for stat in stats:
                row.append(float(res.aggregates[name][stat][i]))
        rows.append(row)
    per_path_header = ["path", "seed", "mass_change", "mass_residual"] + [
        f"{name}_final" for name in res.functional_names
    ]
    per_path_rows = []
    for i in range(res.size):
        row = [i, str(res.seeds[i]), float(res.mass_change[i]), float(res.mass_residuals[i])]
        row += [float(res.per_path[name][i, -1]) for name in res.functional_names]
        per_path_rows.append(row)
    csvs = {
        "aggregates.csv": _csv_text(header, rows),
        "per_path.csv": _csv_text(per_path_header, per_path_rows),
    }
    mean_change = float(res.mass_change.mean())
    se = float(res.mass_change.std(ddof=1) / math.sqrt(res.size)) if res.size > 1 else 0.0
    extra = {
        "paths": res.size,
        "seeds": [str(s) for s in res.seeds],
        "mass_change_mean": mean_change,
        "mass_change_se": se,
        "path_warnings": [f"path {i}: {w}" for i, w in res.path_warnings],
    }
    lines = [
        ("paths", str(res.size)),
        ("mean mass change", format_float(mean_change)),
        ("std error", format_float(se)),
        ("mass residual RMS", format_float(float(np.sqrt((res.mass_residuals**2).mean())))),
    ]
    return csvs, extra, _table(lines)


def _serialize_tail(fit: TailFitResult):
    rows = [[i, float(s)] for i, s in enumerate(fit.slopes)]
    csvs = {
        "slopes.csv": _csv_text(["path", "slope"], rows),
        "grid.csv": _csv_text(
            ["t"], [[float(t)] for t in fit.t_grid]
        ),
    }
    extra = {
        "median_slope": float(fit.median),
        "iqr_low": float(fit.iqr[0]),
        "iqr_high": float(fit.iqr[1]),
        "truncation_bound": float(fit.truncation_bound),
        "paths": len(fit.slopes),
    }
    lines = [
        ("paths", str(len(fit.slopes))),
        ("median slope", format_float(fit.median)),
        ("IQR", f"[{format_float(fit.iqr[0])}, {format_float(fit.iqr[1])}]"),
        ("truncation bound", format_float(fit.truncation_bound)),
    ]
    return csvs, extra, _table(lines)


def _serialize_scatter(rep: ScatteringReport):
    m = len(rep.checkpoint_times)
    header = ["t"] + [format_float(t) for t in rep.checkpoint_times]
    rows = []
    for i in range(m):
        rows.append([float(rep.checkpoint_times[i])] + [float(x) for x in rep.differences[i]])
    csvs = {"differences.csv": _csv_text(header, rows)}
    consecutive = [float(x) for x in rep.consecutive]
    ratios = [
        consecutive[k + 1] / consecutive[k] if consecutive[k] > 0 else math.nan
        for k in range(len(consecutive) - 1)
    ]
    extra = {
        "norm": rep.norm_kind,
        "checkpoints": [float(t) for t in rep.checkpoint_times],
        "consecutive_differences": consecutive,
        "contraction_ratios": ratios,
        "monotone_decay": rep.monotone_decay,
    }
    lines = [("norm", rep.norm_kind), ("monotone decay", str(rep.monotone_decay))]
    for k, d in enumerate(consecutive):
        lines.append(
            (
                f"|w(t{k + 1})-w(t{k})|",
                format_float(d),
            )
        )
    for k, r in enumerate(ratios):
        lines.append((f"ratio {k + 1}/{k}", format_float(r)))
    return csvs, extra, _table(lines)


def _serialize_growth(fit: GrowthFitResult):
    rows = [
        [float(t), float(v)] for t, v in zip(fit.tau_grid, fit.mean_running_sup)
    ]
    csvs = {"growth.csv": _csv_text(["tau", "mean_running_sup"], rows)}
    extra = {"slope": fit.slope, "intercept": fit.intercept}
    lines = [
        ("fitted slope", format_float(fit.slope)),
        ("intercept", format_float(fit.intercept)),
    ]
    return csvs, extra, _table(lines)


def _serialize_regimes(rep: RegimeReport):
    doc = rep.as_dict()
    csvs = {
        "checks.csv": _csv_text(
            ["name", "window_ok", "decay_ok", "required_alpha", "applies", "small_data"],
            [
                [
                    c.name,
                    int(c.window_ok),
                    int(c.decay_ok),
                    float(c.required_alpha),
                    int(c.applies),
                    int(c.small_data_required),
                ]
                for c in rep.checks
            ],
        )
    }
    lines = [
        ("dimension", str(rep.dim)),
        ("nonlinearity 2*sigma", format_float(rep.two_sigma)),
        ("decay alpha", format_float(rep.alpha)),
        ("threshold exponent", format_float(rep.strauss)),
        ("mass criticality", rep.mass_criticality),
        ("class", rep.regime_class),
        (
            "required alpha",
            "-" if rep.required_alpha is None else format_float(rep.required_alpha),
        ),
        ("small-data flag", str(rep.small_data_flag)),
    ]
    for c in rep.checks:
        verdict = "applies" if c.applies else "does not apply"
        detail = []
        if not c.window_ok:
            detail.append("window fails")
        if not c.decay_ok:
            detail.append(f"decay fails (needs alpha > {c.required_alpha:g})")
        if c.small_data_required:
            detail.append("small data required")
        suffix = f" ({', '.join(detail)})" if detail else ""
        lines.append((c.name, verdict + suffix))
    return csvs, doc, _table(lines)


def _serialize_selftest(rep: SelftestReport):
    csvs = {
        "selftest.csv": _csv_text(
            ["name", "tolerance", "measured", "passed"],
            [[c.name, c.tolerance, c.measured, c.passed] for c in rep.checks],
        )
    }
    extra = {
        "points": rep.points,
        "passed": rep.passed,
        "warnings": list(rep.warnings),
    }
    lines = [
        (c.name, f"{'pass' if c.passed else 'FAIL'} "
                 f"(measured {format_float(c.measured)}, tol {c.tolerance:g})")
        for c in rep.checks
    ]
    return csvs, extra, _table(lines)


_SERIALIZERS = (
    (Trajectory, _serialize_trajectory),
    (EnsembleResult, _serialize_ensemble),
    (TailFitResult, _serialize_tail),
    (ScatteringReport, _serialize_scatter),
    (GrowthFitResult, _serialize_growth),
    (RegimeReport, _serialize_regimes),
    (SelftestReport, _serialize_selftest),
)


def _plain(obj):
    """obj with numpy values as Python ones and each non-finite float as the
    string "inf", "-inf" or "nan", for which strict JSON has no number."""
    if isinstance(obj, dict):
        return {key: _plain(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_plain(val) for val in obj]
    obj = obj.item() if isinstance(obj, np.generic) else obj
    return str(obj) if isinstance(obj, float) and not math.isfinite(obj) else obj


def emit_report(
    result,
    out_dir: str | Path,
    config: ExperimentConfig,
) -> dict[str, Path]:
    """Write the artifacts for one result; returns {artifact name: path}.

    The CSV series, ``summary.txt`` and ``manifest.json`` are written.
    The manifest records the other files with their SHA-256 digests,
    the code version, the experiment kind, the config hash and echo,
    and the base seed.
    """
    for klass, serializer in _SERIALIZERS:
        if isinstance(result, klass):
            csvs, extra, table = serializer(result)
            break
    else:
        raise TypeError(f"no report serializer for {type(result).__name__}")
    import hashlib
    import json

    out = Path(out_dir)
    written: dict[str, Path] = {}
    digests: dict[str, str] = {}
    for name, text in {**csvs, "summary.txt": table}.items():
        path = out / name
        _write_text(path, text)
        written[name] = path
        digests[name] = hashlib.sha256(text.encode()).hexdigest()
    manifest = {
        "result_type": type(result).__name__,
        "code_version": __version__,
        "files": digests,
        "detail": _plain(extra),
        "experiment_kind": config.kind,
        "config_hash": config.config_hash,
        "base_seed": str(config.base_seed),
        "config_echo": config.echo().splitlines(),
    }
    text = json.dumps(manifest, indent=2, sort_keys=True, allow_nan=False) + "\n"
    path = out / "manifest.json"
    _write_text(path, text)
    written["manifest.json"] = path
    return written
