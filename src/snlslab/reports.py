"""Report emission: stable CSV, a JSON manifest, and a plain-text table.

Every experiment result renders to up to three artifacts:

* CSV — the numeric contract. Every CSV is written from named columns,
  {header name: sequence}, each named once next to its data, by one
  writer that refuses columns of unequal length; load_series_csv reads
  the same shape back. Floats are written with %.17g, which round-trips
  float64 exactly, so a written series can be reloaded bit-for-bit.
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
from typing import Sequence

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
    """Read a CSV back into its named columns (exact float round-trip)."""
    p = Path(path)
    try:
        with p.open(newline="") as fh:
            header, *rows = csv.reader(fh)
    except OSError as exc:
        raise ReportIOError(f"cannot read {p}: {exc}") from exc
    table = np.array(rows, dtype=float).reshape(len(rows), len(header))
    return dict(zip(header, table.T.copy()))


def _write_text(path: Path, text: str) -> None:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    except OSError as exc:
        raise ReportIOError(f"cannot write {path}: {exc}") from exc


def _csv_text(columns: dict[str, Sequence]) -> str:
    """CSV of named columns, one row per index; floats via format_float."""
    lengths = {name: len(col) for name, col in columns.items()}
    if len(set(lengths.values())) > 1:
        raise ValueError(f"CSV columns differ in length: {lengths}")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(
        [format_float(c) if isinstance(c, float) else c for c in row]
        for row in zip(*columns.values())
    )
    return buf.getvalue()


def _table(lines: list[tuple[str, str]]) -> str:
    width = max((len(k) for k, _ in lines), default=0)
    return "\n".join(f"{k.ljust(width)}  {v}" for k, v in lines) + "\n"


# ---------------------------------------------------------------------------
# Per-result serializers: each returns (csv files, manifest extra, table)
# ---------------------------------------------------------------------------


def _serialize_trajectory(traj: Trajectory):
    budget = {f"budget_{k}": col for k, col in traj.budget.items()}
    csvs = {"series.csv": _csv_text({"time": traj.times, **traj.series, **budget})}
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
    names, stats = res.functional_names, ("mean", "var", "min", "max", "running_sup_mean")
    aggregates = {f"{name}_{stat}": res.aggregates[name][stat] for name in names for stat in stats}
    finals = {f"{name}_final": res.per_path[name][:, -1] for name in names}
    csvs = {
        "aggregates.csv": _csv_text({"time": res.times, **aggregates}),
        "per_path.csv": _csv_text({"path": range(res.size), "seed": res.seeds,
                                   "mass_change": res.mass_change,
                                   "mass_residual": res.mass_residuals, **finals}),
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
    csvs = {
        "slopes.csv": _csv_text({"path": range(len(fit.slopes)), "slope": fit.slopes}),
        "grid.csv": _csv_text({"t": fit.t_grid}),
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
    times = rep.checkpoint_times
    columns = {format_float(t): rep.differences[:, j] for j, t in enumerate(times)}
    csvs = {"differences.csv": _csv_text({"t": times, **columns})}
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
    csvs = {"growth.csv": _csv_text({"tau": fit.tau_grid,
                                     "mean_running_sup": fit.mean_running_sup})}
    extra = {"slope": fit.slope, "intercept": fit.intercept}
    lines = [
        ("fitted slope", format_float(fit.slope)),
        ("intercept", format_float(fit.intercept)),
    ]
    return csvs, extra, _table(lines)


def _serialize_regimes(rep: RegimeReport):
    doc = rep.as_dict()
    checks = rep.checks
    csvs = {"checks.csv": _csv_text({
        "name": [c.name for c in checks],
        "window_ok": [int(c.window_ok) for c in checks],
        "decay_ok": [int(c.decay_ok) for c in checks],
        "required_alpha": [float(c.required_alpha) for c in checks],
        "applies": [int(c.applies) for c in checks],
        "small_data": [int(c.small_data_required) for c in checks],
    })}
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
    csvs = {"selftest.csv": _csv_text(
        {key: [getattr(c, key) for c in rep.checks]
         for key in ("name", "tolerance", "measured", "passed")})}
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


_SERIALIZERS = {
    Trajectory: _serialize_trajectory,
    EnsembleResult: _serialize_ensemble,
    TailFitResult: _serialize_tail,
    ScatteringReport: _serialize_scatter,
    GrowthFitResult: _serialize_growth,
    RegimeReport: _serialize_regimes,
    SelftestReport: _serialize_selftest,
}


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
    serializer = _SERIALIZERS.get(type(result))
    if serializer is None:
        raise TypeError(f"no report serializer for {type(result).__name__}")
    csvs, extra, table = serializer(result)
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
