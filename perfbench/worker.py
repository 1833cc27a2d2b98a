"""One workload in its own process: reference pass, timed passes, and
(with --trace 1) traced passes plus layer microtimings.

Started by run.py with ``src`` on PYTHONPATH; writes one JSON result
file. Its own peak RSS is the workload's ``peak_rss_mb``.

After each timed pass it starts one fresh-interpreter probe (set-up
time, or with --trace 1 the CLI import time), so the probes sample the
machine over the same window as the passes and their median is as
steady as the passes' median. After every pass and every probe it runs
the calibration kernel; the end-to-end timings are scaled by the
machine speed it measured around them (see calibration.py), and the
raw figures are kept in the record.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import calibration
import micro
import tracing
import workloads

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"
#: fewest timed passes and fewest probes, whatever --seconds says
MIN_PASSES = 3
MIN_PROBES = 5


def probe(*args: str) -> float:
    """Seconds measured by one probe.py run in a fresh interpreter."""
    proc = subprocess.run([sys.executable, str(HERE / "probe.py"), *args],
                          capture_output=True, text=True, check=True, timeout=120)
    return float(proc.stdout)


def _median(values):
    return statistics.median(values) if values else float("nan")


class SpeedLog:
    """Calibration kernel times: one at the start, one after each item."""

    def __init__(self) -> None:
        self.times = [calibration.kernel_seconds()]

    def after_item(self) -> float:
        """Run the kernel; return the scale for the item just finished,
        REF_S over the mean kernel time on either side of it."""
        self.times.append(calibration.kernel_seconds())
        return calibration.REF_S / (0.5 * (self.times[-2] + self.times[-1]))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    ap.add_argument("--spans", type=Path, required=True)
    args = ap.parse_args()

    wl = workloads.WORKLOADS[args.workload]
    ref_cfg = args.work / "reference.cfg"
    ref_cfg.write_text(wl.config_text(workloads.REFERENCE_SEED))
    seed_cfg = args.work / "seed.cfg"
    seed_cfg.write_text(wl.config_text(args.seed))

    # the reference pass also warms caches and lazy set-up before timing
    ref = workloads.run_pass(wl, ref_cfg, args.work / "reference")
    stored = json.loads(DIGESTS.read_text())
    digest_note = "match"
    if stored["numpy"] != np.__version__:
        digest_note = f"not checked: reference digests are for numpy {stored['numpy']}"
    elif ref.failed == 0:
        expected = stored["workloads"].get(wl.name)
        if expected != ref.digests:
            ref.failed = ref.ops
            ref.failures.append(f"reference CSV digests {ref.digests} differ from {expected}")
            digest_note = "MISMATCH"

    probe_args = ("cli-import",) if args.trace else ("setup", wl.name, str(seed_cfg))
    probe(*probe_args)  # warm-up: byte-code caches, file cache
    probes: list[float] = []
    probe_scales: list[float] = []
    untraced: list[workloads.Pass] = []
    pass_scales: list[float] = []
    traced: list[tuple[workloads.Pass, tracing.Tracer]] = []
    traced_scales: list[float] = []
    start = perf_counter()
    speed = SpeedLog()
    i = 0
    while True:
        t_pass = perf_counter()
        out = args.work / "timed"
        if args.trace and i % 2 == 1:
            tracer = tracing.Tracer(f"{wl.name}/seed{args.seed}/pass{i}")
            with tracer.installed():
                traced.append((workloads.run_pass(wl, seed_cfg, out), tracer))
            traced_scales.append(speed.after_item())
        else:
            untraced.append(workloads.run_pass(wl, seed_cfg, out))
            pass_scales.append(speed.after_item())
        probes.append(probe(*probe_args))
        probe_scales.append(speed.after_item())
        i += 1
        now = perf_counter()
        enough = i >= (2 * MIN_PASSES if args.trace else MIN_PASSES)
        if enough and (now - start) + (now - t_pass) > args.seconds:
            break
    while len(probes) < MIN_PROBES:
        probes.append(probe(*probe_args))
        probe_scales.append(speed.after_item())

    timed = untraced + [p for p, _ in traced]
    first = next((p.digests for p in timed if p.failed == 0), None)
    for p in timed:
        if p.failed == 0 and p.digests != first:
            p.failed = p.ops
            p.failures.append("CSV digests differ between passes of one seed")

    all_passes = [ref] + timed
    result = {
        "numpy": np.__version__,
        "digest_check": digest_note,
        "attempted": sum(p.ops for p in all_passes),
        "failed": sum(p.failed for p in all_passes),
        "failures": [f for p in all_passes for f in p.failures][:20],
        "passes": len(timed),
        "samples": {
            "wall_s": [p.wall_s for p in untraced],
            "compute_s": [p.compute_s for p in untraced],
            "scale": pass_scales,
            "probe_s": probes,
            "probe_scale": probe_scales,
            "calibration_s": speed.times,
        },
    }
    ok = [(p, f) for p, f in zip(untraced, pass_scales) if p.failed == 0]
    if args.trace == 0:
        result["metrics"] = {
            "path_steps_per_s": _median([p.path_steps / (p.compute_s * f) for p, f in ok]),
            "wall_s": _median([p.wall_s * f for p, f in ok]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "max_rel_residual": ref.rel_residual,
            "setup_s": _median([s * f for s, f in zip(probes, probe_scales)]),
        }
        result["raw"] = {
            "path_steps_per_s": _median([p.path_steps / p.compute_s for p, _ in ok]),
            "wall_s": _median([p.wall_s for p, _ in ok]),
            "setup_s": _median(probes),
            "calibration_s": _median(speed.times),
            "calibration_ref_s": calibration.REF_S,
        }
    else:
        result["metrics"] = layer_metrics(wl, seed_cfg, untraced, pass_scales,
                                          traced, traced_scales)
        result["metrics"]["cli.import_s"] = _median(probes)
        with open(args.spans, "w") as fh:
            for _, tracer in traced:
                tracer.write(fh, start)
    args.result.write_text(json.dumps(result, indent=1))
    return 0


def layer_metrics(wl, seed_cfg: Path, untraced, pass_scales, traced,
                  traced_scales) -> dict[str, float]:
    """Per-layer figures: medians over the traced passes, the tracing
    overhead against the untraced ones, and microtimings."""
    import snlslab.config as config

    per_pass = []
    for _, tr in traced:
        selfs = tr.self_times()
        row = {
            "ensemble.pool_s": tr.durations("ensemble.pool_map"),
            "ensemble.fold_s": selfs.get("ensemble.run_ensemble", 0.0),
            "noise.tail_fit_s": selfs.get("noise.tail_decay_fit", 0.0),
            "analysis.scatter_s": tr.durations("analysis.scattering_cauchy"),
            "analysis.growth_fit_s": tr.durations("analysis.growth_fit"),
            "reports.emit_s": tr.durations("reports.emit_report"),
            "config.load_s": tr.durations("config.load_config"),
            "trace.spans": float(len(tr)),
        }
        for layer, (self_s, calls) in tr.layer_summary().items():
            row[f"{layer}.self_s"] = self_s
            row[f"{layer}.calls"] = float(calls)
        per_pass.append(row)
    metrics = {k: _median([row[k] for row in per_pass]) for k in per_pass[0]}
    # each traced pass against the untraced pass just before it
    pairs = [(t.wall_s * ft, u.wall_s * fu) for (t, _), ft, u, fu
             in zip(traced, traced_scales, untraced, pass_scales)]
    metrics["trace.overhead_s"] = _median([t - u for t, u in pairs])
    metrics["trace.overhead_share"] = _median([t / u - 1.0 for t, u in pairs])
    pde = wl.name != "tail_decay"
    sample = traced[0][0]
    metrics["dynamics.steps"] = float(sample.path_steps if pde else 0)
    metrics["ensemble.paths"] = float(wl.ops if wl.name != "scatter_long" else 0)
    metrics["reports.bytes"] = float(sample.bytes_written)
    metrics.update(micro.layer_timings(config.load_config(seed_cfg)))
    return metrics


if __name__ == "__main__":
    sys.exit(main())
