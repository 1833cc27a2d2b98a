#!/usr/bin/env python3
"""snlslab benchmark: four gate-shaped workloads, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload mass_ensemble --seed 3 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seconds 28

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
(see README.md). The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics; the lines above it give every
metric with its unit, the machine facts and the check outcomes. Each
run's full record is also kept in .perfbench_work/results/, and the
spans of a traced run in .perfbench_work/spans/.

Only the standard library and numpy are used. Thread pools of numerical
libraries are pinned to one thread, so no run uses more threads than
cores, and byte-code caching is on whatever the caller's environment says.
"""
import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# imports are timed with byte-code caching on, as an installed package has it
os.environ.pop("PYTHONDONTWRITEBYTECODE", None)

import argparse
import json
import math
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import workloads  # noqa: E402  (imports neither numpy nor snlslab)

WORKLOADS = tuple(workloads.WORKLOADS)
#: whole run, set-up and checks included, stays under this many seconds
BUDGET_S = 170.0

END_TO_END_UNITS = {
    "path_steps_per_s": "1/s",
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_ok_frac": "ratio",
    "max_rel_residual": "ratio",
}


def layer_unit(name: str) -> str:
    if name.endswith((".calls", ".steps", ".paths", ".spans")):
        return "count"
    if name.endswith(".bytes"):
        return "bytes"
    return {"us": "us", "ms": "ms", "s": "s"}.get(name.rsplit("_", 1)[-1], "ratio")


def machine_facts() -> dict:
    facts = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": "unknown",
        "python": platform.python_version(),
        "machine": platform.machine(),
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                facts["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3") and kind in ("Unified", "Data"):
            facts[f"l{level}_size"] = size
    return facts


def run_worker(name: str, seed: int, seconds: int, trace: int, deadline: float) -> dict:
    """Run one workload in worker.py; return its record."""
    base = ROOT / ".perfbench_work"
    work = base / f"run-{os.getpid()}-{name}"
    for sub in ("results", "spans"):
        (base / sub).mkdir(parents=True, exist_ok=True)
    work.mkdir(parents=True)
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    result_file = work / "result.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--work", str(work), "--result", str(result_file),
           "--spans", str(base / "spans" / f"{name}.jsonl")]
    try:
        # own process group, so a timeout also stops the worker's probes
        with subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              start_new_session=True) as proc:
            try:
                _, stderr = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
                raise
        if proc.returncode != 0:
            raise RuntimeError(f"worker for {name} exited {proc.returncode}:\n{stderr.strip()}")
        record = json.loads(result_file.read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not trace:
        record["metrics"]["ops_ok_frac"] = 1.0 - record["failed"] / record["attempted"]
    record.update(workload=name, seed=seed, seconds=seconds, trace=trace,
                  machine=machine_facts())
    (base / "results" / f"{name}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1))
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=28)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "snlslab" / "__init__.py").is_file():
        print(f"error: no snlslab sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + BUDGET_S * len(names)
    try:
        records = [run_worker(n, args.seed, args.seconds, args.trace, deadline)
                   for n in names]
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print("# machine " + json.dumps(records[0]["machine"], sort_keys=True))
    out_metrics = {}
    for rec in records:
        print(f"# {rec['workload']}: seed {rec['seed']}, {rec['passes']} timed passes, "
              f"numpy {rec['numpy']}, reference digests {rec['digest_check']}, "
              f"{rec['failed']}/{rec['attempted']} ops failed")
        for failure in rec["failures"]:
            print(f"#   {failure}")
        if "raw" in rec:
            print("#   unscaled: " + ", ".join(f"{k} {v:.6g}" for k, v in rec["raw"].items()))
        for key in sorted(rec["metrics"]):
            unit = END_TO_END_UNITS.get(key) or layer_unit(key)
            value = rec["metrics"][key]
            if not math.isfinite(value):
                value = None  # every pass failed; JSON has no NaN
            print(f"{rec['workload']:16s} {key:28s} {value} {unit}")
            label = key if len(names) == 1 else f"{rec['workload']}.{key}"
            out_metrics[label] = {"value": value, "unit": unit}
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": out_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
