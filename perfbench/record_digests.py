"""Rewrite digests.json from the reference pass of every workload.

The stored digests pin the CSV bytes of each workload at the reference
seed, so a change that claims to keep outputs bit-identical is checked
on every benchmark run. Re-record them only for a declared change of
numerics or of numpy, from the root of a checkout:

    PYTHONPATH=src python3 perfbench/record_digests.py
"""
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

import workloads


def main() -> int:
    doc = {"numpy": np.__version__, "seed": workloads.REFERENCE_SEED, "workloads": {}}
    with tempfile.TemporaryDirectory(dir=".") as tmp:
        for name, wl in workloads.WORKLOADS.items():
            cfg = Path(tmp) / f"{name}.cfg"
            cfg.write_text(wl.config_text(workloads.REFERENCE_SEED))
            result = workloads.run_pass(wl, cfg, Path(tmp) / name)
            if result.failed:
                print(f"{name}: {result.failures}", file=sys.stderr)
                return 1
            doc["workloads"][name] = result.digests
    path = Path(__file__).with_name("digests.json")
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
