"""Fresh-interpreter probes; each prints the seconds it measured.

    python3 probe.py setup WORKLOAD CONFIG   import snlslab .. before the first step
    python3 probe.py cli-import              import snlslab.cli

Started by worker.py with ``src`` on PYTHONPATH. The clock starts after
the interpreter and this benchmark's own modules are up, right before
the first import of the package.
"""
import sys
from pathlib import Path
from time import perf_counter

import workloads


def main() -> int:
    kind = sys.argv[1]
    if kind == "setup":
        t0 = perf_counter()
        workloads.setup(sys.argv[2], Path(sys.argv[3]))
    elif kind == "cli-import":
        t0 = perf_counter()
        import snlslab.cli  # noqa: F401
    else:
        raise SystemExit(f"unknown probe {kind!r}")
    print(perf_counter() - t0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
