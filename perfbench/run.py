"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload batch-scan --seed 1 --seconds 12 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
breakdown.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("serve-remote", "batch-scan", "ann-probe", "hdc-classify")


def _cap_threads() -> int:
    """Cap BLAS/OpenMP pools to the client budget before numpy loads."""
    cap = max(1, min(2, os.cpu_count() or 1))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[var] = str(cap)
    # Autotune decisions stay in-process: every run pays (and reports)
    # its own autotune in set-up, and nothing is written outside the
    # checkout.
    os.environ["REPRO_AUTOTUNE_PROFILE"] = ""
    os.environ.pop("REPRO_TELEMETRY", None)
    os.environ.pop("REPRO_KERNEL", None)
    return cap


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny sizes, for the benchmark's own tests",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    cap = _cap_threads()
    for path in (str(ROOT / "src"), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)

    import numpy as np

    from perfbench import common
    from perfbench.oracle import first_lines

    module = args.workload.replace("-", "_")
    workload = importlib.import_module(f"perfbench.{module}")
    outcome = workload.run(
        seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
        smoke=args.smoke,
    )

    units = common.LAYER_METRICS if args.trace else common.E2E_METRICS
    values = outcome.layers if args.trace else outcome.e2e
    metrics = {
        name: {"value": float(values[name]), "unit": unit}
        for name, unit in units.items()
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": common.HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "cpu_count": os.cpu_count(),
        "blas_thread_cap": cap,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "failed_frac": outcome.failed / max(1, outcome.attempted),
        **outcome.record,
    }
    print(f"# {args.workload} seed={args.seed} trace={args.trace}")
    for name, metric in metrics.items():
        print(f"{name:32s} {metric['value']:.6g} {metric['unit']}")
    for line in first_lines(outcome.mismatches):
        print(line)
    verdict = "PASS" if outcome.failed == 0 else "FAIL"
    print(f"oracle: {verdict} ({outcome.attempted} answers scored, "
          f"{outcome.failed} failed)")
    print("record " + json.dumps(record, sort_keys=True, default=float))
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": max(1, int(outcome.attempted)),
        "failed": int(outcome.failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
