"""Run one motionbands benchmark workload and print its metrics.

    python3 perfbench/run.py --workload replay_days --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout: the program is imported from
``src/``. Inputs are generated from ``--seed``; the program only sees the
generated inputs. With ``--trace 0`` the last line of output holds the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced
run. The line before it is a report with the environment, workload
properties and the same figures under their descriptive names.
"""

import os
import sys

# One thread per process: every BLAS and OpenMP pool is pinned before numpy
# loads. glibc adapts its mmap and trim thresholds to the allocation
# history of the process, which makes the cost of numpy's large temporaries
# flip between runs of the same input by up to 30%; fixed thresholds keep
# them on a heap that is not trimmed. glibc reads these at start-up, so the
# interpreter re-executes itself once with them set.
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "MALLOC_MMAP_THRESHOLD_": str(32 << 20),
    "MALLOC_TRIM_THRESHOLD_": str(1 << 30),
}
if __name__ == "__main__" and any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
    os.environ.update(PINNED_ENV)
    os.execv(sys.executable, [sys.executable, *sys.argv])

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

WORKLOAD_NAMES = ("pixels_sparse", "pixels_flicker", "replay_days", "plan_queries")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _environment(seed: int) -> dict:
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "pinned_env": {k: os.environ.get(k) for k in PINNED_ENV},
        "seed": seed,
    }


def _import_program(root: Path) -> None:
    """Put the checkout's ``src`` first on the path, and refuse any other copy."""
    src = root / "src"
    if not (src / "motionbands" / "__init__.py").is_file():
        sys.exit(f"error: no motionbands sources under {src}; run from the root of a checkout")
    sys.path.insert(0, str(src))
    import motionbands

    if Path(motionbands.__file__).resolve().parent != (src / "motionbands").resolve():
        sys.exit(f"error: imported motionbands from {motionbands.__file__}, not from {src}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")

    root = Path.cwd()
    _import_program(root)
    import bench

    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=root))
    try:
        result = bench.run_workload(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = result.per_layer if args.trace else result.end_to_end
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": _environment(args.seed),
        **result.report,
        "end_to_end": {k: v for k, (v, _) in result.end_to_end.items()},
        "per_layer": {k: v for k, (v, _) in result.per_layer.items()},
    }
    print(json.dumps({"report": report}))
    print(
        json.dumps(
            {
                "correct": result.failed == 0,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
