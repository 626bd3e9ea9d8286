"""bmcut benchmark: time to a certified, rounded cut, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload dense --seed 0 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics of untraced runs; ``--trace 1``
reruns part of the batch with spans around each layer's public functions and
prints the per-layer metrics.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the line before it records the environment and the workload.  The metric
names and units are the ones ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = 1   # single-threaded BLAS and Matrix Market parsing keep runs
                   # steady and reproducible
OUT_DIR = ROOT / ".perfbench_out"


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_bmcut():
    """Import bmcut from this checkout's ``src``; refuse any other copy."""
    src = ROOT / "src"
    if not (src / "bmcut" / "__init__.py").is_file():
        raise SystemExit(f"bmcut sources not found under {src}")
    sys.path.insert(0, str(src))
    import bmcut

    if Path(bmcut.__file__).resolve().parent != (src / "bmcut").resolve():
        raise SystemExit(f"imported bmcut from {bmcut.__file__}, not {src}")
    return bmcut


def declared_metrics(trace: int) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    group = spec["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in group}


def environment(threads: int) -> dict:
    import numpy
    import scipy

    try:
        describe = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"], cwd=ROOT,
            capture_output=True, text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        describe = "unknown (not a git checkout)"
    try:
        l3 = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        l3 = "unknown"
    return {"git_describe": describe, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": os.cpu_count(), "blas_threads": threads, "l3_cache": l3,
            "machine": platform.machine()}


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = os.cpu_count() or 1
    threads = min(BLAS_THREADS, nproc)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    try:
        # scipy's Matrix Market reader starts one thread per core; its
        # documented switch is threadpoolctl, which sets this attribute.
        import scipy.io._fast_matrix_market as fmm
        fmm.PARALLELISM = threads
    except ImportError:
        pass
    bmcut = import_bmcut()
    units = declared_metrics(args.trace)

    import bench   # imports numpy, so only after the thread count is set

    if args.workload not in bench.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; "
                         f"pick from {sorted(bench.WORKLOADS)}")
    w = bench.WORKLOADS[args.workload]
    tag = f"{w.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    tally = bench.Tally()
    record: dict = {}
    # Inside the checkout: the benchmark writes nowhere else.
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        inputs = bench.write_inputs(w, args.seed, workdir)
        if args.trace:
            OUT_DIR.mkdir(exist_ok=True)
            values = bench.measure_traced(bmcut, w, inputs, tally,
                                          str(OUT_DIR / f"spans-{tag}.npz"))
        else:
            values = bench.measure(bmcut, w, inputs, args.seconds, tally, record)

    if set(values) != set(units):
        raise SystemExit(f"metrics {sorted(set(values) ^ set(units))} disagree "
                         f"with BENCHMARK.json")
    for name in tally.failed:
        print(f"FAILED {name}", file=sys.stderr)
    print(json.dumps({"env": environment(threads),
                      "workload": dataclasses.asdict(w) | {"seed": args.seed},
                      "wall": record}))
    print(json.dumps({
        "correct": not tally.failed,
        "attempted": tally.attempted,
        "failed": len(tally.failed),
        "metrics": {k: {"value": float(values[k]), "unit": units[k]}
                    for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
