"""micromacro benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src`` directory.  One run is one fresh process and one closed-loop client:
it repeats the workload's unit of work with fresh seeded inputs until the
next pass would overrun ``--seconds`` (and at least the workload's minimum
number of passes), checks every output outside the timed region, and prints
as its last stdout line one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced and
traced passes and reports the per-layer metrics of the traced ones, with the
tracing overhead against the untraced ones.  The line before the JSON
describes the run: the machine, the pass count, the sample count and the
percentile behind ``point_tail_ms``.
"""

from __future__ import annotations

import os

# BLAS threads must be fixed before numpy loads: at most 2, one per core of
# the reference machine
_CORES = len(os.sched_getaffinity(0))
BLAS_THREADS = str(min(2, _CORES))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

WORKLOAD_NAMES = ("oracle_grid", "phase_space_figs", "tomography_loop")
SETUP_PROBES = 4  # extra cold set-ups in child processes, for a median
#: Timings are summarised by their upper quartile, not their median.  On the
#: reference machine (2 vCPUs of a shared host) interpreter-bound code runs
#: up to 1.6x faster for minutes at a time; the median of a run snaps to
#: whichever level dominated it, while the upper quartile tracks the
#: persistent level: over sets of ten phase_space_figs runs the median spread
#: by up to 0.41 of its value, the upper quartile by up to 0.20.
SUMMARY_PERCENTILE = 75.0
TAIL_LADDER = (99.0, 90.0, SUMMARY_PERCENTILE)


class SetupError(RuntimeError):
    """The program under test cannot be imported from this checkout."""


def setup(name: str, seed: int):
    """Import the package from ``src`` and build the workload's inputs.

    Returns (seconds, workload).  This is the work a CLI invocation pays
    before its first point.
    """
    t0 = time.perf_counter()
    try:
        import micromacro
    except ImportError as exc:
        raise SetupError(f"cannot import micromacro from {SRC}: {exc}") from exc
    origin = Path(micromacro.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SetupError(f"micromacro was imported from {origin}, not from {SRC}")
    import workloads

    workload = workloads.WORKLOADS[name](seed)
    return time.perf_counter() - t0, workload


def probe_setup(name: str, seed: int) -> float:
    """Set-up time measured in a fresh child process."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=False,
    )
    if proc.returncode != 0:
        raise SetupError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


def _rank(p: float, n: int) -> int:
    return max(1, math.ceil(p * n / 100.0 - 1e-9))


def percentile(samples: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    return sorted(samples)[_rank(p, len(samples)) - 1]


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile of the ladder with at least
    ten samples beyond it (nearest rank), else the maximum (percentile 100)."""
    n = len(samples)
    for p in TAIL_LADDER:
        if n - _rank(p, n) >= 10:
            return p, percentile(samples, p)
    return 100.0, max(samples)


def _openblas() -> list[dict]:
    """Version string and thread count of each OpenBLAS loaded in-process."""
    import ctypes

    paths = []
    with open("/proc/self/maps", encoding="utf-8") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" in path and ".so" in path and path not in paths:
                paths.append(path)
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": Path(path).name}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if config is not None and threads is not None:
                    config.restype = ctypes.c_char_p
                    threads.restype = ctypes.c_int
                    entry["config"] = config().decode().strip()
                    entry["threads"] = threads()
                    break
            if "config" in entry:
                break
        found.append(entry)
    return found


def machine() -> dict:
    import platform

    import numpy
    import scipy

    return {
        "nproc": _CORES,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": int(BLAS_THREADS),
        "openblas": _openblas(),
    }


def measure(workload, seconds: float, trace: bool):
    """Repeat passes until the next one would overrun ``seconds``."""
    tracer = installer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
        installer = tracing.Installer(tracer)
    untraced, traced, points = [], [], []
    attempted = failed = 0
    iteration = []
    start = time.perf_counter()
    k = 0
    while True:
        t_iter = time.perf_counter()
        inputs = workload.make_pass(k, trace)
        if trace and k % 2 == 1:
            with installer:
                result = workload.run_pass(inputs, tracer)
            traced.append(result.unit_s)
        else:
            result = workload.run_pass(inputs)
            untraced.append(result.unit_s)
            points.extend(result.point_s)
        a, f = workload.check(result.outputs)
        attempted += a
        failed += f
        k += 1
        iteration.append(time.perf_counter() - t_iter)
        elapsed = time.perf_counter() - start
        if k >= workload.min_passes and elapsed + statistics.median(iteration) > seconds:
            break
    return {
        "passes": k,
        "untraced": untraced,
        "traced": traced,
        "points": points,
        "attempted": attempted,
        "failed": failed,
        "tracer": tracer,
        "installer": installer,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        setup_s, workload = setup(args.workload, args.seed)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(repr(setup_s))
        return 0

    run = measure(workload, args.seconds, bool(args.trace))
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": run["passes"],
        "failed_frac": run["failed"] / max(run["attempted"], 1),
        "machine": machine(),
    }
    if args.trace:
        import tracing

        absent = run["installer"].absent_metrics()
        metrics = tracing.layer_metrics(
            run["tracer"], run["traced"], run["untraced"], absent
        )
        info["absent_metrics"] = sorted(absent)
        info["self_time_sum_s"] = tracing.self_time_sum(
            run["tracer"], len(run["traced"])
        )
    else:
        try:
            setups = [setup_s] + [
                probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)
            ]
        except (SetupError, subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        points = run["points"]
        tail_p, tail_s = tail(points)
        info.update(point_samples=len(points), point_tail_percentile=tail_p)
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {
                "value": percentile(run["untraced"], SUMMARY_PERCENTILE), "unit": "s"
            },
            "point_p75_ms": {
                "value": 1e3 * percentile(points, SUMMARY_PERCENTILE), "unit": "ms"
            },
            "point_tail_ms": {"value": 1e3 * tail_s, "unit": "ms"},
            "peak_rss_mb": {"value": peak_kib / 1024.0, "unit": "MiB"},
        }
    print(json.dumps(info))
    print(json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
