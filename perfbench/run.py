"""hcustom benchmark: one workload per process, one JSON result line.

    python3 perfbench/run.py --workload codec-train --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  The last line of standard output is
`{"correct", "attempted", "failed", "metrics"}`: the end-to-end metrics with
`--trace 0`, the per-layer metrics of BENCHMARK.json with `--trace 1`.  The
line before it records the machine, workload and seed.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile
import time

BLAS_THREADS = 1
SETUP_REPEATS = 3
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")


def pin_blas_threads() -> int:
    """Pin BLAS and OpenMP threads before numpy loads."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the BLAS threads were pinned")
    threads = min(BLAS_THREADS, os.cpu_count() or 1)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def blas_threads_in_use():
    """Ask the loaded OpenBLAS how many threads it runs, if it can be found."""
    import ctypes
    with open("/proc/self/maps") as f:
        libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine_info(threads: int) -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = None
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), None)
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads_pinned": threads, "blas_threads_in_use": blas_threads_in_use(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "python": sys.version.split()[0]}


def end_to_end(setup_s: list[float], log) -> dict:
    return {"setup_s": statistics.median(setup_s),
            "peak_rss_mb": log.peak_rss_mb,
            "op_s_p50": statistics.median(log.op_s),
            "frames_per_s": log.frames / log.wall_s}


def per_layer(tracer, log) -> dict:
    import tracing
    ops = [op for op in {s[1] for s in tracer.spans} if op and not op.startswith("setup")]
    figures = tracing.layer_metrics(tracer, ops)
    traced = [t for t, on in zip(log.op_s, log.traced) if on]
    untraced = [t for t, on in zip(log.op_s, log.traced) if not on]
    if log.tasks:   # clips: each task appears once traced and once untraced
        overhead = sum(traced) / sum(untraced) * len(untraced) / len(traced) - 1
    else:
        overhead = statistics.median(traced) / statistics.median(untraced) - 1
    figures["trace.overhead_pct"] = 100.0 * overhead
    return figures


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:   # numpy's seeding refuses negative integers
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {value}")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("codec-train", "flow-train", "sample-mixed"))
    parser.add_argument("--seed", type=_seed, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    threads = pin_blas_threads()
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    import hcustom
    if not os.path.abspath(hcustom.__file__).startswith(os.path.join(src, "")):
        sys.exit(f"hcustom was imported from {hcustom.__file__}, not from {src}")
    import tracing
    import workloads

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    cfg = workloads.load_config(ROOT)
    workload = workloads.make(args.workload, cfg, args.seed, ROOT)
    tracer = tracing.Tracer() if args.trace else None
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        states, setup_s = [], []
        for r in range(SETUP_REPEATS):
            op = None
            if tracer is not None:
                tracer.install()
                op = tracer.begin_op(f"setup{r}")
            t0 = time.perf_counter()
            states.append(workload.setup(os.path.join(workdir, f"setup{r}")))
            setup_s.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.end_op(op)
                tracer.uninstall()
        log = workload.run(states, args.seconds, tracer)
        problems = workload.check(states, log)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    if tracer is None:
        metrics, declared = end_to_end(setup_s, log), spec["end_to_end"]
    else:
        metrics, declared = per_layer(tracer, log), spec["per_layer"]
        missing = [n for n in workload.required if not metrics[n] > 0]
        for n in missing:
            print(f"TRACE FAILED: {n} was never observed on {args.workload}", file=sys.stderr)
        problems += missing
        trace_path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
        with open(trace_path, "w") as f:
            json.dump(tracer.to_json(), f)
    print(json.dumps({"machine": machine_info(threads), "workload": args.workload,
                      "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
                      "op_s": [round(t, 6) for t in log.op_s]}))
    print(json.dumps({"correct": not problems, "attempted": log.attempted,
                      "failed": log.failed,
                      "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                                  for m in declared}}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
