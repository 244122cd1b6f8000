"""rfident benchmark: one workload, end-to-end metrics or a traced per-layer run.

Usage, from the repository root:

    python3 perfbench/run.py --workload mc_qpsk --seed 1 --seconds 15 --trace 0

Workloads: mc_qpsk, mc_bpsk, auth_iridium, ingest_qpsk (see BENCHMARK.json
for why each is there). The run

* times ``import rfident`` in SETUP_REPEATS fresh interpreters (setup_s);
* runs the workload once untimed to warm the process, then repeats it until
  ``--seconds`` have passed, checking every output (run_s is the median);
* with ``--trace 1`` also runs it once more with every layer entry point
  wrapped in spans, and reports per-layer metrics instead of end-to-end ones.

It prints a summary with units, then one JSON line with ``correct``,
``attempted``, ``failed`` and ``metrics``. A full record (work done, inputs
digest, ungated outputs, spans) goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
# Same keys as workloads.WORKLOADS; listed here so that arguments are checked
# before numpy and rfident are imported.
WORKLOAD_NAMES = ("mc_qpsk", "mc_bpsk", "auth_iridium", "ingest_qpsk")
SETUP_REPEATS = 5
# One BLAS thread: the workloads are single-process and their matrices are
# small; a second thread adds contention noise on a 2-core machine.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_SNIPPET = "import time; t = time.perf_counter(); import rfident; print(time.perf_counter() - t)"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def machine_info() -> dict:
    import numpy
    import scipy

    return {"nproc": os.cpu_count(), "machine": platform.machine(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas_threads": BLAS_THREADS}


def measure_setup() -> list:
    """Seconds to import rfident (with numpy/scipy) in fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        r = subprocess.run([sys.executable, "-c", IMPORT_SNIPPET], env=env, cwd=ROOT,
                           capture_output=True, text=True, check=True, timeout=120)
        times.append(float(r.stdout.split()[-1]))
    return times


def quartiles(values) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def run_once(wl, record: dict) -> tuple:
    """Run the workload once and check its output; return (seconds, problems)."""
    t0 = time.perf_counter()
    try:
        result = wl.run()
    except Exception:
        dt = time.perf_counter() - t0
        traceback.print_exc()
        return dt, ["raised " + traceback.format_exc().strip().splitlines()[-1]]
    dt = time.perf_counter() - t0
    record.setdefault("work", wl.work(result))
    record.setdefault("outputs", wl.outputs(result))
    return dt, wl.check(result)


def measure(wl, seconds: float, trace: bool, record: dict) -> list:
    """Warm up, repeat the workload for ``seconds``, then (traced) once more.
    Returns the problem list of every checked run; run times go to ``record``."""
    wl.warm()
    times, checks = [], []
    start = time.perf_counter()
    while not times or time.perf_counter() - start < seconds:
        dt, problems = run_once(wl, record)
        times.append(dt)
        checks.append(problems)
    record["run_s"] = times
    if trace:
        import spans

        tracer = spans.Tracer()
        with spans.tracing(tracer):
            t0 = time.perf_counter()
            with tracer.span(spans.ROOT):
                _, problems = run_once(wl, record)
            traced_s = time.perf_counter() - t0
        checks.append(problems)
        record["traced_run_s"] = traced_s
        record["accounting"] = spans.accounting(tracer.spans, traced_s)
        record["layers"] = spans.layer_metrics(tracer.spans, traced_s, statistics.median(times))
        record["spans"] = spans.dump_spans(tracer.spans)
    return checks


def summary_lines(record: dict, attempted: int, failed: int) -> list:
    lines = [f"{record['workload']} seed={record['seed']}: {attempted} runs, {failed} failed"]
    if "sha256" in record["inputs"]:
        lines.append(f"  inputs sha256 {record['inputs']['sha256']}")
    for name, values in (("setup_s", record.get("setup_s")), ("run_s", record["run_s"])):
        if values:
            q1, q3 = quartiles(values)
            lines.append(f"  {name:<13}{statistics.median(values):10.4f} s   median of "
                         f"{len(values)} (q1 {q1:.4f}, q3 {q3:.4f})")
    lines.append(f"  {'peak_rss_mb':<13}{record['peak_rss_mb']:10.1f} MB")
    lines.append(f"  {'failed_share':<13}{failed / attempted:10.4f} share ({failed} of {attempted})")
    if "traced_run_s" in record:
        lines.append(f"  traced run_s {record['traced_run_s']:.4f} s, overhead "
                     f"{record['traced_run_s'] - statistics.median(record['run_s']):+.4f} s")
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "rfident" / "__init__.py").is_file():
        print(f"perfbench: no rfident sources at {SRC.relative_to(ROOT)}/rfident; "
              "run from a full checkout", file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))

    import workloads

    OUT.mkdir(parents=True, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine_info()}
    if not args.trace:
        record["setup_s"] = measure_setup()
    wl = workloads.WORKLOADS[args.workload](args.seed, OUT)
    try:
        record["inputs"] = wl.inputs()
        checks = measure(wl, args.seconds, bool(args.trace), record)
    finally:
        wl.close()
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record["problems"] = [p for p in checks if p]
    attempted, failed = len(checks), sum(1 for p in checks if p)

    if args.trace:
        metrics = record["layers"]
    else:
        metrics = {
            "run_s": {"value": statistics.median(record["run_s"]), "unit": "s"},
            "setup_s": {"value": statistics.median(record["setup_s"]), "unit": "s"},
            "peak_rss_mb": {"value": record["peak_rss_mb"], "unit": "MB"},
        }
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, default=float))
    for problems in record["problems"]:
        print("check failed: " + "; ".join(problems), file=sys.stderr)
    print("\n".join(summary_lines(record, attempted, failed)))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
