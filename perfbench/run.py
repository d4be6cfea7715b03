#!/usr/bin/env python3
"""chaosdet benchmark: four workloads, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py): report-guard-edge, mc-past-guard,
verify-grid, exact-triangle.  Load is one closed-loop client in one
process, one request at a time; every request gets a distinct input
drawn from the workload seed.

The speed of a shared machine drifts by 20-30 % over minutes, longer
than a run, so raw request times of two runs of the same code differ by
that much.  After each request, untimed, the run times a reference probe
(``reference_probe``: fixed numpy work that never calls chaosdet) for a
tenth of the request's time.  A request time divided by the run's median
probe time is in "ref" units, which cancel the drift but not a change to
chaosdet.

With ``--trace 0`` the run measures, with tracing off:

  setup_s          median over 7 fresh processes of the time to import
                   chaosdet and load one request's inputs
  request_ref.p50  median wall time of one request, in probe times
  peak_rss_mb      peak resident memory of this process
  work_per_ref     median per-request rate of the workload's unit of
                   work, per probe time: Monte Carlo samples at
                   --workers 1 (mc-past-guard), identity checks
                   (verify-grid), requests (the others)

The result file also holds the raw figures in seconds (request_s.p50,
work_per_s, probe_s.p50).

With ``--trace 1`` the first half of the time runs untraced and the
second half traced (tracing.py), and the run reports the per-layer
metrics: calls, self time and sizes per layer function, per request;
workload rates that only apply to one workload (mc.*, verify.*) and the
raw request_s.p50 and probe_s.p50, read from the untraced half; and
trace.overhead_frac, the traced over the untraced request_ref.p50,
minus 1.  A metric of a layer that does not run on the workload, or of a
function that no longer exists, reads 0; the result file lists absent
functions by name.

The last line of stdout is the result: correct, attempted, failed and
the metrics.  A full record with provenance goes to
perfbench/out/BENCH_<workload>-seed<N>-trace<T>.json, and the spans of a
traced run to perfbench/out/spans-<workload>.json.  ``--smoke`` shrinks
every workload so that a run finishes in seconds.
"""
from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import workloads  # noqa: E402  (standard library only at import time)

SETUP_RUNS = 7
P90_MIN_SAMPLES = 100
# share of each request's time spent on reference probes after it
PROBE_SHARE = 0.1

END_TO_END = ("setup_s", "request_ref.p50", "peak_rss_mb", "work_per_ref")
# read from the untraced half of a traced run
UNTRACED_FIGURES = ("mc.samples_per_s", "mc.samples_per_s_2w", "mc.time_to_1pct_s",
                  "verify.checks_per_s", "request_s.p50", "probe_s.p50")
# per-layer metrics read from the trace: (span name, fields reported as <span>.<field>)
LAYER_FIELDS = (
    ("tensors.contract", ("calls", "self_s", "nnz_out")),
    ("tensors.symmetrize", ("calls", "self_s", "nnz_out")),
    ("tensors.inner", ("calls", "self_s")),
    ("tensors.norm_sq", ("calls", "self_s")),
    ("tensors.construct", ("calls", "self_s")),
    ("tensors.load_tensor", ("self_s",)),
    ("cli.main", ("self_s",)),
    ("malliavin.term_T_k", ("calls", "self_s", "useful_ratio")),
    ("malliavin.contraction_norms_sq", ("calls", "useful_ratio")),
    ("malliavin.build_report", ("self_s",)),
    ("malliavin.density_verdict", ("self_s",)),
    ("verify.oracle_edet", ("calls", "self_s")),
    ("chaos.product", ("calls", "self_s", "nnz_out")),
    ("chaos.eval_integral", ("calls", "self_s")),
    ("verify.run_suite", ("self_s",)),
    ("kernels.eval_many", ("calls", "self_s", "monomial_terms", "flops_computed",
                           "bytes_computed")),
    ("kernels.hermite_table", ("calls", "self_s")),
    ("montecarlo.estimate_edet", ("self_s",)),
)


def import_chaosdet():
    """Import chaosdet from this checkout's src/, or stop without a result."""
    if not os.path.isfile(os.path.join(SRC, "chaosdet", "__init__.py")):
        raise SystemExit(f"perfbench: no chaosdet sources under {SRC}")
    sys.path.insert(0, SRC)
    import chaosdet

    if not os.path.abspath(chaosdet.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: imported chaosdet from {chaosdet.__file__}, not {SRC}")
    return chaosdet


# ----------------------------------------------------------------------
# provenance


def _git_sha() -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _src_digest() -> str:
    """sha256 over src/chaosdet, for checkouts that are not git repositories."""
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "chaosdet", "**", "*"), recursive=True)):
        if os.path.isfile(path) and "__pycache__" not in path:
            digest.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def _blas_threads():
    """OpenBLAS thread count of numpy's bundled BLAS, if it can be read."""
    import ctypes

    import numpy as np

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")


def provenance(chaosdet, seed: int) -> dict:
    import numpy as np

    return {
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "chaosdet_version": getattr(chaosdet, "__version__", "absent"),
        "kernel_backend": getattr(chaosdet, "KERNEL_BACKEND", "absent"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_threads": _blas_threads(),
        "platform": platform.platform(),
        "workload_seed": seed,
    }


# ----------------------------------------------------------------------
# measuring


def reference_probe() -> float:
    """Seconds for one fixed piece of benchmark-owned work, about 50 ms.

    Interpreted loop of in-place arithmetic on 4096-element float arrays,
    the size of a Monte Carlo chunk.  It never calls chaosdet, so a change
    to the program cannot move it: it tracks how fast the host runs at
    the moment.  On a shared 2-core VM it tracked the drift of both the
    Monte Carlo and the pure-Python exact routes better than a
    pure-Python dict loop did.
    """
    import numpy as np

    x = np.linspace(-1.0, 1.0, 4096)
    start = time.perf_counter()
    acc = x.copy()
    for _ in range(12_000):
        acc *= x
        acc += x
    return time.perf_counter() - start


def time_setup(workload, spec: dict) -> float:
    """Time, inside this fresh process, importing chaosdet and loading inputs."""
    start = time.perf_counter()
    import_chaosdet()
    workload.load(spec)
    return time.perf_counter() - start


def measure_setup(name: str, spec: dict, seed: int, smoke: bool, n: int) -> list[float]:
    times = []
    for _ in range(n):
        argv = [sys.executable, os.path.join(HERE, "run.py"), "--setup-only", name,
                "--input", json.dumps(spec), "--seed", str(seed)]
        if smoke:
            argv.append("--smoke")
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"setup measurement failed: {done.stderr.strip()}")
        times.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def run_requests(workload, budget_s: float, first_index: int, tracer=None) -> list[dict]:
    """Closed loop: one request at a time until the budget is spent (at least one)."""
    records = []
    deadline = time.perf_counter() + budget_s
    index = first_index
    while not records or time.perf_counter() < deadline:
        spec = workload.prepare(index)
        inputs = workload.load(spec)
        if tracer is not None:
            tracer.begin_request(index)
        start = time.perf_counter()
        try:
            out = workload.request(spec, inputs)
            error = None
        except Exception:  # a crashing request counts as failed, the run goes on
            out, error = None, traceback.format_exc()
        seconds = time.perf_counter() - start
        if tracer is not None:
            tracer.end_request()
        problems = [error] if error else workload.check(spec, out)
        record = {"index": index, "seconds": seconds, "problems": problems}
        if not problems:
            record["measures"] = workload.measures(spec, out, seconds)
        probes = [reference_probe()]
        while sum(probes) < PROBE_SHARE * seconds:
            probes.append(reference_probe())
        record["probes"] = probes
        records.append(record)
        index += 1
    return records


def summarize(records: list[dict]) -> dict:
    """End-to-end figures of a list of request records."""
    seconds = [r["seconds"] for r in records]
    failed = sum(1 for r in records if r["problems"])
    probe = statistics.median(p for r in records for p in r["probes"])
    out = {
        "requests": len(records),
        "failed": failed,
        "failed_frac": failed / len(records),
        "probes": sum(len(r["probes"]) for r in records),
        "probe_s.p50": probe,
        "request_s.p50": statistics.median(seconds),
    }
    if len(seconds) >= P90_MIN_SAMPLES:
        out["request_s.p90"] = statistics.quantiles(seconds, n=10)[-1]
    keys = sorted({k for r in records for k in r.get("measures", {})})
    for key in keys:
        values = [r["measures"][key] for r in records if key in r.get("measures", {})]
        out[key] = statistics.median(values)
    out["request_ref.p50"] = out["request_s.p50"] / probe
    if "work_per_s" in out:
        out["work_per_ref"] = out["work_per_s"] * probe
    return out


def layer_metrics(tracer, n_requests: int, untraced: dict, traced: dict) -> dict:
    """Every per-layer metric, 0 where the layer did not run."""
    summary = tracer.layer_summary(n_requests)
    values = {}
    for span, fields in LAYER_FIELDS:
        for field in fields:
            if field in ("calls", "self_s"):
                value = summary.get(span, {}).get(field, 0.0)
            elif field == "useful_ratio":
                value = tracer.useful_ratio(span)
            else:
                value = tracer.counters.get(f"{span}.{field}", 0.0) / n_requests
            values[f"{span}.{field}"] = value
    values["montecarlo.chunks"] = tracer.counters.get("montecarlo.chunks", 0.0) / n_requests
    values["montecarlo.parallel_overlap"] = tracer.parallel_overlap()
    values["trace.overhead_frac"] = traced["request_ref.p50"] / untraced["request_ref.p50"] - 1.0
    for key in UNTRACED_FIGURES:
        values[key] = untraced.get(key, 0.0)
    values["failed_frac"] = (untraced["failed"] + traced["failed"]) / (
        untraced["requests"] + traced["requests"])
    return values


UNITS = {"calls": "count", "self_s": "s", "nnz_out": "count", "useful_ratio": "ratio",
         "monomial_terms": "count", "flops_computed": "flop", "bytes_computed": "B",
         "chunks": "count", "parallel_overlap": "ratio", "overhead_frac": "ratio",
         "samples_per_s": "1/s", "samples_per_s_2w": "1/s", "time_to_1pct_s": "s",
         "checks_per_s": "1/s", "failed_frac": "ratio", "setup_s": "s", "p50": "s",
         "peak_rss_mb": "MB", "work_per_ref": "1/ref"}


def unit_of(metric: str) -> str:
    if metric.startswith("request_ref."):
        return "ref"
    return UNITS[metric.rsplit(".", 1)[-1]]



# ----------------------------------------------------------------------
# entry point


def parse_args(argv):
    parser = argparse.ArgumentParser(description="chaosdet benchmark")
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="shrink every workload so a run takes seconds")
    parser.add_argument("--setup-only", choices=sorted(workloads.WORKLOADS),
                        help=argparse.SUPPRESS, dest="setup_only")
    parser.add_argument("--input", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_only is None and args.workload is None:
        parser.error("--workload is required")
    return args


def run(args) -> dict:
    """One benchmark run; returns the result line as a dict."""
    chaosdet = import_chaosdet()
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"inputs-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir, smoke=args.smoke)
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "smoke": args.smoke,
                  "provenance": provenance(chaosdet, args.seed)}
        if args.trace == 0:
            spec = workload.prepare(0)
            setup = measure_setup(args.workload, spec, args.seed, args.smoke,
                                  1 if args.smoke else SETUP_RUNS)
            records = run_requests(workload, args.seconds, first_index=0)
            figures = summarize(records)
            figures["setup_s"] = statistics.median(setup)
            figures["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics = {k: figures[k] for k in END_TO_END}
            record.update(setup_s_samples=setup, requests=records, end_to_end=figures)
        else:
            import tracing

            untraced_records = run_requests(workload, args.seconds / 2, first_index=0)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced_records = run_requests(workload, args.seconds / 2,
                                              first_index=len(untraced_records), tracer=tracer)
            finally:
                tracer.uninstall()
            untraced = summarize(untraced_records)
            traced = summarize(traced_records)
            metrics = layer_metrics(tracer, len(traced_records), untraced, traced)
            records = untraced_records + traced_records
            record.update(untraced=untraced, traced=traced, requests=records,
                          layers=tracer.layer_summary(len(traced_records)),
                          counters=dict(tracer.counters), absent=tracer.absent)
            with open(os.path.join(OUT, f"spans-{args.workload}.json"), "w") as fh:
                json.dump(tracer.dump(), fh)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = sum(1 for r in records if r["problems"])
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    record["result"] = result
    path = os.path.join(OUT, f"BENCH_{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    for r in records:
        for problem in r["problems"]:
            print(f"perfbench: request {r['index']}: {problem}", file=sys.stderr)
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_only is not None:
        workload = workloads.WORKLOADS[args.setup_only](args.seed, OUT, smoke=args.smoke)
        print(json.dumps({"setup_s": time_setup(workload, json.loads(args.input))}))
        return 0
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
