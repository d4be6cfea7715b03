"""Span tracer that wraps chaosdet functions from outside the package.

Each traced function is replaced, for the length of the traced run, by
a wrapper that records a span (name, start, end, parent span, request)
in memory.  The wrapper is set wherever the calling module looks the
name up: every ``chaosdet`` module attribute bound to the original
function, or the class attribute for methods.  Nothing under ``src/``
changes.  A target that no longer exists is listed as absent.

``multiindex`` is not wrapped: its functions run once per coefficient,
so a wrapper would dominate their cost.  Their time stays in the self
time of the ``tensors`` spans that call them; ``chaos.hermite`` is left
unwrapped for the same reason.

Spans from worker threads take as parent the innermost open span of the
thread that installed the tracer, which is the call that started them.
A span's self time is its duration minus the union of its children's
intervals.  Spans of ``kernels.eval_many`` also record the thread's CPU
time: with worker threads, wall time inside the kernel includes waiting
for the interpreter lock, so only CPU time shows how much ran at once.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import math
import statistics
import sys
import threading
import time
from collections import defaultdict


def _count_nnz_out(tracer, name, index, call, result):
    tracer.add(f"{name}.nnz_out", len(result))


def _count_product_nnz(tracer, name, index, call, result):
    tracer.add(f"{name}.nnz_out", sum(len(t) for t in result.terms.values()))


def _count_pair_k(tracer, name, index, call, result):
    args = call.arguments
    tracer.distinct(name, args["pair"], args["k"])


def _count_pair(tracer, name, index, call, result):
    tracer.distinct(name, call.arguments["pair"], None)


def _count_eval_many(tracer, name, index, call, result):
    occ, samples = call.arguments["occ"], call.arguments["samples"]
    n_coeffs, (n_samples, dim) = occ.shape[0], samples.shape
    terms = n_coeffs * n_samples
    # Computed from the shapes, not measured: dim multiplies and one add
    # per monomial term, three flops per Hermite table entry past H_1;
    # bytes are the arrays read and the output written.
    max_order = int(occ.max()) if n_coeffs else 0
    flops = terms * (dim + 1) + 3 * max(0, max_order - 1) * n_samples * dim
    nbytes = occ.nbytes + call.arguments["weights"].nbytes + samples.nbytes + result.nbytes
    tracer.add(f"{name}.monomial_terms", terms)
    tracer.add(f"{name}.flops_computed", flops)
    tracer.add(f"{name}.bytes_computed", nbytes)


def _count_estimate(tracer, name, index, call, result):
    args = call.arguments
    tracer.add("montecarlo.chunks", math.ceil(args["n_samples"] / args["chunk_size"]))
    if args["workers"] > 1:
        tracer.parallel_spans.append(index)


# spans that also record thread CPU time
CPU_TIMED = frozenset({"kernels.eval_many"})

# (span name, module, attribute path, counter)
TARGETS = (
    ("cli.main", "chaosdet.cli", "main", None),
    ("malliavin.build_report", "chaosdet.malliavin", "build_report", None),
    ("malliavin.density_verdict", "chaosdet.malliavin", "density_verdict", None),
    ("malliavin.edet_closed", "chaosdet.malliavin", "edet_closed", None),
    ("malliavin.edet_theorem", "chaosdet.malliavin", "edet_theorem", None),
    ("malliavin.edet_same_chaos", "chaosdet.malliavin", "edet_same_chaos", None),
    ("malliavin.t0_contraction", "chaosdet.malliavin", "t0_contraction", None),
    ("malliavin.t_last_closed", "chaosdet.malliavin", "t_last_closed", None),
    ("malliavin.covariance", "chaosdet.malliavin", "covariance", None),
    ("malliavin.det_lambda_at", "chaosdet.malliavin", "det_lambda_at", None),
    ("malliavin.term_T_k", "chaosdet.malliavin", "term_T_k", _count_pair_k),
    ("malliavin.contraction_norms_sq", "chaosdet.malliavin", "contraction_norms_sq",
     _count_pair),
    ("verify.run_suite", "chaosdet.verify", "run_suite", None),
    ("verify.oracle_edet", "chaosdet.verify", "oracle_edet", None),
    ("chaos.product", "chaosdet.chaos", "product", _count_product_nnz),
    ("chaos.eval_integral", "chaosdet.chaos", "eval_integral", None),
    ("tensors.contract", "chaosdet.tensors", "contract", _count_nnz_out),
    ("tensors.symmetrize", "chaosdet.tensors", "symmetrize", _count_nnz_out),
    ("tensors.inner", "chaosdet.tensors", "inner", None),
    ("tensors.norm_sq", "chaosdet.tensors", "SymTensor.norm_sq", None),
    ("tensors.norm_sq", "chaosdet.tensors", "BiSymTensor.norm_sq", None),
    ("tensors.construct", "chaosdet.tensors", "SymTensor.__init__", None),
    ("tensors.construct", "chaosdet.tensors", "BiSymTensor.__init__", None),
    ("tensors.load_tensor", "chaosdet.tensors", "load_tensor", None),
    ("montecarlo.estimate_edet", "chaosdet.montecarlo", "estimate_edet", _count_estimate),
    # the _kernels layer is reported as "kernels": metric names start with a letter
    ("kernels.eval_many", "chaosdet._kernels", "eval_many", _count_eval_many),
    ("kernels.hermite_table", "chaosdet._kernels", "hermite_table", None),
)


def _resolve(module_name: str, path: str):
    """(owner, attribute, original) for a module function or a class method."""
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    if not callable(original):
        raise AttributeError(f"{module_name}.{path} is not callable")
    return owner, attr, original


class Tracer:
    """Records spans of the wrapped functions while a request is open."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list = []
        self.counters: dict[str, float] = defaultdict(float)
        self.parallel_spans: list[int] = []
        self.absent: list[str] = []
        self.request = None
        self._distinct: dict[str, set] = defaultdict(set)
        self._calls_distinct: dict[str, int] = defaultdict(int)
        self._keep: list = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # installing and removing the wrappers

    def install(self) -> None:
        self._local.stack = self._main
        for name, module_name, path, counter in self.targets:
            try:
                owner, attr, original = _resolve(module_name, path)
            except (ImportError, AttributeError, KeyError):
                self.absent.append(f"{module_name}.{path}")
                continue
            wrapper = self._wrap(name, original, counter)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            for mod_name, module in list(sys.modules.items()):
                if module is None or not (mod_name == "chaosdet" or mod_name.startswith("chaosdet.")):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn, counter):
        tracer = self
        spans = self.spans
        lock = self._lock
        signature = inspect.signature(fn) if counter is not None else None
        cpu_timed = name in CPU_TIMED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            request = tracer.request
            if request is None:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                main = tracer._main
                parent = main[-1] if main else None
            with lock:
                index = len(spans)
                spans.append(None)
            stack.append(index)
            cpu_start = time.thread_time() if cpu_timed else 0.0
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                cpu = time.thread_time() - cpu_start if cpu_timed else None
                stack.pop()
                spans[index] = (name, start, end, parent, request, cpu)
            if counter is not None:
                call = signature.bind(*args, **kwargs)
                call.apply_defaults()
                counter(tracer, name, index, call, result)
            return result

        return traced

    # ------------------------------------------------------------------
    # counters

    def begin_request(self, request) -> None:
        self._keep = []
        self.request = request

    def end_request(self) -> None:
        self.request = None

    def add(self, key: str, value: float) -> None:
        with self._lock:
            self.counters[key] += value

    def distinct(self, name: str, obj, detail) -> None:
        """Count a call on (obj, detail); the ratio is distinct keys over calls."""
        self._keep.append(obj)  # keeps id(obj) unique within the request
        self._distinct[name].add((self.request, id(obj), detail))
        self._calls_distinct[name] += 1

    def useful_ratio(self, name: str) -> float:
        calls = self._calls_distinct.get(name, 0)
        return len(self._distinct[name]) / calls if calls else 0.0

    # ------------------------------------------------------------------
    # aggregation

    def self_times(self) -> list[float]:
        """Self time of every span, indexed like ``spans``."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for name, start, end, parent, *_ in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        out = []
        for index, (name, start, end, *_) in enumerate(self.spans):
            covered = 0.0
            reach = start
            for c_start, c_end in sorted(children.get(index, ())):
                c_start, c_end = max(c_start, reach), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            out.append((end - start) - covered)
        return out

    def per_request(self) -> dict[str, dict[object, list[float]]]:
        """name -> request -> [calls, self seconds]."""
        table: dict[str, dict[object, list[float]]] = defaultdict(dict)
        for span, self_s in zip(self.spans, self.self_times()):
            entry = table[span[0]].setdefault(span[4], [0, 0.0])
            entry[0] += 1
            entry[1] += self_s
        return table

    def parallel_overlap(self) -> float:
        """eval_many CPU time over the wall time of multi-worker estimates."""
        wanted = set(self.parallel_spans)
        if not wanted:
            return 0.0
        busy = sum(
            cpu
            for name, start, end, parent, request, cpu in self.spans
            if name == "kernels.eval_many" and parent in wanted
        )
        wall = sum(self.spans[i][2] - self.spans[i][1] for i in wanted)
        return busy / wall if wall > 0 else 0.0

    def layer_summary(self, n_requests: int) -> dict[str, dict[str, float]]:
        """Per span name: calls per request and the median self time per request."""
        summary = {}
        for name, by_request in sorted(self.per_request().items()):
            calls = sum(c for c, _ in by_request.values())
            selfs = [s for _, s in by_request.values()]
            selfs += [0.0] * (n_requests - len(selfs))
            summary[name] = {
                "calls": calls / n_requests,
                "self_s": statistics.median(selfs),
            }
        return summary

    def dump(self) -> dict:
        """Spans in compact form, times relative to the first span."""
        names = sorted({s[0] for s in self.spans})
        code = {n: i for i, n in enumerate(names)}
        base = self.spans[0][1] if self.spans else 0.0
        return {
            "names": names,
            "columns": ["name", "start_s", "end_s", "parent", "request", "cpu_s"],
            "spans": [
                [code[name], start - base, end - base, parent, request, cpu]
                for name, start, end, parent, request, cpu in self.spans
            ],
        }
