"""The four benchmark workloads.

A workload turns (workload seed, request index) into one request's
input, runs the request through a public chaosdet entry point and
checks its output.  Every request gets a distinct input, so a cache
shared across requests cannot help.

    prepare(i) -> spec      untimed; JSON-able; may write input files
    load(spec) -> inputs    what the setup measurement times after the import
    request(spec, inputs)   timed; returns the raw output
    check(spec, out)        untimed; list of problems, empty if correct
    measures(spec, out, s)  per-request numbers besides the wall time

This module imports nothing but the standard library at import time, so
the setup measurement can take its start time before chaosdet is imported.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import time

import checks


def _seeds(seed: int, index: int, count: int) -> list[int]:
    """Distinct-looking input seeds for request ``index`` of a run."""
    import numpy as np

    rng = np.random.default_rng([seed, index])
    return [int(x) for x in rng.integers(0, 2**31, size=count)]


def _cli(argv: list[str]) -> tuple[int, str]:
    """Run ``chaosdet.cli.main`` and capture its exit status and stdout."""
    from chaosdet import cli

    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    return rc, buf.getvalue()


class _PairFiles:
    """Shared part of the workloads that pass a pair to the CLI as two files."""

    name = ""

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def _save_pair(self, index: int, f, g) -> dict:
        from chaosdet.tensors import save_tensor

        spec = {"f": os.path.join(self.workdir, f"{self.name}-{index}-f.json"),
                "g": os.path.join(self.workdir, f"{self.name}-{index}-g.json")}
        save_tensor(f, spec["f"])
        save_tensor(g, spec["g"])
        return spec

    def load(self, spec: dict):
        from chaosdet.tensors import load_tensor

        return load_tensor(spec["f"]), load_tensor(spec["g"])


class ReportGuardEdge(_PairFiles):
    """`chaosdet report f.json g.json` at the exact-route guard edge, no MC."""

    name = "report-guard-edge"

    def __init__(self, seed: int, workdir: str, smoke: bool = False):
        super().__init__(seed, workdir)
        self.dim, self.n, self.m = (3, 3, 3) if smoke else (5, 4, 4)

    def prepare(self, index: int) -> dict:
        from chaosdet.tensors import random_unit_tensor

        sf, sg = _seeds(self.seed, index, 2)
        return self._save_pair(index, random_unit_tensor(sf, self.dim, self.n),
                               random_unit_tensor(sg, self.dim, self.m))

    def request(self, spec: dict, inputs) -> tuple[int, str]:
        return _cli(["report", spec["f"], spec["g"]])

    def check(self, spec: dict, out) -> list[str]:
        from chaosdet import verify

        return checks.check_report(*out, tol=verify.TOL_EXPECTATION)

    def measures(self, spec: dict, out, seconds: float) -> dict:
        return {"work_per_s": 1.0 / seconds}


def signed_permutation(t, perm, signs):
    """The tensor t after the basis map e_i -> signs[i] e_{perm[i]}.

    The map is orthogonal, and the law of the Gaussian coordinates is
    invariant under it, so E det L of a pair is unchanged when both
    tensors go through the same map.
    """
    from chaosdet.tensors import SymTensor

    data = {}
    for occ, value in t.items():
        image = [0] * t.dim
        odd = 0
        for i, a in enumerate(occ):
            image[perm[i]] = a
            odd += a if signs[i] < 0 else 0
        data[tuple(image)] = -value if odd % 2 else value
    return SymTensor(t.dim, t.order, data)


class McPastGuard(_PairFiles):
    """`chaosdet mc` past the guard, at --workers 1 and then --workers 2.

    The exact reference costs about as much as the Monte Carlo run, so it
    is computed once per run for a base pair drawn from the workload
    seed; request i runs on that pair under a random signed permutation
    of the basis, which gives a distinct input with the same E det L.
    """

    name = "mc-past-guard"

    def __init__(self, seed: int, workdir: str, smoke: bool = False):
        super().__init__(seed, workdir)
        self.dim, self.n, self.m = (3, 3, 3) if smoke else (6, 4, 4)
        self.trials = 8192 if smoke else 100_000
        self._base = None

    def base_pair(self):
        """(f, g, edet_closed) of the base pair, computed untimed on first use."""
        if self._base is None:
            import numpy as np
            from chaosdet.malliavin import ChaosPair, edet_closed
            from chaosdet.tensors import random_unit_tensor

            sf, sg = (int(x) for x in np.random.default_rng(self.seed).integers(0, 2**31, size=2))
            f = random_unit_tensor(sf, self.dim, self.n)
            g = random_unit_tensor(sg, self.dim, self.m)
            self._base = (f, g, float(edet_closed(ChaosPair(f, g))))
        return self._base

    def prepare(self, index: int) -> dict:
        import numpy as np

        f, g, reference = self.base_pair()
        rng = np.random.default_rng([self.seed, index])
        perm = [int(p) for p in rng.permutation(self.dim)]
        signs = [int(s) for s in rng.choice((-1, 1), size=self.dim)]
        spec = self._save_pair(index, signed_permutation(f, perm, signs),
                               signed_permutation(g, perm, signs))
        spec["mc_seed"] = int(rng.integers(0, 2**31))
        spec["reference"] = reference
        return spec

    def request(self, spec: dict, inputs) -> dict:
        argv = ["mc", spec["f"], spec["g"], "--trials", str(self.trials),
                "--seed", str(spec["mc_seed"])]
        t0 = time.perf_counter()
        rc1, out1 = _cli(argv + ["--workers", "1"])
        t1 = time.perf_counter()
        rc2, out2 = _cli(argv + ["--workers", "2"])
        t2 = time.perf_counter()
        return {"rc": (rc1, rc2), "stdout": (out1, out2), "seconds": (t1 - t0, t2 - t1)}

    def check(self, spec: dict, out) -> list[str]:
        return checks.check_mc(out["rc"], out["stdout"], spec["reference"], self.trials)

    def measures(self, spec: dict, out, seconds: float) -> dict:
        t1, t2 = out["seconds"]
        q = json.loads(out["stdout"][0])["quantities"]
        rel = q["edet_mc_stderr"] / abs(q["edet_mc_mean"])
        return {
            "work_per_s": self.trials / t1,
            "mc.samples_per_s": self.trials / t1,
            "mc.samples_per_s_2w": self.trials / t2,
            "mc.time_to_1pct_s": t1 * (rel / 0.01) ** 2,
        }


class VerifyGrid:
    """`chaosdet verify --seeds 1 --seed s` over the default grid."""

    name = "verify-grid"

    def __init__(self, seed: int, workdir: str, smoke: bool = False):
        self.seed = seed

    def prepare(self, index: int) -> dict:
        (suite_seed,) = _seeds(self.seed, index, 1)
        return {"suite_seed": suite_seed}

    def load(self, spec: dict):
        from chaosdet import cli

        return cli.build_parser().parse_args(self._argv(spec))

    def _argv(self, spec: dict) -> list[str]:
        return ["verify", "--seeds", "1", "--seed", str(spec["suite_seed"]),
                "--format", "structured"]

    def request(self, spec: dict, inputs) -> tuple[int, str]:
        return _cli(self._argv(spec))

    def check(self, spec: dict, out) -> list[str]:
        return checks.check_verify(*out)

    def measures(self, spec: dict, out, seconds: float) -> dict:
        rate = checks.VERIFY_CHECKS_PER_SEED / seconds
        return {"work_per_s": rate, "verify.checks_per_s": rate}


class ExactTriangle:
    """Library routes in exact int/Fraction arithmetic on a mixed-order pair."""

    name = "exact-triangle"

    def __init__(self, seed: int, workdir: str, smoke: bool = False):
        self.seed = seed
        self.dim, self.n, self.m = (3, 3, 2) if smoke else (4, 4, 3)

    def prepare(self, index: int) -> dict:
        sf, sg = _seeds(self.seed, index, 2)
        return {"f_seed": sf, "g_seed": sg}

    def load(self, spec: dict):
        from chaosdet.tensors import random_sym_tensor

        return (random_sym_tensor(spec["f_seed"], self.dim, self.n, dist="int"),
                random_sym_tensor(spec["g_seed"], self.dim, self.m, dist="int"))

    def request(self, spec: dict, inputs) -> tuple:
        from chaosdet import malliavin, verify

        pair = malliavin.ChaosPair(*inputs)
        closed = malliavin.edet_closed(pair)
        theorem = malliavin.edet_theorem(pair)
        oracle = verify.oracle_edet(pair)
        _, det_c = malliavin.covariance(pair)
        return closed, theorem, oracle, det_c

    def check(self, spec: dict, out) -> list[str]:
        return checks.check_exact(*out)

    def measures(self, spec: dict, out, seconds: float) -> dict:
        return {"work_per_s": 1.0 / seconds}


WORKLOADS = {w.name: w for w in (ReportGuardEdge, McPastGuard, VerifyGrid, ExactTriangle)}
