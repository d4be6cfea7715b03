"""Smoke runs of every workload and every output check of the benchmark.

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""
from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import checks
import run
import tracing
import workloads

ROOT = run.ROOT
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _args(workload: str, trace: int) -> list[str]:
    return ["--workload", workload, "--seed", "3", "--seconds", "0",
            "--trace", str(trace), "--smoke"]


@pytest.fixture(autouse=True)
def _out_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", str(tmp_path))


def _smoke_output(workload_cls, tmp_path, index: int = 0):
    """(workload, spec, raw output) of one smoke-sized request."""
    run.import_chaosdet()
    workload = workload_cls(5, str(tmp_path), smoke=True)
    spec = workload.prepare(index)
    return workload, spec, workload.request(spec, workload.load(spec))


# ----------------------------------------------------------------------
# the benchmark definition


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_run_end_to_end(workload):
    result = run.run(run.parse_args(_args(workload, 0)))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_run_traced(workload):
    result = run.run(run.parse_args(_args(workload, 1)))
    assert result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if workload == "report-guard-edge":
        # smoke pair n = m = 3: t_terms 3, r_term 2 + 2, density_verdict 3
        assert values["malliavin.term_T_k.calls"] == 10
        assert values["malliavin.term_T_k.useful_ratio"] == 3 / 10
        assert values["malliavin.contraction_norms_sq.calls"] == 3
        assert values["malliavin.contraction_norms_sq.useful_ratio"] == 1 / 3
        assert values["verify.oracle_edet.calls"] == 1
        assert values["kernels.eval_many.calls"] == 0
    if workload == "mc-past-guard":
        # 8192 samples in 4096-sample chunks, at 1 and at 2 workers
        assert values["montecarlo.chunks"] == 4
        assert values["kernels.eval_many.calls"] == 4 * 2 * 3
        # 6 coefficients per order-2 slice at d = 3, 6 slices, 8192 samples, 2 passes
        assert values["kernels.eval_many.monomial_terms"] == 6 * 6 * 8192 * 2
        assert values["montecarlo.parallel_overlap"] > 0
        assert values["mc.samples_per_s_2w"] > 0
        assert values["tensors.contract.calls"] == 0
        assert values["chaos.product.calls"] == 0
    if workload == "verify-grid":
        assert values["chaos.eval_integral.calls"] > 0
        assert values["verify.run_suite.self_s"] > 0
        assert values["verify.checks_per_s"] > 0
    if workload == "exact-triangle":
        assert values["chaos.product.calls"] > 0
        assert values["verify.oracle_edet.calls"] == 1
        assert values["kernels.eval_many.calls"] == 0


def test_result_file_records_provenance(tmp_path):
    run.run(run.parse_args(_args("exact-triangle", 0)))
    with open(tmp_path / "BENCH_exact-triangle-seed3-trace0.json") as fh:
        record = json.load(fh)
    prov = record["provenance"]
    for key in ("git_sha", "src_sha256", "kernel_backend", "python", "numpy", "nproc",
                "blas_threads", "workload_seed"):
        assert key in prov
    assert prov["workload_seed"] == 3


def test_same_seed_same_inputs(tmp_path):
    run.import_chaosdet()
    a = workloads.ExactTriangle(7, str(tmp_path)).prepare(2)
    b = workloads.ExactTriangle(7, str(tmp_path)).prepare(2)
    c = workloads.ExactTriangle(7, str(tmp_path)).prepare(3)
    assert a == b and a != c


def test_signed_permutation_keeps_edet(tmp_path):
    run.import_chaosdet()
    from chaosdet.malliavin import ChaosPair, edet_closed

    workload = workloads.McPastGuard(4, str(tmp_path), smoke=True)
    f, g, reference = workload.base_pair()
    pairs = [workload.load(workload.prepare(index)) for index in range(4)]
    assert any(pair != (f, g) for pair in pairs)
    for pf, pg in pairs:
        assert edet_closed(ChaosPair(pf, pg)) == pytest.approx(reference, rel=1e-12)


# ----------------------------------------------------------------------
# each output check rejects a corrupted output


def _rewrite(stdout: str, edit) -> str:
    record = json.loads(stdout)
    edit(record)
    return json.dumps(record)


def test_report_check_rejects_corruption(tmp_path):
    workload, spec, (rc, stdout) = _smoke_output(workloads.ReportGuardEdge, tmp_path)
    tol = 1e-8
    assert checks.check_report(rc, stdout, tol) == []

    def scaled(key, factor):
        return lambda r: r["quantities"].__setitem__(key, r["quantities"][key] * factor)

    corruptions = {
        "oracle": scaled("edet_oracle", 1 + 1e-6),
        "theorem": scaled("edet_theorem", 1 - 1e-6),
        "same_chaos": scaled("same_chaos_R", 1.01),
        "negative T": lambda r: r["quantities"]["T"].__setitem__(1, -1e-3),
        "detC": lambda r: r["quantities"].__setitem__("detC", 0.0),
        "verdict": lambda r: r["quantities"].__setitem__("verdict", "Undecided"),
        "missing": lambda r: r["quantities"].pop("edet_oracle"),
    }
    for label, edit in corruptions.items():
        assert checks.check_report(rc, _rewrite(stdout, edit), tol), label
    assert checks.check_report(2, stdout, tol)
    assert checks.check_report(0, "not json", tol)


def test_mc_check_rejects_corruption(tmp_path):
    workload, spec, out = _smoke_output(workloads.McPastGuard, tmp_path)
    rcs, stdouts, ref = out["rc"], out["stdout"], spec["reference"]
    assert checks.check_mc(rcs, stdouts, ref, workload.trials) == []
    q = json.loads(stdouts[0])["quantities"]
    far = q["edet_mc_mean"] + 6 * q["edet_mc_stderr"]
    assert checks.check_mc(rcs, stdouts, far, workload.trials)
    one_ulp = _rewrite(stdouts[1], lambda r: r["quantities"].__setitem__(
        "edet_mc_mean", math.nextafter(r["quantities"]["edet_mc_mean"], math.inf)))
    assert checks.check_mc(rcs, (stdouts[0], one_ulp), ref, workload.trials)
    assert checks.check_mc(rcs, stdouts, ref, workload.trials + 1)
    assert checks.check_mc((0, 1), stdouts, ref, workload.trials)


def test_verify_check_rejects_corruption(tmp_path):
    workload, spec, (rc, stdout) = _smoke_output(workloads.VerifyGrid, tmp_path)
    assert checks.check_verify(rc, stdout) == []
    assert checks.check_verify(1, stdout)
    assert checks.check_verify(rc, _rewrite(stdout, lambda r: r.__setitem__("failed", True)))
    assert checks.check_verify(rc, _rewrite(stdout, lambda r: r["checks"].pop()))
    assert checks.check_verify(
        rc, _rewrite(stdout, lambda r: r["checks"][0].__setitem__("passed", False)))


def test_exact_check_rejects_corruption(tmp_path):
    workload, spec, (closed, theorem, oracle, det_c) = _smoke_output(
        workloads.ExactTriangle, tmp_path)
    assert not isinstance(closed, float)
    assert checks.check_exact(closed, theorem, oracle, det_c) == []
    assert checks.check_exact(closed, theorem, oracle + Fraction(1, 10**12), det_c)
    assert checks.check_exact(float(closed), float(theorem), float(oracle), det_c)
    assert checks.check_exact(closed, theorem, oracle, float(det_c))
    assert checks.check_exact(-closed, -theorem, -oracle, det_c)


# ----------------------------------------------------------------------
# tracer


def test_tracer_reports_absent_names_and_restores_originals():
    run.import_chaosdet()
    from chaosdet import malliavin, tensors

    original = tensors.contract
    tracer = tracing.Tracer(tracing.TARGETS + (
        ("kernels.gone", "chaosdet._kernels", "no_such_function", None),
        ("gone.module", "chaosdet.no_such_module", "f", None),
    ))
    tracer.install()
    try:
        assert tensors.contract is not original
        assert malliavin.contract is tensors.contract
    finally:
        tracer.uninstall()
    assert tensors.contract is original and malliavin.contract is original
    assert tracer.absent == ["chaosdet._kernels.no_such_function",
                             "chaosdet.no_such_module.f"]


def test_self_time_subtracts_union_of_children():
    tracer = tracing.Tracer(())
    tracer.spans = [
        ("parent", 0.0, 10.0, None, 0, None),
        ("child", 1.0, 3.0, 0, 0, None),
        ("child", 2.0, 5.0, 0, 0, None),  # overlaps the first child, as worker threads do
        ("child", 7.0, 8.0, 0, 0, None),
    ]
    assert tracer.self_times() == [5.0, 2.0, 3.0, 1.0]
    summary = tracer.layer_summary(1)
    assert summary["parent"] == {"calls": 1, "self_s": 5.0}
    assert summary["child"] == {"calls": 3, "self_s": 6.0}


# ----------------------------------------------------------------------
# without the program the benchmark fails without a result


def test_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact-triangle", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""
