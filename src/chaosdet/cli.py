"""Command-line front end.

Subcommands: ``gen`` writes a random unit-norm tensor file, ``report``
computes every determinant route for a pair, ``verify`` runs the
identity-check suite (nonzero exit on any failure), ``mc`` runs the
Monte Carlo estimator alone and ``density`` emits the joint-density
verdict.  Output is structured JSON by default or CSV rows with
identical numeric values; every record echoes the configuration, the
seed and the library version.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from typing import Optional

from . import __version__
from .chaos import DEFAULT_CHUNK_SIZE, SEED_BOUND
from .malliavin import ChaosPair, OutsideDecidedRange, build_report, density_verdict
from .montecarlo import estimate_edet
from .tensors import load_tensor, random_unit_tensor, save_tensor
from .verify import GUARD_MAX_DIM, GUARD_MAX_ORDER, run_suite, suite_failed


def _flatten(prefix: str, value, rows: list[tuple[str, object]]) -> None:
    if isinstance(value, dict):
        for k, v in value.items():
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, rows)
    elif isinstance(value, (list, tuple)):
        for i, v in enumerate(value):
            _flatten(f"{prefix}[{i}]", v, rows)
    else:
        rows.append((prefix, value))


def _emit(record: dict, fmt: str, out: Optional[str]) -> None:
    if fmt == "csv":
        rows: list[tuple[str, object]] = []
        _flatten("", record, rows)
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["quantity", "value"])
        for key, value in rows:
            writer.writerow([key, value])
        text = buf.getvalue()
    else:
        text = json.dumps(record, indent=2) + "\n"
    _write(text, out)


def _write(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_pair(args) -> ChaosPair:
    if args.random:
        f = random_unit_tensor(args.seed * 1000 + 1, args.dim, args.n)
        g = random_unit_tensor(args.seed * 1000 + 2, args.dim, args.m)
        return ChaosPair(f, g)
    if not args.f or not args.g:
        raise ValueError("either two tensor files or --random with --dim/--n/--m")
    return ChaosPair(load_tensor(args.f), load_tensor(args.g))


def _config_echo(args, keys: list[str]) -> dict:
    return {key: getattr(args, key) for key in keys if hasattr(args, key)}


def cmd_gen(args) -> int:
    tensor = random_unit_tensor(args.seed, args.dim, args.order)
    save_tensor(tensor, args.out)
    return 0


def cmd_report(args) -> int:
    pair = _load_pair(args)
    report = build_report(
        pair,
        trials=args.trials,
        seed=args.seed,
        tol=args.tol,
        workers=args.workers,
        chunk_size=args.chunk_size,
        unsafe=args.unsafe,
    )
    record = {
        "command": "report",
        "version": __version__,
        "config": _config_echo(
            args, ["f", "g", "random", "dim", "n", "m", "seed", "trials", "tol",
                   "workers", "chunk_size", "unsafe"]
        ),
        "seed": args.seed,
        "dim": report.dim,
        "n": report.n,
        "m": report.m,
        "quantities": report.quantities(),
        "warnings": report.warnings,
    }
    _emit(record, args.format, args.out)
    return 0


def cmd_verify(args) -> int:
    if args.seeds < 1:
        # an empty grid would leave only the seed-free check and report success
        raise ValueError(f"--seeds must be >= 1, got {args.seeds}")
    results = run_suite(seeds=range(args.seed, args.seed + args.seeds))
    failed = suite_failed(results)
    if args.format == "text":
        lines = [r.line() for r in results]
        summary = (
            f"{sum(r.passed for r in results)}/{len(results)} checks passed"
        )
        _write("\n".join(lines + [summary]) + "\n", args.out)
    else:
        record = {
            "command": "verify",
            "version": __version__,
            "config": _config_echo(args, ["seed", "seeds"]),
            "seed": args.seed,
            "checks": [vars(r) for r in results],
            "failed": failed,
        }
        _emit(record, args.format, args.out)
    return 1 if failed else 0


def cmd_mc(args) -> int:
    pair = _load_pair(args)
    est = estimate_edet(
        pair, args.trials, args.seed, workers=args.workers, chunk_size=args.chunk_size
    )
    record = {
        "command": "mc",
        "version": __version__,
        "config": _config_echo(
            args, ["f", "g", "random", "dim", "n", "m", "seed", "trials", "workers",
                   "chunk_size"]
        ),
        "seed": args.seed,
        "quantities": {
            "edet_mc_mean": est.mean,
            "edet_mc_stderr": est.stderr,
            "edet_mc_ci95": list(est.ci95),
            "n_samples": est.n_samples,
        },
    }
    _emit(record, args.format, args.out)
    return 0


def cmd_density(args) -> int:
    pair = _load_pair(args)
    warnings = []
    try:
        verdict = density_verdict(pair, tol=args.tol).value
    except OutsideDecidedRange as exc:
        # outside the decided range the only honest answer is Undecided
        verdict = "Undecided"
        warnings.append(str(exc))
    record = {
        "command": "density",
        "version": __version__,
        "config": _config_echo(args, ["f", "g", "random", "dim", "n", "m", "seed", "tol"]),
        "seed": args.seed,
        "quantities": {"verdict": verdict},
        "warnings": warnings,
    }
    _emit(record, args.format, args.out)
    return 0


def _add_pair_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("f", nargs="?", help="tensor file for the first component")
    parser.add_argument("g", nargs="?", help="tensor file for the second component")
    parser.add_argument("--random", action="store_true",
                        help="draw a random unit-norm pair instead of reading files")
    parser.add_argument("--dim", type=int, default=2, help="basis dimension (with --random)")
    parser.add_argument("--n", type=int, default=2, help="first order (with --random)")
    parser.add_argument("--m", type=int, default=2, help="second order (with --random)")


def _add_output_arguments(parser: argparse.ArgumentParser, formats=("structured", "csv")) -> None:
    parser.add_argument("--format", choices=formats, default=formats[0])
    parser.add_argument("--out", help="output path (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chaosdet",
        description="Determinant identities for pairs of multiple Wiener-Ito integrals",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="write a random unit-norm tensor file")
    p_gen.add_argument("--dim", type=int, required=True)
    p_gen.add_argument("--order", type=int, required=True)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=cmd_gen)

    p_rep = sub.add_parser("report", help="compute all determinant routes for a pair")
    _add_pair_arguments(p_rep)
    p_rep.add_argument("--seed", type=int, default=0)
    p_rep.add_argument("--trials", type=int, default=0,
                       help="Monte Carlo samples (0 disables the MC route)")
    p_rep.add_argument("--tol", type=float, default=1e-10)
    p_rep.add_argument("--workers", type=int, default=1)
    p_rep.add_argument("--chunk-size", type=int, default=DEFAULT_CHUNK_SIZE,
                       dest="chunk_size")
    p_rep.add_argument("--unsafe", action="store_true",
                       help=f"lift the exact-route guard (dim <= {GUARD_MAX_DIM}, "
                            f"orders <= {GUARD_MAX_ORDER})")
    _add_output_arguments(p_rep)
    p_rep.set_defaults(func=cmd_report)

    p_ver = sub.add_parser("verify", help="run the identity-check suite")
    p_ver.add_argument("--seed", type=int, default=0, help="first seed of the run")
    p_ver.add_argument("--seeds", type=int, default=10, help="number of seeds")
    _add_output_arguments(p_ver, formats=("text", "structured", "csv"))
    p_ver.set_defaults(func=cmd_verify)

    p_mc = sub.add_parser("mc", help="Monte Carlo estimate of E det L")
    _add_pair_arguments(p_mc)
    p_mc.add_argument("--seed", type=int, default=0)
    p_mc.add_argument("--trials", type=int, required=True)
    p_mc.add_argument("--workers", type=int, default=1)
    p_mc.add_argument("--chunk-size", type=int, default=DEFAULT_CHUNK_SIZE,
                      dest="chunk_size")
    _add_output_arguments(p_mc)
    p_mc.set_defaults(func=cmd_mc)

    p_den = sub.add_parser("density", help="joint-density verdict for a pair")
    _add_pair_arguments(p_den)
    p_den.add_argument("--seed", type=int, default=0)
    p_den.add_argument("--tol", type=float, default=1e-10)
    _add_output_arguments(p_den)
    p_den.set_defaults(func=cmd_density)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # numpy's own errors would name neither the option nor the value
        if args.seed < 0:
            raise ValueError(f"--seed must be >= 0, got {args.seed}")
        if args.seed >= SEED_BOUND:
            raise ValueError(f"--seed must be < 2**64, got {args.seed}")
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
