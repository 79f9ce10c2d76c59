"""Command-line surface: generate, fit, evaluate, check, oracle, bench."""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys

import numpy as np

from . import fixedpoint
from .evaluate import cost
from .l0fit import SketchBudgetError, fit_l0
from .linf import fit_linf_exact, fit_linf_min_decrement
from .oracles import (
    MAX_N_L0,
    OracleUnavailable,
    brute_correlation,
    brute_l0_ultra,
    brute_l1_ultra,
    minimax_cert,
)
from .sketches import SketchConfig
from .streams import (
    ConfigError,
    GeneratorSpec,
    ParseError,
    StreamIntegrityError,
    StreamSource,
    generate,
)
from .treefit import fit_l0_tree, fit_linf_tree
from .trees import (
    DomainError,
    TreeMetricRep,
    UltrametricTree,
    four_point_check,
    is_ultrametric,
)

REPORT_SCHEMA = 1

USAGE_EXIT = 2
INTEGRITY_EXIT = 3
BUDGET_EXIT = 4


class UsageError(ValueError):
    pass


class PassBudgetError(RuntimeError):
    """A fitter read more passes over its stream than its budget."""


def _write(path, text):
    """Write every output file the same way: ASCII with newline line ends."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(text)


def _emit(doc, path):
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if path:
        _write(path, text)
    else:
        sys.stdout.write(text)


def _load_tree(path):
    with open(path, "r", encoding="ascii") as fh:
        text = fh.read()
    if '"pivot"' in text:
        return TreeMetricRep.from_json(text)
    return UltrametricTree.from_json(text)


def _cost_doc(report):
    return {
        "l0": report.l0,
        "l1": fixedpoint.to_decimal(report.l1),
        "linf": fixedpoint.to_decimal(report.linf),
        "gap_delta": fixedpoint.to_decimal(report.gap_delta),
        "gap_Delta": fixedpoint.to_decimal(report.gap_Delta),
    }


def _check_seed(args, runs=1):
    # fit and bench key Philox with the seed of every run, which from 2^63
    # is rounded through a float and from 2^64 overflows; gen keeps to the
    # same range, so a stream's seed can also order its fit
    if not 0 <= args.seed <= 2**63 - runs:
        raise UsageError(f"--seed must be in 0..{2**63 - runs}")


def cmd_gen(args):
    _check_seed(args)
    alphabet = None
    if args.alphabet:
        try:
            alphabet = [fixedpoint.from_decimal(v) for v in args.alphabet.split(",")]
        except fixedpoint.FixedPointError as exc:
            raise ConfigError(f"--alphabet: {exc}") from exc
    spec = GeneratorSpec(
        kind=args.kind,
        n=args.n,
        seed=args.seed,
        noise_k=args.noise_k,
        value_alphabet=alphabet,
    )
    source, truth = generate(spec)
    source.write_file(args.out)
    if args.truth_out and truth is not None:
        _write(args.truth_out, truth.to_json() + "\n")
    _emit(
        {
            "schema": REPORT_SCHEMA,
            "command": "gen",
            "spec": json.loads(spec.to_json()),
            "entries": len(source),
            "out": args.out,
        },
        args.report,
    )
    return 0


def _validate_fit(args):
    _check_seed(args, args.runs)
    if args.structure == "ultrametric":
        if args.objective == "linf" and args.passes not in (1, 2):
            raise UsageError("linf ultrametric fitting needs 1 or 2 passes")
        if args.objective == "l0" and args.passes != 1:
            raise UsageError("l0 ultrametric fitting is single-pass")
    else:
        if args.passes != 2:
            raise UsageError("tree fitting needs exactly 2 passes")
    if args.instances < 0:
        raise UsageError("--instances must be >= 0")
    if args.objective == "linf" and args.mode != "exact":
        raise UsageError("--mode applies to l0 fitting only")
    if args.instances and args.mode != "sketch":
        raise UsageError("--instances applies to sketch-mode l0 fitting only")
    if args.pivot is not None and (args.structure, args.objective) != ("tree", "linf"):
        raise UsageError("--pivot applies to linf tree fitting only")


def _run_fit(args, source, seed):
    """Run the fit that validated `args` select on `source`; returns the
    fitted tree and the fields it adds to a fit report."""
    pivot = 0 if args.pivot is None else args.pivot
    if args.structure == "tree" and args.objective == "linf":
        if not 0 <= pivot < source.n:
            raise UsageError(f"--pivot {pivot} is outside 0..{source.n - 1}")
    config = None
    if args.mode == "sketch":
        overrides = {"instance_count": args.instances} if args.instances else {}
        config = SketchConfig.scaled(source.n, seed=seed, **overrides)
    fields = {}
    if args.structure == "ultrametric":
        if args.objective == "linf":
            if args.passes == 1:
                fitted = fit_linf_min_decrement(source)
            else:
                result = fit_linf_exact(source)
                fitted = result.tree
                fields["optimal_cost"] = fixedpoint.to_decimal(result.optimal_cost)
                fields["certificate_pair"] = list(result.certificate_pair or ())
        else:
            result = fit_l0(source, config=config)
            fitted = result.tree
            fields["recursion_calls"] = result.report.recursion_calls
            fields["max_participation"] = result.report.max_participation
            fields["instances_consumed"] = result.report.instances_consumed
            fields["peak_words"] = result.report.peak_words
    elif args.objective == "linf":
        fitted = fit_linf_tree(source, pivot=pivot)
        fields["pivot"] = pivot
    else:
        result = fit_l0_tree(source, config=config, seed=seed)
        fitted = result.rep
        fields["pivots"] = list(result.pivots)
        fields["chosen_pivot"] = result.rep.pivot
    # `_validate_fit` pinned --passes to the budget: linf 1 or 2, l0 1, tree 2
    fields["passes"] = source.passes_read
    if fields["passes"] > args.passes:
        raise PassBudgetError(
            f"the fit read {fields['passes']} passes, over its budget of "
            f"{args.passes}"
        )
    return fitted, fields


def cmd_fit(args):
    _validate_fit(args)
    source = StreamSource.from_file(args.input, order_seed=args.seed)
    fitted, fields = _run_fit(args, source, args.seed)
    if args.out_tree:
        _write(args.out_tree, fitted.to_json() + "\n")
    if args.out_newick:
        base = fitted.base if isinstance(fitted, TreeMetricRep) else fitted
        _write(args.out_newick, base.to_newick() + "\n")
    doc = {
        "schema": REPORT_SCHEMA,
        "command": "fit",
        "structure": args.structure,
        "objective": args.objective,
        "seed": args.seed,
        "mode": args.mode,
        "n": source.n,
        **fields,
        "cost": _cost_doc(cost(fitted, source)),
    }
    _emit(doc, args.report)
    return 0


def cmd_cost(args):
    source = StreamSource.from_file(args.input)
    tree = _load_tree(args.tree)
    report = cost(tree, source)
    doc = {"schema": REPORT_SCHEMA, "command": "cost", "cost": _cost_doc(report)}
    if args.p:
        picked = {"0": report.l0, "1": report.l1, "inf": report.linf}[args.p]
        doc["p"] = args.p
        doc["value"] = picked if args.p == "0" else fixedpoint.to_decimal(picked)
    _emit(doc, args.report)
    return 0


def cmd_check(args):
    source = StreamSource.from_file(args.input)
    matrix = source.dense()
    doc = {
        "schema": REPORT_SCHEMA,
        "command": "check",
        "n": source.n,
        "ultrametric": bool(is_ultrametric(matrix)),
        "four_point": bool(four_point_check(matrix)),
    }
    _emit(doc, args.report)
    return 0


def cmd_oracle(args):
    source = StreamSource.from_file(args.input)
    matrix = source.dense()
    doc = {"schema": REPORT_SCHEMA, "command": "oracle", "which": args.which}
    try:
        if args.which == "l0":
            value, _ = brute_l0_ultra(matrix, args.time_cap)
            doc["value"] = value
        elif args.which == "l1":
            value, _ = brute_l1_ultra(matrix, args.time_cap)
            doc["value"] = fixedpoint.to_decimal(value)
        elif args.which == "correlation":
            doc["value"] = brute_correlation(matrix)
        else:
            _, bound = minimax_cert(matrix)
            doc["value"] = fixedpoint.to_decimal(bound)
    except OracleUnavailable as exc:
        doc["unavailable"] = str(exc)
    _emit(doc, args.report)
    return 0


BENCH_COLUMNS = [
    "kind",
    "n",
    "seed",
    "structure",
    "objective",
    "mode",
    "passes",
    "cost_l0",
    "cost_l1",
    "cost_linf",
    "oracle_l0",
    "ratio_l0",
    "peak_words",
]


def cmd_bench(args):
    if args.passes is None:
        args.passes = 2 if args.objective == "linf" else 1
    _validate_fit(args)
    if args.runs < 1:
        raise UsageError("--runs must be >= 1")
    rows = []
    for seed in range(args.seed, args.seed + args.runs):
        spec = GeneratorSpec(
            kind=args.kind, n=args.n, seed=seed, noise_k=args.noise_k
        )
        source, _ = generate(spec)
        fitted, fields = _run_fit(args, source, seed)
        report = cost(fitted, source)
        oracle_l0 = ""
        ratio = ""
        if args.objective == "l0" and source.n <= MAX_N_L0:
            try:
                opt, _ = brute_l0_ultra(source.dense())
                oracle_l0 = opt
                if opt:
                    ratio = f"{report.l0 / opt:.4f}"
                elif report.l0 == 0:
                    ratio = "1.0000"
            except OracleUnavailable:
                pass
        rows.append(
            {
                "kind": args.kind,
                "n": source.n,
                "seed": seed,
                "structure": args.structure,
                "objective": args.objective,
                "mode": args.mode if args.objective == "l0" else "",
                # counted before the oracle's own read of the stream
                "passes": fields["passes"],
                "cost_l0": report.l0,
                "cost_l1": fixedpoint.to_decimal(report.l1),
                "cost_linf": fixedpoint.to_decimal(report.linf),
                "oracle_l0": oracle_l0,
                "ratio_l0": ratio,
                "peak_words": fields.get("peak_words", 0),
            }
        )
    out = open(args.out, "w", encoding="ascii", newline="") if args.out else sys.stdout
    try:
        writer = csv.DictWriter(out, fieldnames=BENCH_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
    finally:
        if args.out:
            out.close()
    return 0


# parsing leaves the parser as it was, so one process builds it once
@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="streamfit", description="Fit ultrametrics and tree metrics to streams"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic instance")
    p.add_argument("--kind", required=True, choices=list(GeneratorSpec.KINDS))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise-k", type=int, default=0)
    p.add_argument("--alphabet", default=None, help="comma-separated decimals")
    p.add_argument("--out", required=True)
    p.add_argument("--truth-out", default=None)
    p.add_argument("--report", default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("fit", help="fit a tree to a stream")
    p.add_argument("--input", required=True)
    p.add_argument("--structure", choices=["ultrametric", "tree"], required=True)
    p.add_argument("--objective", choices=["l0", "linf"], required=True)
    p.add_argument("--passes", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=["exact", "sketch"], default="exact")
    p.add_argument("--pivot", type=int, default=None)
    p.add_argument("--instances", type=int, default=0)
    p.add_argument("--out-tree", default=None)
    p.add_argument("--out-newick", default=None)
    p.add_argument("--report", default=None)
    # `_validate_fit` checks the seed of every run, and a fit is one run
    p.set_defaults(func=cmd_fit, runs=1)

    p = sub.add_parser("cost", help="evaluate a stored tree against a stream")
    p.add_argument("--input", required=True)
    p.add_argument("--tree", required=True)
    p.add_argument("--p", choices=["0", "1", "inf"], default=None)
    p.add_argument("--report", default=None)
    p.set_defaults(func=cmd_cost)

    p = sub.add_parser("check", help="validate ultrametric / four-point conditions")
    p.add_argument("--input", required=True)
    p.add_argument("--report", default=None)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("oracle", help="desk-scale brute-force references")
    p.add_argument("--input", required=True)
    p.add_argument(
        "--which", choices=["l0", "l1", "correlation", "minimax"], required=True
    )
    p.add_argument("--time-cap", type=float, default=60.0)
    p.add_argument("--report", default=None)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("bench", help="batch runs emitting a CSV")
    p.add_argument("--kind", required=True, choices=list(GeneratorSpec.KINDS))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--runs", type=int, default=1)
    p.add_argument("--noise-k", type=int, default=0)
    p.add_argument("--objective", choices=["l0", "linf"], default="l0")
    p.add_argument("--mode", choices=["exact", "sketch"], default="exact")
    p.add_argument(
        "--passes", type=int, default=None, help="linf: 1 or 2 (default 2); l0: 1"
    )
    p.add_argument("--out", default=None)
    # bench fits ultrametrics with the fit defaults for the flags it lacks
    p.set_defaults(func=cmd_bench, structure="ultrametric", pivot=None, instances=0)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except (ParseError, StreamIntegrityError, ConfigError, DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INTEGRITY_EXIT
    except (SketchBudgetError, PassBudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return BUDGET_EXIT


if __name__ == "__main__":
    sys.exit(main())
