"""Command-line front end.

Every subcommand emits one JSON run record (stdout or --out) and can
drop numeric CSV plot data via --plot-data.  Exit codes: 0 success,
2 argument error, 3 resource error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .arith import KINDS, dump_table, sieve
from .errors import ArgumentError, MspecError, ResourceError
from .group import CharacterIndex, GroupShape, parse_shape
from .spectral import (
    ap_l1_sum,
    char_l1_norm,
    correlation,
    dump_spectrum_csv,
    group_spectrum,
    interval_l1_sum,
    katai_witness,
    linf_bound_check,
)
from .alignment import (
    SubgroupSpec,
    alignment_full_group,
    alignment_gram_oracle,
    alignment_semidirect,
    alignment_subgroup,
)
from .primes import (
    count_primes_digit_condition,
    lambda_balanced_correlation,
    make_linear_map,
    parse_matrix,
)
from .learning import (
    FixedFeatureStrategy,
    NgdConfig,
    binary_mult_covariance,
    csq_bad_event_rate,
    ngd_experiment,
)

_FUNCTION_ALIASES = {
    "mobius": "mobius",
    "liouville": "liouville",
    "von-mangoldt": "von_mangoldt",
    "von_mangoldt": "von_mangoldt",
    "square-indicator": "square_indicator",
    "square_indicator": "square_indicator",
}


def _cnum(z) -> dict:
    return {"re": float(np.real(z)), "im": float(np.imag(z))}


def _function_values(name: str, X: int) -> np.ndarray:
    kind = _FUNCTION_ALIASES.get(name)
    if kind is None:
        raise ArgumentError(f"unknown function {name!r}; expected one of "
                            f"{sorted(_FUNCTION_ALIASES)}")
    return sieve(kind, X).values.astype(np.float64)


def _add_common(p: argparse.ArgumentParser, shape=True, function=True):
    if shape:
        p.add_argument("--shape", required=True,
                       help='group shape literal, e.g. "2^2*3^1"')
    if function:
        p.add_argument("--function", default="mobius",
                       choices=sorted(_FUNCTION_ALIASES),
                       help="arithmetic function table")
    p.add_argument("--seed", type=int, default=0, help="RNG seed (u64)")
    p.add_argument("--out", help="write the JSON run record here")
    p.add_argument("--plot-data", dest="plot_data", help="CSV output path")
    p.add_argument("--mem-cap", dest="mem_cap", type=int,
                   help="override the memory cap, in table entries")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _write_plot(path: str, header: list, rows: list) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(f"{v:.17g}" if isinstance(v, float) else str(v)
                              for v in row) + "\n")


# -- subcommand handlers: each returns (result_payload, plot) -------------


def _cmd_sieve(args):
    table = sieve(_FUNCTION_ALIASES[args.function], args.limit)
    values = table.values.astype(np.float64)
    if args.dump:
        dump_table(table, args.dump)
    result = {
        "limit": args.limit,
        "head": [float(v) for v in values[:16]],
        "sum": float(values.sum()),
        "dump": args.dump,
    }
    plot = (["n", "value"], [(n, float(values[n])) for n in range(args.limit)]) \
        if args.plot_data else None
    return result, plot


def _cmd_spectrum(args):
    shape = parse_shape(args.shape)
    values = _function_values(args.function, shape.X)
    spec = group_spectrum(values, shape)
    mags = np.abs(spec.coeffs)
    # the k largest magnitudes, ties to the smaller index, without sorting
    # all X: keep every entry at least the k-th largest, sort only those
    k = min(args.top, mags.size)
    kth = np.partition(mags, mags.size - k)[mags.size - k]
    candidates = np.flatnonzero(mags >= kth)
    order = candidates[np.argsort(-mags[candidates], kind="stable")[:k]]
    top = [
        {
            "flat": int(idx),
            "digits": list(CharacterIndex.from_flat(int(idx), shape).digits),
            "coefficient": _cnum(spec.coeffs[idx]),
            "magnitude": float(mags[idx]),
        }
        for idx in order
    ]
    if args.plot_data:
        dump_spectrum_csv(spec, args.plot_data)
    return {"shape": repr(shape), "X": shape.X, "top": top}, None


def _cmd_correlate(args):
    shape = parse_shape(args.shape)
    values = _function_values(args.function, shape.X)
    a = CharacterIndex.from_flat(args.char, shape)
    c = correlation(values, a, shape)
    return {"char": args.char, "digits": list(a.digits),
            "coefficient": _cnum(c), "magnitude": float(abs(c))}, None


def _cmd_align(args):
    shape = parse_shape(args.shape)
    values = _function_values(args.function, shape.X)
    spec = group_spectrum(values, shape)
    if args.group == "full":
        res = alignment_full_group(spec)
    elif args.group == "semidirect":
        res = alignment_semidirect(spec, shape)
    else:
        gens = [int(g) for g in args.generators.split(",")] if args.generators else []
        res = alignment_subgroup(spec, shape, SubgroupSpec(gens, shape))
    return res.record(shape, {"group": args.group}), None


def _cmd_gram_oracle(args):
    shape = parse_shape(args.shape)
    values = _function_values(args.function, shape.X)
    elements = list(range(shape.X))
    value = alignment_gram_oracle(values, shape, elements)
    spectral = alignment_full_group(group_spectrum(values, shape)).value
    return {"gram_value": value, "spectral_value": spectral,
            "difference": abs(value - spectral)}, None


def _cmd_katai(args):
    shape = parse_shape(args.shape)
    values = _function_values(args.function, shape.X)
    if args.char is None:
        spec = group_spectrum(values, shape)
        flat = int(np.argmax(np.abs(spec.coeffs[1:]))) + 1
    else:
        flat = args.char
    a = CharacterIndex.from_flat(flat, shape)
    observed = abs(correlation(values, a, shape))
    delta = args.delta if args.delta is not None else observed / 2
    w = katai_witness(values, a, shape, delta, args.budget)
    return {
        "char": flat,
        "delta": delta,
        "observed": observed,
        "theta": f"{w.theta.numerator}/{w.theta.denominator}",
        "terms": [list(t) for t in w.terms],
        "achieved": w.achieved,
        "bound": w.bound,
        "satisfied": w.satisfied,
        "candidates": w.candidates,
    }, None


def _cmd_bounds_check(args):
    shape = parse_shape(args.shape)
    a = CharacterIndex.from_flat(args.char, shape)
    if args.check == "linf":
        measured, bound, ok, edge = linf_bound_check(a, shape)
        result = {"measured": measured, "bound": bound, "ok": ok,
                  "equality_edge": edge}
    elif args.check == "l1":
        result = {"l1_norm": char_l1_norm(a, shape)}
    elif args.check == "ap":
        for flag in ("gamma", "residues"):
            if getattr(args, flag) is None:
                raise ArgumentError(f"--check ap needs --{flag}")
        gamma = [int(g) for g in args.gamma.split(",")]
        b = [int(x) for x in args.residues.split(",")]
        result = {"ap_sum": ap_l1_sum(a, shape, gamma, b)}
    else:
        result = interval_l1_sum(a, shape, args.lo, args.hi)
    result["check"] = args.check
    result["char"] = args.char
    return result, None


def _cmd_digital_pnt(args):
    rows = parse_matrix(args.L)
    L = make_linear_map(args.p, rows)
    b = [int(ch) for ch in args.b]
    shape = GroupShape([args.p], [args.d])
    out = count_primes_digit_condition(L, b, shape)
    ss = out.pop("singular_series")
    out["singular_series"] = ss.record()
    return out, None


def _cmd_lambda_balance(args):
    shape = parse_shape(args.shape)
    a = CharacterIndex.from_flat(args.char, shape)
    out = lambda_balanced_correlation(a, shape)
    return {"char": args.char, "raw": _cnum(out["raw"]),
            "normalized": _cnum(out["normalized"]), "X": out["X"]}, None


def _cmd_covariance(args):
    out = binary_mult_covariance(args.X, args.mode)
    plot = None
    if args.mode == "formula":
        eigen = out["eigen"]
        result = {"X": args.X, "op_norm": out["op_norm"],
                  "eigen_head": [[a, lam] for a, lam in eigen[:20]],
                  "count": len(eigen)}
        if args.plot_data:
            plot = (["a", "eigenvalue"], [(a, lam) for a, lam in eigen])
    else:
        result = {"X": args.X, "op_norm": out["op_norm"],
                  "op_norm_formula": out["op_norm_formula"],
                  "eigen_head": [float(v) for v in out["eigen"][:20]]}
        if args.plot_data:
            plot = (["rank", "eigenvalue"],
                    list(enumerate(float(v) for v in out["eigen"])))
    return result, plot


def _cmd_ngd(args):
    shape = parse_shape(args.shape)
    values = _function_values(args.function, shape.X)
    cfg = NgdConfig(T=args.T, eta=args.eta, R=args.R, tau=args.tau,
                    seed=args.seed, eps=args.eps)
    arch = [int(w) for w in args.arch.split(",")] if args.arch else [16]
    out = ngd_experiment(values, shape, cfg, args.trials, arch)
    out["arch"] = arch
    return out, None


def _cmd_csq(args):
    shape = parse_shape(args.shape)
    values = _function_values(args.function, shape.X)
    strategy = FixedFeatureStrategy(shape, args.q)  # stateless: one per run
    out = csq_bad_event_rate(
        values, shape, lambda: strategy,
        args.tau, args.q, args.samples, seed=args.seed,
    )
    return out, None


def _cmd_decay_table(args):
    dims = [int(d) for d in args.dims.split(",")]
    rows = []
    for d in dims:
        shape = GroupShape([args.p], [d])
        values = _function_values(args.function, shape.X)
        spec = group_spectrum(values, shape)
        rows.append((d, shape.X, float(np.abs(spec.coeffs).max())))
    result = {"p": args.p, "table": [list(r) for r in rows],
              "strictly_decreasing": all(rows[i][2] > rows[i + 1][2]
                                         for i in range(len(rows) - 1))}
    plot = (["d", "X", "max_coefficient"], rows) if args.plot_data else None
    return result, plot


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mspec",
        description="Digital harmonic analysis of arithmetic functions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sieve", help="build an arithmetic function table")
    _add_common(p, shape=False)
    p.add_argument("--limit", type=int, required=True)
    p.add_argument("--dump", help="binary table dump path")
    p.set_defaults(handler=_cmd_sieve)

    p = sub.add_parser("spectrum", help="full transform with top coefficients")
    _add_common(p)
    p.add_argument("--top", type=_positive_int, default=10)
    p.set_defaults(handler=_cmd_spectrum)

    p = sub.add_parser("correlate", help="single coefficient, streaming")
    _add_common(p)
    p.add_argument("--char", type=int, required=True, help="flat character index")
    p.set_defaults(handler=_cmd_correlate)

    p = sub.add_parser("align", help="alignment value of a function")
    _add_common(p)
    p.add_argument("--group", choices=["full", "semidirect", "subgroup"],
                   default="full")
    p.add_argument("--generators", help="comma-separated subgroup generators")
    p.set_defaults(handler=_cmd_align)

    p = sub.add_parser("gram-oracle", help="Gram-matrix alignment oracle")
    _add_common(p)
    p.set_defaults(handler=_cmd_gram_oracle)

    p = sub.add_parser("katai", help="additive-witness search")
    _add_common(p)
    p.add_argument("--char", type=int, help="flat index (default: spectral argmax)")
    p.add_argument("--delta", type=float, help="threshold (default |fhat(a)|/2)")
    p.add_argument("--budget", type=int, default=10**7)
    p.set_defaults(handler=_cmd_katai)

    p = sub.add_parser("bounds-check", help="coefficient norm bounds")
    _add_common(p, function=False)
    p.add_argument("--char", type=int, required=True)
    p.add_argument("--check", choices=["linf", "l1", "ap", "interval"],
                   required=True)
    p.add_argument("--gamma", help="per-block gamma list for ap")
    p.add_argument("--residues", help="per-block residues for ap")
    p.add_argument("--lo", type=int, default=0)
    p.add_argument("--hi", type=int, default=0)
    p.set_defaults(handler=_cmd_bounds_check)

    p = sub.add_parser("digital-pnt", help="primes under a digit condition")
    _add_common(p, shape=False, function=False)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--L", required=True, help='rows as digit strings, e.g. "102;011"')
    p.add_argument("--b", required=True, help="target digits, e.g. \"0\"")
    p.set_defaults(handler=_cmd_digital_pnt)

    p = sub.add_parser("lambda-balance", help="balanced prime-power correlation")
    _add_common(p, function=False)
    p.add_argument("--char", type=int, default=0)
    p.set_defaults(handler=_cmd_lambda_balance)

    p = sub.add_parser("covariance", help="covariance spectrum of the class")
    _add_common(p, shape=False, function=False)
    p.add_argument("--X", type=int, required=True)
    p.add_argument("--mode", choices=["formula", "explicit"], default="formula")
    p.set_defaults(handler=_cmd_covariance)

    p = sub.add_parser("ngd", help="noisy gradient descent experiment")
    _add_common(p)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--T", type=int, default=100)
    p.add_argument("--R", type=float, default=1.0)
    p.add_argument("--tau", type=float, default=0.05)
    p.add_argument("--eta", type=float, default=0.1)
    p.add_argument("--eps", type=float, default=0.01)
    p.add_argument("--arch", help="hidden widths, e.g. \"16\" or \"32,16\"")
    p.set_defaults(handler=_cmd_ngd)

    p = sub.add_parser("csq", help="adversarial query game over translates")
    _add_common(p)
    p.add_argument("--tau", type=float, default=0.01)
    p.add_argument("--q", type=int, default=10)
    p.add_argument("--samples", type=int, default=100)
    p.set_defaults(handler=_cmd_csq)

    p = sub.add_parser("decay-table", help="max coefficient across sizes")
    _add_common(p, shape=False)
    p.add_argument("--p", type=int, default=2)
    p.add_argument("--dims", default="10,14,18", help="comma-separated degrees")
    p.set_defaults(handler=_cmd_decay_table)

    return parser


def run_command(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    saved_cap = os.environ.get("MSPC_MEM_CAP")
    if args.mem_cap is not None:
        os.environ["MSPC_MEM_CAP"] = str(args.mem_cap)
    start = time.perf_counter()
    try:
        result, plot = args.handler(args)
    except ResourceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ArgumentError, MspecError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if args.mem_cap is not None:
            if saved_cap is None:
                os.environ.pop("MSPC_MEM_CAP", None)
            else:
                os.environ["MSPC_MEM_CAP"] = saved_cap
    wall = time.perf_counter() - start
    params = {
        k: v for k, v in vars(args).items()
        if k not in ("handler", "command") and isinstance(v, (int, float, str, bool, type(None)))
    }
    record = {
        "command": args.command,
        "params": params,
        "result": result,
        "seed": getattr(args, "seed", None),
        "version": __version__,
        "wall_time": wall,
    }
    payload = json.dumps(record, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload + "\n")
    else:
        print(payload)
    if plot is not None and args.plot_data:
        _write_plot(args.plot_data, plot[0], plot[1])
    return 0


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))
