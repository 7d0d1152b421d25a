"""Command-line front end.

Every subcommand emits one strict JSON run record (stdout or --out), a
non-finite float written as null; sieve, spectrum, covariance and
decay-table can also write CSV plot data via --plot-data.  Exit codes: 0
success, 2 argument error or unwritable output path, 3 resource error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

from . import __version__
from .arith import KINDS, dump_table, sieve
from .errors import ArgumentError, MspecError, ResourceError
from .group import CharacterIndex, GroupShape, parse_shape
from .spectral import (
    CHUNK,
    SPECTRUM_CAP,
    ap_l1_sum,
    char_l1_norm,
    correlation,
    group_spectrum,
    interval_l1_sum,
    katai_preflight,
    katai_witness,
    linf_bound_check,
)
from .alignment import (
    GRAM_CAP,
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
    NGD_X_CAP,
    NgdConfig,
    binary_mult_covariance,
    csq_bad_event_rate,
    csq_preflight,
    ngd_experiment,
)

_FUNCTION_ALIASES = {name: kind for kind in KINDS for name in (kind, kind.replace("_", "-"))}


def _strict(value):
    """The record with every non-finite float as None: strict JSON's null."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _strict(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict(v) for v in value]
    return value


def _cnum(z) -> dict:
    return {"re": float(np.real(z)), "im": float(np.imag(z))}


def _function_values(name: str, X: int, mem_cap: int | None = None) -> np.ndarray:
    """The sieved table of function ``name`` on [0, X), in the sieve's dtype,
    under the sieve's cap or ``mem_cap``."""
    kind = _FUNCTION_ALIASES.get(name)
    if kind is None:
        raise ArgumentError(f"unknown function {name!r}; expected one of "
                            f"{sorted(_FUNCTION_ALIASES)}")
    return sieve(kind, X, mem_cap=mem_cap).values


def _check_cap(args, X: int, cap=None) -> None:
    """Refuse X above ``cap``, the cap of the library call that X's table
    feeds (None: no such cap), or X entries above --mem-cap."""
    if cap is not None and X > cap:
        raise ResourceError(f"X = {X} exceeds the {args.command} cap {cap}")
    if args.mem_cap is not None and X > args.mem_cap:
        raise ResourceError(f"{X} entries exceed --mem-cap {args.mem_cap}")


def _table(args, shape: GroupShape, cap=None, group=()) -> np.ndarray:
    """The --function table on shape's X, in the sieve's own dtype (the
    library widens an int8 table a chunk at a time): the CLI's one sieve
    call, made only once shape.X and the X of each shape in ``group`` pass
    _check_cap."""
    _check_cap(args, max(s.X for s in (shape, *group)), cap)
    return _function_values(args.function, shape.X, args.mem_cap)


def _top_magnitudes(coeffs: np.ndarray, k: int, start: int = 0):
    """(indices, magnitudes) of the k largest |coeffs[i]|, i >= start, ties to
    the smaller index, with no X-sized array.  The magnitude is np.hypot of
    the parts, as the spectrum plot writes it; per CHUNK, np.abs (within 2
    ulps of it) picks the candidates, those within 8 eps of its k-th
    largest, and one stable sort of their hypot ranks them."""
    indices, parts = [], []
    for lo in range(start, coeffs.size, CHUNK):
        part = coeffs[lo : lo + CHUNK]
        mags = np.abs(part)
        i = max(part.size - k, 0)
        keep = np.flatnonzero(mags >= np.partition(mags, i)[i] * (1 - 8 * np.finfo(float).eps))
        indices.append(keep + lo)
        parts.append(part[keep])
    indices, c = np.concatenate(indices), np.concatenate(parts)
    mags = np.hypot(c.real, c.imag)
    order = np.argsort(-mags, kind="stable")[:k]
    return indices[order], mags[order]


def _add_common(p: argparse.ArgumentParser, shape=True, function=True, plot=False):
    if shape:
        p.add_argument("--shape", required=True, type=_shape_literal,
                       help='group shape literal, e.g. "2^2*3^1"')
    if function:
        p.add_argument("--function", default="mobius",
                       choices=sorted(_FUNCTION_ALIASES),
                       help="arithmetic function table")
    p.add_argument("--seed", type=_nonnegative_int, default=0, help="RNG seed (u64)")
    p.add_argument("--out", help="write the JSON run record here")
    if plot:
        p.add_argument("--plot-data", dest="plot_data", help="CSV output path")
    p.add_argument("--mem-cap", dest="mem_cap", type=_positive_int,
                   help="largest table the run may sieve or stream, in table entries")


def _int(text: str, low=None) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if low is not None and value < low:
        raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
    return value


def _positive_int(text: str) -> int:
    return _int(text, 1)


def _nonnegative_int(text: str) -> int:
    return _int(text, 0)


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _positive_ints(text: str) -> list:
    return [_positive_int(w) for w in text.split(",")]


def _ints(text: str) -> list:
    """Comma-separated integers; empty text is the empty list."""
    return [_int(w) for w in text.split(",")] if text.strip() else []


def _digit_string(text: str) -> list:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected decimal digits, got {text!r}")
    return [int(ch) for ch in text]


def _shape_literal(text: str) -> str:
    """A shape literal that parse_shape accepts, returned unchanged."""
    try:
        parse_shape(text)
    except ArgumentError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


# rows per write of a --plot-data file: on the 10^5-entry sieve plot 4096 adds
# 0.25 MiB to the sieve's own traced peak and 32768 would add 3 MiB
_PLOT_ROWS = 4096


def _write_plot(path: str, header: list, n: int, columns) -> None:
    """The CSV header and n rows, _PLOT_ROWS per write: columns(lo, hi) gives the
    arrays of rows [lo, hi), a float column printed by .17g and any other by str."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, n, _PLOT_ROWS):
            cols = columns(lo, min(lo + _PLOT_ROWS, n))
            row = ",".join("{:.17g}" if c.dtype.kind == "f" else "{}" for c in cols) + "\n"
            fh.write("".join(map(row.format, *(c.tolist() for c in cols))))


def _row_columns(rows: list):
    """columns(lo, hi) of a list of equal-length tuples."""
    return lambda lo, hi: [np.array(c) for c in zip(*rows[lo:hi])]


# -- subcommand handlers: each returns its result and writes its plot ----


def _cmd_sieve(args):
    table = sieve(_FUNCTION_ALIASES[args.function], args.limit, mem_cap=args.mem_cap)
    values = table.values  # sums of the int8 kinds are exact in float64
    if args.dump:
        dump_table(table, args.dump)
    result = {
        "limit": args.limit,
        "head": [float(v) for v in values[:16]],
        "sum": float(values.sum(dtype=np.float64)),
        "dump": args.dump,
    }
    if args.plot_data:
        _write_plot(args.plot_data, ["n", "value"], args.limit,
                    lambda lo, hi: (np.arange(lo, hi), values[lo:hi]))
    return result


def _cmd_spectrum(args):
    shape = parse_shape(args.shape)
    spec = group_spectrum(_table(args, shape, SPECTRUM_CAP), shape)
    top = [
        {
            "flat": int(idx),
            "digits": list(CharacterIndex.from_flat(int(idx), shape).digits),
            "coefficient": _cnum(spec.coeffs[idx]),
            "magnitude": float(mag),
        }
        for idx, mag in zip(*_top_magnitudes(spec.coeffs, args.top))
    ]
    if args.plot_data:
        def columns(lo, hi):
            c = spec.coeffs[lo:hi]
            return np.arange(lo, hi), c.real, c.imag, np.hypot(c.real, c.imag)
        _write_plot(args.plot_data, ["flat_index", "re", "im", "magnitude"], shape.X, columns)
    return {"shape": repr(shape), "X": shape.X, "top": top}


def _cmd_correlate(args):
    shape = parse_shape(args.shape)
    a = CharacterIndex.from_flat(args.char, shape)
    c = correlation(_table(args, shape), a, shape)
    return {"char": args.char, "digits": list(a.digits),
            "coefficient": _cnum(c), "magnitude": float(abs(c))}


def _cmd_align(args):
    shape = parse_shape(args.shape)
    spec = group_spectrum(_table(args, shape, SPECTRUM_CAP), shape)
    if args.group == "full":
        res = alignment_full_group(spec)
    elif args.group == "semidirect":
        res = alignment_semidirect(spec, shape)
    else:
        res = alignment_subgroup(spec, shape, SubgroupSpec(args.generators, shape))
    return res.record(shape, {"group": args.group})


def _cmd_gram_oracle(args):
    shape = parse_shape(args.shape)
    values = _table(args, shape, GRAM_CAP)
    value = alignment_gram_oracle(values, shape, range(shape.X))
    spectral = alignment_full_group(group_spectrum(values, shape)).value
    return {"gram_value": value, "spectral_value": spectral,
            "difference": abs(value - spectral)}


def _cmd_katai(args):
    shape = parse_shape(args.shape)
    cap = SPECTRUM_CAP if args.char is None else None
    _check_cap(args, shape.X, cap)
    katai_preflight(args.budget, shape.X)
    values = _table(args, shape, cap)
    flat = args.char
    if flat is None:  # the largest |fhat(a)| over a >= 1
        flat = int(_top_magnitudes(group_spectrum(values, shape).coeffs, 1, 1)[0][0])
    w = katai_witness(values, CharacterIndex.from_flat(flat, shape), shape,
                      args.delta, args.budget)
    return {**vars(w), "char": flat, "terms": [list(t) for t in w.terms],
            "theta": f"{w.theta.numerator}/{w.theta.denominator}"}


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
        result = {"ap_sum": ap_l1_sum(a, shape, args.gamma, args.residues)}
    else:
        result = interval_l1_sum(a, shape, args.lo, args.hi)
    result["check"] = args.check
    result["char"] = args.char
    return result


def _cmd_digital_pnt(args):
    rows = parse_matrix(args.L)
    for flag, digits in (("--L", sum(rows, [])), ("--b", args.b)):
        if max(digits) >= args.p:
            raise ArgumentError(f"{flag} holds digit {max(digits)}, not below --p {args.p}")
    L = make_linear_map(args.p, rows)
    shape = GroupShape([args.p], [args.d])
    _check_cap(args, shape.X)
    out = count_primes_digit_condition(L, args.b, shape)
    ss = out.pop("singular_series")
    out["singular_series"] = ss.record()
    return out


def _cmd_lambda_balance(args):
    shape = parse_shape(args.shape)
    a = CharacterIndex.from_flat(args.char, shape)
    _check_cap(args, shape.X)
    out = lambda_balanced_correlation(a, shape)
    return {"char": args.char, "raw": _cnum(out["raw"]),
            "normalized": _cnum(out["normalized"]), "X": out["X"]}


def _cmd_covariance(args):
    if args.X >= 2:  # the table the mode sieves; a smaller X is the library's argument error
        _check_cap(args, args.X + 1 if args.mode == "formula" else args.X**2 + 1)
    out = binary_mult_covariance(args.X, args.mode)
    if args.mode == "formula":
        eigen = out["eigen"]
        result = {"X": args.X, "op_norm": out["op_norm"],
                  "eigen_head": [[a, lam] for a, lam in eigen[:20]],
                  "count": len(eigen)}
        header = ["a", "eigenvalue"]
    else:
        eigen = list(enumerate(float(v) for v in out["eigen"]))
        result = {"X": args.X, "op_norm": out["op_norm"],
                  "op_norm_formula": out["op_norm_formula"],
                  "eigen_head": [v for _, v in eigen[:20]]}
        header = ["rank", "eigenvalue"]
    if args.plot_data:
        _write_plot(args.plot_data, header, len(eigen), _row_columns(eigen))
    return result


def _cmd_ngd(args):
    shape = parse_shape(args.shape)
    cfg = NgdConfig(T=args.T, eta=args.eta, R=args.R, tau=args.tau,
                    seed=args.seed, eps=args.eps)
    arch = args.arch or [16]
    out = ngd_experiment(_table(args, shape, NGD_X_CAP), shape, cfg, args.trials, arch)
    out["arch"] = arch
    return out


def _cmd_csq(args):
    shape = parse_shape(args.shape)
    csq_preflight(args.tau, args.q, args.samples)
    return csq_bad_event_rate(_table(args, shape, SPECTRUM_CAP), shape, args.tau,
                              args.q, args.samples, seed=args.seed)


def _cmd_decay_table(args):
    shapes = [GroupShape([args.p], [d]) for d in args.dims]
    rows = []
    for d, shape in zip(args.dims, shapes):
        spec = group_spectrum(_table(args, shape, SPECTRUM_CAP, shapes), shape)
        rows.append((d, shape.X, float(_top_magnitudes(spec.coeffs, 1)[1][0])))
    result = {"p": args.p, "table": [list(r) for r in rows],
              "strictly_decreasing": all(rows[i][2] > rows[i + 1][2]
                                         for i in range(len(rows) - 1))}
    if args.plot_data:
        _write_plot(args.plot_data, ["d", "X", "max_coefficient"], len(rows), _row_columns(rows))
    return result


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mspec",
        description="Digital harmonic analysis of arithmetic functions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sieve", help="build an arithmetic function table")
    _add_common(p, shape=False, plot=True)
    p.add_argument("--limit", type=int, required=True)
    p.add_argument("--dump", help="binary table dump path")
    p.set_defaults(handler=_cmd_sieve)

    p = sub.add_parser("spectrum", help="full transform with top coefficients")
    _add_common(p, plot=True)
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
    p.add_argument("--generators", type=_ints, default=[],
                   help="comma-separated subgroup generators")
    p.set_defaults(handler=_cmd_align)

    p = sub.add_parser("gram-oracle", help="Gram-matrix alignment oracle")
    _add_common(p)
    p.set_defaults(handler=_cmd_gram_oracle)

    p = sub.add_parser("katai", help="additive-witness search")
    _add_common(p)
    p.add_argument("--char", type=int, help="flat index (default: spectral argmax)")
    p.add_argument("--delta", type=_finite_float, help="threshold (default |fhat(a)|/2)")
    p.add_argument("--budget", type=int, default=10**7)
    p.set_defaults(handler=_cmd_katai)

    p = sub.add_parser("bounds-check", help="coefficient norm bounds")
    _add_common(p, function=False)
    p.add_argument("--char", type=int, required=True)
    p.add_argument("--check", choices=["linf", "l1", "ap", "interval"],
                   required=True)
    p.add_argument("--gamma", type=_ints, help="per-block gamma list for ap")
    p.add_argument("--residues", type=_ints, help="per-block residues for ap")
    p.add_argument("--lo", type=int, default=0)
    p.add_argument("--hi", type=int, default=0)
    p.set_defaults(handler=_cmd_bounds_check)

    p = sub.add_parser("digital-pnt", help="primes under a digit condition")
    _add_common(p, shape=False, function=False)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--L", required=True, help='rows as digit strings, e.g. "102;011"')
    p.add_argument("--b", type=_digit_string, required=True,
                   help="target digits, e.g. \"0\"")
    p.set_defaults(handler=_cmd_digital_pnt)

    p = sub.add_parser("lambda-balance", help="balanced prime-power correlation")
    _add_common(p, function=False)
    p.add_argument("--char", type=int, default=0)
    p.set_defaults(handler=_cmd_lambda_balance)

    p = sub.add_parser("covariance", help="covariance spectrum of the class")
    _add_common(p, shape=False, function=False, plot=True)
    p.add_argument("--X", type=int, required=True)
    p.add_argument("--mode", choices=["formula", "explicit"], default="formula")
    p.set_defaults(handler=_cmd_covariance)

    p = sub.add_parser("ngd", help="noisy gradient descent experiment")
    _add_common(p)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--T", type=int, default=100)
    p.add_argument("--R", type=_finite_float, default=1.0)
    p.add_argument("--tau", type=_finite_float, default=0.05)
    p.add_argument("--eta", type=_finite_float, default=0.1)
    p.add_argument("--eps", type=_finite_float, default=0.01)
    p.add_argument("--arch", type=_positive_ints,
                   help="hidden widths, e.g. \"16\" or \"32,16\"")
    p.set_defaults(handler=_cmd_ngd)

    p = sub.add_parser("csq", help="adversarial query game over translates")
    _add_common(p)
    p.add_argument("--tau", type=_finite_float, default=0.01)
    p.add_argument("--q", type=_positive_int, default=10)
    p.add_argument("--samples", type=_positive_int, default=100)
    p.set_defaults(handler=_cmd_csq)

    p = sub.add_parser("decay-table", help="max coefficient across sizes")
    _add_common(p, shape=False, plot=True)
    p.add_argument("--p", type=int, default=2)
    p.add_argument("--dims", type=_positive_ints, default="10,14,18",
                   help="comma-separated degrees")
    p.set_defaults(handler=_cmd_decay_table)

    return parser


def run_command(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    start = time.perf_counter()
    try:
        result = args.handler(args)
        wall = time.perf_counter() - start
        params = {
            k: v for k, v in vars(args).items()
            if k not in ("handler", "command") and isinstance(v, (int, float, str, bool, list, type(None)))
        }
        record = {
            "command": args.command,
            "params": params,
            "result": result,
            "seed": getattr(args, "seed", None),
            "version": __version__,
            "wall_time": wall,
        }
        payload = json.dumps(_strict(record), indent=2, sort_keys=True, allow_nan=False)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(payload + "\n")
        else:
            print(payload)
    except (MspecError, OSError) as exc:  # OSError: only --out, --plot-data and --dump open files
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, ResourceError) else 2
    return 0


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
