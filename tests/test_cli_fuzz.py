"""Any argv ends in exit 0, 2 or 3: run_command raises nothing, and an
exit 0 prints a strict JSON record, with no NaN or Infinity.

run_command maps only MspecError to exit codes, so a program bug that
raises anything else escapes as a traceback and fails this test.  The
draws stay small: shapes with X <= 4096 (X <= 256 for the Gram oracle),
at most 5 csq samples, decay-table degrees up to 10 (X <= 2401 for odd
p), digital-pnt degrees up to 6, and small signed integers, zero
included, for every numeric flag; float flags also draw nan, inf, -inf,
fractions and values whose square or cube leaves the float range, and
--L rows may hold a superscript two, which str.isdigit accepts but int()
does not.
"""

import contextlib
import io
import itertools
import json
import math

from hypothesis import example, given, settings, strategies as st

from mspec.cli import run_command


def _shape_literals(limit):
    primes = (2, 3, 5, 7, 11, 13)
    out = []
    for exps in itertools.product(range(4), range(3), range(2), range(2), range(2), range(2)):
        if any(exps) and math.prod(p**e for p, e in zip(primes, exps)) <= limit:
            out.append("*".join(f"{p}^{e}" for p, e in zip(primes, exps) if e))
    return out + [f"2^{e}" for e in range(4, 13)] + [f"3^{e}" for e in range(3, 8)]


BAD_SHAPES = ["4^2", "2^0", "3*2", "2^x", "", "2^-3", "2*2"]
SHAPES = st.sampled_from(_shape_literals(4096) + BAD_SHAPES)
SMALL_SHAPES = st.sampled_from(_shape_literals(256) + BAD_SHAPES)
SIGNED = st.integers(-3, 12)
FLOATS = st.one_of(SIGNED, st.sampled_from(["nan", "inf", "-inf", "-nan", "0.5", "1e-3",
                                            "1e-320", "1e-200", "1e308"]))
FUNCTIONS = st.sampled_from(["mobius", "liouville", "von-mangoldt", "square-indicator"])


def _list(values):
    return ",".join(map(str, values))


def _flags(draw, names, ints=SIGNED):
    argv = []
    for name in names:
        if draw(st.booleans()):
            argv += [f"--{name}", str(draw(ints))]
    return argv


@st.composite
def argvs(draw):
    command = draw(st.sampled_from([
        "sieve", "spectrum", "correlate", "align", "gram-oracle", "katai",
        "bounds-check", "digital-pnt", "lambda-balance", "covariance", "ngd",
        "csq", "decay-table"]))
    argv = [command] + _flags(draw, ["seed"])
    argv += _flags(draw, ["mem-cap"], st.integers(-3, 10**5))
    if command not in ("sieve", "digital-pnt", "covariance", "decay-table"):
        shapes = SMALL_SHAPES if command == "gram-oracle" else SHAPES
        argv += ["--shape", draw(shapes)]
    if command not in ("bounds-check", "digital-pnt", "lambda-balance", "covariance"):
        argv += ["--function", draw(FUNCTIONS)]
    chars = st.integers(-5, 5000)
    if command == "sieve":
        argv += ["--limit", str(draw(st.integers(-3, 5000)))]
    elif command == "spectrum":
        argv += _flags(draw, ["top"])
    elif command in ("correlate", "lambda-balance"):
        argv += ["--char", str(draw(chars))]
    elif command == "align":
        argv += ["--group", draw(st.sampled_from(["full", "semidirect", "subgroup"])),
                 "--generators", _list(draw(st.lists(st.integers(-5, 5000), max_size=4)))]
    elif command == "katai":
        argv += _flags(draw, ["char"], chars) + _flags(draw, ["delta"], FLOATS)
        argv += ["--budget", str(draw(st.integers(-3, 50000)))]
    elif command == "bounds-check":
        argv += ["--char", str(draw(chars)),
                 "--check", draw(st.sampled_from(["linf", "l1", "ap", "interval"]))]
        argv += _flags(draw, ["lo", "hi"], chars)
        for flag in ("gamma", "residues"):
            if draw(st.booleans()):
                argv += [f"--{flag}", _list(draw(st.lists(SIGNED, min_size=1, max_size=4)))]
    elif command == "digital-pnt":
        d = draw(st.integers(-1, 6))
        width = draw(st.sampled_from([max(d, 1), 3]))
        rows = st.lists(st.text("0123\u00b2", min_size=width, max_size=width), min_size=1, max_size=2)
        argv += ["--p", str(draw(st.sampled_from([2, 3, 5, 4, 0, -3]))), "--d", str(d),
                 "--L", ";".join(draw(rows)),
                 "--b", draw(st.text("0123", min_size=1, max_size=2))]
    elif command == "covariance":
        argv += ["--X", str(draw(SIGNED)),
                 "--mode", draw(st.sampled_from(["formula", "explicit"]))]
    elif command == "ngd":
        argv += _flags(draw, ["R", "tau", "eta", "eps"], FLOATS)
        argv += ["--trials", str(draw(st.integers(-1, 3))),
                 "--T", str(draw(st.integers(-1, 6)))]
        if draw(st.booleans()):
            argv += ["--arch", _list(draw(st.lists(st.integers(-2, 6), min_size=1,
                                                   max_size=2)))]
    elif command == "csq":
        argv += _flags(draw, ["tau"], FLOATS) + _flags(draw, ["q"])
        argv += ["--samples", str(draw(st.integers(-1, 5)))]
    elif command == "decay-table":
        # degrees up to 10 for the default p = 2, and X <= 2401 for odd p
        p = draw(st.sampled_from([2, -2, 0, 1, 3, 4, 5, 7]))
        top = 10 if p == 2 else 4
        argv += ["--p", str(p), "--dims", _list(draw(st.lists(st.integers(-1, top),
                                                              min_size=1, max_size=3)))]
    return argv


def _refuse_constant(name):
    raise ValueError(f"record holds {name}, which strict JSON does not allow")


@settings(max_examples=50, deadline=None)
@given(argv=argvs())
@example(argv=["csq", "--shape", "2^4", "--tau", "1e-200", "--samples", "2"])
@example(argv=["csq", "--shape", "2^4", "--samples", "1000000000000"])
@example(argv=["katai", "--shape", "3^5", "--delta", "1e-300"])
@example(argv=["align", "--shape", "100003", "--group", "semidirect"])
def test_every_argv_exits_cleanly(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run_command(argv)
    assert code in (0, 2, 3)
    if code == 0:
        json.loads(out.getvalue(), parse_constant=_refuse_constant)
