"""The benchmark's workloads: seeded operation lists and their output checks.

An operation is one in-process `mspec.cli.run_command` call or one call to
the public library API.  `run` is timed; `check` runs right after it,
untimed, and may queue heavier checks with `Pass.defer`, which run after
every operation of the pass so that they do not raise the pass's peak RSS.
A check raises `CheckFailed`.  Checks hold for any seed; the only stored
references are seed-independent sieve sums.

Every spectrum an operation computes transforms the Mobius table, so
Parseval's identity is checked against an independent count of the
squarefree numbers below X.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

WORKLOADS = ("whole_table", "char_scan", "learning")

SIEVE_LIMIT = 4_000_000
# sum over 0 <= n < 4e6 of mu(n) and of Lambda(n), from an independent sieve
SIEVE_SUMS = {"mobius": 192.0, "von_mangoldt": 3999490.85679657}
SUM_REL_TOL = 1e-9

CHARS_PER_SHAPE = 120
CHAR_SCAN_SHAPES = ("3^8", "2^12", "2^2*3^2*5*7")


class CheckFailed(Exception):
    pass


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], None]


class Pass:
    """State one pass shares between its operations and their checks."""

    def __init__(self, mspec, workdir):
        self.m = mspec
        self.workdir = workdir
        self.spectra = []      # spectra computed by the running operation
        self.capturing = False
        self.deferred = []     # (op index, check)
        self.op_index = -1
        self._cache = {}

    def defer(self, check):
        self.deferred.append((self.op_index, check))

    def cached(self, key, make):
        if key not in self._cache:
            self._cache[key] = make()
        return self._cache[key]

    def install_capture(self):
        """Keep every Spectrum that `group_spectrum` returns during an op."""
        m = self.m
        original = m.spectral.group_spectrum

        def capturing(*args, **kwargs):
            spec = original(*args, **kwargs)
            if self.capturing:
                self.spectra.append(spec)
            return spec

        for module in (m, m.spectral, m.cli, m.learning, m.alignment, m.primes):
            if getattr(module, "group_spectrum", None) is original:
                module.group_spectrum = capturing

    # -- references computed in the check phase --------------------------

    def mobius(self, X):
        return self.cached(("mobius", X), lambda: self.m.arith.sieve(
            "mobius", X).values.astype(np.float64))

    def ref_spectrum(self, shape_text):
        def make():
            shape = self.m.group.parse_shape(shape_text)
            return self.m.spectral.group_spectrum(self.mobius(shape.X), shape).coeffs
        return self.cached(("spectrum", shape_text), make)

    def full_alignment(self, shape_text):
        return float(np.max(np.abs(self.ref_spectrum(shape_text)) ** 2))


# -- independent references ---------------------------------------------


def primes_below(n):
    mask = np.ones(n, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(n - 1) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return np.flatnonzero(mask)


def squarefree_count(X):
    """Number of squarefree n with 1 <= n < X, i.e. sum of mu(n)^2."""
    mask = np.ones(X, dtype=bool)
    mask[0] = False
    for p in primes_below(math.isqrt(X - 1) + 1):
        mask[p * p :: p * p] = False
    return int(mask.sum())


def base_digits(n, p, d):
    """(len(n), d) base-p digits of n, least significant first."""
    n = np.asarray(n, dtype=np.int64)
    return np.stack([(n // p**j) % p for j in range(d)], axis=1)


def check_parseval(ctx, coeffs):
    """sum |fhat|^2 == mean f^2 for the Mobius table, within 1e-9."""
    X = coeffs.size
    lhs = float(np.sum(np.abs(coeffs) ** 2))
    rhs = ctx.cached(("squarefree", X), lambda: squarefree_count(X)) / X
    require(abs(lhs - rhs) <= 1e-9 * max(1.0, rhs),
            f"Parseval fails at X={X}: {lhs!r} vs {rhs!r}")


# -- operation builders -------------------------------------------------


def cli_op(ctx, argv, check):
    """Op running `mspec <argv>` in process; check gets the parsed record."""

    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = ctx.m.cli.run_command(argv)
        return code, out.getvalue()

    def checked(result):
        code, text = result
        require(code == 0, f"exit code {code}")
        spectra, ctx.spectra = ctx.spectra, []
        for spec in spectra:
            check_parseval(ctx, spec.coeffs)
        check(json.loads(text)["result"], spectra)

    return Op("cli " + " ".join(argv), run, checked)


def lib_op(ctx, label, call, check):
    def checked(result):
        for spec in ctx.spectra:
            check_parseval(ctx, spec.coeffs)
        ctx.spectra = []
        check(result)

    return Op(label, call, checked)


def _spectrum_op(ctx, shape_text, seed):
    def check(res, spectra):
        top = res["top"]
        require(len(top) == 10, "expected the top 10 coefficients")
        mags = [t["magnitude"] for t in top]
        require(all(a >= b for a, b in zip(mags, mags[1:])), "top list not sorted")

        def top_is_max(coeffs):
            require(abs(float(np.max(np.abs(coeffs))) - mags[0]) <= 1e-12,
                    "top magnitude is not the spectrum maximum")

        if spectra:
            top_is_max(spectra[-1].coeffs)

        def deferred():
            m = ctx.m
            if not spectra:  # computed outside group_spectrum: check a reference
                check_parseval(ctx, ctx.ref_spectrum(shape_text))
                top_is_max(ctx.ref_spectrum(shape_text))
            shape = m.group.parse_shape(shape_text)
            a = m.group.CharacterIndex.from_flat(top[0]["flat"], shape)
            c = m.spectral.correlation(ctx.mobius(shape.X), a, shape)
            got = complex(top[0]["coefficient"]["re"], top[0]["coefficient"]["im"])
            require(abs(got - c) <= 1e-12,
                    f"top coefficient {got} != correlation() {c}")
        ctx.defer(deferred)

    return cli_op(ctx, ["spectrum", "--shape", shape_text, "--function", "mobius",
                        "--seed", str(seed)], check)


def _align_op(ctx, shape_text, group, seed, extra=()):
    def check(res, spectra):
        value = float(res["value"])
        require(res["method"] == group, f"method {res['method']}")

        def against(coeffs):
            power = np.abs(coeffs) ** 2
            full, total = float(power.max()), float(power.sum())
            if group == "semidirect":
                require(0.0 <= value <= full + 1e-12,
                        f"semidirect {value} exceeds full-group {full}")
            else:
                require(full - 1e-12 <= value <= total + 1e-12,
                        f"subgroup coset mass {value} outside [{full}, {total}]")

        if spectra:
            against(spectra[-1].coeffs)
        else:  # computed outside group_spectrum: check against a reference
            ctx.defer(lambda: against(ctx.ref_spectrum(shape_text)))

    return cli_op(ctx, ["align", "--shape", shape_text, "--function", "mobius",
                        "--group", group, "--seed", str(seed), *extra], check)


def _sieve_ops(ctx, kind, cli_name, seed):
    path = os.path.join(ctx.workdir, f"{kind}.bin")
    width = 8 if kind == "von_mangoldt" else 1

    def check_sieve(res, _spectra):
        want = SIEVE_SUMS[kind]
        require(abs(res["sum"] - want) <= SUM_REL_TOL * abs(want),
                f"{kind} sum {res['sum']!r} != {want!r}")
        require(os.path.getsize(path) == 16 + width * SIEVE_LIMIT,
                f"{kind} dump has the wrong size")

    def check_load(table):
        require(table.kind == kind and table.limit == SIEVE_LIMIT,
                f"loaded {table.kind}/{table.limit}")
        loaded = table.values

        def deferred():
            sieved = ctx.m.arith.sieve(kind, SIEVE_LIMIT)
            require(np.array_equal(loaded, sieved.values),
                    f"loaded {kind} table differs from the sieved table")
        ctx.defer(deferred)

    return [
        cli_op(ctx, ["sieve", "--function", cli_name, "--limit", str(SIEVE_LIMIT),
                     "--dump", path, "--seed", str(seed)], check_sieve),
        lib_op(ctx, f"lib load_table {kind}",
               lambda: ctx.m.arith.load_table(path), check_load),
    ]


def whole_table(ctx, rng, seed):
    sub_shape = "2^4*3^3*5^2*7^2"
    sub_X = 2**4 * 3**3 * 5**2 * 7**2
    gens = ",".join(str(int(g)) for g in rng.integers(1, sub_X, size=5))
    ops = [_spectrum_op(ctx, s, seed) for s in ("2^21", "3^13", "2^5*3^3*5^2*7^2")]
    ops.append(_align_op(ctx, "3^12", "semidirect", seed))
    ops.append(_align_op(ctx, sub_shape, "subgroup", seed,
                         ("--generators", gens)))
    sieves = [_sieve_ops(ctx, "mobius", "mobius", seed),
              _sieve_ops(ctx, "von_mangoldt", "von-mangoldt", seed)]
    ops += [s[0] for s in sieves] + [s[1] for s in sieves]
    return ops


def _char_ops(ctx, shape, table, flat, rng):
    """The six library calls of char_scan on one sampled character."""
    m = ctx.m
    sp = m.spectral
    a = m.group.CharacterIndex.from_flat(flat, shape)
    X = shape.X
    lo = int(rng.integers(0, X - 1))
    hi = int(rng.integers(lo + 1, X + 1))
    k = int(rng.integers(0, X))
    cutoffs = [int(rng.integers(1, b + 1)) for b in shape.block_sizes]
    tag = f"{shape!r} char {flat}"
    seen = {}

    def check_corr(c):
        def deferred():
            ref = ctx.ref_spectrum(shape_text(shape))[flat]
            require(abs(c - ref) <= 1e-9, f"correlation {c} != spectrum {ref}")
        ctx.defer(deferred)

    def check_linf(res):
        measured, bound, ok, _edge = res
        require(ok and measured <= bound + 1e-12, f"linf bound fails: {res}")
        seen["linf"] = measured

    def check_l1(l1):
        require(max(1.0, seen.get("linf", 0.0)) - 1e-9 <= l1
                <= math.sqrt(X) * (1 + 1e-9), f"l1 norm {l1} out of range")
        seen["l1"] = l1

    def check_interval(res):
        require(-1e-12 <= res["sum"] <= seen.get("l1", math.inf) * (1 + 1e-12),
                f"interval sum {res['sum']} exceeds the l1 norm")
        require(abs(res["reference"] - math.sqrt(shape.primes[-1] * (hi - lo)))
                <= 1e-12 * res["reference"], "interval reference")

    def check_closed_form(res):
        magnitude, value = res

        def deferred():
            direct = np.fft.fft(m.group.char_values(a, shape))[k] / X
            require(abs(magnitude - abs(direct)) <= 1e-9 and abs(value - direct) <= 1e-9,
                    f"closed form {value} != direct DFT {direct}")
        ctx.defer(deferred)

    def check_truncated(res):
        values_t, support, err = res
        require(len(values_t) == X and len(support) == shape.r, "truncated shape")
        require(0.0 <= err <= 1.0 + 1e-9, f"truncation error {err}")
        if all(K >= b // 2 for K, b in zip(cutoffs, shape.block_sizes)):
            require(err <= 1e-20, f"untruncated error {err}")

    return [
        lib_op(ctx, f"lib correlation {tag}",
               lambda: sp.correlation(table["t"], a, shape), check_corr),
        lib_op(ctx, f"lib linf_bound_check {tag}",
               lambda: sp.linf_bound_check(a, shape), check_linf),
        lib_op(ctx, f"lib char_l1_norm {tag}",
               lambda: sp.char_l1_norm(a, shape), check_l1),
        lib_op(ctx, f"lib interval_l1_sum {tag}",
               lambda: sp.interval_l1_sum(a, shape, lo, hi), check_interval),
        lib_op(ctx, f"lib char_dft_closed_form {tag}",
               lambda: sp.char_dft_closed_form(a, k, shape), check_closed_form),
        lib_op(ctx, f"lib truncated_character {tag}",
               lambda: sp.truncated_character(a, shape, cutoffs), check_truncated),
    ]


def shape_text(shape):
    return "*".join(f"{p}^{e}" for p, e in zip(shape.primes, shape.exponents))


def _katai_op(ctx, text, seed):
    def check(res, _spectra):
        def deferred():
            mags = np.abs(ctx.ref_spectrum(text))
            flat = int(res["char"])
            require(abs(mags[flat] - mags[1:].max()) <= 1e-12,
                    "katai character is not the spectral argmax")
            require(abs(res["observed"] - mags[flat]) <= 1e-12,
                    f"observed {res['observed']} != |correlation| {mags[flat]}")
            require(0 < res["candidates"] and res["bound"] > 0, "no candidates")
            require(res["satisfied"] == (res["achieved"] >= res["bound"]),
                    "satisfied flag disagrees with achieved >= bound")
        ctx.defer(deferred)

    return cli_op(ctx, ["katai", "--shape", text, "--function", "mobius",
                        "--seed", str(seed)], check)


def _digital_pnt_op(ctx, rng, seed):
    p, d = 3, 12
    row1 = rng.integers(0, p, size=d)
    while not row1.any():
        row1 = rng.integers(0, p, size=d)
    row2 = rng.integers(0, p, size=d)
    while any(np.array_equal(row2, (c * row1) % p) for c in range(p)):
        row2 = rng.integers(0, p, size=d)
    rows = np.stack([row1, row2])
    b = rng.integers(0, p, size=2)

    def check(res, _spectra):
        def deferred():
            primes = primes_below(p**d)
            image = (base_digits(primes, p, d) @ rows.T) % p
            want = int(np.count_nonzero((image == b).all(axis=1)))
            require(res["count"] == want, f"digital-pnt count {res['count']} != {want}")
        ctx.defer(deferred)

    L = ";".join("".join(str(int(t)) for t in row) for row in rows)
    return cli_op(ctx, ["digital-pnt", "--p", str(p), "--d", str(d), "--L", L,
                        "--b", "".join(str(int(t)) for t in b), "--seed", str(seed)],
                  check)


def _lambda_balance_op(ctx, rng, seed):
    p, d = 3, 12
    X = p**d
    flat = int(rng.integers(0, X))

    def check(res, _spectra):
        def deferred():
            primes = primes_below(X)
            lam = np.zeros(X)
            lam[primes] = np.log(primes)
            for q in primes[primes * primes < X]:
                power = int(q) * int(q)
                while power < X:
                    lam[power] = math.log(q)
                    power *= int(q)
            nu = np.full(X, p / (p - 1))
            nu[::p] = 0.0
            a = base_digits([flat], p, d)[0]
            e = (base_digits(np.arange(X), p, d) @ a) % p
            chi = np.exp(2j * np.pi * e / p)
            want = np.sum((lam - nu) * chi)
            raw = complex(res["raw"]["re"], res["raw"]["im"])
            scale = float(np.sum(np.abs(lam - nu)))
            require(abs(raw - want) <= 1e-9 * scale, f"raw {raw} != {want}")
            norm = complex(res["normalized"]["re"], res["normalized"]["im"])
            require(abs(norm - raw / X) <= 1e-12 * max(1.0, abs(raw)), "normalized")
        ctx.defer(deferred)

    return cli_op(ctx, ["lambda-balance", "--shape", f"{p}^{d}", "--char", str(flat),
                        "--seed", str(seed)], check)


def _bounds_check_op(ctx, rng, seed):
    flat = int(rng.integers(1, 3**8))

    def check(res, _spectra):
        require(res["ok"] and res["measured"] <= res["bound"] + 1e-12,
                f"bounds-check linf fails for char {flat}")

    return cli_op(ctx, ["bounds-check", "--shape", "3^8", "--char", str(flat),
                        "--check", "linf", "--seed", str(seed)], check)


def char_scan(ctx, rng, seed):
    m = ctx.m
    ops = []
    for text in CHAR_SCAN_SHAPES:
        shape = m.group.parse_shape(text)
        table = {}  # filled by the sieve op, read by the character ops

        def check_table(t, X=shape.X, table=table):
            require(t.kind == "mobius" and t.limit == X, "table length")
            table["t"] = t

        ops.append(lib_op(ctx, f"lib sieve mobius {text}",
                          lambda X=shape.X: m.arith.sieve("mobius", X), check_table))
        flats = rng.choice(np.arange(1, shape.X), size=CHARS_PER_SHAPE, replace=False)
        for flat in flats:
            ops += _char_ops(ctx, shape, table, int(flat), rng)
    ops += [_katai_op(ctx, "3^8", seed), _katai_op(ctx, "2^12", seed),
            _bounds_check_op(ctx, rng, seed), _digital_pnt_op(ctx, rng, seed),
            _lambda_balance_op(ctx, rng, seed)]
    return ops


def _ngd_op(ctx, text, seed, extra=()):
    trials = 5

    def check(res, _spectra):
        rate = res["success_rate"]
        require(res["trials"] == trials and 0.0 <= rate <= 1.0
                and abs(rate * trials - round(rate * trials)) <= 1e-9,
                f"success rate {rate}")
        require(res["theory_bound"] == min(max(res["theory_raw"], 0.0), 1.0),
                "theory bound is not the clamped raw bound")
        require(res["vacuous"] == (res["theory_raw"] >= 1.0), "vacuous flag")

        def deferred():
            full = ctx.full_alignment(text)
            require(abs(res["alignment"] - full) <= 1e-12,
                    f"alignment {res['alignment']} != {full}")
        ctx.defer(deferred)

    return cli_op(ctx, ["ngd", "--shape", text, "--function", "mobius",
                        "--trials", str(trials), "--T", "100", "--seed", str(seed),
                        *extra], check)


def learning(ctx, rng, seed):
    q, tau, samples = 10, 0.01, 100

    def check_csq(res, _spectra):
        A = res["alignment"]
        require(abs(res["bound"] - q * A / tau**2) <= 1e-12 * max(1.0, res["bound"]),
                f"csq bound {res['bound']} != q A / tau^2")
        require(res["samples"] == samples and 0.0 <= res["empirical_rate"] <= 1.0,
                "csq rate")

        def deferred():
            full = ctx.full_alignment("2^12")
            require(abs(A - full) <= 1e-12, f"csq alignment {A} != {full}")
        ctx.defer(deferred)

    def check_gram(res, _spectra):
        require(res["difference"] <= 1e-8, f"gram oracle differs by {res['difference']}")

        def deferred():
            full = ctx.full_alignment("2^10")
            require(abs(res["spectral_value"] - full) <= 1e-12, "gram spectral value")
        ctx.defer(deferred)

    return [
        _ngd_op(ctx, "2^14", seed, ("--arch", "16")),
        _ngd_op(ctx, "2^10", seed, ("--arch", "32,16")),
        cli_op(ctx, ["csq", "--shape", "2^12", "--function", "mobius",
                     "--tau", str(tau), "--q", str(q), "--samples", str(samples),
                     "--seed", str(seed)], check_csq),
        cli_op(ctx, ["gram-oracle", "--shape", "2^10", "--function", "mobius",
                     "--seed", str(seed)], check_gram),
    ]


BUILDERS = {"whole_table": whole_table, "char_scan": char_scan, "learning": learning}

# shape of the largest transform each workload runs, for the environment record
LARGEST_TRANSFORM = {"whole_table": "2^21", "char_scan": "3^8", "learning": "2^14"}


def build(name, ctx, seed):
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    return BUILDERS[name](ctx, rng, seed)
