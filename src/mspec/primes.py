"""Prime counting under linear conditions on base-p digits.

A surjective F_p-linear map L on the digit vector carves [0, p^d) into
fibers; the local density of primes in the fiber over b is an exact
rational in {0, 1, p/(p-1)} decided by whether the digit-0 functional
factors through L and, if so, whether it kills b.  Both von Mangoldt sums
read Lambda a chunk at a time from arith._von_mangoldt_chunks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

import numpy as np

from .arith import is_prime, nu_p_weight, primes_up_to, _von_mangoldt_chunks
from .errors import ArgumentError
from .group import CHUNK, CharacterIndex, CrtReader, GroupShape, _char_reader, _rref_mod_p
from .spectral import _streamed_sum


class SurjectivityError(ArgumentError):
    """The supplied rows do not span the target space."""


@dataclass
class LinearDigitMap:
    """m x d matrix over F_p applied to base-p digit vectors
    (least-significant digit first)."""

    p: int
    rows: np.ndarray  # (m, d) int64, entries in [0, p)
    rank: int
    rref: np.ndarray

    @property
    def m(self) -> int:
        return self.rows.shape[0]

    @property
    def d(self) -> int:
        return self.rows.shape[1]

    def apply(self, digits: np.ndarray) -> np.ndarray:
        """L(digits) for a (n, d) digit matrix; returns (n, m) mod p."""
        return (digits.astype(np.int64) @ self.rows.T) % self.p


def make_linear_map(p: int, rows) -> LinearDigitMap:
    if not is_prime(p):
        raise ArgumentError(f"{p} is not prime")
    rows = np.asarray(rows, dtype=np.int64) % p
    if rows.ndim != 2:
        raise ArgumentError("rows must form a 2-d matrix")
    m, d = rows.shape
    if m > d:
        raise ArgumentError(f"m = {m} exceeds d = {d}")
    rref, rank, _ = _rref_mod_p(rows, p)
    if rank < m:
        raise SurjectivityError(f"rank {rank} < m = {m}; map is not onto")
    return LinearDigitMap(p, rows, rank, rref)


def _solve_transpose(L: LinearDigitMap, target: np.ndarray):
    """lam with L^T lam = target over F_p, or None if target is outside
    the row space.  Unique when it exists because L is onto."""
    p = L.p
    aug = np.concatenate([L.rows.T % p, target.reshape(-1, 1) % p], axis=1)
    rref, _, pivots = _rref_mod_p(aug, p)
    if L.m in pivots:
        return None  # inconsistent: target not in the column space of L^T
    lam = np.zeros(L.m, dtype=np.int64)
    for row, col in enumerate(pivots):
        lam[col] = rref[row, L.m]
    return lam


@dataclass
class SingularSeries:
    value: Fraction
    case: str  # e0_not_in_image | lambda_b_nonzero | lambda_b_zero
    lam: np.ndarray | None

    def record(self) -> dict:
        return {
            "value": f"{self.value.numerator}/{self.value.denominator}",
            "case": self.case,
        }


def singular_series(L: LinearDigitMap, b) -> SingularSeries:
    """Local prime density of the fiber L(digits) = b.

    The digit-0 functional e_0 decides everything: 1 if e_0 misses the
    image of the transpose, else p/(p-1) or 0 by whether the unique
    preimage functional is nonzero at b.
    """
    b = np.asarray(b, dtype=np.int64) % L.p
    if b.shape != (L.m,):
        raise ArgumentError(f"b must have length m = {L.m}")
    e0 = np.zeros(L.d, dtype=np.int64)
    e0[0] = 1
    lam = _solve_transpose(L, e0)
    if lam is None:
        return SingularSeries(Fraction(1), "e0_not_in_image", None)
    if int(lam @ b) % L.p:
        return SingularSeries(Fraction(L.p, L.p - 1), "lambda_b_nonzero", lam)
    return SingularSeries(Fraction(0), "lambda_b_zero", lam)


def count_primes_digit_condition(L: LinearDigitMap, b, shape: GroupShape) -> dict:
    """Primes below p^d whose digit vector lies in the fiber over b, against
    the density heuristic, plus the Lambda sum over the fiber, by chunks."""
    if shape.r != 1 or shape.primes[0] != L.p or shape.exponents[0] != L.d:
        raise ArgumentError(f"shape must be {L.p}^{L.d}")
    b = np.asarray(b, dtype=np.int64) % L.p
    X = shape.X
    ss = singular_series(L, b)
    chunks = _von_mangoldt_chunks(X, CHUNK)
    # row k of L is a digit-linear exponent, and x is in the fiber when every
    # row's exponent is b_k: a lookup in arange(p) == b_k
    fiber = CrtReader(X, [(X, shape.exponent_halves(0, row, CHUNK),
                           partial(np.take, np.arange(L.p) == bk, mode="wrap"))
                          for row, bk in zip(L.rows, b)], np.logical_and, bool)
    in_fiber, counts = np.empty(min(CHUNK, X), dtype=bool), []

    def fiber_lambda(lo: int, n: int) -> np.ndarray:
        _, lam, primes = next(chunks)
        counts.append(np.count_nonzero(fiber.run(lo, n, in_fiber[:n])[primes]))
        return np.multiply(lam, in_fiber[:n], out=lam)

    lambda_sum = _streamed_sum(X, fiber_lambda).real
    count = int(sum(counts))

    main_term = float(ss.value) / L.p**L.m * X / math.log(X)
    lambda_main = float(ss.value) * L.p ** (L.d - L.m)
    rel_error = abs(count - main_term) / main_term if main_term > 0 else math.nan
    return {
        "count": count,
        "main_term": main_term,
        "rel_error": rel_error,
        "lambda_sum": lambda_sum,
        "lambda_main": lambda_main,
        "singular_series": ss,
        "degenerate": main_term <= 0 or main_term < 10,
        "outside_proved_regime": L.p == 2,
    }


def lambda_balanced_correlation(a: CharacterIndex, shape: GroupShape) -> dict:
    """sum_{n < X} (Lambda(n) - nu_p(n)) chi_a(n), raw and per X.

    nu_p is the density-matched weight p/(p-1) on n coprime to p (0 at
    n = 0), so the a = 0 sum measures the prime-power equidistribution
    defect directly.
    """
    if shape.r != 1:
        raise ArgumentError("single-prime shapes only")
    p = shape.primes[0]
    X = shape.X
    chunks = _von_mangoldt_chunks(X, CHUNK)
    weight = float(nu_p_weight(1, p))
    chars = _char_reader(a, shape)
    diff, out = np.empty(min(CHUNK, X)), np.empty(min(CHUNK, X), dtype=np.complex128)

    def balanced(lo: int, n: int) -> np.ndarray:
        # Lambda - nu, where nu is weight off the multiples of p and 0 on them
        lam = next(chunks)[1]
        np.subtract(lam, weight, out=diff[:n])
        diff[-lo % p : n : p] = lam[-lo % p :: p]
        return np.multiply(diff[:n], chars.run(lo, n), out=out[:n])

    raw = _streamed_sum(X, balanced)
    return {"raw": raw, "normalized": raw / X, "X": X}


def pi_of(limit: int) -> int:
    """Number of primes < limit."""
    return int(primes_up_to(limit - 1).size)


def parse_matrix(text: str) -> list:
    """Rows as digit strings joined by ';', e.g. "102;011"."""
    rows = []
    for part in text.split(";"):
        part = part.strip()
        if not part.isdecimal():
            raise ArgumentError(f"bad matrix row {part!r}")
        rows.append([int(ch) for ch in part])
    if len({len(r) for r in rows}) != 1:
        raise ArgumentError("matrix rows must have equal length")
    return rows
