"""Sieve construction of the arithmetic functions used throughout.

Tables are dense over [0, X) with the convention that index 0 carries
value 0 for every kind.  All sieves run segmented (segment size 2**22)
so results are identical regardless of table size.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import ArgumentError, ResourceError

SEGMENT_SIZE = 1 << 22
DEFAULT_MEM_CAP = 1 << 31

KINDS = ("mobius", "liouville", "von_mangoldt", "square_indicator")
_KIND_CODES = {k: i for i, k in enumerate(KINDS)}

_MAGIC = b"MSPC"


def memory_cap() -> int:
    """Largest table, in table entries, that sieve builds; MSPC_MEM_CAP
    overrides it in the same unit."""
    env = os.environ.get("MSPC_MEM_CAP")
    if env is not None:
        return int(env)
    return DEFAULT_MEM_CAP


def primes_up_to(n: int) -> np.ndarray:
    """All primes <= n as an int64 array (empty for n < 2)."""
    if n < 2:
        return np.empty(0, dtype=np.int64)
    mask = np.ones(n + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return np.flatnonzero(mask).astype(np.int64)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass
class ArithmeticTable:
    """Dense table of an arithmetic function on [0, limit).

    For von_mangoldt the (prime, exponent) pair arrays give the exact
    prime-power identity; ``values`` then holds log(p) as a double.
    """

    kind: str
    limit: int
    values: np.ndarray
    pp_prime: np.ndarray | None = field(default=None, repr=False)
    pp_exp: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        self.values.setflags(write=False)
        if self.pp_prime is not None:
            self.pp_prime.setflags(write=False)
            self.pp_exp.setflags(write=False)


def _factor_segment(lo: int, hi: int, root_primes: np.ndarray):
    """Per-entry (omega, squarefree) for n in [lo, hi) via trial slicing.

    omega counts prime factors with multiplicity; a single prime factor
    above sqrt(limit) is accounted for by the leftover residual.
    """
    n = hi - lo
    residual = np.arange(lo, hi, dtype=np.int64)
    omega = np.zeros(n, dtype=np.int16)
    squarefree = np.ones(n, dtype=bool)
    for p in root_primes:
        p = int(p)
        start = max(lo + (-lo) % p, p)
        if start >= hi:
            continue
        idx = np.arange(start - lo, hi - lo, p)
        residual[idx] //= p
        omega[idx] += 1
        mask = residual[idx] % p == 0
        squarefree[idx[mask]] = False
        while mask.any():
            idx = idx[mask]
            residual[idx] //= p
            omega[idx] += 1
            mask = residual[idx] % p == 0
    big = residual > 1
    omega[big] += 1
    return omega, squarefree


def _sieve_mobius_liouville(kind: str, limit: int, segment_size: int) -> np.ndarray:
    values = np.empty(limit, dtype=np.int8)
    root_primes = primes_up_to(math.isqrt(max(limit - 1, 0)))
    for lo in range(0, limit, segment_size):
        hi = min(lo + segment_size, limit)
        omega, squarefree = _factor_segment(lo, hi, root_primes)
        sign = (1 - 2 * (omega & 1)).astype(np.int8)
        if kind == "mobius":
            values[lo:hi] = np.where(squarefree, sign, 0)
        else:
            values[lo:hi] = sign
    values[0] = 0
    return values


def _sieve_von_mangoldt(limit: int, segment_size: int):
    values = np.zeros(limit, dtype=np.float64)
    pp_prime = np.zeros(limit, dtype=np.int64)
    pp_exp = np.zeros(limit, dtype=np.uint8)
    root_primes = primes_up_to(math.isqrt(max(limit - 1, 0)))
    for lo in range(0, limit, segment_size):
        hi = min(lo + segment_size, limit)
        composite = np.zeros(hi - lo, dtype=bool)
        for p in root_primes:
            p = int(p)
            start = max(lo + (-lo) % p, p * p)
            if start < hi:
                composite[start - lo : hi - lo : p] = True
        n = np.arange(lo, hi, dtype=np.int64)
        prime_mask = ~composite
        prime_mask[: max(0, 2 - lo)] = False
        primes_here = n[prime_mask]
        values[primes_here] = np.log(primes_here)
        pp_prime[primes_here] = primes_here
        pp_exp[primes_here] = 1
    # proper prime powers p^k, k >= 2
    for p in root_primes:
        p = int(p)
        q = p * p
        k = 2
        while q < limit:
            values[q] = math.log(p)
            pp_prime[q] = p
            pp_exp[q] = k
            q *= p
            k += 1
    return values, pp_prime, pp_exp


def _sieve_squares(limit: int) -> np.ndarray:
    values = np.zeros(limit, dtype=np.int8)
    r = 1
    while r * r < limit:
        values[r * r] = 1
        r += 1
    return values


def sieve(kind: str, limit: int, segment_size: int = SEGMENT_SIZE,
          mem_cap: int | None = None) -> ArithmeticTable:
    """Build the dense table of ``kind`` on [0, limit)."""
    if kind not in KINDS:
        raise ArgumentError(f"unknown function kind {kind!r}; expected one of {KINDS}")
    cap = memory_cap() if mem_cap is None else mem_cap
    if limit < 1:
        raise ArgumentError(f"limit must be >= 1, got {limit}")
    if limit > cap:
        raise ResourceError(f"limit {limit} exceeds memory cap {cap} entries")
    if kind in ("mobius", "liouville"):
        return ArithmeticTable(kind, limit, _sieve_mobius_liouville(kind, limit, segment_size))
    if kind == "von_mangoldt":
        values, pp_prime, pp_exp = _sieve_von_mangoldt(limit, segment_size)
        return ArithmeticTable(kind, limit, values, pp_prime, pp_exp)
    return ArithmeticTable(kind, limit, _sieve_squares(limit))


def nu_p_weight(n: int, p: int) -> Fraction:
    """p/(p-1) when p does not divide n (n >= 1), else 0."""
    if not is_prime(p):
        raise ArgumentError(f"{p} is not prime")
    if n < 0:
        raise ArgumentError(f"n must be >= 0, got {n}")
    if n == 0 or n % p == 0:
        return Fraction(0)
    return Fraction(p, p - 1)


def dump_table(table: ArithmeticTable, path: str) -> None:
    """Little-endian binary dump: 16-byte header then packed values."""
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<B3x", _KIND_CODES[table.kind]))
        fh.write(struct.pack("<Q", table.limit))
        if table.kind == "von_mangoldt":
            fh.write(table.values.astype("<f8").tobytes())
        else:
            fh.write(table.values.astype(np.int8).tobytes())


def load_table(path: str) -> ArithmeticTable:
    with open(path, "rb") as fh:
        header = fh.read(16)
        if header[:4] != _MAGIC or len(header) < 16:
            raise ArgumentError(f"bad magic or short header {header!r}; not a table dump")
        code, limit = struct.unpack("<B3xQ", header[4:])
        if code >= len(KINDS):
            raise ArgumentError(f"unknown kind code {code} in table dump")
        kind = KINDS[code]
        dtype = np.dtype("<f8" if kind == "von_mangoldt" else np.int8)
        payload = fh.read()
    if len(payload) != dtype.itemsize * limit:
        raise ArgumentError(f"table dump holds {len(payload)} payload bytes; its "
                            f"header says {limit} entries of {dtype.itemsize} bytes")
    values = np.frombuffer(payload, dtype=dtype).copy()
    if kind == "von_mangoldt":
        # pairs are reconstructed rather than stored
        rebuilt = sieve(kind, limit)
        if not np.allclose(rebuilt.values, values):
            raise ArgumentError("corrupt von_mangoldt dump")
        return rebuilt
    return ArithmeticTable(kind, limit, values)
