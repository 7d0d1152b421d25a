"""Sieve construction of the arithmetic functions used throughout.

Tables are dense over [0, X) with the convention that index 0 carries
value 0 for every kind.  All sieves run segmented (segment size 2**19)
so results are identical regardless of table size, and each segment's
scratch rows are allocated once per call and stay in cache.  Every prime
list, primes_up_to's and the root primes of each sieve among them, comes
from the one segmented prime sieve, _segment_primes.  Von Mangoldt Lambda
is also streamed from its segments a chunk at a time, with no table.

The Möbius and Liouville kernel works on strided slices ``[start::q]``
of one signed accumulator, one slice per root prime power q, with no
index arrays, no integer division and no masked ufunc: each slice is
multiplied by -p, so the accumulator holds the root-prime part of each
entry with the sign (-1)^(its prime factor count).  One comparison of
its absolute value against the entry then accounts for the single prime
factor above the square root that an entry can have.  The accumulator
and the von Mangoldt ``pp_prime`` share one width rule: int32 up to
2**31 entries and int64 above, since neither exceeds its entry.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import ArgumentError, ResourceError

SEGMENT_SIZE = 1 << 19
# largest table, in table entries, that sieve builds unless its mem_cap says
# otherwise, and that load_table reads; read at call time
DEFAULT_MEM_CAP = 1 << 31

KINDS = ("mobius", "liouville", "von_mangoldt", "square_indicator")
_KIND_CODES = {k: i for i, k in enumerate(KINDS)}

_MAGIC = b"MSPC"
# entries per read when load_table checks a dump
_LOAD_CHUNK = 1 << 16


def primes_up_to(n: int) -> np.ndarray:
    """All primes <= n as an int64 array (empty for n < 2), from the segmented sieve."""
    if n < 2:
        return np.empty(0, dtype=np.int64)
    return np.concatenate([p for _, p in _segment_primes(n + 1, SEGMENT_SIZE, SEGMENT_SIZE)])


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
    ``pp_prime`` is int32 up to 2**31 entries and int64 above, ``pp_exp``
    uint8, so the table costs 13 B/entry; both are 0 off the prime powers.
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


def _word(limit: int):
    """Integer type of the sieve's per-entry words: every word is at most
    its entry, which is below limit."""
    return np.int32 if limit <= 1 << 31 else np.int64


def _sieve_mobius_liouville(kind: str, limit: int, segment_size: int) -> np.ndarray:
    # Each segment [lo, hi) is sieved on strided views of one signed
    # accumulator.  For every root prime p and power q = p^k < hi, the
    # view of multiples of q (from q on) is multiplied by -p, so
    # afterwards |acc| is the part of n built from primes <= sqrt(limit - 1)
    # and its sign is (-1)^(its prime factor count); for mobius a view with
    # k >= 2 is zeroed instead and higher powers are skipped.  n / |acc| is
    # then 1 or a single prime above the root, so |acc| < n flips the sign
    # once more.  The three rows are allocated once and reused by every
    # segment, which keeps a segment in cache.
    values = np.empty(limit, dtype=np.int8)
    root_primes = [int(p) for p in primes_up_to(math.isqrt(max(limit - 1, 0)))]
    width = min(segment_size, limit)
    acc = np.empty(width, dtype=_word(limit))
    entry = np.arange(width, dtype=acc.dtype)
    flip = np.empty(width, dtype=np.int8)
    for lo in range(0, limit, segment_size):
        hi = min(lo + segment_size, limit)
        n = hi - lo
        seg = acc[:n]
        seg.fill(1)
        for p in root_primes:
            q = p
            while q < hi:
                view = seg[max(lo + (-lo) % q, q) - lo :: q]
                if kind == "mobius" and q > p:
                    view.fill(0)
                    break
                np.multiply(view, -p, out=view)
                q *= p
        sign = values[lo:hi]
        np.sign(seg, out=sign)
        np.abs(seg, out=seg)
        # only the last segment is shorter, so entry[:n] holds lo .. hi - 1
        here = entry[:n]
        if lo:
            here += segment_size
        big = flip[:n]
        np.less(seg, here, out=big)
        big *= -2
        big += 1
        sign *= big
    values[0] = 0
    return values


def _segment_primes(limit: int, segment_size: int, run: int):
    """(lo, the sorted int64 primes of [lo, lo + run)) per run of each segment."""
    # root-prime multiples are marked in one bool row that every segment reuses
    root_primes = [int(p) for p in primes_up_to(math.isqrt(max(limit - 1, 0)))]
    composite = np.empty(min(segment_size, limit), dtype=bool)
    for lo in range(0, limit, segment_size):
        hi = min(lo + segment_size, limit)
        seg = composite[: hi - lo]
        seg.fill(False)
        seg[: max(0, 2 - lo)] = True  # 0 and 1 are not primes
        for p in root_primes:
            start = max(lo + (-lo) % p, p * p)
            if start < hi:
                seg[start - lo :: p] = True
        np.logical_not(seg, out=seg)  # now the primes of the segment
        for at in range(0, hi - lo, run):
            yield lo + at, np.flatnonzero(seg[at : at + run]) + (lo + at)


def _prime_powers(limit: int):
    """(q, p, k, log p) of the prime powers q = p^k < limit, k >= 2, by q."""
    # k runs one past the float log_p(limit), so no power below limit is missed
    rows = sorted((p**k, p, k) for p in primes_up_to(math.isqrt(max(limit - 1, 0))).tolist()
                  for k in range(2, int(math.log(limit, p)) + 2) if p**k < limit)
    q, p, k = np.array(rows, dtype=np.int64).reshape(-1, 3).T
    return q, p, k, np.array([math.log(x) for x in p.tolist()])


def _sieve_von_mangoldt(limit: int, segment_size: int):
    values = np.zeros(limit, dtype=np.float64)
    pp_prime = np.zeros(limit, dtype=_word(limit))
    pp_exp = np.zeros(limit, dtype=np.uint8)
    for _, primes in _segment_primes(limit, segment_size, segment_size):
        values[primes], pp_prime[primes], pp_exp[primes] = np.log(primes), primes, 1
    q, p, k, log_p = _prime_powers(limit)
    values[q], pp_prime[q], pp_exp[q] = log_p, p, k
    return ArithmeticTable("von_mangoldt", limit, values, pp_prime, pp_exp)


def _von_mangoldt_chunks(limit: int, chunk: int):
    """Lambda with no table: after sieve()'s checks, (lo, lam, offsets) per run [lo, lo + chunk),
    lam the sieve's values there in one reused buffer, offsets the run's primes minus lo."""
    _check_sieve("von_mangoldt", limit, SEGMENT_SIZE, None)
    q, _, _, log_p = _prime_powers(limit)

    def chunks():
        buf = np.empty(min(chunk, limit))
        # chunk divides SEGMENT_SIZE, so every run but the last holds chunk entries
        for lo, primes in _segment_primes(limit, SEGMENT_SIZE, chunk):
            buf.fill(0.0)
            buf[primes - lo] = np.log(primes)
            i, j = np.searchsorted(q, (lo, lo + chunk))
            buf[q[i:j] - lo] = log_p[i:j]
            yield lo, buf[: min(chunk, limit - lo)], primes - lo

    return chunks()


def _sieve_squares(limit: int) -> np.ndarray:
    values = np.zeros(limit, dtype=np.int8)
    values[np.arange(1, math.isqrt(limit - 1) + 1) ** 2] = 1
    return values


def _check_sieve(kind: str, limit: int, segment_size: int, mem_cap: int | None) -> None:
    # sieve()'s argument and cap checks, which _von_mangoldt_chunks makes too
    if kind not in KINDS:
        raise ArgumentError(f"unknown function kind {kind!r}; expected one of {KINDS}")
    cap = DEFAULT_MEM_CAP if mem_cap is None else mem_cap
    if limit < 1:
        raise ArgumentError(f"limit must be >= 1, got {limit}")
    if segment_size < 1:
        raise ArgumentError(f"segment_size must be >= 1, got {segment_size}")
    if limit > cap:
        raise ResourceError(f"limit {limit} exceeds memory cap {cap} entries")


def sieve(kind: str, limit: int, segment_size: int = SEGMENT_SIZE,
          mem_cap: int | None = None) -> ArithmeticTable:
    """Build the dense table of ``kind`` on [0, limit)."""
    _check_sieve(kind, limit, segment_size, mem_cap)
    if kind in ("mobius", "liouville"):
        return ArithmeticTable(kind, limit, _sieve_mobius_liouville(kind, limit, segment_size))
    if kind == "von_mangoldt":
        return _sieve_von_mangoldt(limit, segment_size)
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
        dtype = "<f8" if table.kind == "von_mangoldt" else np.int8
        fh.write(np.ascontiguousarray(table.values, dtype=dtype).data)


def payload_chunks(fh, count: int, dtype, chunk: int):
    """Check that the rest of the open dump ``fh`` holds exactly ``count``
    entries of ``dtype``, by the file's byte count and before anything is
    allocated; then return an iterator of (start, entries) over them, read
    ``chunk`` entries at a time into one buffer that each step reuses.

    A wrong size, a short read or bytes past the payload raise
    ArgumentError saying "table dump holds N payload bytes; its header
    says C entries of W bytes"."""
    dtype = np.dtype(dtype)
    size = count * dtype.itemsize

    def wrong_size(held):
        held = f"more than {size}" if held > size else str(held)
        return ArgumentError(f"table dump holds {held} payload bytes; its header says "
                             f"{count} entries of {dtype.itemsize} bytes")

    held = os.fstat(fh.fileno()).st_size - fh.tell()
    if held != size:
        raise wrong_size(held)

    def chunks():
        buf = np.empty(min(count, chunk), dtype)
        for lo in range(0, count, chunk):
            part = buf[: min(chunk, count - lo)]
            got = fh.readinto(part)
            if got != part.nbytes:
                raise wrong_size(lo * dtype.itemsize + got)
            yield lo, part
        if fh.read(1):
            raise wrong_size(size + 1)

    return chunks()


def load_table(path: str) -> ArithmeticTable:
    """Read a dump_table file, chunk by chunk.  A von Mangoldt dump is
    checked against a fresh sieve, and the sieved table is returned; any
    other dump must hold values in {-1, 0, 1} ({0, 1} for the square
    indicator) with entry 0 equal to 0, as every sieve writes them."""
    with open(path, "rb") as fh:
        header = fh.read(16)
        if header[:4] != _MAGIC or len(header) < 16:
            raise ArgumentError(f"bad magic or short header {header!r}; not a table dump")
        code, limit = struct.unpack("<B3xQ", header[4:])
        if code >= len(KINDS):
            raise ArgumentError(f"unknown kind code {code} in table dump")
        kind = KINDS[code]
        if limit > DEFAULT_MEM_CAP:
            raise ResourceError(f"table dump header says {limit} entries; "
                                f"memory cap is {DEFAULT_MEM_CAP} entries")
        dtype = np.dtype("<f8" if kind == "von_mangoldt" else np.int8)
        chunks = payload_chunks(fh, limit, dtype, _LOAD_CHUNK)
        if kind == "von_mangoldt":
            # pairs are reconstructed rather than stored
            rebuilt = sieve(kind, limit)
            for lo, part in chunks:  # array_equal first: allclose is 6 times slower
                want = rebuilt.values[lo : lo + part.size]
                if not np.array_equal(want, part) and not np.allclose(want, part):
                    raise ArgumentError("corrupt von_mangoldt dump")
            return rebuilt
        low = 0 if kind == "square_indicator" else -1
        values = np.empty(limit, dtype)
        for lo, part in chunks:
            if part.min() < low or part.max() > 1 or (lo == 0 and part[0]):
                raise ArgumentError(
                    f"corrupt {kind} dump: entries in [{lo}, {lo + part.size}) "
                    f"leave [{low}, 1] or entry 0 is not 0")
            values[lo : lo + part.size] = part
    return ArithmeticTable(kind, limit, values)
