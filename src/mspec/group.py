"""The product-of-roots-of-unity space, its characters, and digit codecs.

An integer x in [0, X) is identified with its tuple of base-p_i digit
vectors through the Chinese remainder theorem.  Characters are indexed
by exponent vectors laid out little-endian mixed radix: blocks in input
order, digit j=0 least significant within a block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .arith import is_prime
from .errors import ArgumentError

MAX_X = 1 << 62


@lru_cache(maxsize=64)
def roots_of_unity(q: int) -> np.ndarray:
    """The q-th roots of unity with entry q-u the exact conjugate of entry u."""
    roots = np.empty(q, dtype=np.complex128)
    half = q // 2
    k = np.arange(half + 1)
    roots[: half + 1] = np.exp(2j * np.pi * k / q)
    roots[half + 1 :] = np.conj(roots[1 : q - half][::-1])
    roots.setflags(write=False)
    return roots


class GroupShape:
    """Primes, exponents, and the derived digit layout of X = prod p_i^d_i."""

    def __init__(self, primes, exponents):
        primes = [int(p) for p in primes]
        exponents = [int(e) for e in exponents]
        if not primes or len(primes) != len(exponents):
            raise ArgumentError("primes and exponents must be nonempty lists of equal length")
        if len(set(primes)) != len(primes):
            raise ArgumentError(f"duplicate prime in {primes}")
        if any(primes[i] >= primes[i + 1] for i in range(len(primes) - 1)):
            raise ArgumentError(f"primes must be strictly increasing, got {primes}")
        for p in primes:
            if not is_prime(p):
                raise ArgumentError(f"{p} is not prime")
        if any(e < 1 for e in exponents):
            raise ArgumentError(f"exponents must be >= 1, got {exponents}")
        X = 1
        for p, e in zip(primes, exponents):
            X *= p**e
            if X > MAX_X:
                raise ArgumentError("X overflows the supported word size")
        self.primes = tuple(primes)
        self.exponents = tuple(exponents)
        self.r = len(primes)
        self.X = X
        self.d = sum(exponents)
        self.block_sizes = tuple(p**e for p, e in zip(primes, exponents))
        # CRT multipliers (X / p_i^d_i)^{-1} mod p_i^d_i
        self.crt_inverses = tuple(
            pow(X // b, -1, b) if X // b > 1 else 1 % b if b > 1 else 0
            for b in self.block_sizes
        )
        # flat digit layout: radix per digit position, little-endian strides
        self.digit_primes = np.repeat(np.array(primes, dtype=np.int64), exponents)
        strides = np.ones(self.d, dtype=np.int64)
        for j in range(1, self.d):
            strides[j] = strides[j - 1] * self.digit_primes[j - 1]
        self.digit_strides = strides
        # narrowest signed integer holding every digit (int8 up to p = 127)
        self.digit_dtype = np.min_scalar_type(-max(primes))
        # (start, stop) of each block inside the flat digit vector
        stops = np.cumsum(exponents)
        self.block_slices = tuple(
            slice(int(stops[i] - exponents[i]), int(stops[i])) for i in range(self.r)
        )

    def __repr__(self):
        return "GroupShape(%s)" % "*".join(
            f"{p}^{e}" for p, e in zip(self.primes, self.exponents)
        )

    def __eq__(self, other):
        return (
            isinstance(other, GroupShape)
            and self.primes == other.primes
            and self.exponents == other.exponents
        )

    def __hash__(self):
        return hash((self.primes, self.exponents))

    # -- digit codecs ---------------------------------------------------

    def encode(self, x: int):
        """Per-block base-p_i digits of x, least significant first."""
        x = int(x)
        if not 0 <= x < self.X:
            raise ArgumentError(f"x={x} outside [0, {self.X})")
        blocks = []
        for p, e, b in zip(self.primes, self.exponents, self.block_sizes):
            xi = x % b
            digits = []
            for _ in range(e):
                digits.append(xi % p)
                xi //= p
            blocks.append(tuple(digits))
        return tuple(blocks)

    def decode(self, blocks) -> int:
        """CRT reconstruction; inverse of encode."""
        flat = flatten_digits(blocks)
        if len(flat) != self.d:
            raise ArgumentError(f"expected {self.d} digits, got {len(flat)}")
        x = 0
        for i, (p, b) in enumerate(zip(self.primes, self.block_sizes)):
            digits = flat[self.block_slices[i]]
            if any(not 0 <= t < p for t in digits):
                raise ArgumentError(f"digit out of range for prime {p}: {digits}")
            xi = 0
            for t in reversed(digits):
                xi = xi * p + int(t)
            x += xi * (self.X // b) * self.crt_inverses[i]
        return x % self.X

    def digits_matrix(self, xs=None) -> np.ndarray:
        """(n, d) matrix of flat digit vectors, dtype digit_dtype; all of
        [0, X) by default."""
        if xs is None:
            xs = np.arange(self.X, dtype=np.int64)
        else:
            xs = np.asarray(xs, dtype=np.int64)
        out = np.empty((xs.shape[0], self.d), dtype=self.digit_dtype)
        col = 0
        for p, e, b in zip(self.primes, self.exponents, self.block_sizes):
            xi = xs % b
            for _ in range(e):
                out[:, col] = xi % p
                xi //= p
                col += 1
        return out

    def flat_index_of(self, xs) -> np.ndarray:
        """Character-layout flat index of the digit vectors of xs.

        Block i's digits are those of x mod b_i and sit at consecutive
        little-endian positions, so the index is sum_i (x mod b_i) * B_i
        with B_i the stride of the block's first digit.
        """
        xs = np.arange(self.X, dtype=np.int64) if xs is None else np.asarray(xs, dtype=np.int64)
        out = np.zeros(xs.shape[0], dtype=np.int64)
        rem = np.empty_like(out)
        for b, s in zip(self.block_sizes, self.block_slices):
            np.remainder(xs, b, out=rem)
            rem *= self.digit_strides[s.start]
            out += rem
        return out

    def char_digits_matrix(self, indices=None) -> np.ndarray:
        """(n, d) digit matrix of flat character indices (mixed radix).

        Differs from digits_matrix for multi-prime shapes: character
        indices are decoded positionally, not through the CRT.
        """
        if indices is None:
            indices = np.arange(self.X, dtype=np.int64)
        else:
            indices = np.asarray(indices, dtype=np.int64).copy()
        out = np.empty((indices.shape[0], self.d), dtype=self.digit_dtype)
        rem = indices.copy()
        for j in range(self.d):
            p = int(self.digit_primes[j])
            out[:, j] = rem % p
            rem //= p
        return out

    def add(self, g: int, x: int) -> int:
        """Digitwise (carry-free) group addition of two elements."""
        gb, xb = self.encode(g), self.encode(x)
        summed = tuple(
            tuple((a + b) % p for a, b in zip(gi, xi))
            for p, gi, xi in zip(self.primes, gb, xb)
        )
        return self.decode(summed)

    def translation(self, g: int, xs=None) -> np.ndarray:
        """Vector of g + x (digitwise) over xs, as integers."""
        xs = np.arange(self.X, dtype=np.int64) if xs is None else np.asarray(xs, dtype=np.int64)
        weights = self._decode_weights()
        out = np.zeros(xs.shape[0], dtype=np.int64)
        col = 0
        for p, e, b in zip(self.primes, self.exponents, self.block_sizes):
            rem = xs % b
            gi = g % b
            for _ in range(e):
                out += (rem % p + gi % p) % p * weights[col]
                rem //= p
                gi //= p
                col += 1
        return out % self.X

    def _decode_weights(self) -> np.ndarray:
        # weight of digit (i, j) in the CRT reconstruction, mod X
        w = np.empty(self.d, dtype=np.int64)
        col = 0
        for i, (p, e, b) in enumerate(zip(self.primes, self.exponents, self.block_sizes)):
            base = (self.X // b) * self.crt_inverses[i]
            pw = 1
            for _ in range(e):
                w[col] = (base * pw) % self.X
                pw *= p
                col += 1
        return w


def flatten_digits(blocks):
    """Accept nested per-block digits or an already-flat sequence."""
    flat = []
    for item in blocks:
        if isinstance(item, (tuple, list, np.ndarray)):
            flat.extend(int(t) for t in item)
        else:
            flat.append(int(item))
    return flat


@dataclass(frozen=True)
class CharacterIndex:
    """Exponent vector a with cached weight and type."""

    digits: tuple
    shape: GroupShape

    @classmethod
    def from_digits(cls, digits, shape: GroupShape) -> "CharacterIndex":
        flat = flatten_digits(digits)
        if len(flat) != shape.d:
            raise ArgumentError(f"expected {shape.d} digits, got {len(flat)}")
        for j, t in enumerate(flat):
            p = int(shape.digit_primes[j])
            if not 0 <= t < p:
                raise ArgumentError(f"digit {t} at position {j} out of range for prime {p}")
        return cls(tuple(flat), shape)

    @classmethod
    def from_flat(cls, index: int, shape: GroupShape) -> "CharacterIndex":
        index = int(index)
        if not 0 <= index < shape.X:
            raise ArgumentError(f"flat index {index} outside [0, {shape.X})")
        digits = []
        for p in shape.digit_primes:
            digits.append(index % int(p))
            index //= int(p)
        return cls(tuple(digits), shape)

    @property
    def flat(self) -> int:
        return int(np.array(self.digits, dtype=np.int64) @ self.shape.digit_strides)

    @property
    def weight(self) -> int:
        return sum(1 for t in self.digits if t != 0)

    def block(self, i: int) -> tuple:
        return self.digits[self.shape.block_slices[i]]

    def block_weight(self, i: int) -> int:
        return sum(1 for t in self.block(i) if t != 0)

    @property
    def type_tuple(self) -> tuple:
        """Per-block histogram (m_{i,t})_{t < p_i} of digit values."""
        out = []
        for i, p in enumerate(self.shape.primes):
            counts = [0] * p
            for t in self.block(i):
                counts[t] += 1
            out.append(tuple(counts))
        return tuple(out)


def make_group_shape(primes, exponents) -> GroupShape:
    return GroupShape(primes, exponents)


def encode(x: int, shape: GroupShape):
    return shape.encode(x)


def decode(digits, shape: GroupShape) -> int:
    return shape.decode(digits)


def char_eval(a: CharacterIndex, x: int, shape: GroupShape | None = None) -> complex:
    """chi_a(x) as a product of root-of-unity table entries."""
    shape = shape or a.shape
    xd = flatten_digits(shape.encode(x))
    value = complex(1.0)
    for i, p in enumerate(shape.primes):
        s = shape.block_slices[i]
        e = sum(ai * xi for ai, xi in zip(a.digits[s], xd[s])) % p
        value *= roots_of_unity(p)[e]
    return value


def char_values(a: CharacterIndex, shape: GroupShape | None = None,
                xs=None) -> np.ndarray:
    """chi_a over xs (all of [0, X) by default), via exact root tables."""
    shape = shape or a.shape
    xs = np.asarray(np.arange(shape.X) if xs is None else xs, dtype=np.int64)
    values = None
    for i, (p, b) in enumerate(zip(shape.primes, shape.block_sizes)):
        ai = a.block(i)
        if not any(ai):
            continue
        # exponent sum_j a_j x_j, one base-p digit of x mod b at a time
        rem = xs % b
        e = np.zeros(xs.shape[0], dtype=np.int64)
        for t in ai:
            if t:
                e += t * (rem % p)
            rem //= p
        block_vals = roots_of_unity(p)[e % p]
        values = block_vals if values is None else values * block_vals
    if values is None:
        return np.ones(xs.shape[0], dtype=np.complex128)
    return values


def char_stats(a: CharacterIndex, shape: GroupShape | None = None):
    """(weight, type, class size) where class size is the exact orbit count
    under per-block digit permutations."""
    shape = shape or a.shape
    ttuple = a.type_tuple
    class_size = 1
    for i, counts in enumerate(ttuple):
        block = math.factorial(shape.exponents[i])
        for m in counts:
            block //= math.factorial(m)
        class_size *= block
    return a.weight, ttuple, class_size


def _rref_mod_p(matrix: np.ndarray, p: int):
    m = matrix.copy() % p
    rows, cols = m.shape
    rank = 0
    pivots = []
    for col in range(cols):
        pivot = None
        for row in range(rank, rows):
            if m[row, col] % p:
                pivot = row
                break
        if pivot is None:
            continue
        m[[rank, pivot]] = m[[pivot, rank]]
        inv = pow(int(m[rank, col]), -1, p)
        m[rank] = (m[rank] * inv) % p
        for row in range(rows):
            if row != rank and m[row, col]:
                m[row] = (m[row] - m[row, col] * m[rank]) % p
        pivots.append(col)
        rank += 1
        if rank == rows:
            break
    return m, rank, pivots


def parse_shape(text: str) -> GroupShape:
    """Parse a shape literal like "2^2*3^1" (also accepts the * as x)."""
    primes, exponents = [], []
    for part in text.replace("x", "*").split("*"):
        part = part.strip()
        if not part:
            raise ArgumentError(f"empty factor in shape literal {text!r}")
        if "^" in part:
            p_str, e_str = part.split("^", 1)
            p, e = int(p_str), int(e_str)
        else:
            p, e = int(part), 1
        primes.append(p)
        exponents.append(e)
    return GroupShape(primes, exponents)
