"""The product-of-roots-of-unity space, its characters, and digit codecs.

An integer x in [0, X) is identified with its tuple of base-p_i digit
vectors through the Chinese remainder theorem.  Characters are indexed
by exponent vectors laid out little-endian mixed radix: blocks in input
order, digit j=0 least significant within a block.

The group is a product of CRT blocks Z/p_i^d_i, so every digit function
(exponents, syndromes, digit counts, translations, the layout index)
factors over blocks: block_table builds one on a block's b_i = p_i^d_i
local values.  A CrtReader builds one HalvesReader per block, which reads
the table or its digit halves at x mod b_i, and joins their reads in block
order by one ufunc (np.add, np.multiply, np.logical_and): at points, over
a run, or over all of [0, X) a CHUNK at a time into one array.  In layout order,
layout_sum adds the tables, one np.add.outer per block.  GroupShape.digit
and encode are the scalar codec.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .arith import is_prime
from .errors import ArgumentError

MAX_X = 1 << 62
# entries per chunk of a streamed pass, a multiple of spectral.SUM_BLOCK; also
# the longest roots-of-unity table that is built and cached
CHUNK = 1 << 15


def _roots(q: int, k) -> np.ndarray:
    # e(k / q) at int64 k in [0, q), from e(min(k, q - k) / q): entry q - k is
    # the exact conjugate of entry k
    flip = k > q // 2
    roots = np.exp(2j * np.pi * np.where(flip, q - k, k) / q)
    return np.where(flip, roots.conj(), roots)


@lru_cache(maxsize=64)
def _root_table(q: int) -> np.ndarray:
    roots = _roots(q, np.arange(q))
    roots.setflags(write=False)
    return roots


def roots_of_unity(q: int) -> np.ndarray:
    """The q-th roots of unity with entry q-u the exact conjugate of entry u;
    a table of at most CHUNK entries is cached, a longer one built per call."""
    return _root_table(q) if q <= CHUNK else _roots(q, np.arange(q))


def roots_at(q: int, u) -> np.ndarray:
    """Entries u mod q of roots_of_unity(q), for int64 u in [0, 2q): read
    from the table when q <= CHUNK, else evaluated at u alone, bit for bit."""
    if q <= CHUNK:
        return roots_of_unity(q).take(u, mode="wrap")
    return _roots(q, np.asarray(u, dtype=np.int64) % q)


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
        self.crt_inverses = tuple(pow(X // b, -1, b) for b in self.block_sizes)
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
        # B_i: flat-layout stride of each block's first digit
        self.block_strides = tuple(math.prod(self.block_sizes[:i]) for i in range(self.r))

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
        for p, s in zip(self.primes, self.block_slices):
            if any(not 0 <= t < p for t in flat[s]):
                raise ArgumentError(f"digit out of range for prime {p}: {flat[s]}")
        return sum(t * int(w) for t, w in zip(flat, self._decode_weights())) % self.X

    def digit(self, j: int, indices):
        """Digit j of flat character-layout indices (an int or an int64
        array)."""
        return indices // self.digit_strides[j] % self.digit_primes[j]

    def digits_matrix(self, xs=None) -> np.ndarray:
        """(n, d) matrix of flat digit vectors, dtype digit_dtype; all of
        [0, X) by default."""
        return self.char_digits_matrix(self.flat_index_of(xs))

    def flat_index_of(self, xs) -> np.ndarray:
        """Character-layout flat index of the digit vectors of xs (all of
        [0, X) for None): block i's digits are those of x mod b_i, at
        little-endian stride B_i, so the index is sum_i (x mod b_i) * B_i."""
        return self.index_reader().at(xs)

    def index_reader(self) -> CrtReader:
        """CrtReader of flat_index_of: per block y -> B_i y, from the halves
        of the linear form y mod b_i (one table while b_i <= CHUNK)."""
        return CrtReader(self.X, [(b, _linear_halves(1, b, CHUNK), partial(np.multiply, B))
                                  for b, B in zip(self.block_sizes, self.block_strides)],
                         np.add, np.int64)

    def block_table(self, i: int, terms) -> np.ndarray:
        """(..., p_i^k) table of a digit function on the values y of k digits
        of block i: entry y is sum_j terms[..., j, digit j of y] for
        (..., k, p_i) terms, one broadcast add per digit (k = d_i: the whole
        block)."""
        table = terms[..., 0, :]
        for k in range(1, terms.shape[-2]):
            # sizes spelled out: a leading axis of length 0 admits no -1
            table = (terms[..., k, :, None] + table[..., None, :]).reshape(
                terms.shape[:-2] + (self.primes[i] ** (k + 1),))
        return table

    def layout_sum(self, tables) -> np.ndarray:
        """(X,) array over flat layout indices sum_i y_i B_i: the sum over
        blocks of tables[i][y_i], one np.add.outer per block from the most
        significant down; for one block, the table itself."""
        out = tables[-1]
        for table in reversed(tables[:-1]):
            out = np.add.outer(out, table).reshape(-1)
        return out

    def char_digits_matrix(self, indices=None) -> np.ndarray:
        """(n, d) digit matrix of flat character indices (mixed radix).

        Differs from digits_matrix for multi-prime shapes: character
        indices are decoded positionally, not through the CRT.
        """
        if indices is None:
            indices = np.arange(self.X, dtype=np.int64)
        else:
            indices = np.asarray(indices, dtype=np.int64)
        out = np.empty((indices.shape[0], self.d), dtype=self.digit_dtype)
        for j in range(self.d):
            out[:, j] = self.digit(j, indices)
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
        """Vector of g + x (digitwise) over xs, as integers: per block, the
        CRT weights of y + g (digitwise) read at x mod b_i."""
        gd, w = np.array(flatten_digits(self.encode(g))), self._decode_weights()
        tables = [(b, self.block_table(i, (np.arange(p) + gd[s, None]) % p * w[s, None]))
                  for i, (p, b, s) in enumerate(zip(self.primes, self.block_sizes,
                                                    self.block_slices))]
        out = CrtReader(self.X, tables, np.add, np.int64).at(xs)
        out %= self.X
        return out

    def exponent_halves(self, i: int, coeffs, whole: int):
        """(m, low, high) with sum_j coeffs_j y_j = low[y mod m] + high[y div m]
        (mod p_i) for block i's values y: one table (m = b_i, high None) when
        b_i <= whole, else the low and high digit halves, of about sqrt(b_i)
        entries each; a one-digit block is the form c y of _linear_halves."""
        p, e, b = self.primes[i], self.exponents[i], self.block_sizes[i]
        if e == 1:
            return _linear_halves(int(coeffs[0]) % p, p, whole)
        terms = np.asarray(coeffs, dtype=np.int64)[:, None] * np.arange(p) % p
        k = e if b <= whole else e // 2
        high = self.block_table(i, terms[k:]) % p if k < e else None
        return p**k, self.block_table(i, terms[:k]) % p, high

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


def _linear_halves(c: int, q: int, whole: int):
    """(m, low, high) with c y = low[y mod m] + high[y div m] (mod q) for y in
    [0, q): m = q and high None when q <= whole, else m about sqrt(q)."""
    m = q if q <= whole else math.isqrt(q - 1) + 1
    return m, c * np.arange(m) % q, None if m == q else c * m % q * np.arange(-(-q // m)) % q


class HalvesReader:
    """A function v of y = x mod b, at sample points (at) or over runs of
    consecutive x (run): a plain table of b values (take None), or
    take(low[y mod m] + high[y div m]) from halves (m, low, high), where take
    maps an int64 array of sums to values (roots_at or a wrapped np.take from
    a table, for exponents mod q and sums below 2q).  One table (m >= b) is
    taken once; a run is a slice of it or, once it wraps, two slices joined
    (n < b) or a slice of the table tiled past its end.  Otherwise a run,
    cut where x mod b wraps, is whole rows of the (len(high), m) grid: a
    broadcast add high[rows, None] + low, one take and a slice."""

    def __init__(self, b: int, halves, take=None):
        self.b, self.take, self.tiled = b, take, None
        self.m, self.low, self.high = (b, halves, None) if take is None else halves
        self.table = self.low if take is None else take(self.low) if self.m >= b else None

    def at(self, xs) -> np.ndarray:
        y = np.asarray(xs, dtype=np.int64) % self.b
        if self.table is not None:
            return self.table[y]
        return self.take(self.low[y % self.m] + self.high[y // self.m])

    def run(self, lo: int, n: int) -> np.ndarray:
        s, b = lo % self.b, self.b
        if self.table is not None:
            if s + n <= b:
                return self.table[s : s + n]
            if n < b:  # one wrap: two pieces, no tile of a large table
                return np.concatenate((self.table[s:], self.table[: s + n - b]))
            if self.tiled is None or s + n > self.tiled.size:
                self.tiled = np.empty((n // b + 2, b), self.table.dtype)
                self.tiled[...] = self.table
            return self.tiled.reshape(-1)[s : s + n]
        pieces, m = [], self.m
        while n:
            k = min(n, b - s)
            r0 = s // m
            grid = (self.high[r0 : (s + k - 1) // m + 1, None] + self.low).reshape(-1)
            pieces.append(self.take(grid[s - r0 * m : s - r0 * m + k]))
            n, s = n - k, 0
        return pieces[0] if len(pieces) == 1 else np.concatenate(pieces)


class CrtReader:
    """x -> v_k(x mod b_k) over parts (b_k, halves or table, take), each read
    by a HalvesReader, joined in order by combine (a binary ufunc; no part
    gives its identity), as dtype: at points, or over all of [0, X) one
    CHUNK at a time into one array (at), or over one run."""

    def __init__(self, X: int, parts, combine, dtype):
        self.X, self.combine, self.dtype = X, combine, dtype
        self.readers = [HalvesReader(*part) for part in parts]

    def _join(self, reads, n: int, out=None) -> np.ndarray:
        if out is None and len(self.readers) == 1:
            return next(reads)
        out = np.empty(n, self.dtype) if out is None else out
        out[...] = next(reads, self.combine.identity)
        for read in reads:
            self.combine(out, read, out=out)
        return out

    def at(self, xs=None) -> np.ndarray:
        """New array of the values at xs, or over all of [0, X) for None."""
        if xs is not None:
            return self._join((r.at(xs) for r in self.readers), len(xs))
        out = np.empty(self.X, self.dtype)
        for lo in range(0, self.X, CHUNK):
            self.run(lo, min(CHUNK, self.X - lo), out[lo : lo + CHUNK])
        return out

    def run(self, lo: int, n: int, out=None) -> np.ndarray:
        """Values at [lo, lo + n), into out when given; for one reader
        without out, possibly a view of its table, only to be read."""
        return self._join((r.run(lo, n) for r in self.readers), n, out)


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
        return cls(tuple((index // shape.digit_strides % shape.digit_primes).tolist()), shape)

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
        value *= roots_at(p, e)
    return value


def char_values(a: CharacterIndex, shape: GroupShape | None = None,
                xs=None) -> np.ndarray:
    """chi_a over xs (all of [0, X) by default), via exact root tables: per
    nontrivial block, the root at sum_j a_j y_j mod p_i, read at x mod b_i
    and multiplied in block order.  At given xs a block larger than the
    point count is read from its digit halves, never from a whole block
    table."""
    shape = shape or a.shape
    return _char_reader(a, shape, CHUNK if xs is None else len(xs)).at(xs)


def _char_reader(a: CharacterIndex, shape: GroupShape, whole: int = CHUNK) -> CrtReader:
    """CrtReader of chi_a: the product of its nontrivial blocks' roots, each
    from the exponent halves of a's block (one table while b_i <= whole)."""
    return CrtReader(shape.X, [(b, shape.exponent_halves(i, a.block(i), whole),
                                partial(roots_at, p))
                               for i, (p, b) in enumerate(zip(shape.primes, shape.block_sizes))
                               if any(a.block(i))], np.multiply, np.complex128)


def char_stats(a: CharacterIndex, shape: GroupShape | None = None):
    """(weight, type, class size) where class size is the exact orbit count
    under per-block digit permutations."""
    shape = shape or a.shape
    ttuple = a.type_tuple
    class_size = 1
    for i, counts in enumerate(ttuple):
        block = math.factorial(shape.exponents[i])
        for m in counts:
            if m > 1:  # 0! = 1! = 1
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
        p_str, caret, e_str = part.partition("^")
        try:
            p, e = int(p_str), int(e_str) if caret else 1
        except ValueError:
            raise ArgumentError(f"bad factor {part!r} in shape literal {text!r}; "
                                "expected p or p^e with integers p, e") from None
        primes.append(p)
        exponents.append(e)
    return GroupShape(primes, exponents)
