"""Alignment of a function with the symmetry group acting on it.

Three exact regimes — the full translation group, its extension by digit
permutations, and translation by a chosen subgroup — plus a Gram-matrix
brute-force oracle and the sample/failure bounds the alignment value
feeds into.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, ResourceError
from .group import CharacterIndex, GroupShape, _rref_mod_p, flatten_digits
from .spectral import Spectrum, _reader

GRAM_CAP = 4096


@dataclass
class AlignmentResult:
    value: float
    witness: object  # character index, type tuple, or coset representative
    method: str

    def record(self, shape: GroupShape, params: dict | None = None) -> dict:
        witness = self.witness
        if isinstance(witness, CharacterIndex):
            witness = {"flat": witness.flat, "digits": list(witness.digits)}
        return {
            "method": self.method,
            "value": self.value,
            "witness": witness,
            "shape": repr(shape),
            "params": params or {},
        }


def _power(spec: Spectrum) -> np.ndarray:
    """|fhat(a)|^2 in one array: np.abs squared in place, as x ** 2 is x * x."""
    power = np.abs(spec.coeffs)
    power *= power
    return power


def alignment_full_group(spec: Spectrum) -> AlignmentResult:
    """max_a |fhat(a)|^2; ties broken toward the smallest flat index."""
    power = _power(spec)
    idx = int(np.argmax(power))
    witness = CharacterIndex.from_flat(idx, spec.shape)
    return AlignmentResult(float(power[idx]), witness, "full_group")


def _heaviest(spec: Spectrum, keys: np.ndarray, sizes=None):
    """(value, witness): the largest spectral mass per key, over its class
    size when sizes are given, and the first character whose key reaches it."""
    values = np.bincount(keys, weights=_power(spec))
    if sizes is not None:
        values /= np.maximum(sizes, 1)
    best = values.max()
    return float(best), CharacterIndex.from_flat(np.argmax(values[keys] == best), spec.shape)


def _same_shape(spec: Spectrum, *shapes):
    if bad := [shape for shape in shapes if shape not in (None, spec.shape)]:
        raise ArgumentError(f"shape {bad[0]!r} differs from the spectrum's {spec.shape!r}")


def _orbit_keys(shape: GroupShape) -> np.ndarray:
    """(X,) keys, mixed radix over blocks, shared exactly by characters of
    one type tuple.  Block keys: for p <= e the digit-count code sum_j (e+1)^(digit_j - 1)
    over the nonzero digits, below (e+1)^(p-1) <= b; for p > e the digits
    sorted largest lowest (the smallest orbit member), below b."""
    tables, mult = [], 1
    for i, (p, e, b) in enumerate(zip(shape.primes, shape.exponents, shape.block_sizes)):
        if p <= e:
            code = np.r_[0, (e + 1) ** np.arange(p - 1, dtype=np.int64)]
            table, radix = shape.block_table(i, np.broadcast_to(code, (e, p))), (e + 1) ** (p - 1)
        else:
            digits = shape.block_table(i, np.eye(e, dtype=np.int64)[:, :, None] * np.arange(p))
            digits.sort(axis=0)  # in place on int64: no sorted copy, no cast in the product
            table, radix = p ** np.arange(e - 1, -1, -1) @ digits, b
        tables.append(np.multiply(table, mult, out=table))
        mult *= radix
    return shape.layout_sum(tables)


def alignment_semidirect(spec: Spectrum, shape: GroupShape | None = None) -> AlignmentResult:
    """max over digit-permutation orbit types of (orbit size)^-1 times the
    spectral mass carried by the type; ties go to the type that holds the
    smallest character index, and the witness is its type tuple."""
    _same_shape(spec, shape)
    keys = _orbit_keys(spec.shape)
    value, witness = _heaviest(spec, keys, np.bincount(keys))
    return AlignmentResult(value, witness.type_tuple, "semidirect")


class SubgroupSpec:
    """Subgroup of the digit group given by generators, with the dual-side
    data needed for coset mass computations."""

    def __init__(self, generators, shape: GroupShape):
        self.shape = shape
        self.generators = tuple(int(g) for g in generators)
        for g in self.generators:
            if not 0 <= g < shape.X:
                raise ArgumentError(f"generator {g} outside [0, {shape.X})")
        # per-block row-reduced generator digit matrices over F_p: their
        # rows span the same row space as the generators, with no more
        # rows than the block's rank
        gen_digits = np.array(
            [flatten_digits(shape.encode(g)) for g in self.generators],
            dtype=np.int64).reshape(len(self.generators), shape.d)
        self._block_rows = []
        for i, p in enumerate(shape.primes):
            rref, rank, _ = _rref_mod_p(gen_digits[:, shape.block_slices[i]], p)
            self._block_rows.append(rref[:rank])
        self.block_ranks = tuple(rows.shape[0] for rows in self._block_rows)
        self.subgroup_order = 1
        self.annihilator_order = 1
        for i, p in enumerate(shape.primes):
            self.subgroup_order *= p ** self.block_ranks[i]
            self.annihilator_order *= p ** (shape.exponents[i] - self.block_ranks[i])

    def syndromes(self) -> np.ndarray:
        """(X,) keys: the evaluation exponents of every character on each
        row of the blockwise row-reduced generator matrix, mod p_i, packed
        little-endian over (block, row).  Two characters share a key
        exactly when they agree on every generator, and every key is
        below the subgroup order, so it fits in int64."""
        shape = self.shape
        tables, mult = [], 1
        for i, (p, rows) in enumerate(zip(shape.primes, self._block_rows)):
            tables.append(np.zeros(shape.block_sizes[i], dtype=np.int64))
            for row in rows:  # one row at a time, in place: no (rank, b) residue table
                residue = shape.block_table(i, row[:, None] * np.arange(p))
                residue %= p
                residue *= mult
                tables[-1] += residue
                mult *= p
        return shape.layout_sum(tables)


def alignment_subgroup(spec: Spectrum, shape: GroupShape,
                       sub: SubgroupSpec) -> AlignmentResult:
    """max over cosets of the dual modulo the subgroup's annihilator of
    the spectral mass in the coset.  The syndromes number the cosets
    0 .. subgroup_order - 1; ties go to the coset that holds the smallest
    character index, which is the witness."""
    _same_shape(spec, shape, sub.shape)
    return AlignmentResult(*_heaviest(spec, sub.syndromes()), "subgroup")


def alignment_gram_oracle(table, shape: GroupShape, elements) -> float:
    """Top eigenvalue of the translation Gram matrix, exact to rounding
    by a dense Hermitian solve, over |elements|.

    Gram entries are (1/X) sum_x h(g + x) conj(h(g' + x)) with + the
    digitwise group law; the quotient by |elements| matches the spectral
    alignment when the elements run over the full group.  ``elements`` is
    sized, and its length is checked against GRAM_CAP before it is read.
    """
    if len(elements) > GRAM_CAP:
        raise ResourceError(f"{len(elements)} elements exceed the Gram cap {GRAM_CAP}")
    elements = [int(g) for g in elements]
    if not elements:
        raise ArgumentError("elements must be nonempty")
    values = _reader(table, shape.X)(0, shape.X)
    rows = np.empty((len(elements), shape.X), dtype=values.dtype)
    for r, g in enumerate(elements):
        rows[r] = values[shape.translation(g)]
    gram = rows @ rows.conj().T
    gram /= shape.X
    del rows  # eigvalsh copies gram: free the rows first to keep the peak down
    return float(np.linalg.eigvalsh(gram)[-1]) / len(elements)


def _over_tau_squared(x: float, tau: float) -> float:
    """x / tau^2 for tau > 0, also where tau^2 underflows to 0 or overflows."""
    try:
        return x / tau**2
    except (ZeroDivisionError, OverflowError):
        return x / tau / tau


def learning_bounds(A: float, params: dict) -> dict:
    """Sample floor and failure-probability ceilings implied by an
    alignment value A.

    kernel_min_n = (1 - eps)/A; ngd = R/(2 tau) sqrt(T A) + A/eps;
    csq = (q + 1) A / tau^2.  The probability bounds are clamped to [0,1]
    for reporting, with the raw values alongside.
    """
    if A < 0:
        raise ArgumentError(f"alignment must be >= 0, got {A}")
    eps = params.get("eps")
    tau = params.get("tau")
    if eps is not None and eps <= 0:
        raise ArgumentError(f"eps must be > 0, got {eps}")
    if tau is not None and tau <= 0:
        raise ArgumentError(f"tau must be > 0, got {tau}")
    out = {}
    if eps is not None:
        out["kernel_min_n"] = (1.0 - eps) / A if A > 0 else math.inf
    if eps is not None and tau is not None and "R" in params and "T" in params:
        noise = params["R"] / (2.0 * tau) * math.sqrt(params["T"] * A) if A > 0 else 0.0
        raw = noise + A / eps
        out["ngd_raw"] = raw
        out["ngd_fail_prob"] = min(max(raw, 0.0), 1.0)
    if tau is not None and "q" in params:
        raw = _over_tau_squared(params["q"] + 1, tau) * A if A > 0 else 0.0
        out["csq_raw"] = raw
        out["csq_fail_prob"] = min(max(raw, 0.0), 1.0)
    return out
