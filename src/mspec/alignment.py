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
from .group import CharacterIndex, GroupShape, _rref_mod_p, char_stats
from .spectral import Spectrum, _as_values

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


def alignment_full_group(spec: Spectrum) -> AlignmentResult:
    """max_a |fhat(a)|^2; ties broken toward the smallest flat index."""
    power = np.abs(spec.coeffs) ** 2
    idx = int(np.argmax(power))
    witness = CharacterIndex.from_flat(idx, spec.shape)
    return AlignmentResult(float(power[idx]), witness, "full_group")


def _type_histograms(shape: GroupShape) -> np.ndarray:
    """(X, sum_i p_i) matrix: per-block digit-value counts of every
    character index."""
    digits = shape.char_digits_matrix()
    cols = []
    for i, p in enumerate(shape.primes):
        block = digits[:, shape.block_slices[i]]
        for t in range(p):
            cols.append((block == t).sum(axis=1, dtype=np.int16))
    return np.stack(cols, axis=1)


def alignment_semidirect(spec: Spectrum, shape: GroupShape | None = None) -> AlignmentResult:
    """max over digit-permutation orbit types of (orbit size)^-1 times the
    spectral mass carried by the type."""
    shape = shape or spec.shape
    power = np.abs(spec.coeffs) ** 2
    hists = _type_histograms(shape)
    # group equal rows by a stable lexicographic sort (column 0 most
    # significant), as np.unique(axis=0) orders them; the columns together
    # can overflow a packed int64 key
    order = np.lexsort(hists.T[::-1])
    ranked = hists[order]
    new = np.ones(order.shape[0], dtype=bool)
    new[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    first = order[new]
    inverse = np.empty_like(order)
    inverse[order] = np.cumsum(new) - 1
    masses = np.bincount(inverse, weights=power, minlength=first.shape[0])
    best_value = -1.0
    best_type = None
    for row in range(first.shape[0]):
        _, ttuple, class_size = char_stats(CharacterIndex.from_flat(first[row], shape), shape)
        value = masses[row] / class_size
        if value > best_value + 1e-18:
            best_value = value
            best_type = ttuple
    return AlignmentResult(float(best_value), best_type, "semidirect")


class SubgroupSpec:
    """Subgroup of the digit group given by generators, with the dual-side
    data needed for coset mass computations."""

    def __init__(self, generators, shape: GroupShape):
        self.shape = shape
        self.generators = tuple(int(g) for g in generators)
        for g in self.generators:
            if not 0 <= g < shape.X:
                raise ArgumentError(f"generator {g} outside [0, {shape.X})")
        # per-block generator digit matrices over F_p
        gen_digits = shape.digits_matrix(np.array(self.generators, dtype=np.int64)) \
            if self.generators else np.zeros((0, shape.d), dtype=np.int8)
        self._gen_digits = gen_digits.astype(np.int64)
        self.block_ranks = tuple(
            _rref_mod_p(self._gen_digits[:, shape.block_slices[i]], p)[1]
            for i, p in enumerate(shape.primes)
        )
        self.subgroup_order = 1
        self.annihilator_order = 1
        for i, p in enumerate(shape.primes):
            self.subgroup_order *= p ** self.block_ranks[i]
            self.annihilator_order *= p ** (shape.exponents[i] - self.block_ranks[i])

    def syndromes(self) -> np.ndarray:
        """(X, n_gen) matrix: evaluation exponents of every character on
        each generator, blockwise mod p_i, packed into one column per
        generator across blocks."""
        shape = self.shape
        digits = shape.char_digits_matrix().astype(np.int64)
        n_gen = len(self.generators)
        # per (block, generator) residue, combined little-endian
        key = np.zeros(shape.X, dtype=np.int64)
        mult = 1
        for i, p in enumerate(shape.primes):
            s = shape.block_slices[i]
            res = (digits[:, s] @ self._gen_digits[:, s].T) % p  # (X, n_gen)
            for c in range(n_gen):
                key += res[:, c] * mult
                mult *= p
        return key


def alignment_subgroup(spec: Spectrum, shape: GroupShape,
                       sub: SubgroupSpec) -> AlignmentResult:
    """max over cosets of the dual modulo the subgroup's annihilator of
    the spectral mass in the coset."""
    power = np.abs(spec.coeffs) ** 2
    keys = sub.syndromes()
    uniq, inverse = np.unique(keys, return_inverse=True)
    masses = np.bincount(inverse, weights=power, minlength=uniq.shape[0])
    best = int(np.argmax(masses))
    in_best = np.flatnonzero(inverse == best)
    rep = CharacterIndex.from_flat(int(in_best[0]), shape)
    return AlignmentResult(float(masses[best]), rep, "subgroup")


def alignment_gram_oracle(table, shape: GroupShape, elements) -> float:
    """Top eigenvalue of the translation Gram matrix over |elements|.

    Gram entries are (1/X) sum_x h(g + x) conj(h(g' + x)) with + the
    digitwise group law; the quotient by |elements| matches the spectral
    alignment when the elements run over the full group.
    """
    elements = [int(g) for g in elements]
    if len(elements) > GRAM_CAP:
        raise ResourceError(f"{len(elements)} elements exceed the Gram cap {GRAM_CAP}")
    if not elements:
        raise ArgumentError("elements must be nonempty")
    values = _as_values(table, shape.X)
    rows = np.empty((len(elements), shape.X), dtype=np.complex128)
    for r, g in enumerate(elements):
        rows[r] = values[shape.translation(g)]
    gram = rows @ rows.conj().T / shape.X
    lam = _power_iteration(gram)
    return lam / len(elements)


def _power_iteration(gram: np.ndarray, tol: float = 1e-10, cap: int = 10**4) -> float:
    # deterministic Gaussian start: an all-ones start is an exact
    # eigenvector of translation Gram matrices and traps the iteration
    n = gram.shape[0]
    v = np.random.default_rng(0).normal(size=n).astype(np.complex128)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(cap):
        w = gram @ v
        lam = float(np.real(np.conj(v) @ w))
        residual = np.linalg.norm(w - lam * v)
        norm = np.linalg.norm(w)
        if residual <= tol * max(1.0, abs(lam)):
            return lam
        if norm == 0.0:
            return 0.0
        v = w / norm
    return lam


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
        raw = params["R"] / (2.0 * tau) * math.sqrt(params["T"] * A) + A / eps
        out["ngd_raw"] = raw
        out["ngd_fail_prob"] = min(max(raw, 0.0), 1.0)
    if tau is not None and "q" in params:
        raw = (params["q"] + 1) / tau**2 * A
        out["csq_raw"] = raw
        out["csq_fail_prob"] = min(max(raw, 0.0), 1.0)
    return out
