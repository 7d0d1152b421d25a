"""Fourier analysis on the digit group and on Z/XZ.

Forward transforms carry the factor 1/X; synthesis carries none.
The additive-Fourier coefficients of a digital character factor through
the CRT into one length-p^d DFT per block; those block coefficients
drive the norm-bound checkers and the frequency-truncated characters.
A per-digit Dirichlet-kernel closed form gives single coefficients.
"""

from __future__ import annotations

import itertools
import math
import struct
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith import ArithmeticTable
from .errors import ArgumentError, ResourceError
from .group import CharacterIndex, GroupShape, char_values, roots_of_unity

SPECTRUM_CAP = 1 << 26
BLOCK_CAP = 1 << 26
SUM_BLOCK = 4096

_SPECTRUM_MAGIC = b"MSPS"


def _as_values(table, X: int) -> np.ndarray:
    """The table as float64, or complex128 when it is complex; always finite."""
    if isinstance(table, ArithmeticTable):
        values = table.values
    else:
        values = np.asarray(table)
    if values.shape[0] != X:
        raise ArgumentError(f"table length {values.shape[0]} != X = {X}")
    values = values.astype(np.complex128 if np.iscomplexobj(values) else np.float64)
    if not np.isfinite(values).all():
        raise ArgumentError("table holds NaN or infinite values")
    return values


def block_pairwise_sum(arr: np.ndarray) -> complex:
    """Pairwise reduction in fixed 4096-element blocks.

    The summation tree depends only on the array length, so results are
    bit-stable regardless of how callers partition work.
    """
    arr = np.asarray(arr, dtype=np.complex128).ravel()

    def fold(rows: np.ndarray) -> np.ndarray:
        # rows: (nblocks, width); fold width down to 1 by pairing
        while rows.shape[1] > 1:
            if rows.shape[1] % 2:
                rows = np.concatenate(
                    [rows, np.zeros((rows.shape[0], 1), dtype=rows.dtype)], axis=1
                )
            rows = rows[:, ::2] + rows[:, 1::2]
        return rows[:, 0]

    n = arr.size
    if n == 0:
        return 0j
    pad = (-n) % SUM_BLOCK
    if pad:
        arr = np.concatenate([arr, np.zeros(pad, dtype=arr.dtype)])
    sums = fold(arr.reshape(-1, SUM_BLOCK))
    return complex(fold(sums.reshape(1, -1))[0])


@dataclass
class Spectrum:
    """Dense transform indexed by flat character index, forward 1/X."""

    shape: GroupShape
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs.setflags(write=False)

    def __getitem__(self, flat_index: int) -> complex:
        return complex(self.coeffs[flat_index])


def _axis_transform(t: np.ndarray, shape: GroupShape, sign: int) -> np.ndarray:
    """Unnormalized DFT with kernel e(sign * a_j x_j / p_j) along every digit
    axis of the flat character layout.

    Digit j's axis is the middle one of t.reshape(m, p_j, stride_j).
    Radix-2 axes (the lowest digits, as 2 is the smallest prime) run first
    as in-place butterflies, so a real t stays real through them; odd
    radices go through numpy's FFT, O(p log p) per line for any prime p.
    t is overwritten; the result is returned.
    """
    for j in range(shape.d):
        p, stride = int(shape.digit_primes[j]), int(shape.digit_strides[j])
        v = t.reshape(-1, p, stride)
        if p == 2:
            a = v[:, 0].copy()
            v[:, 0] += v[:, 1]
            np.subtract(a, v[:, 1], out=v[:, 1])
        elif sign < 0:
            t = np.fft.fft(v, axis=1).reshape(-1)
        else:
            t = np.fft.ifft(v, axis=1, norm="forward").reshape(-1)
    return t


def group_spectrum(table, shape: GroupShape, cap: int = SPECTRUM_CAP) -> Spectrum:
    """All coefficients (1/X) sum_x f(x) conj(chi_a(x)) via axis DFTs."""
    if shape.X > cap:
        raise ResourceError(
            f"X = {shape.X} exceeds the full-spectrum cap {cap}; "
            "use correlation() for single coefficients"
        )
    values = _as_values(table, shape.X)
    scattered = np.empty_like(values)
    scattered[shape.flat_index_of(None)] = values
    del values
    coeffs = _axis_transform(scattered, shape, -1)
    coeffs /= shape.X
    return Spectrum(shape, coeffs.astype(np.complex128, copy=False))


def inverse_transform(spec: Spectrum) -> np.ndarray:
    """f(x) = sum_a fhat(a) chi_a(x); exact inverse of group_spectrum."""
    shape = spec.shape
    scattered = _axis_transform(spec.coeffs.copy(), shape, 1)
    return scattered[shape.flat_index_of(None)]


def correlation(table, a: CharacterIndex, shape: GroupShape) -> complex:
    """Single coefficient fhat(a), streaming, fixed summation order."""
    values = _as_values(table, shape.X)
    chars = char_values(a, shape)
    return block_pairwise_sum(values * np.conj(chars)) / shape.X


# -- Dirichlet-type kernel ------------------------------------------------


def gq(q: int, y: float) -> float:
    """sin(pi q y) / (q sin(pi y)) with the removable singularities filled.

    At integer n the limit is (-1)^((q-1) n); in particular 1 at 0.
    Evaluated at the reduced argument r = y - n, n = round(y), through
    G_q(n + r) = (-1)^((q-1) n) G_q(r), so precision holds near the poles.
    """
    if q < 2:
        raise ArgumentError(f"q must be >= 2, got {q}")
    n = round(y)
    r = y - n
    sign = -1.0 if ((q - 1) * n) % 2 else 1.0
    s = math.sin(math.pi * r)
    if abs(s) > 1e-9:
        return sign * math.sin(math.pi * q * r) / (q * s)
    return sign


def _local_coeffs(a_digits, p: int, e: int) -> np.ndarray:
    """Additive-Fourier coefficients of one base-p block character.

    Entry kappa is (1/p^e) sum_x chi(x) e(-kappa x / p^e), the DFT of
    the character's values over the block.
    """
    b = p**e
    if b > BLOCK_CAP:
        raise ResourceError(f"block size {b} exceeds cap {BLOCK_CAP}")
    block = GroupShape([p], [e])
    return np.fft.fft(char_values(CharacterIndex.from_digits(a_digits, block), block)) / b


def _local_kprime(shape: GroupShape, i: int, k: int) -> int:
    b = shape.block_sizes[i]
    return (shape.crt_inverses[i] * (k % b)) % b


def char_dft_closed_form(a: CharacterIndex, k: int, shape: GroupShape | None = None):
    """(magnitude, value) of the coefficient of chi_a at additive frequency k.

    Per digit the factor is e(beta (p-1)/2) * G_p(beta) with
    beta = a_j/p - k' p^(j - d_i), k' the CRT-twisted local frequency.
    """
    shape = shape or a.shape
    if not 0 <= k < shape.X:
        raise ArgumentError(f"k={k} outside [0, {shape.X})")
    magnitude = 1.0
    value = complex(1.0)
    for i, (p, e) in enumerate(zip(shape.primes, shape.exponents)):
        kp = _local_kprime(shape, i, k)
        digits = a.block(i)
        for j in range(e):
            beta = digits[j] / p - kp / p ** (e - j)
            g = gq(p, beta)
            magnitude *= abs(g)
            value *= g * np.exp(1j * np.pi * (p - 1) * beta)
    return magnitude, value


def _block_magnitudes(a: CharacterIndex, shape: GroupShape):
    """Per block: |coefficients| indexed by the local frequency kappa."""
    return [
        np.abs(_local_coeffs(a.block(i), p, e))
        for i, (p, e) in enumerate(zip(shape.primes, shape.exponents))
    ]


def _block_magnitudes_by_k(a: CharacterIndex, shape: GroupShape):
    """Per block: |coefficients| reindexed by k mod p_i^d_i."""
    out = []
    for i, mags in enumerate(_block_magnitudes(a, shape)):
        b = shape.block_sizes[i]
        ks = (shape.crt_inverses[i] * np.arange(b, dtype=np.int64)) % b
        out.append(mags[ks])
    return out


def char_l1_norm(a: CharacterIndex, shape: GroupShape | None = None) -> float:
    """sum_k of coefficient magnitudes, assembled blockwise."""
    shape = shape or a.shape
    total = 1.0
    for mags in _block_magnitudes(a, shape):
        total *= float(mags.sum())
    return total


def linf_bound_check(a: CharacterIndex, shape: GroupShape | None = None):
    """Largest coefficient magnitude against prod (1 - 4/(9 p^2))^floor(w_i/2)."""
    shape = shape or a.shape
    measured = 1.0
    bound = 1.0
    for i, mags in enumerate(_block_magnitudes(a, shape)):
        measured *= float(mags.max())
        p = shape.primes[i]
        bound *= (1.0 - 4.0 / (9.0 * p * p)) ** (a.block_weight(i) // 2)
    ok = measured <= bound + 1e-12
    equality_edge = abs(measured - bound) <= 1e-12
    return measured, bound, ok, equality_edge


def ap_l1_sum(a: CharacterIndex, shape: GroupShape, gamma, b) -> float:
    """l1 mass of the coefficients over k = b_i mod p_i^gamma_i jointly.

    The joint progression factors through the CRT, so the sum is a product
    of per-block progression sums.
    """
    gamma = [int(g) for g in gamma]
    b = [int(x) for x in b]
    if len(gamma) != shape.r or len(b) != shape.r:
        raise ArgumentError(f"need {shape.r} per-block entries")
    total = 1.0
    mags_by_k = _block_magnitudes_by_k(a, shape)
    for i, (p, e) in enumerate(zip(shape.primes, shape.exponents)):
        gmax = max(e - 2, 0)
        if not 0 <= gamma[i] <= gmax:
            raise ArgumentError(f"gamma[{i}]={gamma[i]} outside [0, {gmax}]")
        step = p ** gamma[i]
        if not 0 <= b[i] < step:
            raise ArgumentError(f"b[{i}]={b[i]} outside [0, {step})")
        total *= float(mags_by_k[i][b[i]::step].sum())
    return total


def interval_l1_sum(a: CharacterIndex, shape: GroupShape, lo: int, hi: int):
    """Coefficient l1 mass over lo <= k < hi, with sqrt(p_r |I|) for ratio
    inspection against the square-root barrier."""
    if not 0 <= lo < hi <= shape.X:
        raise ArgumentError(f"need 0 <= lo < hi <= X, got [{lo}, {hi})")
    mags_by_k = _block_magnitudes_by_k(a, shape)
    ks = np.arange(lo, hi, dtype=np.int64)
    prod = np.ones(hi - lo, dtype=np.float64)
    for i, b in enumerate(shape.block_sizes):
        prod *= mags_by_k[i][ks % b]
    value = float(prod.sum())
    reference = math.sqrt(shape.primes[-1] * (hi - lo))
    return {"sum": value, "reference": reference, "ratio": value / reference}


def truncated_character(a: CharacterIndex, shape: GroupShape, cutoffs):
    """Frequency-truncated stand-in for chi_a.

    Per block the coefficients are damped by a trapezoid in the signed
    frequency residue: 1 inside |k| < K_i, 0 beyond 2 K_i, linear between.
    Returns (values over [0, X), per-block support report, mean squared
    error against chi_a).
    """
    cutoffs = [int(K) for K in cutoffs]
    if len(cutoffs) != shape.r:
        raise ArgumentError(f"need {shape.r} per-block cutoffs")
    if any(K < 1 for K in cutoffs):
        raise ArgumentError(f"cutoffs must be >= 1, got {cutoffs}")
    block_values = []
    support = []
    for i, (p, e) in enumerate(zip(shape.primes, shape.exponents)):
        b = shape.block_sizes[i]
        K = cutoffs[i]
        coeffs = _local_coeffs(a.block(i), p, e)
        kappa = np.arange(b, dtype=np.int64)
        signed = np.where(kappa > b // 2, kappa - b, kappa)  # (-b/2, b/2]
        u = np.abs(signed).astype(np.float64)
        eta = np.clip((2.0 * K - u) / K, 0.0, 1.0)
        damped = coeffs * eta
        block_values.append(np.fft.ifft(damped) * b)
        kept = eta > 0
        support.append(
            {
                "block": i,
                "cutoff": K,
                "kept": int(kept.sum()),
                "max_abs_frequency": int(np.abs(signed[kept]).max()) if kept.any() else 0,
            }
        )
    xs = np.arange(shape.X, dtype=np.int64)
    values = np.ones(shape.X, dtype=np.complex128)
    for i, b in enumerate(shape.block_sizes):
        values *= block_values[i][xs % b]
    diff = values - char_values(a, shape)
    l2_error = float(np.mean(np.abs(diff) ** 2))
    return values, support, l2_error


# -- additive witness search ---------------------------------------------


@dataclass
class KataiWitness:
    """Sparse p-adic rational where a digital correlation forces an
    additive one."""

    terms: tuple  # ((block, position, numerator), ...)
    theta: Fraction
    achieved: float
    bound: float
    satisfied: bool
    evaluations: int
    candidates: int


def _signed_order(limit: int):
    # 0, 1, -1, 2, -2, ... capped at |s| <= limit
    seq = [0]
    for s in range(1, limit + 1):
        seq.append(s)
        seq.append(-s)
    return seq


def _additive_coefficient(values: np.ndarray, theta: Fraction, X: int) -> complex:
    num = theta.numerator % theta.denominator
    den = theta.denominator
    idx = (-num * np.arange(X, dtype=np.int64)) % den
    phases = roots_of_unity(den)[idx]
    return block_pairwise_sum(values * phases) / X


def katai_witness(table, a: CharacterIndex, shape: GroupShape, delta: float,
                  budget: int = 10**7):
    """Search for theta = sum s_{i,j} / p_i^(j+1) with support inside the
    support of a whose additive coefficient meets the guaranteed floor
    (delta / (10 |a| sqrt(p_r)))^(4 |a|).

    Deterministic order: lexicographic over support positions, numerators
    0, 1, -1, 2, -2, ... at each.  Budget counts streamed point
    evaluations (X per candidate).
    """
    if not 0 < delta < 0.5:
        raise ArgumentError(f"delta must lie in (0, 1/2), got {delta}")
    if budget < 1:
        raise ArgumentError(f"budget must be >= 1, got {budget}")
    values = _as_values(table, shape.X)
    observed = abs(correlation(values, a, shape))
    if observed <= delta:
        raise ArgumentError(
            f"|fhat(a)| = {observed:.6g} does not exceed delta = {delta:.6g}"
        )
    weight = a.weight
    if weight == 0:
        raise ArgumentError("the trivial character has no additive witness")
    p_r = shape.primes[-1]
    bound = (delta / (10.0 * weight * math.sqrt(p_r))) ** (4 * weight)
    numerator_cap = int((40 * p_r) ** 2 * weight**3 / delta**3)

    support = []
    for i in range(shape.r):
        digits = a.block(i)
        for j, t in enumerate(digits):
            if t != 0:
                support.append((i, j))
    # only budget // X candidates fit, so per-position lists can be
    # truncated without disturbing the visited prefix of the product order
    per_position = []
    max_candidates = budget // shape.X + 2
    for i, j in support:
        period = shape.primes[i] ** (j + 1)
        cap = min(numerator_cap, period // 2, max_candidates)
        per_position.append(_signed_order(cap))

    evaluations = 0
    candidates = 0
    best = None
    for combo in itertools.product(*per_position):
        if all(s == 0 for s in combo):
            continue
        if evaluations + shape.X > budget:
            break
        theta = Fraction(0)
        terms = []
        for (i, j), s in zip(support, combo):
            if s:
                theta += Fraction(s, shape.primes[i] ** (j + 1))
                terms.append((i, j, s))
        achieved = abs(_additive_coefficient(values, theta, shape.X))
        evaluations += shape.X
        candidates += 1
        witness = KataiWitness(
            tuple(terms), theta % 1, achieved, bound, achieved >= bound,
            evaluations, candidates,
        )
        if witness.satisfied:
            return witness
        if best is None or achieved > best.achieved:
            best = witness
    if best is None:
        best = KataiWitness((), Fraction(0), 0.0, bound, False, evaluations, 0)
    return best


@dataclass
class RationalCheck:
    is_near_rational: bool
    q: int
    a: int
    is_p_power: bool
    hypothesis_ok: bool
    distance: Fraction


def p_power_rational_check(theta, shape: GroupShape, Q: int) -> RationalCheck:
    """Best rational a/q with q <= Q near a sparse p-adic theta.

    theta is a list of (position, numerator) pairs meaning
    sum s / p^(j+1) on a single-prime shape.  Nearness tolerance is
    Q/(qX); under p^(d/2k) > 8 p Q^2 the denominator must be a p-power.
    """
    if shape.r != 1:
        raise ArgumentError("only single-prime shapes are supported")
    if Q < 1:
        raise ArgumentError(f"Q must be >= 1, got {Q}")
    p, d = shape.primes[0], shape.exponents[0]
    value = Fraction(0)
    nonzero = 0
    for j, s in theta:
        if not 0 <= j < d:
            raise ArgumentError(f"position {j} outside [0, {d})")
        if s:
            value += Fraction(int(s), p ** (j + 1))
            nonzero += 1
    value %= 1
    approx = value.limit_denominator(Q)
    q, a_num = approx.denominator, approx.numerator
    distance = abs(value - approx)
    near = distance <= Fraction(Q, q * shape.X)
    qq = q
    while qq % p == 0:
        qq //= p
    is_p_power = qq == 1
    if nonzero == 0:
        hypothesis_ok = True
    else:
        # p^(d / 2k) > 8 p Q^2, checked in exact integer arithmetic
        hypothesis_ok = p**d > (8 * p * Q * Q) ** (2 * nonzero)
    return RationalCheck(near, q, a_num, is_p_power, hypothesis_ok, distance)


# -- serialization --------------------------------------------------------


def dump_spectrum_csv(spec: Spectrum, path: str) -> None:
    with open(path, "w") as fh:
        fh.write("flat_index,re,im,magnitude\n")
        for idx, c in enumerate(spec.coeffs):
            fh.write(f"{idx},{c.real:.17g},{c.imag:.17g},{abs(c):.17g}\n")


def dump_spectrum(spec: Spectrum, path: str) -> None:
    with open(path, "wb") as fh:
        fh.write(_SPECTRUM_MAGIC)
        fh.write(struct.pack("<Q", spec.shape.X))
        pairs = np.empty((spec.coeffs.size, 2), dtype="<f8")
        pairs[:, 0] = spec.coeffs.real
        pairs[:, 1] = spec.coeffs.imag
        fh.write(pairs.tobytes())


def load_spectrum(path: str, shape: GroupShape) -> Spectrum:
    with open(path, "rb") as fh:
        header = fh.read(12)
        if header[:4] != _SPECTRUM_MAGIC or len(header) < 12:
            raise ArgumentError(f"bad magic or short header {header!r}; not a spectrum dump")
        (X,) = struct.unpack("<Q", header[4:])
        if X != shape.X:
            raise ArgumentError(f"dump is for X={X}, shape has X={shape.X}")
        payload = fh.read(16 * X + 1)
    if len(payload) != 16 * X:
        held = "more than " + str(16 * X) if len(payload) > 16 * X else str(len(payload))
        raise ArgumentError(f"spectrum dump holds {held} payload bytes; its "
                            f"header says {X} coefficients of 16 bytes")
    pairs = np.frombuffer(payload, dtype="<f8").reshape(X, 2)
    return Spectrum(shape, pairs[:, 0] + 1j * pairs[:, 1])
