"""Fourier analysis on the digit group and on Z/XZ.

Forward transforms carry the factor 1/X; synthesis carries none.

The group transform is the tensor product of one length-p DFT per digit.
It splits the digits into runs of consecutive digits of one prime p with
p^k <= 32 (a single digit when p > 32) and applies each run's Kronecker
DFT matrix, the (p^k, p^k) table roots_of_unity(p)[(+-A.A^T) mod p] over
the run's digit vectors A, as one gemm.  Each gemm reads the run as the
most significant digits and writes it as the least significant ones, so
the layout rotates by the run's length and is back in order after the
last run.  A prime above 128 takes one numpy FFT per digit instead, with
the same rotation; there the FFT is the cheaper of the two.  Each run
reads one of two X-entry buffers, allocated once, and writes the other;
for a real table on a shape of 2s they are the float halves of the
result.  With the table read a chunk at a time, a full spectrum of an
int8 table needs 17 B/X on a 2-group and 33 B/X otherwise, table included.

The additive-Fourier coefficients of a digital character factor through
the CRT into one table per block, and within a block into one
Dirichlet-kernel factor per digit.  Every digit of a p^d block reads its
factor from one kernel table per (p, d), built in closed form in
O(p^d) and kept in a cache bounded in bytes, so a block's coefficients
cost a product of shifted kernel rows and no transform; those block
coefficients drive the norm-bound checkers and the frequency-truncated
characters.  The same per-digit kernel in closed form, gq, gives
single coefficients.
"""

from __future__ import annotations

import itertools
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial

import numpy as np

from .arith import ArithmeticTable
from .errors import ArgumentError, ResourceError
from .group import (CHUNK, CharacterIndex, CrtReader, GroupShape, _char_reader,
                    _linear_halves, roots_at, roots_of_unity)

# in entries: the X of a full spectrum or truncated character, one CRT
# block, one interval
SPECTRUM_CAP = 1 << 26
SUM_BLOCK = 4096
# k digits of a prime p form one gemm run while p^k <= _RUN_BOUND; a
# single digit is one up to p = _GEMM_PRIME_BOUND, above which numpy's FFT
# is the cheaper transform
_RUN_BOUND = 32
_GEMM_PRIME_BOUND = 128


def _table_values(table, X: int):
    """(the table's array, checked to hold X entries, the dtype of its reads)."""
    values = table.values if isinstance(table, ArithmeticTable) else np.asarray(table)
    if values.shape[0] != X:
        raise ArgumentError(f"table length {values.shape[0]} != X = {X}")
    return values, np.dtype(np.complex128 if np.iscomplexobj(values) else np.float64)


def _reader(table, X: int):
    """(lo, n) -> entries [lo, lo + n) of the table as float64, or complex128
    when it is complex, checked finite: an int8 table is widened one read at
    a time, and a read is not a copy when the table has that dtype."""
    values, dtype = _table_values(table, X)

    def read(lo: int, n: int) -> np.ndarray:
        part = values[lo : lo + n].astype(dtype, copy=False)
        if not np.isfinite(part).all():
            raise ArgumentError("table holds NaN or infinite values")
        return part

    return read


def _fold(rows: np.ndarray) -> np.ndarray:
    # rows: (nblocks, width); fold width down to 1 by pairing
    while rows.shape[1] > 1:
        if rows.shape[1] % 2:
            rows = np.concatenate(
                [rows, np.zeros((rows.shape[0], 1), dtype=rows.dtype)], axis=1
            )
        rows = rows[:, ::2] + rows[:, 1::2]
    return rows[:, 0]


def _block_sums(arr: np.ndarray) -> np.ndarray:
    """Pairwise sums of 4096-entry blocks, the last padded with 0; float64 for real arr."""
    arr = np.asarray(arr, dtype=np.complex128 if np.iscomplexobj(arr) else np.float64)
    pad = (-arr.size) % SUM_BLOCK
    if pad:
        arr = np.concatenate([arr, np.zeros(pad, dtype=arr.dtype)])
    return _fold(arr.reshape(-1, SUM_BLOCK))


def _streamed_sum(X: int, term) -> complex:
    """Sum of the length-X array whose entries [lo, lo + n) are term(lo, n),
    over the CHUNK-entry chunks of [0, X) in order, holding one chunk and the
    block sums: the per-block pairwise sums, then one pairwise fold of them.
    CHUNK is a multiple of SUM_BLOCK, so the tree depends on X alone."""
    sums = np.concatenate([_block_sums(term(lo, min(CHUNK, X - lo)))
                           for lo in range(0, X, CHUNK)])
    return complex(_fold(sums.reshape(1, -1))[0])


def block_pairwise_sum(arr: np.ndarray) -> complex:
    """Pairwise reduction in fixed 4096-element blocks, as _streamed_sum.

    The summation tree depends only on the array length, so results are
    bit-stable regardless of how callers partition work.
    """
    arr = np.ravel(arr)
    return _streamed_sum(arr.size, lambda lo, n: arr[lo : lo + n]) if arr.size else 0j


@dataclass
class Spectrum:
    """Dense transform indexed by flat character index, forward 1/X."""

    shape: GroupShape
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs.setflags(write=False)


@lru_cache(maxsize=64)
def _kron_dft(p: int, k: int, sign: int) -> np.ndarray:
    """The DFT matrix of (Z/p)^k with kernel e(sign * a.c / p), both indices
    little-endian base p; symmetric, and real for p = 2."""
    n = p**k
    digits = np.arange(n)[:, None] // p ** np.arange(k) % p
    m = roots_of_unity(p)[(sign * (digits @ digits.T)) % p]
    if p == 2:
        m = m.real.copy()
    m.setflags(write=False)
    return m


def _runs(shape: GroupShape) -> list:
    """(p, k) per run of k consecutive digits of one prime, least
    significant first.  A block splits into as few runs with p^k <=
    _RUN_BOUND as it can, of near-equal length; a prime above that bound
    gives one run per digit."""
    runs = []
    for p, e in zip(shape.primes, shape.exponents):
        kmax = 1
        while p ** (kmax + 1) <= _RUN_BOUND:
            kmax += 1
        count = -(-e // kmax)
        base, extra = divmod(e, count)
        runs += [(p, base + (i < extra)) for i in range(count)]
    return runs


def _axis_transform(t: np.ndarray, bufs: list, shape: GroupShape, sign: int):
    """Unnormalized DFT with kernel e(sign * a_j x_j / p_j) along every digit
    of the flat character layout.  t is read, never written; run j writes
    bufs[j % 2] (a None entry becomes X complex128 when first written), which
    must not hold t.  Returns the result and the buffer it does not hold.

    Runs go from the most significant down.  With n = p^k the run's size,
    t.reshape(n, X // n) puts the run in the row index, so one gemm
    t.reshape(n, X // n).T @ _kron_dft(p, k, sign) transforms it and
    writes a contiguous (X // n, n) result: the run becomes the least
    significant digits and every other digit moves up by k.  After the last
    run the rotations add up to a full turn and the layout is the original
    one, with no transpose or index.  Real data stays real, in the first X
    floats of a buffer, through p = 2; a real t times a complex matrix is
    one real gemm against the matrix viewed as (n, 2n) floats, written over
    the buffer's 2X floats, which read as complex are the product.  A prime
    above _GEMM_PRIME_BOUND is one np.fft.fft of length p along the same
    rows, with the same rotation, a block of rows at a time (np.fft has no
    out= before numpy 2.0).
    """
    runs = _runs(shape)[::-1]
    for j, (p, k) in enumerate(runs):
        if bufs[j % 2] is None:
            bufs[j % 2] = np.empty(shape.X, dtype=np.complex128)
        n, buf = p**k, bufs[j % 2]
        v = t.reshape(n, -1).T
        if p > _GEMM_PRIME_BOUND:  # about a CHUNK of entries per fft call
            fft = np.fft.fft if sign < 0 else partial(np.fft.ifft, norm="forward")
            rows, out = max(1, CHUNK // n), buf.reshape(-1, n)
            for r in range(0, out.shape[0], rows):
                out[r : r + rows] = fft(v[r : r + rows], axis=1)
            t = buf
            continue
        m = _kron_dft(p, k, sign)
        if t.dtype == np.float64 and m.dtype == np.complex128:
            np.matmul(v, m.view(np.float64), out=buf.view(np.float64).reshape(-1, 2 * n))
            t = buf
        else:
            t = buf.view(t.dtype)[: shape.X]
            np.matmul(v, m, out=t.reshape(-1, n))
    return t, bufs[len(runs) % 2]


def group_spectrum(table, shape: GroupShape) -> Spectrum:
    """All coefficients (1/X) sum_x f(x) conj(chi_a(x)) via axis DFTs, in
    the result and at most one more X-entry complex buffer: the buffers are
    ordered so that the last run writes the result, allocated first, and the
    one freed is the later one.  A one-block table of its read dtype is read
    by the first run, any other a CHUNK at a time, at its layout index, into
    the buffer the first run does not write.  A real table on a shape of 2s
    stays real in the float halves of the result and ends in the first; it
    is divided by X and widened in place a chunk at a time through a copy,
    from the top down, so no unread float is overwritten."""
    X = shape.X
    if X > SPECTRUM_CAP:
        raise ResourceError(f"X = {X} exceeds the full-spectrum cap {SPECTRUM_CAP}; "
                            "use correlation() for single coefficients")
    values, dtype = _table_values(table, X)
    read = _reader(values, X)
    coeffs = np.empty(X, dtype=np.complex128)
    real = dtype == np.float64 and set(shape.primes) == {2}
    bufs = [coeffs.view(np.float64)[:X], coeffs.view(np.float64)[X:]] if real else [coeffs, None]
    if len(_runs(shape)) % 2 == 0:
        bufs.reverse()
    if shape.r == 1 and values.dtype == dtype:
        t = read(0, X)
    else:  # into the buffer the first run does not write
        if bufs[1] is None:
            bufs[1] = np.empty(X, dtype=np.complex128)
        t = bufs[1].view(dtype)[:X]
        index = shape.index_reader().run if shape.r > 1 else lambda lo, n: slice(lo, lo + n)
        for lo in range(0, X, CHUNK):
            n = min(CHUNK, X - lo)
            t[index(lo, n)] = read(lo, n)
    _axis_transform(t, bufs, shape, -1)
    if not real:
        coeffs /= X
        return Spectrum(shape, coeffs)
    floats = coeffs.view(np.float64)[:X]
    for lo in reversed(range(0, X, CHUNK)):  # complex entry i covers floats 2i, 2i + 1
        coeffs[lo : lo + CHUNK] = floats[lo : lo + CHUNK] / X
    return Spectrum(shape, coeffs)


def inverse_transform(spec: Spectrum) -> np.ndarray:
    """f(x) = sum_a fhat(a) chi_a(x); exact inverse of group_spectrum.  A
    multi-block result is gathered into the buffer the last run left free."""
    shape = spec.shape
    t, free = _axis_transform(spec.coeffs, [None, None], shape, 1)
    if shape.r == 1:
        return t
    index = shape.index_reader()
    for lo in range(0, shape.X, CHUNK):
        n = min(CHUNK, shape.X - lo)
        free[lo : lo + n] = t[index.run(lo, n)]
    return free


def correlation(table, a: CharacterIndex, shape: GroupShape) -> complex:
    """Single coefficient fhat(a): (1/X) block_pairwise_sum of f conj(chi_a),
    streamed one CHUNK at a time at every X, so an int8 table is never
    widened whole.  Complex products are not bitwise commutative: a chunk
    takes conj(chi_a) first, the order numpy uses for the whole-array
    product when it reuses the temporary conj(chi_a) as its output."""
    read, chi = _reader(table, shape.X), _char_reader(a, shape)
    return _streamed_sum(shape.X, lambda lo, n: np.conj(chi.run(lo, n)) * read(lo, n)) / shape.X


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


def _build_kernel(p: int, e: int) -> np.ndarray:
    """D(u) = (1/p) sum_{t<p} e(t u / p^e) for u < p^e, as a read-only
    (p, p^(e-1)) array whose row s holds u = v + p^(e-1) s.

    In closed form D(u) = e((p-1) u / 2b) sin(pi p u / b) / (p sin(pi u / b))
    with b = p^e and D(0) = 1.  With u = v + m s, m = p^(e-1), the
    numerator splits into e(-s / 2p) over the rows and
    e((p-1) v / 2b) sin(pi v / m) over the columns; only the denominator
    sin(pi u / b) is b long, and it is evaluated for u <= b/2 and mirrored.
    Every angle is at most pi and every sine is taken at min(x, pi - x),
    so the kernel keeps full precision next to its poles at any p.
    """
    b = p**e
    m = b // p
    h = b // 2
    v = np.arange(m, dtype=np.float64)
    amp = np.sin((np.pi / m) * np.minimum(v, m - v)) / p
    v *= np.pi * (p - 1) / b
    cols = np.empty(m, dtype=np.complex128)
    np.multiply(np.cos(v), amp, out=cols.real)
    np.multiply(np.sin(v), amp, out=cols.imag)
    del v, amp
    den = np.arange(b, dtype=np.float64)
    den[: h + 1] *= np.pi / b
    np.sin(den[: h + 1], out=den[: h + 1])
    den[h + 1 :] = den[b - h - 1 : 0 : -1]
    den[0] = 1.0
    kernel = np.multiply.outer(np.exp((-1j * np.pi / p) * np.arange(p)), cols)
    kernel /= den.reshape(p, m)
    kernel[0, 0] = 1.0
    kernel.setflags(write=False)
    return kernel


# kernels kept for reuse, least recently used first, while they total at
# most _KERNEL_CACHE_BYTES (the 2^20 kernel is 16 MiB).  Each bound
# function reads a block's kernel once per call, so the cache pays only
# across calls; a larger kernel is built on every call and not kept.
_KERNEL_CACHE_BYTES = 32 << 20
_kernels: OrderedDict[tuple[int, int], np.ndarray] = OrderedDict()
_kernels_lock = threading.Lock()


def _digit_kernel(p: int, e: int) -> np.ndarray:
    """_build_kernel(p, e), from the cache when it is there."""
    key = (p, e)
    with _kernels_lock:
        if key in _kernels:
            _kernels.move_to_end(key)
            return _kernels[key]
    kernel = _build_kernel(p, e)
    if kernel.nbytes <= _KERNEL_CACHE_BYTES:
        with _kernels_lock:
            _kernels[key] = kernel
            held = sum(k.nbytes for k in _kernels.values())
            while held > _KERNEL_CACHE_BYTES:
                held -= _kernels.popitem(last=False)[1].nbytes
    return kernel


def _local_coeffs(a_digits, p: int, e: int) -> np.ndarray:
    """Additive-Fourier coefficients of one base-p block character.

    Entry kappa is (1/p^e) sum_x chi(x) e(-kappa x / p^e).  Over the
    digits of x it factors as prod_j conj D_n((kappa - a_j n/p) mod n)
    with n = p^(e-j) and D_n(u) = (1/p) sum_{t<p} e(t u / n); D_n is the
    kernel of _digit_kernel(p, e) read every p^e/n-th entry.  The product
    is built from the top digit down, n = p, p^2, ..., p^e: the factor
    for modulus n, as a (p, n/p) array indexed by kappa = v + (n/p) s,
    is the strided kernel's rows rotated by a_j; the product so far depends
    on kappa mod n/p = v only, so it broadcasts along s.
    """
    b = p**e
    if b > SPECTRUM_CAP:
        raise ResourceError(f"block size {b} exceeds cap {SPECTRUM_CAP}")
    flat = _digit_kernel(p, e).reshape(-1)
    coeffs = np.ones(1, dtype=np.complex128)
    n = 1
    for a in reversed(a_digits):
        n *= p
        rows = flat[:: b // n].reshape(p, n // p)
        out = np.empty((p, n // p), dtype=np.complex128)
        np.multiply(rows[: p - a], coeffs, out=out[a:])
        if a:
            np.multiply(rows[p - a :], coeffs, out=out[:a])
        coeffs = out.reshape(-1)
    return np.conj(coeffs, out=coeffs)


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
    if hi - lo > SPECTRUM_CAP:
        raise ResourceError(f"interval length {hi - lo} exceeds the cap {SPECTRUM_CAP}")
    mags_by_k = _block_magnitudes_by_k(a, shape)
    value = 0.0
    for start in range(lo, hi, CHUNK):  # np.sum per chunk, chunk sums in order
        ks = np.arange(start, min(start + CHUNK, hi), dtype=np.int64)
        prod = np.ones(ks.size, dtype=np.float64)
        for mags in mags_by_k:
            prod *= mags[ks % mags.size]
        value += float(prod.sum())
    reference = math.sqrt(shape.primes[-1] * (hi - lo))
    return {"sum": value, "reference": reference, "ratio": value / reference}


def _truncation_error(sums) -> float:
    """mean |prod_i v_i - prod_i chi_i|^2 over the group, from block sums.

    v_i is block i's truncated character, chi_i its character and
    r_i = chi_i - v_i; their coefficients are c_i eta_i, c_i and c_i eps_i
    with eps_i = 1 - eta_i.  The difference telescopes into the terms
    T_i = (prod_{j<i} v_j) r_i (prod_{j>i} chi_j), and the mean of a product
    of block functions is the product of their block means, each a Parseval
    sum S_j(w) = sum_k |c_j(k)|^2 w(k).  ``sums[j]`` holds S_j at eta^2,
    eta eps, eps^2, eta, eps and 1.  For the pair m = min(i, k) <
    M = max(i, k), mean T_i conj(T_k) takes eta^2 below m, eta eps at m, eta
    strictly between, eps at M and 1 above; for i = k it takes eps^2 at i.
    Every term is nonnegative, so nothing cancels, and an untruncated
    character gives exactly 0."""
    r = len(sums)
    eta2, eta_eps, eps2, eta1, eps1, one = zip(*sums)
    error = 0.0
    for m in range(r):
        head = math.prod(eta2[:m])
        error += head * eps2[m] * math.prod(one[m + 1 :])
        between = 1.0
        for M in range(m + 1, r):
            error += 2.0 * head * eta_eps[m] * between * eps1[M] * math.prod(one[M + 1 :])
            between *= eta1[M]
    return error


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
    if shape.X > SPECTRUM_CAP:
        raise ResourceError(f"X = {shape.X} exceeds the truncated-character cap {SPECTRUM_CAP}")
    values = np.ones(shape.X, dtype=np.complex128)
    support = []
    sums = []
    for i, (p, e) in enumerate(zip(shape.primes, shape.exponents)):
        b = shape.block_sizes[i]
        K = cutoffs[i]
        coeffs = _local_coeffs(a.block(i), p, e)
        # |signed frequency residue| of k, the residue taken in (-b/2, b/2]
        u = np.arange(b, dtype=np.float64)
        np.minimum(u, b - u, out=u)
        eta = np.clip((2.0 * K - u) / K, 0.0, 1.0)
        # entry x of values reads block i at x mod b
        rows = values.reshape(-1, b)
        rows *= np.fft.ifft(coeffs * eta) * b
        power = np.abs(coeffs) ** 2
        eps = 1.0 - eta
        sums.append([float(power @ w) for w in (eta * eta, eta * eps, eps * eps, eta, eps)]
                    + [float(power.sum())])
        kept = eta > 0
        support.append(
            {
                "block": i,
                "cutoff": K,
                "kept": int(kept.sum()),
                "max_abs_frequency": int(u[kept].max()) if kept.any() else 0,
            }
        )
    l2_error = _truncation_error(sums)
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
    observed: float  # |fhat(a)|
    delta: float


def _signed_order(limit: int):
    # 0, 1, -1, 2, -2, ... capped at |s| <= limit
    seq = [0]
    for s in range(1, limit + 1):
        seq.append(s)
        seq.append(-s)
    return seq


def _additive_coefficient(read, theta: Fraction, X: int) -> complex:
    """(1/X) sum_x f(x) e(-theta x), f given as a _reader, streamed: the
    phase index (-num x) mod den is the linear form of _linear_halves."""
    den = theta.denominator
    halves = _linear_halves(-theta.numerator % den, den, CHUNK)
    phases = CrtReader(X, [(den, halves, partial(roots_at, den))], np.multiply, np.complex128)
    return _streamed_sum(X, lambda lo, n: read(lo, n) * phases.run(lo, n)) / X


def katai_preflight(budget: int, X: int) -> None:
    """The check of katai_witness's budget, which needs no table: the CLI
    makes it before it sieves."""
    if budget < X:
        raise ArgumentError(f"--budget {budget} is below X = {X}: no candidate fits")


def katai_witness(table, a: CharacterIndex, shape: GroupShape,
                  delta: float | None = None, budget: int = 10**7):
    """Search for theta = sum s_{i,j} / p_i^(j+1) with support inside the
    support of a whose additive coefficient meets the guaranteed floor
    (delta / (10 |a| sqrt(p_r)))^(4 |a|); delta defaults to |fhat(a)|/2.

    Deterministic order: lexicographic over support positions, numerators
    0, 1, -1, 2, -2, ... at each.  Budget counts streamed point
    evaluations (X per candidate), so it must be at least X.
    """
    katai_preflight(budget, shape.X)
    read = _reader(table, shape.X)
    observed = abs(correlation(table, a, shape))
    if delta is None:
        delta = observed / 2
    if not 0 < delta < 0.5:
        raise ArgumentError(f"delta must lie in (0, 1/2), got {delta}")
    if observed <= delta:
        raise ArgumentError(
            f"|fhat(a)| = {observed:.6g} does not exceed delta = {delta:.6g}"
        )
    weight = a.weight
    if weight == 0:
        raise ArgumentError("the trivial character has no additive witness")
    p_r = shape.primes[-1]
    bound = (delta / (10.0 * weight * math.sqrt(p_r))) ** (4 * weight)
    # exact: in floats a tiny delta overflows the quotient or underflows delta**3
    numerator_cap = math.floor((40 * p_r) ** 2 * weight**3 / Fraction(delta) ** 3)

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
        achieved = abs(_additive_coefficient(read, theta, shape.X))
        evaluations += shape.X
        candidates += 1
        witness = KataiWitness(
            tuple(terms), theta % 1, achieved, bound, achieved >= bound,
            evaluations, candidates, observed, delta,
        )
        if witness.satisfied:
            return witness
        if best is None or achieved > best.achieved:
            best = witness
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

