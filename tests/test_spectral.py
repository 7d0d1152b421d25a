import math
import sys
import threading
import tracemalloc
from collections import OrderedDict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mspec import (
    CharacterIndex,
    GroupShape,
    ap_l1_sum,
    char_dft_closed_form,
    char_l1_norm,
    char_values,
    correlation,
    gq,
    group_spectrum,
    interval_l1_sum,
    inverse_transform,
    katai_witness,
    linf_bound_check,
    p_power_rational_check,
    sieve,
    truncated_character,
)
from mspec import spectral
from mspec.cli import run_command
from mspec.errors import ArgumentError, ResourceError
from mspec.spectral import (
    SPECTRUM_CAP,
    _digit_kernel,
    _local_coeffs,
    block_pairwise_sum,
)

SHAPES = [
    GroupShape([2], [3]),
    GroupShape([3], [2]),
    GroupShape([2, 3], [2, 1]),
    GroupShape([2, 3, 5], [1, 1, 1]),
]


def naive_spectrum(values, shape):
    values = np.asarray(values, dtype=np.complex128)
    out = np.empty(shape.X, dtype=np.complex128)
    for aflat in range(shape.X):
        chi = char_values(CharacterIndex.from_flat(aflat, shape), shape)
        out[aflat] = np.mean(values * np.conj(chi))
    return out


def test_delta_transforms_to_constant():
    for s in SHAPES:
        f = np.zeros(s.X)
        f[0] = 1.0
        spec = group_spectrum(f, s)
        assert np.allclose(spec.coeffs, 1.0 / s.X, atol=1e-12)


def test_character_transforms_to_delta():
    s = GroupShape([2, 3], [2, 1])
    for bflat in range(s.X):
        f = char_values(CharacterIndex.from_flat(bflat, s), s)
        spec = group_spectrum(f, s)
        expected = np.zeros(s.X)
        expected[bflat] = 1.0
        assert np.max(np.abs(spec.coeffs - expected)) < 1e-12


def test_mobius_shape_2_3_vanishing_coefficient():
    # brute force: sum over n < 8 of mu(n) (-1)^(digit sum) is 0
    s = GroupShape([2], [3])
    mu = sieve("mobius", 8).values.astype(float)
    a = CharacterIndex.from_digits([1, 1, 1], s)
    spec = group_spectrum(mu, s)
    assert abs(spec.coeffs[a.flat]) < 1e-15
    assert abs(correlation(mu, a, s)) < 1e-15


def test_spectrum_matches_naive():
    rng = np.random.default_rng(7)
    for s in SHAPES:
        for _ in range(3):
            f = rng.normal(size=s.X) + 1j * rng.normal(size=s.X)
            spec = group_spectrum(f, s)
            assert np.max(np.abs(spec.coeffs - naive_spectrum(f, s))) < 1e-9


def test_parseval_and_inverse():
    rng = np.random.default_rng(11)
    for s in SHAPES:
        f = rng.normal(size=s.X) + 1j * rng.normal(size=s.X)
        spec = group_spectrum(f, s)
        lhs = np.sum(np.abs(spec.coeffs) ** 2)
        rhs = np.mean(np.abs(f) ** 2)
        assert abs(lhs - rhs) / rhs < 1e-9
        assert np.max(np.abs(inverse_transform(spec) - f)) < 1e-9


def fftn_reference(values, shape):
    """The transform through np.fft.fftn: scatter by the digit matrix, then
    reshape with reversed radices so that the C-order flat index is the
    little-endian character index."""
    perm = shape.digits_matrix().astype(np.int64) @ shape.digit_strides
    scattered = np.empty(shape.X, dtype=np.complex128)
    scattered[perm] = values
    axes = tuple(int(p) for p in shape.digit_primes[::-1])
    return np.fft.fftn(scattered.reshape(axes)).reshape(-1) / shape.X


@st.composite
def mixed_shapes(draw, max_x=1 << 12):
    """Shapes with X <= max_x over primes mixing 2 and odd ones."""
    primes = sorted(draw(st.lists(st.sampled_from([2, 3, 5, 7, 11]),
                                  min_size=1, max_size=4, unique=True)))
    used, exponents, X = [], [], 1
    for p in primes:
        e_max = 0
        while X * p ** (e_max + 1) <= max_x:
            e_max += 1
        if e_max:
            e = draw(st.integers(1, e_max))
            used.append(p)
            exponents.append(e)
            X *= p**e
    return GroupShape(used, exponents)


@settings(max_examples=60, deadline=None)
@given(s=mixed_shapes(), seed=st.integers(0, 2**32 - 1), real=st.booleans())
@example(s=GroupShape([2, 4099], [1, 1]), seed=1, real=True)
@example(s=GroupShape([65537], [1]), seed=2, real=False)
def test_spectrum_matches_fftn_reference(s, seed, real):
    rng = np.random.default_rng(seed)
    f = rng.normal(size=s.X)
    if not real:
        f = f + 1j * rng.normal(size=s.X)
    assert np.max(np.abs(group_spectrum(f, s).coeffs - fftn_reference(f, s))) <= 1e-12


@pytest.mark.parametrize("d", [1, 6, 12])
def test_integer_spectrum_bit_identical_on_powers_of_two(d):
    s = GroupShape([2], [d])
    rng = np.random.default_rng(d)
    for f in (sieve("mobius", s.X).values, rng.integers(-9, 10, size=s.X)):
        assert np.array_equal(group_spectrum(f, s).coeffs, fftn_reference(f, s))


@settings(max_examples=40, deadline=None)
@given(s=mixed_shapes(), seed=st.integers(0, 2**32 - 1))
@example(s=GroupShape([2, 4099], [1, 1]), seed=3)
@example(s=GroupShape([65537], [1]), seed=4)
def test_inverse_transform_roundtrip(s, seed):
    rng = np.random.default_rng(seed)
    f = rng.normal(size=s.X) + 1j * rng.normal(size=s.X)
    assert np.max(np.abs(inverse_transform(group_spectrum(f, s)) - f)) <= 1e-12


# runs of one prime with p^k <= 32 are one gemm each and a block longer
# than a run splits; a prime above 32 is a run of one digit, and above 128
# it takes the FFT
RUN_BOUND_SHAPES = [
    GroupShape([2], [7]),
    GroupShape([2], [11]),
    GroupShape([3, 5], [4, 2]),
    GroupShape([31], [2]),
    GroupShape([2, 37], [1, 1]),
    GroupShape([2, 3, 5, 7, 11], [2, 1, 1, 1, 1]),
    GroupShape([3, 131], [1, 2]),
]


@pytest.mark.parametrize("s", RUN_BOUND_SHAPES, ids=repr)
@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
def test_spectrum_matches_fftn_reference_across_run_bound(s, real):
    rng = np.random.default_rng(s.X)
    f = rng.normal(size=s.X)
    if not real:
        f = f + 1j * rng.normal(size=s.X)
    assert np.max(np.abs(group_spectrum(f, s).coeffs - fftn_reference(f, s))) <= 1e-12


@pytest.mark.parametrize("d", [5, 11, 16])
def test_integer_spectrum_bit_identical_across_run_bound(d):
    s = GroupShape([2], [d])
    rng = np.random.default_rng(d)
    for f in (sieve("mobius", s.X).values, rng.integers(-9, 10, size=s.X)):
        assert np.array_equal(group_spectrum(f, s).coeffs, fftn_reference(f, s))


@pytest.mark.parametrize("s", RUN_BOUND_SHAPES, ids=repr)
def test_inverse_transform_roundtrip_across_run_bound(s):
    rng = np.random.default_rng(s.X + 1)
    f = rng.normal(size=s.X) + 1j * rng.normal(size=s.X)
    assert np.max(np.abs(inverse_transform(group_spectrum(f, s)) - f)) <= 1e-12


@pytest.mark.parametrize("s", [GroupShape([2], [6]), GroupShape([3], [4]),
                               GroupShape([2, 3, 5], [2, 1, 1])], ids=repr)
@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_transforms_never_write_their_input(s, dtype):
    rng = np.random.default_rng(5)
    f = rng.normal(size=s.X).astype(dtype)
    kept = f.copy()
    spec = group_spectrum(f, s)
    assert np.array_equal(f, kept)
    f.setflags(write=False)
    assert np.array_equal(group_spectrum(f, s).coeffs, spec.coeffs)
    coeffs = spec.coeffs.copy()
    back = inverse_transform(spec)
    assert np.array_equal(spec.coeffs, coeffs)
    assert np.max(np.abs(back - f)) <= 1e-12


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_spectrum_rejects_nonfinite_table(bad):
    s = GroupShape([2, 3], [2, 1])
    f = np.ones(s.X)
    f[5] = bad
    with pytest.raises(ArgumentError, match="NaN or infinite"):
        group_spectrum(f, s)


@pytest.mark.parametrize("bad", [np.nan, complex(0, np.inf)])
def test_correlation_rejects_nonfinite_table(bad):
    s = GroupShape([3], [2])
    f = np.ones(s.X, dtype=np.complex128)
    f[4] = bad
    with pytest.raises(ArgumentError, match="NaN or infinite"):
        correlation(f, CharacterIndex.from_flat(1, s), s)


def test_spectrum_cap():
    """The cap refuses before the table is read, so a short table does."""
    with pytest.raises(ResourceError, match="correlation"):
        group_spectrum(np.zeros(1), GroupShape([2], [27]))


def test_correlation_examples():
    s = GroupShape([2], [3])
    ones = np.ones(8)
    assert abs(correlation(ones, CharacterIndex.from_flat(0, s), s) - 1.0) < 1e-12
    for aflat in range(1, 8):
        assert abs(correlation(ones, CharacterIndex.from_flat(aflat, s), s)) < 1e-12


def test_correlation_matches_spectrum():
    rng = np.random.default_rng(3)
    s = GroupShape([3], [4])
    f = rng.normal(size=s.X)
    spec = group_spectrum(f, s)
    for aflat in range(0, s.X, 7):
        a = CharacterIndex.from_flat(aflat, s)
        assert abs(correlation(f, a, s) - spec.coeffs[aflat]) < 1e-10


def test_block_pairwise_sum_stability():
    rng = np.random.default_rng(5)
    arr = rng.normal(size=10000)
    assert block_pairwise_sum(arr) == block_pairwise_sum(arr.copy())
    assert abs(block_pairwise_sum(arr) - arr.sum()) < 1e-9


# -- kernel ---------------------------------------------------------------


def test_gq_examples():
    assert gq(7, 0.0) == 1.0
    assert abs(gq(2, 0.25) - 1.0 / math.sqrt(2)) < 1e-12
    assert abs(gq(3, 1.0 / 3.0)) < 1e-12
    # integer values alternate with the parity of (q-1) n
    assert gq(2, 1.0) == -1.0 and gq(2, 2.0) == 1.0
    assert gq(3, 1.0) == 1.0 and gq(5, 3.0) == 1.0
    with pytest.raises(ArgumentError):
        gq(1, 0.5)


@settings(max_examples=100)
@given(st.floats(-2.0, 2.0, allow_nan=False), st.sampled_from([2, 3, 5, 7]))
@example(-1.714318631004983, 7)
def test_gq_partition_of_unity(y, q):
    total = sum(gq(q, y - ell / q) ** 2 for ell in range(q))
    # cancellation near the sine poles costs a couple of ulps beyond 1e-12
    assert abs(total - 1.0) < 1e-11


@settings(max_examples=100)
@given(st.floats(-1.0, 1.0, allow_nan=False), st.sampled_from([2, 3]),
       st.integers(1, 6))
def test_gq_product_formula(y, q, M):
    prod = 1.0
    for m in range(M):
        prod *= gq(q, y * q**m)
    assert abs(prod - gq(q**M, y)) < 1e-9


def test_gq_bounded():
    ys = np.linspace(-3, 3, 1234)
    for q in (2, 3, 5):
        for y in ys:
            assert abs(gq(q, float(y))) <= 1.0 + 1e-12


# -- closed-form coefficients ---------------------------------------------


def additive_dft(values, X):
    n = np.arange(X)
    return np.array([np.mean(values * np.exp(-2j * np.pi * k * n / X))
                     for k in range(X)])


def test_closed_form_examples():
    s = GroupShape([2], [2])
    zero = CharacterIndex.from_digits([0, 0], s)
    mag, _ = char_dft_closed_form(zero, 0, s)
    assert abs(mag - 1.0) < 1e-12
    for k in range(1, 4):
        mag, _ = char_dft_closed_form(zero, k, s)
        assert mag < 1e-12
    a = CharacterIndex.from_digits([1, 0], s)
    mag, val = char_dft_closed_form(a, 2, s)
    assert abs(mag - 1.0) < 1e-9 and abs(val - 1.0) < 1e-9


def test_closed_form_matches_direct_dft():
    for s in SHAPES:
        for aflat in range(s.X):
            a = CharacterIndex.from_flat(aflat, s)
            dft = additive_dft(char_values(a, s), s.X)
            for k in range(s.X):
                mag, val = char_dft_closed_form(a, k, s)
                assert abs(mag - abs(dft[k])) < 1e-9
                assert abs(val - dft[k]) < 1e-9


def digit_sum_block_coeffs(a_digits, p, e):
    # per-digit factorization: prod_j (1/p) sum_{u<p} e(beta_j u)
    b = p**e
    kappa = np.arange(b, dtype=np.float64)
    out = np.ones(b, dtype=np.complex128)
    for j in range(e):
        beta = a_digits[j] / p - kappa / float(p ** (e - j))
        out *= np.exp(2j * np.pi * np.outer(beta, np.arange(p))).sum(axis=1) / p
    return out


def test_block_coeffs_match_digit_sum():
    for p, e in [(2, 8), (3, 5), (5, 3), (7, 2)]:
        s = GroupShape([p], [e])
        for aflat in range(s.X):
            digits = CharacterIndex.from_flat(aflat, s).digits
            ref = digit_sum_block_coeffs(digits, p, e)
            assert np.abs(_local_coeffs(digits, p, e) - ref).max() < 2e-12


@pytest.mark.parametrize("p, e", [(2, 1), (5, 1), (257, 1), (4099, 1), (2, 16), (3, 9),
                                  (131, 2), (1009, 2), (7, 3), (2, 5)])
def test_block_coeffs_match_fft_of_char_values(p, e):
    block = GroupShape([p], [e])
    rng = np.random.default_rng(p * 100 + e)
    cases = [[0] * e, [p - 1] * e] + [rng.integers(0, p, e).tolist() for _ in range(4)]
    for digits in cases:
        chi = char_values(CharacterIndex.from_digits(digits, block), block)
        ref = np.fft.fft(chi) / p**e
        assert np.abs(_local_coeffs(digits, p, e) - ref).max() < 1e-12
    kernel = _digit_kernel(p, e)
    assert kernel.shape == (p, p ** (e - 1)) and not kernel.flags.writeable
    with pytest.raises(ValueError):
        kernel[0, 0] = 0


def test_block_coeffs_memory_at_2_20():
    """tracemalloc of linf_bound_check on one 2^20 block: the first call
    peaks at 40 B per entry (kernel 16, coefficients 16, the half-length
    product or the magnitudes 8), keeps only the 16 B/entry kernel, and
    a second call adds at most 24 B/entry to it."""
    s = GroupShape([2], [20])
    a = CharacterIndex.from_flat(0xB5A3F, s)
    b, slack = s.X, 64 << 10
    spectral._kernels.clear()
    tracemalloc.start()
    try:
        linf_bound_check(a, s)
        held, first = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        linf_bound_check(a, s)
        _, second = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        spectral._kernels.clear()
    assert first <= 40 * b + slack
    assert held <= 16 * b + slack
    assert second - held <= 24 * b + slack


def test_kernel_cache_is_bounded_in_bytes(monkeypatch):
    """Kernels are kept least recently used first out while they total at
    most _KERNEL_CACHE_BYTES; one larger than that is never kept."""
    monkeypatch.setattr(spectral, "_kernels", OrderedDict())
    monkeypatch.setattr(spectral, "_KERNEL_CACHE_BYTES", 16 << 10)
    held = spectral._kernels
    k8 = _digit_kernel(2, 8)
    _digit_kernel(3, 5)
    _digit_kernel(2, 9)
    assert list(held) == [(2, 8), (3, 5), (2, 9)]
    assert _digit_kernel(2, 8) is k8
    _digit_kernel(5, 4)
    assert list(held) == [(2, 8), (5, 4)]
    big = _digit_kernel(2, 11)
    assert big.nbytes > 16 << 10 and list(held) == [(2, 8), (5, 4)]
    assert _digit_kernel(2, 11) is not big
    assert sum(k.nbytes for k in held.values()) <= 16 << 10


def test_kernel_cache_under_threads(monkeypatch):
    """Eight threads share the cache under a budget of about two kernels:
    every kernel handed out is right, no thread raises, and the cache
    ends within its budget."""
    monkeypatch.setattr(spectral, "_kernels", OrderedDict())
    monkeypatch.setattr(spectral, "_KERNEL_CACHE_BYTES", 20 << 10)
    keys = [(2, 9), (3, 6), (5, 4), (7, 3), (2, 7)]
    refs = {key: spectral._build_kernel(*key) for key in keys}
    errors = []

    def worker(seed):
        rng = np.random.default_rng(seed)
        try:
            for _ in range(300):
                key = keys[rng.integers(len(keys))]
                if not np.array_equal(_digit_kernel(*key), refs[key]):
                    errors.append(f"wrong kernel for {key}")
        except Exception as exc:  # reported through errors, checked below
            errors.append(repr(exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert sum(k.nbytes for k in spectral._kernels.values()) <= 20 << 10


@pytest.mark.parametrize("p, e", [(4099, 1), (1009, 2), (1000003, 1)])
def test_large_prime_block_costs_linear_memory(p, e):
    """A block of one large prime builds its kernel in O(p^e): the first
    linf_bound_check peaks at 40 B per entry, as for p = 2."""
    s = GroupShape([p], [e])
    a = CharacterIndex.from_digits([p - 2] * e, s)
    spectral._kernels.clear()
    tracemalloc.start()
    try:
        linf_bound_check(a, s)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        spectral._kernels.clear()
    assert peak <= 40 * s.X + (64 << 10)


def test_l1_examples():
    s = GroupShape([2], [2])
    zero = CharacterIndex.from_digits([0, 0], s)
    assert abs(char_l1_norm(zero, s) - 1.0) < 1e-12
    assert abs(char_l1_norm(CharacterIndex.from_digits([0, 1], s), s)
               - math.sqrt(2)) < 1e-9
    assert abs(char_l1_norm(CharacterIndex.from_digits([1, 0], s), s)
               - 1.0) < 1e-9


def test_l1_matches_direct():
    for s in SHAPES:
        for aflat in range(s.X):
            a = CharacterIndex.from_flat(aflat, s)
            direct = np.abs(additive_dft(char_values(a, s), s.X)).sum()
            assert abs(char_l1_norm(a, s) - direct) / direct < 1e-8


def test_linf_examples():
    s1 = GroupShape([2], [1])
    m, b, ok, edge = linf_bound_check(CharacterIndex.from_digits([1], s1), s1)
    assert ok and edge and abs(m - 1.0) < 1e-12
    s = GroupShape([3], [6])
    a = CharacterIndex.from_digits([1, 2, 0, 1, 0, 1], s)  # weight 4
    m, b, ok, _ = linf_bound_check(a, s)
    assert ok and abs(b - (77.0 / 81.0) ** 2) < 1e-12 and m <= b + 1e-12


def test_ap_sum():
    s = GroupShape([2], [4])
    a = CharacterIndex.from_digits([0, 1, 0, 0], s)
    full = ap_l1_sum(a, s, [0], [0])
    assert abs(full - char_l1_norm(a, s)) < 1e-10
    dft = np.abs(additive_dft(char_values(a, s), s.X))
    even = ap_l1_sum(a, s, [1], [0])
    assert abs(even - dft[0::2].sum()) < 1e-9
    odd = ap_l1_sum(a, s, [1], [1])
    assert abs(odd - dft[1::2].sum()) < 1e-9
    with pytest.raises(ArgumentError):
        ap_l1_sum(a, s, [3], [0])
    with pytest.raises(ArgumentError):
        ap_l1_sum(a, s, [1], [2])


def test_ap_sum_trivial_character():
    s = GroupShape([3], [4])
    zero = CharacterIndex.from_flat(0, s)
    assert abs(ap_l1_sum(zero, s, [1], [0]) - 1.0) < 1e-12
    assert abs(ap_l1_sum(zero, s, [1], [1])) < 1e-12


def test_interval_sum():
    s = GroupShape([3], [4])
    zero = CharacterIndex.from_flat(0, s)
    assert abs(interval_l1_sum(zero, s, 0, s.X)["sum"] - 1.0) < 1e-12
    assert abs(interval_l1_sum(zero, s, 0, 1)["sum"] - 1.0) < 1e-12
    a = CharacterIndex.from_digits([1, 2, 0, 1], s)
    dft = np.abs(additive_dft(char_values(a, s), s.X))
    r = interval_l1_sum(a, s, 5, 40)
    assert abs(r["sum"] - dft[5:40].sum()) < 1e-9
    assert abs(r["reference"] - math.sqrt(3 * 35)) < 1e-12
    with pytest.raises(ArgumentError):
        interval_l1_sum(a, s, 10, 5)


def _no_block_coeffs(*args):
    raise AssertionError("computed block coefficients past the cap")


def test_interval_sum_refuses_over_the_cap(monkeypatch):
    s = GroupShape([2, 3], [20, 12])
    a = CharacterIndex.from_flat(5, s)
    monkeypatch.setattr(spectral, "_local_coeffs", _no_block_coeffs)
    with pytest.raises(ResourceError, match=f"interval length {s.X} exceeds the cap {SPECTRUM_CAP}"):
        interval_l1_sum(a, s, 0, s.X)
    with pytest.raises(ResourceError, match="exceeds the cap"):
        interval_l1_sum(a, s, 7, 8 + SPECTRUM_CAP)


def test_truncated_character_refuses_over_the_cap(monkeypatch):
    s = GroupShape([2, 3], [20, 12])
    a = CharacterIndex.from_flat(5, s)
    monkeypatch.setattr(spectral, "_local_coeffs", _no_block_coeffs)
    with pytest.raises(ResourceError, match=f"X = {s.X} exceeds the truncated-character cap"):
        truncated_character(a, s, [4, 4])


def test_truncated_character():
    s = GroupShape([3], [5])
    a = CharacterIndex.from_digits([1, 0, 2, 0, 0], s)
    # caps covering everything reproduce the character
    vals, support, err = truncated_character(a, s, [s.X])
    assert np.max(np.abs(vals - char_values(a, s))) < 1e-12 and err < 1e-12
    vals, support, err = truncated_character(a, s, [3])
    assert np.max(np.abs(vals)) <= 3.0 + 1e-9  # one block: 3^r with r = 1
    # coefficientwise domination on the additive side
    dft_t = additive_dft(vals, s.X)
    dft_c = additive_dft(char_values(a, s), s.X)
    assert np.all(np.abs(dft_t) <= np.abs(dft_c) + 1e-12)
    assert err >= 0.0


def test_truncated_character_trivial():
    s = GroupShape([2, 3], [2, 2])
    zero = CharacterIndex.from_flat(0, s)
    vals, _, err = truncated_character(zero, s, [1, 1])
    assert np.max(np.abs(vals - 1.0)) < 1e-12 and err < 1e-12


@pytest.mark.parametrize("primes,exponents", [([3], [6]), ([2, 131], [3, 1]),
                                               ([2, 3, 5, 7], [2, 2, 1, 1])])
def test_truncation_error_matches_direct_mean(primes, exponents):
    """The per-block error sum equals mean |values - chi_a|^2 taken over the
    whole group, and is exactly 0 when no block is truncated."""
    s = GroupShape(primes, exponents)
    rng = np.random.default_rng(3)
    for _ in range(12):
        a = CharacterIndex.from_flat(int(rng.integers(s.X)), s)
        cutoffs = [int(rng.integers(1, b // 2 + 3)) for b in s.block_sizes]
        vals, _, err = truncated_character(a, s, cutoffs)
        direct = float(np.mean(np.abs(vals - char_values(a, s)) ** 2))
        assert abs(err - direct) <= 1e-12
    _, _, err = truncated_character(a, s, [b // 2 for b in s.block_sizes])
    assert err == 0.0


def test_truncated_character_holds_only_its_values():
    """Only the returned values are X-long: 16 B/X plus block-sized
    scratch.  Reading each block over the group and subtracting chi_a
    there peaked at 64 B/X on this shape."""
    s = GroupShape([2, 3, 5, 7], [4, 3, 2, 2])
    a = CharacterIndex.from_flat(12345, s)
    truncated_character(a, s, [2, 2, 2, 2])  # fill the kernel cache
    tracemalloc.start()
    try:
        truncated_character(a, s, [2, 2, 2, 2])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 17 * s.X


# -- witness search -------------------------------------------------------


def test_katai_character_witness():
    s = GroupShape([5], [1])
    a = CharacterIndex.from_digits([2], s)
    f = char_values(a, s)
    w = katai_witness(f, a, s, 0.45)
    assert w.satisfied
    assert w.theta == Fraction(2, 5)
    assert abs(w.achieved - 1.0) < 1e-12


def test_katai_precondition():
    s = GroupShape([5], [1])
    a = CharacterIndex.from_digits([2], s)
    f = np.ones(5)
    with pytest.raises(ArgumentError):
        katai_witness(f, a, s, 0.3)  # |fhat(a)| = 0 <= delta
    with pytest.raises(ArgumentError):
        katai_witness(char_values(a, s), a, s, 0.7)  # delta >= 1/2


def test_katai_budget_exhaustion():
    s = GroupShape([3], [4])
    mu = sieve("mobius", s.X).values.astype(float)
    spec = group_spectrum(mu, s)
    aflat = int(np.argmax(np.abs(spec.coeffs[1:]))) + 1
    a = CharacterIndex.from_flat(aflat, s)
    delta = abs(spec.coeffs[aflat]) / 2
    # one-candidate budget: not enough to satisfy anything interesting,
    # but must return a well-formed report
    w = katai_witness(mu, a, s, delta, budget=s.X)
    assert w.candidates == 1
    assert w.evaluations <= s.X


def test_katai_refuses_a_budget_below_one_candidate():
    s = GroupShape([3], [4])
    mu = sieve("mobius", s.X).values.astype(float)
    a = CharacterIndex.from_flat(1, s)
    with pytest.raises(ArgumentError, match=f"budget {s.X - 1} is below X = {s.X}"):
        katai_witness(mu, a, s, 0.01, budget=s.X - 1)


def test_p_power_rational_examples():
    s = GroupShape([3], [10])
    r = p_power_rational_check([(0, 1), (2, 2)], s, 30)
    assert r.is_near_rational and r.q == 27 and r.a == 11 and r.is_p_power
    r = p_power_rational_check([], s, 10)
    assert r.q == 1 and r.is_p_power
    r = p_power_rational_check([(0, 1), (8, 1)], s, 10)
    assert r.q == 3 and r.is_near_rational and r.is_p_power
    with pytest.raises(ArgumentError):
        p_power_rational_check([(0, 1)], GroupShape([2, 3], [1, 1]), 10)


# -- plot data -----------------------------------------------------------


def test_spectrum_dump_roundtrip(tmp_path, capsys):
    csv_path = str(tmp_path / "spec.csv")
    assert run_command(["spectrum", "--shape", "3^3", "--plot-data", csv_path]) == 0
    capsys.readouterr()
    with open(csv_path) as fh:
        header = fh.readline().strip()
        assert header == "flat_index,re,im,magnitude"
        assert len(fh.readlines()) == 27
