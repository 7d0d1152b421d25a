"""The two-buffer transform against the allocate-per-run one it replaced.

group_spectrum and inverse_transform write every digit run into two
buffers allocated once; the reference below allocates a fresh output per
run and scatters the whole table first.  Both must give the same bytes.
Also here: the bytes a full spectrum holds, the roots of unity evaluated
on demand above CHUNK, and the CLI's chunked top-k.
"""

import tracemalloc

import numpy as np
import pytest

from mspec import (CharacterIndex, correlation, group_spectrum, inverse_transform,
                   katai_witness, parse_shape, sieve)
from mspec.cli import _top_magnitudes
from mspec.group import CHUNK, roots_at, roots_of_unity
from mspec.spectral import _kron_dft, _runs

# both sides of CHUNK; 2^8*257 takes the FFT path over several row blocks,
# and 2^12 and 2^17 end in either half of the result on a real table
SHAPES = ["2^12", "2^17", "3^11", "2^2*3^2*5^2*7^2", "131^2", "2^8*257", "5^7"]


def _reference_transform(t, shape, sign):
    for p, k in reversed(_runs(shape)):
        n = p**k
        v = t.reshape(n, -1).T
        if p > 128:
            t = np.fft.fft(v, axis=1) if sign < 0 else np.fft.ifft(v, axis=1, norm="forward")
        else:
            m = _kron_dft(p, k, sign)
            if t.dtype == np.float64 and m.dtype == np.complex128:
                t = (v @ m.view(np.float64)).view(np.complex128)
            else:
                t = v @ m
        t = t.reshape(-1)
    return t


def _reference_spectrum(values, shape):
    values = values.astype(np.complex128 if np.iscomplexobj(values) else np.float64)
    if shape.r > 1:
        scattered = np.empty_like(values)
        scattered[shape.flat_index_of(None)] = values
        values = scattered
    coeffs = _reference_transform(values, shape, -1)
    coeffs /= shape.X
    return coeffs.astype(np.complex128, copy=False)


def _reference_inverse(coeffs, shape):
    out = _reference_transform(coeffs, shape, 1)
    return out if shape.r == 1 else out[shape.flat_index_of(None)]


@pytest.mark.parametrize("text", SHAPES)
def test_transform_bytes_equal_the_allocate_per_run_reference(text):
    shape = parse_shape(text)
    mobius = sieve("mobius", shape.X).values
    rng = np.random.default_rng(4)
    tables = {"int8": mobius, "float64": mobius.astype(np.float64),
              "complex": rng.standard_normal(shape.X) + 1j * rng.standard_normal(shape.X)}
    for name, values in tables.items():
        spec = group_spectrum(values, shape)
        want = _reference_spectrum(values, shape)
        assert spec.coeffs.dtype == np.complex128, name
        assert spec.coeffs.tobytes() == want.tobytes(), name
        assert inverse_transform(spec).tobytes() == _reference_inverse(want, shape).tobytes(), name


@pytest.mark.parametrize("text,bound", [("2^20", 17.5), ("3^12", 33.5)])
def test_spectrum_bytes_per_entry(text, bound):
    """The int8 table plus the traced peak of group_spectrum: the result
    alone (16 B/X) on a 2-group, the result and one more complex buffer on
    an odd prime, plus a chunk."""
    shape = parse_shape(text)
    values = sieve("mobius", shape.X).values
    group_spectrum(values, shape)  # the DFT matrices are cached
    tracemalloc.start()
    try:
        group_spectrum(values, shape)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (values.nbytes + peak) / shape.X <= bound


def _table_roots(q):
    # roots_of_unity as it was before the on-demand branch
    roots = np.empty(q, dtype=np.complex128)
    half = q // 2
    roots[: half + 1] = np.exp(2j * np.pi * np.arange(half + 1) / q)
    roots[half + 1 :] = np.conj(roots[1 : q - half][::-1])
    return roots


@pytest.mark.parametrize("q", [1009**2, 100003, 2**20 + 7, 3**13, 2, 7, 4096, CHUNK])
def test_roots_on_demand_equal_the_table(q):
    table = _table_roots(q)
    u = np.random.default_rng(q).integers(0, 2 * q, size=50_000)
    assert roots_at(q, u).tobytes() == table[u % q].tobytes()
    assert complex(roots_at(q, q - 1)) == complex(table[q - 1])
    if q <= 1 << 17:
        assert roots_of_unity(q).tobytes() == table.tobytes()


def test_roots_cache_keeps_no_table_above_chunk():
    assert roots_of_unity(CHUNK) is roots_of_unity(CHUNK)
    assert roots_of_unity(CHUNK + 3) is not roots_of_unity(CHUNK + 3)


@pytest.mark.parametrize("text,search", [("1009^2", True), ("100003", False)])
def test_large_root_order_sums_hold_no_root_table(text, search):
    """A Katai candidate 1/1009^2 and a character on 100003 read roots of
    orders above CHUNK: evaluated a chunk at a time, never tabulated."""
    shape = parse_shape(text)
    values = sieve("mobius", shape.X).values
    a = CharacterIndex.from_flat(4242, shape)
    tracemalloc.start()
    try:
        if search:
            assert katai_witness(values, a, shape, budget=shape.X).candidates == 1
        else:
            correlation(values, a, shape)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 << 20


@pytest.mark.parametrize("start", [0, 1])
@pytest.mark.parametrize("k", [1, 5, 3 * CHUNK])
def test_top_magnitudes_match_a_stable_sort(start, k):
    """Few distinct magnitudes, so ties run across every chunk boundary."""
    rng = np.random.default_rng(k + start)
    coeffs = rng.integers(0, 4, size=2 * CHUNK + 77) * (1 - 1j)
    mags = np.hypot(coeffs[start:].real, coeffs[start:].imag)  # the plot's magnitudes
    want = np.argsort(-mags, kind="stable")[:k]
    got, got_mags = _top_magnitudes(coeffs, k, start)
    assert got.tolist() == (want + start).tolist()
    assert got_mags.tobytes() == mags[want].tobytes()
