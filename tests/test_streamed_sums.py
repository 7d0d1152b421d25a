"""The chunked sums against whole-array references.

correlation, lambda_balanced_correlation, the Katai additive coefficient
and count_primes_digit_condition read the table in CHUNK-entry chunks; each
must equal, bit for bit, the same sum over whole arrays built here from
char_values, roots_of_unity and block_pairwise_sum.
"""

import contextlib
import io
import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import mspec.cli
from mspec import (
    CharacterIndex,
    char_eval,
    char_values,
    correlation,
    count_primes_digit_condition,
    dump_table,
    interval_l1_sum,
    lambda_balanced_correlation,
    load_table,
    make_linear_map,
    parse_shape,
    sieve,
)
from mspec.cli import run_command
from mspec.errors import ArgumentError
from mspec.group import roots_of_unity
from mspec.primes import SurjectivityError
from mspec.spectral import (CHUNK, SPECTRUM_CAP, _additive_coefficient, _block_magnitudes_by_k,
                            _reader, block_pairwise_sum)

# one-block shapes above a chunk (3^12, 5^7 and 100003 are no multiple of
# 4096), blocks that wrap inside a chunk (2*3^10, 2*100003) and small blocks
SHAPES = ["3^12", "2^17", "1009^2", "100003", "2^4*3^3*5^2*7^2", "5^7",
          "2*3^10", "2*100003", "3^8"]
ONE_BLOCK = ["3^12", "2^17", "1009^2", "100003", "5^7", "3^8"]


def _chars(shape, count=3, seed=0):
    rng = np.random.default_rng(seed)
    flats = [1, shape.X - 1] + [int(f) for f in rng.integers(1, shape.X, size=count)]
    return [CharacterIndex.from_flat(f, shape) for f in flats]


@pytest.mark.parametrize("text", SHAPES)
def test_correlation_equals_the_whole_array_sum(text):
    shape = parse_shape(text)
    mobius = sieve("mobius", shape.X)
    mangoldt = sieve("von_mangoldt", shape.X)
    for a in _chars(shape):
        chi = char_values(a, shape)
        for table in (mobius, mobius.values, mangoldt):
            f = table.values if hasattr(table, "values") else table
            want = block_pairwise_sum(f.astype(np.float64) * np.conj(chi)) / shape.X
            assert correlation(table, a, shape) == want


@pytest.mark.parametrize("text", ["3^12", "3^8", "2^2*3^2*5*7"])
def test_correlation_of_a_complex_table_takes_conj_chi_first(text):
    """One streamed path at every X: below one chunk too."""
    shape = parse_shape(text)
    f = np.exp(0.37j * np.arange(shape.X))
    a = CharacterIndex.from_flat(3, shape)
    chi = np.conj(char_values(a, shape))
    assert correlation(f, a, shape) == block_pairwise_sum(np.multiply(chi, f)) / shape.X


@pytest.mark.parametrize("text", ONE_BLOCK)
def test_lambda_balance_equals_the_whole_array_sum(text):
    shape = parse_shape(text)
    p = shape.primes[0]
    nu = np.full(shape.X, p / (p - 1))
    nu[::p] = 0.0
    balanced = sieve("von_mangoldt", shape.X).values - nu
    for a in [CharacterIndex.from_flat(0, shape)] + _chars(shape, 2):
        want = block_pairwise_sum(balanced * char_values(a, shape))
        out = lambda_balanced_correlation(a, shape)
        assert out["raw"] == want and out["normalized"] == want / shape.X


@pytest.mark.parametrize("text", SHAPES)
def test_additive_coefficient_equals_the_whole_array_sum(text):
    shape = parse_shape(text)
    table = sieve("mobius", shape.X)
    values = table.values.astype(np.float64)
    x = np.arange(shape.X, dtype=np.int64)
    p, e = shape.primes[-1], shape.exponents[-1]
    for den in sorted({p, p**e, shape.X}):
        for num in (1, -1, den // 2 + 1, -(den // 3 + 1)):
            theta = Fraction(num, den)
            want = block_pairwise_sum(
                values * roots_of_unity(theta.denominator)[(-theta.numerator * x)
                                                           % theta.denominator]) / shape.X
            assert _additive_coefficient(_reader(table, shape.X), theta, shape.X) == want


def _fiber_reference(L, b, shape):
    x = np.arange(shape.X, dtype=np.int64)
    image = np.zeros((L.m, shape.X), dtype=np.int64)
    for j in range(L.d):
        image += L.rows[:, j, None] * (x // L.p**j % L.p)
    return (image % L.p == np.asarray(b)[:, None]).all(axis=0)


@pytest.mark.parametrize("text", ONE_BLOCK)
def test_digit_condition_equals_the_whole_array_count(text):
    shape = parse_shape(text)
    p, d = shape.primes[0], shape.exponents[0]
    table = sieve("von_mangoldt", shape.X)
    rng = np.random.default_rng(5)
    for m in sorted({1, min(2, d)}):
        L = None
        while L is None:
            try:
                L = make_linear_map(p, rng.integers(0, p, size=(m, d)))
            except SurjectivityError:
                pass
        b = rng.integers(0, p, size=m)
        in_fiber = _fiber_reference(L, b, shape)
        out = count_primes_digit_condition(L, b, shape)
        assert out["count"] == int(np.count_nonzero((table.pp_exp == 1) & in_fiber))
        assert out["lambda_sum"] == block_pairwise_sum(table.values * in_fiber).real


@pytest.mark.parametrize("text", ["2^20", "3^13", "2^22"])
def test_von_mangoldt_sums_hold_no_table(text):
    """Both digital-PNT sums read Lambda a chunk at a time from one sieve
    segment: the peak is the segment and chunk scratch, at most 3 MiB at
    every X and so at most 1 B/X from 2^22 on, where the whole von Mangoldt
    table and the X-sized masks held 14 to 16 B/X."""
    shape = parse_shape(text)
    p, d = shape.primes[0], shape.exponents[0]
    L = make_linear_map(p, [[1] * d, [0, 1] * (d // 2) + [0] * (d % 2)])
    a = CharacterIndex.from_flat(12345, shape)
    for call in (lambda: count_primes_digit_condition(L, [1, 0], shape),
                 lambda: lambda_balanced_correlation(a, shape)):
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 << 20


def test_correlation_on_2_20_holds_chunks_not_the_table():
    """An int8 table is widened a chunk at a time: the parent widened it
    whole and built the character and the product, 52 MiB here."""
    shape = parse_shape("2^20")
    table = sieve("mobius", shape.X)
    a = CharacterIndex.from_flat(5, shape)
    correlation(table, a, shape)
    tracemalloc.start()
    try:
        correlation(table, a, shape)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 << 20


@pytest.mark.parametrize("text", ["2^17", "2*100003", "2^4*3^3*5^2*7^2", "1009^2"])
def test_char_values_at_points_equal_the_whole_table(text):
    shape = parse_shape(text)
    xs = np.random.default_rng(2).integers(0, shape.X, size=1000)
    for a in _chars(shape):
        assert np.array_equal(char_values(a, shape, xs), char_values(a, shape)[xs])


def test_char_values_at_points_reads_no_whole_block():
    """100 points of 2^24 from digit halves of 2^12 entries each; the whole
    block table took 24 B per block entry, 384 MiB here."""
    shape = parse_shape("2^24")
    a = CharacterIndex.from_flat(12345677, shape)
    xs = np.random.default_rng(3).integers(0, shape.X, size=100)
    tracemalloc.start()
    try:
        got = char_values(a, shape, xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1 << 20
    assert all(got[k] == char_eval(a, int(x), shape) for k, x in enumerate(xs))


@pytest.mark.parametrize("text", ["2^17", "2^4*3^3*5^2*7^2", "1009^2", "100003"])
def test_interval_sum_by_chunks(text):
    """Up to one chunk the sum is np.sum of the whole product, as before;
    longer intervals add the chunk sums in order, within 1e-12 of it."""
    shape = parse_shape(text)
    for a in _chars(shape, 2):
        mags = _block_magnitudes_by_k(a, shape)
        for lo, hi in [(7, 100), (5, 5 + CHUNK), (0, shape.X), (shape.X // 3, shape.X)]:
            ks = np.arange(lo, hi, dtype=np.int64)
            prod = np.ones(hi - lo)
            for i, m in enumerate(mags):
                prod *= m[ks % shape.block_sizes[i]]
            want = float(prod.sum())
            got = interval_l1_sum(a, shape, lo, hi)["sum"]
            if hi - lo <= CHUNK:
                assert got == want
            else:
                assert abs(got - want) <= 1e-12 * want


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run_command(argv)
    return code, json.loads(out.getvalue()) if code == 0 else None


def test_correlate_and_katai_char_read_the_int8_table(monkeypatch):
    seen = []

    def spy(name):
        original = getattr(mspec.cli, name)

        def call(table, *args, **kwargs):
            seen.append((name, np.asarray(table).dtype))
            return original(table, *args, **kwargs)
        monkeypatch.setattr(mspec.cli, name, call)

    spy("correlation")
    spy("katai_witness")
    assert _run(["correlate", "--shape", "3^5", "--char", "7"])[0] == 0
    assert _run(["katai", "--shape", "3^5", "--char", "7"])[0] == 0
    assert seen == [("correlation", np.int8), ("katai_witness", np.int8)]


def test_csq_checks_samples_times_q_before_the_sieve(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("sieved a table for a run that must be refused")

    monkeypatch.setattr(mspec.cli, "sieve", refuse)
    assert run_command(["csq", "--shape", "2^26", "--samples", "1000000000000"]) == 3
    err = capsys.readouterr().err
    assert f"--q 10 times --samples 1000000000000 exceeds the cap {SPECTRUM_CAP}" in err


def test_von_mangoldt_dump_one_ulp_off_loads_and_a_corrupt_one_does_not(tmp_path):
    table = sieve("von_mangoldt", 1000)
    for change, ok in ((lambda v: np.nextafter(v, 10.0), True), (lambda v: v + 1.0, False)):
        values = table.values.copy()
        values[997] = change(values[997])
        path = str(tmp_path / "vm.bin")
        dump_table(type(table)("von_mangoldt", 1000, values), path)
        if ok:
            assert np.array_equal(load_table(path).values, table.values)
        else:
            with pytest.raises(ArgumentError, match="corrupt"):
                load_table(path)
