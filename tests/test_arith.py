import functools
import math
import os

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import example, given, settings, strategies as st

from mspec import arith, sieve, nu_p_weight, dump_table, load_table
from mspec.arith import SEGMENT_SIZE, _von_mangoldt_chunks, _word, primes_up_to, is_prime
from mspec.errors import ArgumentError, ResourceError
from mspec.group import CHUNK

from conftest import brute_force_factor


def test_mobius_small_values():
    t = sieve("mobius", 8)
    assert list(t.values[1:8]) == [1, -1, -1, 0, -1, 1, -1]
    assert t.values[0] == 0


def test_liouville_twelve():
    t = sieve("liouville", 13)
    assert t.values[12] == -1  # Omega(12) = 3


def test_mertens_values():
    t = sieve("mobius", 1001)
    assert t.values[1:11].sum() == -1
    assert t.values[1:101].sum() == 1
    assert t.values[1:1001].sum() == 2


def test_against_trial_division():
    limit = 10**4
    mob = sieve("mobius", limit + 1).values
    lio = sieve("liouville", limit + 1).values
    for n in range(1, limit + 1):
        factors = brute_force_factor(n)
        omega = sum(factors.values())
        squarefree = all(e == 1 for e in factors.values())
        assert lio[n] == (-1) ** omega
        if squarefree:
            assert mob[n] == (-1) ** omega
            assert mob[n] == lio[n]
        else:
            assert mob[n] == 0


def test_von_mangoldt_identity():
    t = sieve("von_mangoldt", 1000)
    assert t.values[0] == 0 and t.values[1] == 0
    for n in range(2, 1000):
        factors = brute_force_factor(n)
        if len(factors) == 1:
            (p, k), = factors.items()
            assert t.pp_prime[n] == p and t.pp_exp[n] == k
            assert abs(t.values[n] - math.log(p)) < 1e-12
        else:
            assert t.values[n] == 0 and t.pp_prime[n] == 0


def test_von_mangoldt_mass():
    X = 10**6
    t = sieve("von_mangoldt", X)
    assert abs(t.values.sum() / X - 1.0) < 0.1


def test_square_indicator():
    t = sieve("square_indicator", 50)
    squares = {n for n in range(1, 50) if int(math.isqrt(n)) ** 2 == n}
    assert set(np.flatnonzero(t.values)) == squares


def test_segmented_matches_monolithic():
    limit = 1 << 20
    for kind in ("mobius", "liouville", "von_mangoldt"):
        seg = sieve(kind, limit, segment_size=1 << 16)
        mono = sieve(kind, limit, segment_size=limit)
        assert np.array_equal(seg.values, mono.values)


REFERENCE_LIMIT = 3 * 10**5 + 1


@functools.lru_cache(maxsize=None)
def _trial_division_reference():
    """(mobius, liouville) on [0, REFERENCE_LIMIT) by dividing every entry
    by each prime up to the root until it no longer divides; the primes
    come from a plain list sieve, so nothing here shares code with
    mspec.arith."""
    root = math.isqrt(REFERENCE_LIMIT - 1)
    is_p = [True] * (root + 1)
    primes = []
    for d in range(2, root + 1):
        if is_p[d]:
            primes.append(d)
            for m in range(d * d, root + 1, d):
                is_p[m] = False
    residual = np.arange(REFERENCE_LIMIT, dtype=np.int64)
    omega = np.zeros(REFERENCE_LIMIT, dtype=np.int64)
    squarefree = np.ones(REFERENCE_LIMIT, dtype=bool)
    for p in primes:
        exp = np.zeros(REFERENCE_LIMIT, dtype=np.int64)
        hit = (residual % p == 0) & (residual > 0)
        while hit.any():
            residual[hit] //= p
            exp += hit
            hit = (residual % p == 0) & (residual > 0)
        omega += exp
        squarefree &= exp < 2
    omega += residual > 1  # one prime factor above the root
    liouville = np.where(omega % 2 == 0, 1, -1).astype(np.int8)
    mobius = np.where(squarefree, liouville, 0).astype(np.int8)
    mobius[0] = liouville[0] = 0
    return {"mobius": mobius, "liouville": liouville}


# Odd segment sizes put segment starts inside runs of prime powers and
# large primes at segment edges; 547^2 + 1 ends the table just past the
# square of its largest root prime, and limits 3 and 4 have no root
# primes at all.
@settings(max_examples=20, deadline=None)
@given(kind=st.sampled_from(["mobius", "liouville"]),
       limit=st.integers(1, REFERENCE_LIMIT - 1),
       segment_size=st.sampled_from([7**3, 1025, 4099, SEGMENT_SIZE]))
@example(kind="mobius", limit=547**2 + 1, segment_size=7**3)
@example(kind="liouville", limit=547**2 + 1, segment_size=4099)
@example(kind="mobius", limit=3, segment_size=7**3)
@example(kind="liouville", limit=4, segment_size=SEGMENT_SIZE)
def test_sieve_matches_trial_division_reference(kind, limit, segment_size):
    got = sieve(kind, limit, segment_size=segment_size).values
    assert got.dtype == np.int8
    assert np.array_equal(got, _trial_division_reference()[kind][:limit])


def test_sieve_errors():
    with pytest.raises(ArgumentError):
        sieve("totient", 10)
    with pytest.raises(ArgumentError):
        sieve("mobius", 0)
    with pytest.raises(ResourceError, match="cap"):
        sieve("mobius", 100, mem_cap=10)


@pytest.mark.parametrize("kind", ["mobius", "von_mangoldt"])
@pytest.mark.parametrize("segment_size", [0, -5])
def test_sieve_refuses_segment_size_below_1(kind, segment_size):
    with pytest.raises(ArgumentError, match="segment_size"):
        sieve(kind, 20, segment_size=segment_size)


def test_nu_p_weight():
    assert nu_p_weight(7, 3) == Fraction(3, 2)
    assert nu_p_weight(9, 3) == 0
    assert nu_p_weight(0, 5) == 0
    with pytest.raises(ArgumentError):
        nu_p_weight(7, 4)


def test_primality_helpers():
    ps = primes_up_to(100)
    assert ps[0] == 2 and ps[-1] == 97 and len(ps) == 25
    for n in range(200):
        assert is_prime(n) == (n in set(map(int, primes_up_to(200))))


def _eratosthenes(n: int) -> np.ndarray:
    """Primes <= n from one unsegmented bool row: a reference that shares
    nothing with the segmented sieve."""
    mask = np.ones(n + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return np.flatnonzero(mask)


@pytest.mark.parametrize("n", [SEGMENT_SIZE - 1, SEGMENT_SIZE, SEGMENT_SIZE + 1,
                               2 * SEGMENT_SIZE + 7])
def test_primes_up_to_across_segment_edges(n):
    got = primes_up_to(n)
    assert got.dtype == np.int64
    assert np.array_equal(got, _eratosthenes(n))
    # the entries within 64 of each segment edge, by the Miller-Rabin test as well
    for edge in range(0, n + 1, SEGMENT_SIZE):
        lo, hi = max(edge - 64, 0), min(edge + 64, n + 1)
        want = [m for m in range(lo, hi) if is_prime(m)]
        assert got[(got >= lo) & (got < hi)].tolist() == want


@pytest.mark.parametrize("n", [-1, 0, 1])
def test_primes_up_to_below_2_is_empty(n):
    got = primes_up_to(n)
    assert got.dtype == np.int64 and got.size == 0


def test_dump_load_roundtrip(tmp_path):
    for kind in ("mobius", "von_mangoldt"):
        t = sieve(kind, 500)
        path = str(tmp_path / f"{kind}.bin")
        dump_table(t, path)
        back = load_table(path)
        assert back.kind == kind and back.limit == 500
        assert np.allclose(back.values, t.values)
    with pytest.raises(ArgumentError, match="magic"):
        bad = str(tmp_path / "bad.bin")
        with open(bad, "wb") as fh:
            fh.write(b"NOPE" + b"\x00" * 16)
        load_table(bad)


def test_load_rejects_truncated_dump(tmp_path):
    path = str(tmp_path / "mobius.bin")
    dump_table(sieve("mobius", 1000), path)
    with open(path, "rb") as fh:
        data = fh.read()
    for cut in (data[:500], data[:10], data + b"\x00"):
        bad = str(tmp_path / "cut.bin")
        with open(bad, "wb") as fh:
            fh.write(cut)
        with pytest.raises(ArgumentError):
            load_table(bad)


def test_load_rejects_overlong_dump(tmp_path):
    path = str(tmp_path / "mobius.bin")
    dump_table(sieve("mobius", 1000), path)
    with open(path, "ab") as fh:
        fh.write(b"\x00" * (1 << 20))
    with pytest.raises(ArgumentError, match="holds more than 1000 payload bytes"):
        load_table(path)


def test_load_refuses_header_above_cap(tmp_path, monkeypatch):
    path = str(tmp_path / "mobius.bin")
    dump_table(sieve("mobius", 1000), path)
    with open(path, "r+b") as fh:
        fh.seek(8)
        fh.write((1 << 40).to_bytes(8, "little"))
    with pytest.raises(ResourceError, match="memory cap"):
        load_table(path)
    monkeypatch.setattr(arith, "DEFAULT_MEM_CAP", 999)
    dump_table(sieve("mobius", 1000, mem_cap=1000), path)
    with pytest.raises(ResourceError, match="memory cap is 999"):
        load_table(path)


def test_load_rejects_unknown_kind(tmp_path):
    path = str(tmp_path / "mobius.bin")
    dump_table(sieve("mobius", 100), path)
    with open(path, "rb") as fh:
        data = bytearray(fh.read())
    data[4] ^= 0xFF
    with open(path, "wb") as fh:
        fh.write(data)
    with pytest.raises(ArgumentError, match="kind"):
        load_table(path)


def _traced_peak(call):
    import tracemalloc

    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_von_mangoldt_sieve_and_load_peaks(tmp_path):
    """The sieve holds its 17 B/entry output plus segment scratch, and the
    loader no more than the sieve plus one 2^16-entry float64 chunk
    (512 KiB).  With an int64 arange of the segment the sieve peaked at
    28.3 B/entry here, and holding the whole payload put the loader at
    42 B/entry."""
    limit = 1 << 20
    table, sieve_peak = _traced_peak(lambda: sieve("von_mangoldt", limit))
    assert sieve_peak <= 22 * limit
    path = str(tmp_path / "vm.bin")
    dump_table(table, path)
    del table
    loaded, load_peak = _traced_peak(lambda: load_table(path))
    assert loaded.limit == limit
    assert load_peak <= sieve_peak + (1 << 19)


def test_sieve_peaks_per_entry():
    """One reused signed accumulator per segment keeps the Möbius and
    Liouville sieves near their 1 B/entry output (10 B/entry with an int8
    sign and a full-segment product); von Mangoldt holds its 13 B/entry
    table plus one segment of scratch."""
    limit = 4 * 10**6
    for kind, bound in (("mobius", 3), ("liouville", 3), ("von_mangoldt", 14.5)):
        _, peak = _traced_peak(lambda: sieve(kind, limit))
        assert peak <= bound * limit, (kind, peak / limit)


def test_prime_power_pairs_independent_of_segment_size():
    limit = 547**2 + 1
    ref = sieve("von_mangoldt", limit, segment_size=limit)
    for segment_size in (7**3, 4099, 1 << 16, SEGMENT_SIZE):
        t = sieve("von_mangoldt", limit, segment_size=segment_size)
        assert np.array_equal(t.values, ref.values)
        assert np.array_equal(t.pp_prime, ref.pp_prime)
        assert np.array_equal(t.pp_exp, ref.pp_exp)


@pytest.mark.parametrize("limit", [1, 2, 3, CHUNK - 1, CHUNK + 1, 547**2 + 1, 3**12])
def test_von_mangoldt_chunks_are_slices_of_the_sieve(limit):
    """The chunk reader's Lambda and prime offsets, run by run, are the
    sieve's values and its exponent-1 entries on that run."""
    table = sieve("von_mangoldt", limit)
    starts = []
    for lo, lam, offsets in _von_mangoldt_chunks(limit, CHUNK):
        starts.append(lo)
        want = table.values[lo : lo + CHUNK]
        assert lam.dtype == np.float64 and lam.tobytes() == want.tobytes()
        assert np.array_equal(offsets, np.flatnonzero(table.pp_exp[lo : lo + CHUNK] == 1))
    assert starts == list(range(0, limit, CHUNK))


def test_von_mangoldt_chunks_check_as_the_sieve_before_reading(monkeypatch):
    with pytest.raises(ArgumentError, match="limit must be >= 1"):
        _von_mangoldt_chunks(0, CHUNK)
    monkeypatch.setattr(arith, "DEFAULT_MEM_CAP", 100)
    with pytest.raises(ResourceError, match="limit 101 exceeds memory cap 100"):
        _von_mangoldt_chunks(101, CHUNK)


def test_pp_prime_width():
    assert sieve("von_mangoldt", 1000).pp_prime.dtype == np.int32
    assert _word(1 << 31) == np.int32
    assert _word((1 << 31) + 1) == np.int64
