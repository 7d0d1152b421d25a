"""Damaged table dumps end in a faithful result, ArgumentError or ResourceError.

Each example dumps a small table, then truncates it, appends bytes, flips
payload bits, overwrites one payload entry or lies in the header (kind
code, limit), or leaves it whole.  The test decides on its own whether the
bytes are still a sound dump (header, size and a payload the sieve could
have written: for von Mangoldt allclose to the sieve, otherwise values in
{-1, 0, 1}, or {0, 1} for the square indicator, with entry 0 equal to 0).
A sound dump must load and give back what the file holds: the header's
kind and limit with the payload's entries, or for von Mangoldt the sieved
table.  Any other dump must end in ArgumentError or ResourceError; any
other exception, a short table included, fails the test.  Examples also
draw the loader's chunk size, so a damaged entry falls in the first, a
middle or the last chunk.  load_table is the package's only loader:
spectra are written as CSV and never read back.
"""

import math
import os
import struct
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mspec import dump_table, load_table, sieve
from mspec import arith
from mspec.errors import ArgumentError, ResourceError

NAN = struct.pack("<d", math.nan)

MUTATIONS = st.lists(st.one_of(
    st.tuples(st.just("truncate"), st.integers(0, 1 << 14)),
    st.tuples(st.just("append"), st.binary(min_size=1, max_size=32)),
    st.tuples(st.just("flip"), st.integers(0, 1 << 20)),        # payload bit
    st.tuples(st.just("poke"), st.integers(0, 1 << 14), st.sampled_from([NAN, bytes(8)])),
    st.tuples(st.just("code"), st.integers(0, 255)),           # table kind code
    st.tuples(st.just("count"), st.one_of(st.integers(0, 1 << 14),
                                          st.integers(0, 2**64 - 1))),  # limit
), min_size=1, max_size=3)


def _mutate(data, header, count_at, mutations):
    """Apply the mutations in order; payload offsets wrap around its length."""
    data = bytearray(data)
    for name, *args in mutations:
        payload = len(data) - header
        if name == "truncate":
            del data[min(args[0], len(data)):]
        elif name == "append":
            data += args[0]
        elif name == "flip" and payload > 0:
            bit = args[0] % (8 * payload)
            data[header + bit // 8] ^= 1 << bit % 8
        elif name == "poke" and payload >= 8:
            at = header + 8 * (args[0] % (payload // 8))
            data[at : at + 8] = args[1]
        elif name == "code" and count_at == 8 and len(data) > 4:
            data[4] = args[0]
        elif name == "count" and len(data) >= count_at + 8:
            data[count_at : count_at + 8] = args[0].to_bytes(8, "little")
    return bytes(data)


def _load(loader, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "dump.bin")
        with open(path, "wb") as fh:
            fh.write(data)
        try:
            return loader(path)
        except (ArgumentError, ResourceError):
            return None


def _table_dump_is_sound(data):
    """Whether load_table must accept these bytes, decided without it."""
    if len(data) < 16 or data[:4] != b"MSPC":
        return False
    code, limit = struct.unpack("<B3xQ", data[4:16])
    if code >= len(arith.KINDS) or limit > arith.DEFAULT_MEM_CAP:
        return False
    kind = arith.KINDS[code]
    width = 8 if kind == "von_mangoldt" else 1
    if len(data) - 16 != width * limit:
        return False
    if kind != "von_mangoldt":
        values = np.frombuffer(data[16:], np.int8)
        low = 0 if kind == "square_indicator" else -1
        return bool(((values >= low) & (values <= 1)).all()
                    and (limit == 0 or values[0] == 0))
    return limit >= 1 and np.allclose(sieve(kind, limit).values,
                                      np.frombuffer(data[16:], "<f8"))


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(arith.KINDS), limit=st.integers(1, 3000),
       chunk=st.sampled_from([1, 7, 64, 1 << 16]),
       mutations=st.one_of(st.just([]), MUTATIONS))
@example(kind="von_mangoldt", limit=2000, chunk=64,
         mutations=[("poke", 1999, NAN)])                     # the last chunk
@example(kind="von_mangoldt", limit=2000, chunk=7,
         mutations=[("poke", 5, NAN)])                        # a middle chunk
@example(kind="von_mangoldt", limit=2000, chunk=64,
         mutations=[("flip", 8 * 8 * 1999)])                  # last mantissa bit of Λ(1999)
@example(kind="mobius", limit=100, chunk=64,
         mutations=[("flip", 8 * 30 + 7)])                    # mu(30) = -1 reads as 127
@example(kind="mobius", limit=500, chunk=64, mutations=[("count", 1 << 40)])
@example(kind="mobius", limit=500, chunk=64, mutations=[("code", 2)])
@example(kind="liouville", limit=800, chunk=64, mutations=[("code", 2), ("count", 100)])
def test_damaged_table_dump(kind, limit, chunk, mutations):
    original = sieve(kind, limit)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "dump.bin")
        dump_table(original, path)
        with open(path, "rb") as fh:
            data = _mutate(fh.read(), 16, 8, mutations)
    with mock.patch.object(arith, "_LOAD_CHUNK", chunk):
        got = _load(load_table, data)
    assert (got is not None) == _table_dump_is_sound(data)
    if got is None:
        return
    code, count = struct.unpack("<B3xQ", data[4:16])
    assert (got.kind, got.limit) == (arith.KINDS[code], count)
    if got.kind == "von_mangoldt":
        want = sieve("von_mangoldt", count)
        for field in ("values", "pp_prime", "pp_exp"):
            assert np.array_equal(getattr(got, field), getattr(want, field))
    else:
        assert got.values.dtype == np.int8
        assert got.values.tobytes() == data[16:]


def test_nan_in_the_last_chunk_is_corrupt(tmp_path):
    limit = 2 * arith._LOAD_CHUNK + 3
    path = tmp_path / "vm.bin"
    dump_table(sieve("von_mangoldt", limit), str(path))
    data = bytearray(path.read_bytes())
    data[-8:] = NAN
    path.write_bytes(bytes(data))
    with pytest.raises(ArgumentError, match="corrupt von_mangoldt dump"):
        load_table(str(path))


@pytest.mark.parametrize("kind", ["mobius", "von_mangoldt"])
@pytest.mark.parametrize("lie", [+8, -8])
def test_file_that_changes_under_the_loader(tmp_path, kind, lie):
    """If the file's byte count, taken first, no longer matches what the
    reads find, the loader still refuses: a short read or a byte past
    the payload is an ArgumentError, not a short table."""
    path = tmp_path / "t.bin"
    dump_table(sieve(kind, 1000), str(path))
    data = path.read_bytes()
    path.write_bytes(data[:-8] if lie > 0 else data + bytes(8))
    real_fstat = os.fstat

    def lying_fstat(fd):
        real = real_fstat(fd)
        return os.stat_result((*real[:6], real.st_size + lie, *real[7:]))

    with mock.patch.object(arith.os, "fstat", lying_fstat):
        with pytest.raises(ArgumentError, match="payload bytes"):
            load_table(str(path))


@pytest.mark.parametrize("kind, at, value", [
    ("mobius", 30, 127),              # bit 7 of mu(30) = -1 flipped
    ("liouville", 0, 1),              # entry 0
    ("square_indicator", 17, -1),     # below the indicator's range
    ("square_indicator", 2 * 64 + 5, 2),  # in a later chunk
])
def test_int8_dump_out_of_range_is_corrupt(tmp_path, kind, at, value):
    path = tmp_path / "t.bin"
    dump_table(sieve(kind, 300), str(path))
    data = bytearray(path.read_bytes())
    data[16 + at] = value & 0xFF
    path.write_bytes(bytes(data))
    with mock.patch.object(arith, "_LOAD_CHUNK", 64):
        with pytest.raises(ArgumentError, match=f"corrupt {kind} dump"):
            load_table(str(path))
