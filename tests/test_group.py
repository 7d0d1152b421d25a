import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mspec import (
    CharacterIndex,
    GroupShape,
    MlpModel,
    SubgroupSpec,
    alignment_semidirect,
    alignment_subgroup,
    char_eval,
    char_stats,
    char_values,
    count_primes_digit_condition,
    group_spectrum,
    make_group_shape,
    make_linear_map,
    parse_shape,
    rotate_first_layer,
    sieve,
)
from mspec.alignment import _orbit_keys
from mspec.errors import ArgumentError
from mspec.group import CrtReader, roots_of_unity
from mspec.learning import embed_inputs
from mspec.spectral import block_pairwise_sum

SHAPES = [
    GroupShape([2], [3]),
    GroupShape([3], [2]),
    GroupShape([2, 3], [2, 1]),
    GroupShape([2, 3, 5], [1, 1, 1]),
    GroupShape([5], [3]),
]


def test_make_group_shape_examples():
    s = make_group_shape([2, 3], [2, 1])
    assert s.X == 12 and s.d == 3
    s = make_group_shape([3], [5])
    assert s.X == 243 and s.d == 5
    with pytest.raises(ArgumentError, match="duplicate"):
        make_group_shape([2, 2], [1, 1])
    with pytest.raises(ArgumentError):
        make_group_shape([2, 4], [1, 1])  # composite
    with pytest.raises(ArgumentError):
        make_group_shape([3, 2], [1, 1])  # not ascending
    with pytest.raises(ArgumentError):
        make_group_shape([2], [0])
    with pytest.raises(ArgumentError, match="overflow"):
        make_group_shape([2], [80])


def test_encode_examples():
    s = make_group_shape([2, 3], [2, 1])
    assert s.encode(7) == ((1, 1), (1,))
    assert s.encode(0) == ((0, 0), (0,))
    assert make_group_shape([3], [2]).encode(5) == ((2, 1),)
    with pytest.raises(ArgumentError):
        s.encode(12)


def test_decode_examples():
    s = make_group_shape([2, 3], [2, 1])
    assert s.decode(((1, 1), (1,))) == 7
    assert s.decode(((0, 0), (0,))) == 0
    assert make_group_shape([3], [2]).decode(((2, 1),)) == 5
    with pytest.raises(ArgumentError):
        s.decode(((2, 0), (0,)))


def test_roundtrip_all_shapes():
    for s in SHAPES:
        for x in range(s.X):
            assert s.decode(s.encode(x)) == x


@given(st.integers(min_value=0, max_value=4 * 81 * 25 - 1))
def test_roundtrip_large_shape(x):
    s = make_group_shape([2, 3, 5], [2, 4, 2])
    assert s.decode(s.encode(x)) == x


def test_char_eval_examples():
    s = make_group_shape([3], [2])
    a = CharacterIndex.from_digits([1, 2], s)
    v = char_eval(a, 5, s)
    assert abs(v - complex(-0.5, np.sqrt(3) / 2)) < 1e-12
    s2 = make_group_shape([2], [3])
    a2 = CharacterIndex.from_digits([1, 1, 1], s2)
    assert abs(char_eval(a2, 6, s2) - 1.0) < 1e-12
    zero = CharacterIndex.from_digits([0, 0, 0], s2)
    for x in range(8):
        assert char_eval(zero, x, s2) == 1.0


def test_char_modulus_one():
    for s in SHAPES:
        for aflat in range(0, s.X, max(1, s.X // 7)):
            a = CharacterIndex.from_flat(aflat, s)
            for x in range(0, s.X, max(1, s.X // 5)):
                assert abs(abs(char_eval(a, x, s)) - 1.0) < 1e-12


@settings(max_examples=100)
@given(st.data())
def test_orthogonality_random_pairs(data):
    s = data.draw(st.sampled_from(SHAPES))
    af = data.draw(st.integers(0, s.X - 1))
    bf = data.draw(st.integers(0, s.X - 1))
    ca = char_values(CharacterIndex.from_flat(af, s), s)
    cb = char_values(CharacterIndex.from_flat(bf, s), s)
    inner = np.mean(ca * np.conj(cb))
    expected = 1.0 if af == bf else 0.0
    assert abs(inner - expected) < 1e-12


@settings(max_examples=60)
@given(st.data())
def test_multiplicativity(data):
    s = data.draw(st.sampled_from(SHAPES))
    af = data.draw(st.integers(0, s.X - 1))
    x = data.draw(st.integers(0, s.X - 1))
    y = data.draw(st.integers(0, s.X - 1))
    a = CharacterIndex.from_flat(af, s)
    lhs = char_eval(a, s.add(x, y), s)
    rhs = char_eval(a, x, s) * char_eval(a, y, s)
    assert abs(lhs - rhs) < 1e-12


def test_char_stats_examples():
    s = make_group_shape([3], [4])
    a = CharacterIndex.from_digits([0, 1, 2, 1], s)
    w, t, c = char_stats(a, s)
    assert w == 3 and t == ((1, 2, 1),) and c == 12
    zero = CharacterIndex.from_digits([0, 0, 0, 0], s)
    assert char_stats(zero, s) == (0, ((4, 0, 0),), 1)
    s2 = make_group_shape([2], [2])
    a2 = CharacterIndex.from_digits([1, 1], s2)
    assert char_stats(a2, s2) == (2, ((0, 2),), 1)


def test_class_sizes_partition_dual():
    # summed over all characters of a block, each orbit counted once per
    # member: total class-size weighted count equals p^d
    for p, d in [(2, 5), (3, 4), (5, 3)]:
        s = make_group_shape([p], [d])
        seen = {}
        for aflat in range(s.X):
            a = CharacterIndex.from_flat(aflat, s)
            _, t, c = char_stats(a, s)
            seen.setdefault(t, [0, c])
            seen[t][0] += 1
        assert sum(c for _, c in seen.values()) == p**d
        for count, c in seen.values():
            assert count == c  # orbit size matches the multinomial


def test_flat_index_roundtrip():
    for s in SHAPES:
        for aflat in range(s.X):
            a = CharacterIndex.from_flat(aflat, s)
            assert a.flat == aflat
            assert CharacterIndex.from_digits(list(a.digits), s).digits == a.digits


def test_char_digits_matrix_matches_from_flat():
    for s in SHAPES:
        mat = s.char_digits_matrix()
        for aflat in range(s.X):
            assert tuple(int(t) for t in mat[aflat]) == \
                CharacterIndex.from_flat(aflat, s).digits


def test_parse_shape():
    s = parse_shape("2^2*3^1")
    assert s.primes == (2, 3) and s.exponents == (2, 1)
    s = parse_shape("2^2*3^2*5")
    assert s.primes == (2, 3, 5) and s.exponents == (2, 2, 1)
    with pytest.raises(ArgumentError):
        parse_shape("2^2**3")
    with pytest.raises((ArgumentError, ValueError)):
        parse_shape("six")


def test_translation_matches_add():
    for s in SHAPES:
        for g in [0, 1, s.X - 1, s.X // 2]:
            tr = s.translation(g)
            for x in range(0, s.X, max(1, s.X // 11)):
                assert tr[x] == s.add(g, x)


MIXED = SHAPES + [GroupShape([2, 3, 5, 7], [3, 2, 2, 1]), GroupShape([3], [9])]


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_flat_index_of_matches_digit_matrix(data):
    s = data.draw(st.sampled_from(MIXED))
    xs = np.array(data.draw(st.lists(st.integers(0, s.X - 1), min_size=1, max_size=64)),
                  dtype=np.int64)
    expected = s.digits_matrix(xs).astype(np.int64) @ s.digit_strides
    assert np.array_equal(s.flat_index_of(xs), expected)


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_translation_matches_digit_matrix(data):
    s = data.draw(st.sampled_from(MIXED))
    g = data.draw(st.integers(0, s.X - 1))
    digits = (s.digits_matrix().astype(np.int64)
              + s.digits_matrix(np.array([g]))[0]) % s.digit_primes
    expected = (digits @ s._decode_weights()) % s.X
    assert np.array_equal(s.translation(g), expected)


def test_digit_matrices_hold_large_primes():
    s = GroupShape([2, 131, 4099], [1, 1, 1])
    xs = np.array([0, 1, 130, 4098, 131 * 4099 - 1, s.X - 1])
    expected = [[t for block in s.encode(int(x)) for t in block] for x in xs]
    assert np.array_equal(s.digits_matrix(xs), expected)
    positional = [[x % 2, x // 2 % 131, x // 262] for x in xs]
    assert np.array_equal(s.char_digits_matrix(xs), positional)


# -- the digit codec against the per-block CRT loop -------------------------
#
# _crt_digits is the loop digits_matrix ran before every digit came from
# flat_index_of and GroupShape.digit: x mod b_i, then its base-p_i digits
# one at a time.  It shares no code with the codec, so the checks below
# compare every digit consumer with an independent reference, bit for bit.

REFERENCE_SHAPES = MIXED + [GroupShape([2, 131, 4099], [1, 1, 1])]


def _crt_digits(s, xs=None):
    xs = np.arange(s.X, dtype=np.int64) if xs is None else np.asarray(xs, dtype=np.int64)
    out = np.empty((xs.shape[0], s.d), dtype=np.int64)
    col = 0
    for p, e, b in zip(s.primes, s.exponents, s.block_sizes):
        xi = xs % b
        for _ in range(e):
            out[:, col] = xi % p
            xi //= p
            col += 1
    return out


def _crt_decode(s, digits):
    """Integers with the given (n, d) digit rows, by the CRT."""
    x = np.zeros(digits.shape[0], dtype=np.int64)
    for i, (p, b) in enumerate(zip(s.primes, s.block_sizes)):
        xi = np.zeros_like(x)
        for k, col in enumerate(range(s.block_slices[i].start, s.block_slices[i].stop)):
            xi += digits[:, col] * p**k
        x = (x + xi * ((s.X // b) * s.crt_inverses[i] % s.X)) % s.X
    return x


def _sample(s, n=256, seed=0):
    rng = np.random.default_rng(seed)
    return np.concatenate([[0, s.X - 1], rng.integers(0, s.X, size=n)]).astype(np.int64)


@pytest.mark.parametrize("s", REFERENCE_SHAPES, ids=repr)
def test_digit_matrices_match_crt_reference(s):
    xs = _sample(s)
    ref = _crt_digits(s, xs)
    got = s.digits_matrix(xs)
    assert got.dtype == s.digit_dtype and np.array_equal(got, ref)
    assert np.array_equal(s.digits_matrix(), _crt_digits(s))
    assert np.array_equal(s.flat_index_of(xs), ref @ s.digit_strides)
    got = s.char_digits_matrix(ref @ s.digit_strides)
    assert got.dtype == s.digit_dtype and np.array_equal(got, ref)
    for j in range(s.d):
        assert np.array_equal(s.digit(j, s.flat_index_of(xs)), ref[:, j])


@pytest.mark.parametrize("s", REFERENCE_SHAPES, ids=repr)
def test_translation_matches_crt_reference(s):
    xs = _sample(s)
    everything = _crt_digits(s)
    for g in [0, 1, s.X - 1, int(_sample(s, 1, seed=1)[-1])]:
        gd = _crt_digits(s, [g])[0]
        assert np.array_equal(s.translation(g),
                              _crt_decode(s, (everything + gd) % s.digit_primes))
        assert np.array_equal(s.translation(g, xs),
                              _crt_decode(s, (everything[xs] + gd) % s.digit_primes))


def _reference_char_values(a, s, digits):
    values = None
    for i, p in enumerate(s.primes):
        ai = np.array(a.block(i), dtype=np.int64)
        if not ai.any():
            continue
        block_vals = roots_of_unity(p)[digits[:, s.block_slices[i]] @ ai % p]
        values = block_vals if values is None else values * block_vals
    return np.ones(digits.shape[0], dtype=np.complex128) if values is None else values


@pytest.mark.parametrize("s", REFERENCE_SHAPES, ids=repr)
def test_char_values_match_crt_reference(s):
    xs = _sample(s)
    everything = _crt_digits(s)
    for flat in [0, 1, s.X - 1] + list(_sample(s, 5, seed=2)[2:]):
        a = CharacterIndex.from_flat(int(flat), s)
        assert np.array_equal(char_values(a, s), _reference_char_values(a, s, everything))
        assert np.array_equal(char_values(a, s, xs),
                              _reference_char_values(a, s, everything[xs]))


@pytest.mark.parametrize("s", REFERENCE_SHAPES, ids=repr)
def test_embed_inputs_match_crt_reference(s):
    xs = _sample(s)
    digits = _crt_digits(s, xs).astype(np.float64)
    angles = 2.0 * np.pi * digits / s.digit_primes[None, :]
    expected = np.empty((xs.shape[0], 2 * s.d))
    expected[:, 0::2] = np.cos(angles)
    expected[:, 1::2] = np.sin(angles)
    assert np.array_equal(embed_inputs(s, xs), expected)


@pytest.mark.parametrize("s", MIXED + [parse_shape(t) for t in
                                        ("5^6", "2^4*3^4", "10007", "131^2", "1009^2")], ids=repr)
def test_orbit_keys_number_the_type_tuples(s):
    """Two characters share a key exactly when their type tuples agree, and
    the count of each key is char_stats' class size: over every character
    while their type tuples hold at most 2^20 counts, else sampled, each with
    its digits reversed in every block, a member of the same orbit."""
    keys = _orbit_keys(s)
    sizes = np.bincount(keys)
    assert keys.shape == (s.X,) and keys.dtype == np.int64
    key_of_type = {}
    for flat in range(s.X) if s.X * sum(s.primes) <= 1 << 20 else _sample(s, 200, seed=7):
        a = CharacterIndex.from_flat(int(flat), s)
        key = int(keys[flat])
        assert key_of_type.setdefault(a.type_tuple, key) == key
        assert sizes[key] == char_stats(a, s)[2]
        reverse = CharacterIndex.from_digits([a.block(i)[::-1] for i in range(s.r)], s)
        assert keys[reverse.flat] == key
    assert len(set(key_of_type.values())) == len(key_of_type)


@pytest.mark.parametrize("s", REFERENCE_SHAPES, ids=repr)
def test_syndromes_match_per_block_sums(s):
    # five generators: packed one digit per generator, the keys of most
    # shapes here would pass 2^63
    gens = [int(g) for g in _sample(s, 4, seed=3)[1:]]
    sub = SubgroupSpec(gens, s)
    keys = sub.syndromes()
    # the keys number the cosets of the annihilator, all of one size
    assert keys.dtype == np.int64
    assert keys.min() >= 0 and keys.max() < sub.subgroup_order
    assert np.all(np.bincount(keys, minlength=sub.subgroup_order)
                  == sub.annihilator_order)
    # two characters share a key exactly when every per-block sum
    # against every generator agrees
    gen_digits = [[t for block in s.encode(g) for t in block] for g in gens]
    key_of_sums = {}
    for flat in _sample(s, 200, seed=4):
        a = CharacterIndex.from_flat(int(flat), s)
        sums = tuple(sum(t * u for t, u in zip(a.digits[sl], gd[sl])) % p
                     for sl, p in zip(s.block_slices, s.primes) for gd in gen_digits)
        assert key_of_sums.setdefault(sums, keys[flat]) == keys[flat]
    assert len(set(key_of_sums.values())) == len(key_of_sums)


@pytest.mark.parametrize("p,rows,b", [
    (3, [[1, 0, 2, 0, 0, 1], [0, 1, 1, 0, 0, 0]], [1, 2]),
    (2, [[1] * 10], [1]),
    (5, [[0, 1, 2, 3]], [3]),
])
def test_digit_condition_fiber_matches_crt_reference(p, rows, b):
    L = make_linear_map(p, rows)
    s = GroupShape([p], [L.d])
    in_fiber = (L.apply(_crt_digits(s)) == np.array(b)[None, :]).all(axis=1)
    table = sieve("von_mangoldt", s.X)
    is_p = np.array([n >= 2 and all(n % q for q in range(2, int(n**0.5) + 1))
                     for n in range(s.X)])
    out = count_primes_digit_condition(L, b, s)
    assert out["count"] == int(np.count_nonzero(is_p & in_fiber))
    assert out["lambda_sum"] == block_pairwise_sum(table.values * in_fiber).real


def test_no_digit_matrix_on_consumer_paths(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an (X, d) digit matrix was built")

    monkeypatch.setattr(GroupShape, "digits_matrix", refuse)
    monkeypatch.setattr(GroupShape, "char_digits_matrix", refuse)
    s = GroupShape([2, 3, 5], [2, 1, 1])
    h = sieve("mobius", s.X).values.astype(np.float64)
    spec = group_spectrum(h, s)
    char_values(CharacterIndex.from_flat(37, s), s)
    s.translation(41)
    embed_inputs(s)
    rotate_first_layer(MlpModel(s, [4]), 41, s)
    alignment_semidirect(spec, s)
    alignment_subgroup(spec, s, SubgroupSpec([7, 30, 45], s))
    count_primes_digit_condition(make_linear_map(3, [[1, 0, 2, 1]]), [1],
                                 GroupShape([3], [4]))


# -- the block-table rule against per-digit sums ------------------------------
#
# A digit function is a table over each block's b_i local values, read at
# x mod b_i (integers: a HalvesReader joined by a CrtReader) or at the
# block's digits of a flat layout index (layout_sum).  The references below
# sum terms[..., k, digit k] digit by digit, with digits from _crt_digits
# (integers) or from repeated division (flat indices).


def _per_digit_sum(terms, digits):
    """sum_k terms[..., k, digits[:, k]] for an (n, d_i) digit matrix."""
    out = np.zeros(terms.shape[:-2] + (digits.shape[0],), dtype=terms.dtype)
    for k in range(digits.shape[1]):
        out += terms[..., k, digits[:, k]]
    return out


@pytest.mark.parametrize("lead", [(), (0,), (1,), (3,)], ids=str)
@pytest.mark.parametrize("s", REFERENCE_SHAPES, ids=repr)
def test_block_tables_match_per_digit_sums(s, lead):
    rng = np.random.default_rng(len(lead))
    xs = _sample(s)
    integer_digits = _crt_digits(s)
    flat = np.arange(s.X, dtype=np.int64)
    layout_digits = flat[:, None] // s.digit_strides % s.digit_primes
    for i, (p, e, b) in enumerate(zip(s.primes, s.exponents, s.block_sizes)):
        cols = s.block_slices[i]
        terms = rng.integers(-50, 50, size=lead + (e, p))
        local = np.arange(b)[:, None] // p ** np.arange(e) % p
        table = s.block_table(i, terms)
        assert table.shape == lead + (b,)
        assert np.array_equal(table, _per_digit_sum(terms, local))
        by_integer = _per_digit_sum(terms, integer_digits[:, cols]).reshape(-1, s.X)
        by_layout = _per_digit_sum(terms, layout_digits[:, cols]).reshape(-1, s.X)
        assert s.block_strides[i] == s.digit_strides[cols.start]
        # the readers take one table at a time: each row of the leading axes
        for row, want, want_layout in zip(table.reshape(-1, b), by_integer, by_layout):
            reader = CrtReader(s.X, [(b, row)], np.add, row.dtype)
            read = reader.at()
            assert read.flags.writeable and not np.shares_memory(read, row)
            assert np.array_equal(read, want)
            assert np.array_equal(reader.at(xs), want[xs])
            lo = s.X // 3
            assert np.array_equal(reader.run(lo, s.X - lo), want[lo:])
            if s.X >= 2 * b:  # a run shorter than the block that wraps once
                assert np.array_equal(reader.run(b - 1, b - 1), want[b - 1 : 2 * b - 2])
            tables = [np.zeros(c, row.dtype) for c in s.block_sizes]
            tables[i] = row
            assert np.array_equal(s.layout_sum(tables), want_layout)
